import os

import pytest
from hypothesis import HealthCheck, settings

from trackbench.geometry import Region
from trackbench.io_formats import SequenceAnnotation, SequenceData, write_sequence

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

STUB = os.path.join(os.path.dirname(__file__), "stub_tracker.py")

# Characters outside ASCII that a number text must not hold: a control, a
# no-break space, a letter, Arabic-Indic and fullwidth digits, a line
# separator, a mathematical digit and a byte order mark.
NON_ASCII = ["\x80", "\xa0", "é", "١", "１", "\u2028", "\U0001d7d9", "\ufeff"]


def make_annotation(regions, name="seq"):
    return SequenceAnnotation(name=name, regions=tuple(Region(*r) for r in regions))


def make_sequence(regions, name="seq", image_size=(320.0, 240.0), root=None):
    return SequenceData.synthetic(
        make_annotation(regions, name), image_size=image_size, root=root
    )


def static_sequence(n, box=(40.0, 30.0, 24.0, 18.0), name="static"):
    return make_sequence([box] * n, name=name)


def moving_sequence(n, step=6.0, box=(10.0, 40.0, 20.0, 16.0), name="moving"):
    x, y, w, h = box
    return make_sequence([(x + step * i, y, w, h) for i in range(n)], name=name)


@pytest.fixture
def tmp_dataset(tmp_path):
    """Small on-disk dataset: one static, one moving, one growing sequence."""
    seqs = {
        "alpha": static_sequence(20, name="alpha"),
        "bravo": moving_sequence(24, name="bravo"),
        "charlie": make_sequence(
            [(100.0, 80.0, 20.0 + i, 16.0 + i) for i in range(22)], name="charlie"
        ),
    }
    root = tmp_path / "data"
    for name, seq in seqs.items():
        write_sequence(str(root / name), seq.annotation, seq.image_size)
    return str(root)
