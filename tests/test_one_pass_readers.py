"""The one-pass region readers against the per-line loops they replace.

read_sequence, read_trajectory and loads_record parse a whole file
in one pass and fall back to a per-line loop over parse_region only to
report an error. The reference functions below are those per-line loops
as they were before the one-pass route existed. For every drawn file the
readers must return the same regions (compared by float.hex) or raise
the same exception type with the same message, path and line.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackbench import dataset, io_formats
from trackbench.dataset import _read_lines, format_region, parse_number, parse_region
from trackbench.errors import FormatVersionError, ParseError, TrackbenchError
from trackbench.geometry import Region
from trackbench.io_formats import FORMAT_LINE, loads_record, read_sequence, read_trajectory
from trackbench.trajectory import (
    Init,
    SupervisedRunRecord,
)


def reference_ground_truth(gt_path):
    regions = []
    for i, line in enumerate(_read_lines(gt_path), start=1):
        if line.strip() == "":
            raise ParseError("blank line in ground truth", gt_path, i)
        regions.append(parse_region(line, gt_path, i))
    if not regions:
        raise ParseError("ground truth has no frames", gt_path)
    return regions


def reference_read_trajectory(path) -> tuple[Region, ...]:
    regions = []
    for i, line in enumerate(_read_lines(path), start=1):
        if line.strip() == "":
            raise ParseError("blank line in trajectory", str(path), i)
        regions.append(parse_region(line, str(path), i))
    if not regions:
        raise ParseError("trajectory has no frames", str(path))
    return tuple(regions)


def reference_loads_record(text: str, path=None) -> SupervisedRunRecord:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith("# format:"):
        raise FormatVersionError("missing format header", path, 1)
    if lines[0] != FORMAT_LINE:
        raise FormatVersionError(f"unsupported format: {lines[0]!r}", path, 1)
    if len(lines) < 2 or not lines[1].startswith("tau:"):
        raise ParseError("missing tau line", path, 2)
    tau = parse_number(lines[1][len("tau:"):], path, 2)
    frames: list = []
    for i, line in enumerate(lines[2:], start=3):
        if line.startswith("T:"):
            frames.append(parse_region(line[2:], path, i))
        elif line == "F:":
            frames.append(None)
        elif line.startswith("I:"):
            frames.append(Init(parse_region(line[2:], path, i)))
        else:
            raise ParseError(f"malformed frame tag: {line!r}", path, i)
    if not frames:
        raise ParseError("record has no frames", path)
    return SupervisedRunRecord(frames, tau=tau)


def bits(region: Region) -> tuple[str, ...]:
    return tuple(v.hex() for v in (region.x, region.y, region.width, region.height))


def frame_bits(frame) -> tuple:
    region = getattr(frame, "region", None)
    return type(frame).__name__, None if region is None else bits(region)


def outcome(read, *args, fingerprint):
    """("ok", fingerprint of the result) or ("error", type, message, path, line)."""
    try:
        result = read(*args)
    except TrackbenchError as e:
        return ("error", type(e), str(e), getattr(e, "path", None), getattr(e, "line", None))
    return ("ok", fingerprint(result))


def regions_bits(regions) -> list:
    return [bits(r) for r in regions]


def record_bits(rec: SupervisedRunRecord) -> tuple:
    return rec.tau.hex(), rec.failure_frames, [frame_bits(f) for f in rec.frames]


extents = st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
valid_texts = st.builds(Region, finite, finite, extents, extents).map(format_region)

# Number texts float accepts and rejects: non-finite and negative values,
# -0.0, underscores, padding, non-ASCII digits, signs, hex, empty fields.
FIELDS = ["0", "1", "-1", "2.5", "-0.0", "-0", "1e308", "1e400", "-1e400", "nan",
          "-nan", "inf", "-inf", "Infinity", "1_0", "1__0", " 3", "4 ", "\t5",
          "١٢", "１", "+7", ".5", "5.", "0x1", "", "x", "1,5"]
hostile_texts = st.one_of(
    st.sampled_from(["", " ", "\t", "  \t ", " "]),
    st.lists(st.sampled_from(FIELDS), min_size=3, max_size=5).map(",".join),
    st.lists(st.sampled_from(FIELDS), min_size=4, max_size=4).map(",".join),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
            max_size=12),
)


@st.composite
def mixed(draw, valid, hostile, max_size=8):
    """Mostly valid lines with up to two hostile ones inserted anywhere."""
    lines = draw(st.lists(valid, max_size=max_size))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(hostile))
    return lines


def file_text(lines, trailing_newline) -> str:
    return "\n".join(lines) + ("\n" if trailing_newline and lines else "")


def write(path, text) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@pytest.fixture(scope="module")
def seq_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("one_pass") / "seq")


class TestRegionFiles:
    @settings(max_examples=300)
    @given(mixed(valid_texts, hostile_texts), st.booleans())
    def test_ground_truth_matches_the_per_line_loop(self, seq_dir, lines, trailing):
        os.makedirs(seq_dir, exist_ok=True)
        gt_path = os.path.join(seq_dir, "groundtruth.txt")
        write(gt_path, file_text(lines, trailing))
        got = outcome(lambda d: read_sequence(d).annotation.regions, seq_dir,
                      fingerprint=regions_bits)
        assert got == outcome(reference_ground_truth, gt_path, fingerprint=regions_bits)

    @settings(max_examples=300)
    @given(mixed(valid_texts, hostile_texts), st.booleans())
    def test_trajectory_matches_the_per_line_loop(self, seq_dir, lines, trailing):
        os.makedirs(seq_dir, exist_ok=True)
        path = os.path.join(seq_dir, "run_00.traj")
        write(path, file_text(lines, trailing))
        assert outcome(read_trajectory, path, fingerprint=regions_bits) == outcome(
            reference_read_trajectory, path, fingerprint=regions_bits)


@st.composite
def record_bodies(draw):
    """A structurally valid body (I first, I after every F) as frame lines."""
    kinds = draw(st.lists(st.sampled_from("TTF"), max_size=10))
    body = ["I:" + draw(valid_texts)]
    for kind in kinds:
        if body[-1] == "F:":
            body.append("I:" + draw(valid_texts))
        body.append("F:" if kind == "F" else "T:" + draw(valid_texts))
    return body


hostile_frames = st.one_of(
    hostile_texts.map("T:".__add__),
    hostile_texts.map("I:".__add__),
    # Two characters that are not a region tag, then a valid region.
    st.tuples(st.sampled_from(["F:", "X:", "T;", "TT", "I ", "i:", ":T", "I\t"]),
              valid_texts).map("".join),
    valid_texts,
    st.sampled_from(["", " ", "T:", "I:", "F", "F: ", " F:", "t:1,2,3,4", "TI:1,2,3,4",
                     "T:1,2,3,4\r", "I :1,2,3,4"]),
)


@st.composite
def record_texts(draw):
    body = draw(record_bodies())
    for _ in range(draw(st.integers(0, 2))):
        body.insert(draw(st.integers(0, len(body))), draw(hostile_frames))
    header = draw(st.one_of(
        st.just([FORMAT_LINE, "tau:0"]),
        st.lists(st.sampled_from([FORMAT_LINE, "tau:0.5", "tau:-0.0", "tau:x",
                                  "# format: trackbench/2", "T:1,2,3,4"]),
                 max_size=2),
    ))
    return file_text(header + body, draw(st.booleans()))


class TestRecords:
    @settings(max_examples=400)
    @given(record_texts())
    def test_loads_record_matches_the_per_line_loop(self, text):
        assert outcome(loads_record, text, "run_00.record", fingerprint=record_bits) == outcome(
            reference_loads_record, text, "run_00.record", fingerprint=record_bits)

    def test_empty_region_payload_reports_its_line(self):
        text = f"{FORMAT_LINE}\ntau:0\nI:0,0,2,2\nF:\nI:\n"
        with pytest.raises(ParseError) as e:
            loads_record(text, "r.record")
        assert (e.value.path, e.value.line) == ("r.record", 5)
        assert "region needs 4 comma-separated values: ''" in str(e.value)


class TestOnePassRoute:
    """Valid files never reach parse_region; any bad text sends them back to it."""

    @pytest.fixture
    def no_per_line_parse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-line parse_region ran on valid input")

        # read_sequence and read_trajectory fall back to the dataset
        # module's parse_region, loads_record to io_formats' binding.
        monkeypatch.setattr(dataset, "parse_region", refuse)
        monkeypatch.setattr(io_formats, "parse_region", refuse)

    def test_valid_files_take_the_one_pass_route(self, tmp_path, no_per_line_parse):
        (tmp_path / "groundtruth.txt").write_text("0,0,2,2\n-0.0,1.5,0,1e300\n")
        assert read_sequence(str(tmp_path)).annotation.regions == (
            Region(0, 0, 2, 2), Region(-0.0, 1.5, 0, 1e300))
        (tmp_path / "t.traj").write_text("1,2,3,4\n")
        assert read_trajectory(str(tmp_path / "t.traj")) == (Region(1, 2, 3, 4),)
        rec = loads_record(f"{FORMAT_LINE}\ntau:0\nI:0,0,2,2\nT:1,1,2,2\nF:\nI:0,0,2,2\n")
        assert [type(f).__name__ for f in rec.frames] == ["Init", "Region", "NoneType", "Init"]
        assert rec.failure_frames == (3,)

    @pytest.mark.parametrize("text", [
        "", " ", "1,2,3", "1,2,3,4,5", "nan,0,1,1", "0,inf,1,1", "0,0,-1,1",
        "0,0,1,-1e-300", "a,0,1,1", "1,,2,3",
    ])
    def test_one_bad_text_makes_the_whole_pass_decline(self, text):
        good = ["1,2,3,4"] * 3
        assert dataset._parse_regions(good) == [Region(1, 2, 3, 4)] * 3
        assert dataset._parse_regions(good[:1] + [text] + good[1:]) is None
        assert dataset._parse_regions([]) is None
