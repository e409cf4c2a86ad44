"""The benchmark's trace hooks still find every name they patch.

bench/spans.py replaces attributes of trackbench's modules by name, so
renaming one of them breaks a traced benchmark run; this test breaks
first. Installing the hooks and undoing them must leave every module as
it was.
"""

import importlib.util
import os

from trackbench import analysis, cli, io_formats, measures, plots, runner, theoretical

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")
OWNERS = (analysis, cli, io_formats, measures, plots, runner, theoretical, runner.TrackerHandle)


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    return [dict(vars(owner)) for owner in OWNERS]


def changed(before, after):
    return sorted((OWNERS[i].__name__, name) for i, (b, a) in enumerate(zip(before, after))
                  for name in b.keys() | a.keys() if b.get(name) is not a.get(name))


def test_install_then_undo_restores_every_hooked_attribute():
    spans = load_spans()
    before = attributes()
    undo = spans.install(spans.Recorder())
    try:
        hooked = changed(before, attributes())
    finally:
        undo()
    assert ("trackbench.cli", "execute_plan") in hooked
    assert ("trackbench.analysis", "pearson_matrix") in hooked
    assert changed(before, attributes()) == []
