"""The benchmark still finds every name it uses.

bench/spans.py replaces attributes of trackbench's modules by name, and
bench/workloads.py builds its datasets through names of its own, so
renaming or reshaping one of them breaks a benchmark run; these tests
break first. Installing the hooks and undoing them must leave every
module as it was.
"""

import dataclasses
import importlib.util
import os

import pytest

from trackbench import analysis, cli, io_formats, measures, plots, runner, synthdata, theoretical

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


def test_the_workloads_can_trim_write_and_load_a_synthetic_dataset(tmp_path):
    # bench/workloads.py make_data: dataclasses.replace on an annotation,
    # then io_formats' SequenceData, read_sequence and list_sequences.
    seq = synthdata.make_dataset(n_sequences=1, seed=1)[0]
    short = dataclasses.replace(seq.annotation, regions=seq.annotation.regions[:5])
    assert len(short) == 5 and short.name == seq.annotation.name
    trimmed = io_formats.SequenceData.synthetic(short, image_size=seq.image_size)
    synthdata.write_dataset(str(tmp_path), [trimmed])
    loaded = [io_formats.read_sequence(d) for d in io_formats.list_sequences(str(tmp_path))]
    assert [(s.annotation, s.image_size) for s in loaded] == [(short, seq.image_size)]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_traced_run_counts_every_session_score_and_file(tmp_dataset, tmp_path, workers):
    # The exact counts a traced benchmark run checks: each row is one
    # unsupervised and one supervised session and one compute_all call,
    # and every file but manifest.txt goes through a hooked writer.
    spans = load_spans()
    rec = spans.Recorder()
    out = str(tmp_path / "out")
    undo = spans.install(rec)
    try:
        assert cli.main(["run", "--dataset", tmp_dataset, "--out", out, "--tracker", "tts",
                         "--tracker", "scripted:name=noisy,center_noise=2,seed=3",
                         "--repetitions", "3", "--seed", "1", "--workers", workers]) == 0
    finally:
        undo()
    rows = len(io_formats.read_measure_table(os.path.join(out, "measures.tsv")).rows)
    on_disk = sum(len(files) for _, _, files in os.walk(out)) - 1  # manifest.txt
    assert rows == 3 + 3 * 3
    assert rec.counts["runner.sessions"] == 2 * rows
    assert rec.counts["io_formats.files_written"] == on_disk == 2 * rows + 1
    assert rec.counts["measures.compute_all_calls"] == rows


@pytest.mark.parametrize("command, probes", [
    (["label"], 3),  # size, motion and size_change: tta, tts and tto
    (["plot", "--type", "ar"], 4),  # one point per reference tracker
])
def test_traced_reference_probes_record_runner_and_theoretical_spans(tmp_path, command, probes):
    # A traced score_report requires a span in every layer it crosses. The
    # reference probes are its only runner sessions, so they must go through
    # the hooked runner.run_supervised and TrackerHandle.open.
    data, out = str(tmp_path / "data"), tmp_path / "out"
    assert cli.main(["synth", "--out", data, "--sequences", "8"]) == 0
    assert cli.main(["run", "--dataset", data, "--out", str(out), "--tracker", "tts",
                     "--repetitions", "1"]) == 0
    argv = command + ["--dataset", data, "--out", str(tmp_path / "report")]
    if command[0] == "plot":
        argv[-1] += ".svg"
        argv += ["--measures", str(out / "measures.tsv")]
    spans = load_spans()
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        assert cli.main(argv) == 0
    finally:
        undo()
    assert {"runner", "theoretical"} <= rec.layers()
    assert rec.counts["runner.sessions"] == probes * 8
