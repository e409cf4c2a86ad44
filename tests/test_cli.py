import argparse
import dataclasses
import hashlib
import io
import os
import platform
import re
import shlex
import sys
import threading
import xml.etree.ElementTree as ET

import numpy as np

import pytest
from hypothesis import given
from hypothesis import strategies as st

import trackbench
from trackbench import analysis, cli, runner
from trackbench.dataset import format_region, parse_region
from trackbench.errors import ConfigError
from trackbench.io_formats import (
    SequenceAnnotation,
    dumps_measure_table,
    loads_measure_table,
    read_measure_table,
    write_measure_table,
    write_sequence,
)
from trackbench.theoretical import (
    BuiltinTracker,
    ScriptedTrackerSpec,
    StaticTracker,
    parse_scripted_params,
)
from trackbench.tracker_cli import main as tracker_main
from trackbench.tracker_cli import serve

from conftest import STUB, moving_sequence, static_sequence

SCRIPTED = "scripted:name=jig,center_noise=2.5,scale_noise=0.05,seed=5"


class TestScriptedParams:
    def test_all_keys(self):
        spec = parse_scripted_params(
            "name=wob,center_noise=2.5,scale_noise=0.1,"
            "drift_onset=12,drift_velocity=0.5:0.25,loss_prob=0.02,seed=9"
        )
        assert spec == ScriptedTrackerSpec(
            name="wob", center_noise=2.5, scale_noise=0.1, drift_onset=12,
            drift_velocity=(0.5, 0.25), loss_prob=0.02, seed=9,
        )

    def test_empty_gives_defaults(self):
        assert parse_scripted_params("") == ScriptedTrackerSpec()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_scripted_params("wobble=3")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_scripted_params("center_noise=abc")
        with pytest.raises(ConfigError):
            parse_scripted_params("drift_velocity=1")
        with pytest.raises(ConfigError):
            parse_scripted_params("just-a-word")


class TestTrackerSpecs:
    def test_theoretical(self):
        h = cli.parse_tracker_spec("tts")
        assert h.name == "tts" and h.factory is not None

    def test_scripted(self):
        h = cli.parse_tracker_spec("scripted:name=x,center_noise=2")
        assert h.name == "x"

    def test_scripted_params_file(self, tmp_path):
        p = tmp_path / "params.txt"
        p.write_text("# comment\nname=filed\ncenter_noise=1.5\n")
        h = cli.parse_tracker_spec(f"scripted:@{p}")
        assert h.name == "filed"

    def test_command(self):
        h = cli.parse_tracker_spec("cmd:mine:python3 tracker.py --gt {groundtruth}")
        assert h.name == "mine"
        assert h.command[0] == "python3"

    def test_malformed_specs_rejected(self):
        for bad in ("cmd:onlyname", "cmd::ls", "nope"):
            with pytest.raises(ConfigError):
                cli.parse_tracker_spec(bad)
        # stdio is the one wire transport.
        with pytest.raises(ConfigError, match="unrecognized tracker spec"):
            cli.parse_tracker_spec("tcp:x:host")

    @pytest.mark.parametrize("spec", [
        "scripted:name=",
        "cmd:.:ls", "scripted:name=..",
        "cmd:a/b:ls", "scripted:name=../up",
        "cmd:a\\b:ls", "cmd:a\tb:ls", "cmd:a\rb:ls", "cmd:a\nb:ls",
    ])
    def test_names_unsafe_as_path_or_cell_rejected(self, spec):
        with pytest.raises(ConfigError, match="unsafe tracker name"):
            cli.parse_tracker_spec(spec)


def test_run_rejects_a_sequence_name_that_escapes_raw(tmp_dataset, tmp_path, capsys):
    with open(os.path.join(tmp_dataset, "alpha", "sequence.meta"), "a") as fh:
        fh.write("name=../../escaped\n")
    out = tmp_path / "found" / "out" / "x"
    rc = cli.main(["run", "--dataset", tmp_dataset, "--out", str(out), "--tracker", "tts"])
    assert rc == 1
    assert "unsafe sequence name" in capsys.readouterr().err
    assert not (out / "escaped").exists()


def test_run_checks_frame_paths_before_any_unit_starts(tmp_dataset, tmp_path, capsys):
    frames = os.path.join(tmp_dataset, "bravo", "frames")
    os.makedirs(frames)
    for name in ["a b.jpg"] + ["%08d.jpg" % i for i in range(2, 25)]:
        open(os.path.join(frames, name), "w").close()
    out = tmp_path / "out"
    rc = cli.main(["run", "--dataset", tmp_dataset, "--out", str(out), "--tracker", "tts",
                   "--repetitions", "1", "--workers", "1"])
    assert rc == 2
    assert "frame path contains whitespace" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, config, value", [
    (["--workers", "0"], None, "0"),
    (["--workers=-3"], None, "-3"),
    ([], "workers=0\n", "0"),
])
def test_run_rejects_fewer_than_one_worker(tmp_dataset, tmp_path, capsys, flags, config, value):
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        flags = ["--config", str(tmp_path / "run.cfg")]
    rc = cli.main(["run", "--dataset", tmp_dataset, "--out", str(out), "--tracker", "tts",
                   "--repetitions", "1", *flags])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: workers must be at least 1, got {value}"]
    assert not out.exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth + run once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    out = str(root / "out")
    assert cli.main(["synth", "--out", data, "--sequences", "8", "--seed", "3"]) == 0
    assert cli.main(pipeline_run(data, out)) == 0
    return {"root": root, "data": data, "out": out}


def pipeline_run(data, out, *flags):
    """argv of the pipeline fixture's run."""
    trackers = [a for spec in ("tta", "tts", "ttf", "tto", SCRIPTED) for a in ("--tracker", spec)]
    return ["run", "--dataset", data, "--out", out, *trackers,
            "--repetitions", "2", "--seed", "11", *flags]


def read_manifest(path):
    """manifest.txt as (key, value) pairs after the format line, escapes undone."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    assert lines[0].startswith("# format:") and lines[-1] == ""
    escapes = {"\\": "\\", "r": "\r", "n": "\n"}
    pairs = []
    for line in lines[1:-1]:
        assert "\r" not in line
        key, value = line.split("=", 1)
        pairs.append((key, re.sub(r"\\(.)", lambda m: escapes[m.group(1)], value)))
    return pairs


def first_raw(pipeline, tracker, suffix):
    base = os.path.join(pipeline["out"], "raw", tracker)
    seq = sorted(os.listdir(base))[0]
    d = os.path.join(base, seq)
    name = sorted(f for f in os.listdir(d) if f.endswith(suffix))[0]
    return os.path.join(pipeline["data"], seq), os.path.join(d, name)


class TestRunPipeline:
    def test_artifacts_exist(self, pipeline):
        out = pipeline["out"]
        assert os.path.exists(os.path.join(out, "measures.tsv"))
        manifest = open(os.path.join(out, "manifest.txt")).read()
        assert manifest.splitlines()[0].startswith("# format:")
        for key in ("generated=", "dataset=", "trackers=", "repetitions=2", "master_seed=11"):
            assert key in manifest

    def test_manifest_records_specs_settings_and_versions(self, pipeline):
        pairs = read_manifest(os.path.join(pipeline["out"], "manifest.txt"))
        fields = dict(pairs)
        assert [v for k, v in pairs if k == "tracker"] == ["tta", "tts", "ttf", "tto", SCRIPTED]
        assert fields["trackers"] == "tta,tts,ttf,tto,jig"
        assert fields["timeout"] == "30" and fields["workers"] == "1"
        assert fields["trackbench"] == trackbench.__version__
        assert fields["python"] == platform.python_version()
        assert fields["numpy"] == np.__version__

    def test_manifest_escapes_values_onto_one_line(self, tmp_dataset, tmp_path):
        # Frame paths may not hold whitespace, so the dataset path gets only a backslash.
        dataset = str(tmp_path / "back\\slash")
        os.rename(tmp_dataset, dataset)
        params = tmp_path / "odd\\dir\rname\nparams.txt"
        params.write_text("name=odd\n")
        specs = ["tts", f"scripted:@{params}"]
        out = str(tmp_path / "out")
        rc = cli.main(["run", "--dataset", dataset, "--out", out, "--repetitions", "1",
                       "--timeout", "2.5", "--workers", "2",
                       *(arg for spec in specs for arg in ("--tracker", spec))])
        assert rc == 0
        pairs = read_manifest(os.path.join(out, "manifest.txt"))
        assert [v for k, v in pairs if k == "tracker"] == specs
        fields = dict(pairs)
        assert fields["dataset"] == dataset
        assert fields["timeout"] == "2.5" and fields["workers"] == "2"

    def test_table_shape(self, pipeline):
        table = read_measure_table(os.path.join(pipeline["out"], "measures.tsv"))
        trackers = {r.tracker for r in table.rows}
        assert trackers == {"tta", "tts", "ttf", "tto", "jig"}
        # theoretical trackers collapse to one run; the scripted one repeats
        assert max(r.run for r in table.rows if r.tracker == "tts") == 0
        assert max(r.run for r in table.rows if r.tracker == "jig") == 1
        assert all(r.error is None for r in table.rows)

    def test_rerun_with_same_seed_is_byte_identical(self, pipeline, tmp_path):
        out2 = str(tmp_path / "out2")
        rc = cli.main([
            "run", "--dataset", pipeline["data"], "--out", out2,
            "--tracker", "tts", "--tracker", SCRIPTED,
            "--repetitions", "2", "--seed", "11",
        ])
        assert rc == 0
        a = open(os.path.join(out2, "measures.tsv"), "rb").read()
        out3 = str(tmp_path / "out3")
        rc = cli.main([
            "run", "--dataset", pipeline["data"], "--out", out3,
            "--tracker", "tts", "--tracker", SCRIPTED,
            "--repetitions", "2", "--seed", "11",
        ])
        assert rc == 0
        b = open(os.path.join(out3, "measures.tsv"), "rb").read()
        assert a == b

    def test_a_reused_out_keeps_only_the_new_runs(self, tmp_dataset, tmp_path):
        out = str(tmp_path / "out")
        run = ["run", "--dataset", tmp_dataset, "--out", out, "--tracker", SCRIPTED,
               "--seed", "2"]
        assert cli.main([*run, "--tracker", "tts", "--repetitions", "3"]) == 0
        notes = os.path.join(out, "raw", "jig", "alpha", "notes.txt")
        open(notes, "w").close()
        assert cli.main([*run, "--repetitions", "1"]) == 0
        runs = ["run_00.record", "run_00.traj"]
        for seq in ("alpha", "bravo", "charlie"):
            left = sorted(os.listdir(os.path.join(out, "raw", "jig", seq)))
            assert left == (["notes.txt", *runs] if seq == "alpha" else runs), seq
        # A tracker the second run left out keeps its directory.
        assert sorted(os.listdir(os.path.join(out, "raw", "tts", "alpha"))) == runs

    def test_out_naming_a_file_is_a_usage_error_before_any_tracker_starts(
            self, tmp_dataset, tmp_path, capsys, monkeypatch):
        opened = []
        monkeypatch.setattr(runner.TrackerHandle, "open", lambda handle, seq: opened.append(seq))
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        for out in (afile, afile / "sub"):
            rc = cli.main(["run", "--dataset", tmp_dataset, "--out", str(out),
                           "--tracker", "tts"])
            assert rc == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].endswith("is not a directory"), err
        assert opened == []
        assert afile.read_text() == "kept\n"

    def test_config_file_with_flag_precedence(self, pipeline, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfgout = tmp_path / "cfgout"
        flagout = tmp_path / "flagout"
        cfg.write_text(
            f"dataset={pipeline['data']}\n"
            f"out={cfgout}\n"
            "tracker=tts\n"
            "repetitions=1\n"
            "mode=supervised\n"
        )
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert os.path.exists(cfgout / "measures.tsv")
        assert cli.main(["run", "--config", str(cfg), "--out", str(flagout)]) == 0
        assert os.path.exists(flagout / "measures.tsv")

    def test_every_config_key_matches_its_flag_and_every_flag_wins(self, tmp_dataset, tmp_path):
        settings = {"mode": "supervised", "repetitions": "2", "tau": "0.25", "seed": "5",
                    "workers": "2", "timeout": "7.5"}
        flags = [f"--{key}={value}" for key, value in settings.items()]
        (tmp_path / "run.cfg").write_text(
            f"dataset={tmp_dataset}\nout={tmp_path / 'config'}\ntracker={SCRIPTED}\n"
            + "".join(f"{key}={value}\n" for key, value in settings.items()))
        # Each line differs from its flag, so the run below shows which one won.
        (tmp_path / "other.cfg").write_text(
            f"dataset={tmp_path / 'nowhere'}\nout={tmp_path / 'lost'}\ntracker=tts\n"
            "mode=unsupervised\nrepetitions=1\ntau=0.5\nseed=9\nworkers=1\ntimeout=2\n")
        argv = ["--dataset", tmp_dataset, "--tracker", SCRIPTED, *flags]
        runs = {
            "flags": [*argv, "--out", str(tmp_path / "flags")],
            "config": ["--config", str(tmp_path / "run.cfg")],
            "both": ["--config", str(tmp_path / "other.cfg"), *argv,
                     "--out", str(tmp_path / "both")],
        }
        trees, manifests = [], []
        for name, args in runs.items():
            assert cli.main(["run", *args]) == 0, name
            out = tmp_path / name
            pairs = read_manifest(out / "manifest.txt")
            manifests.append([(key, value) for key, value in pairs if key != "generated"])
            (out / "manifest.txt").unlink()
            trees.append({os.path.relpath(path, out): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.is_file()})
        assert not (tmp_path / "lost").exists()
        assert trees[0] == trees[1] == trees[2]
        assert manifests[0] == manifests[1] == manifests[2]
        fields = dict(manifests[0])
        keys = ("mode", "repetitions", "tau", "master_seed", "workers", "timeout")
        assert [fields[k] for k in keys] == ["supervised", "2", "0.25", "5", "2", "7.5"]
        assert max(r.run for r in read_measure_table(tmp_path / "flags" / "measures.tsv").rows) == 1

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_unknown_mode_is_one_error_line(self, tmp_dataset, tmp_path, capsys, via_config):
        flags = ["--mode", "x"]
        if via_config:
            (tmp_path / "run.cfg").write_text("mode=x\n")
            flags = ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out"
        rc = cli.main(["run", "--dataset", tmp_dataset, "--out", str(out), "--tracker", "tts",
                       *flags])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: unknown mode 'x'"]
        assert not out.exists()

    @pytest.mark.parametrize("blocked", ["raw", "raw/tts/alpha"])
    def test_a_file_where_a_unit_directory_goes_is_a_usage_error_before_any_tracker_starts(
            self, tmp_dataset, tmp_path, capsys, monkeypatch, blocked):
        opened = []
        monkeypatch.setattr(runner.TrackerHandle, "open", lambda handle, seq: opened.append(seq))
        out = tmp_path / "out"
        (out / blocked).parent.mkdir(parents=True)
        (out / blocked).write_text("kept\n")
        rc = cli.main(["run", "--dataset", tmp_dataset, "--out", str(out), "--tracker", "tta",
                       "--tracker", "tts"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"{str(out / blocked)!r} is not a directory"), err
        assert opened == []
        assert (out / blocked).read_text() == "kept\n"
        assert sorted(os.listdir(out)) == ["raw"]

    @pytest.mark.parametrize("name", ["measures.tsv", "manifest.txt"])
    def test_a_directory_where_an_output_file_goes_is_a_usage_error_before_any_tracker_starts(
            self, tmp_dataset, tmp_path, capsys, monkeypatch, name):
        opened = []
        monkeypatch.setattr(runner.TrackerHandle, "open", lambda handle, seq: opened.append(seq))
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        rc = cli.main(["run", "--dataset", tmp_dataset, "--out", str(out), "--tracker", "tts"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: output file {str(out / name)!r} is a directory"]
        assert opened == []
        assert os.listdir(out) == [name]

    @pytest.mark.parametrize("line, message", [
        ("repetitions 3", "expected key=value, got 'repetitions 3'"),
        ("repetitions=x", "bad value for repetitions: 'x'"),
        ("  tau = 0.5.5", "bad value for tau: '0.5.5'"),
    ])
    def test_bad_config_line_names_file_and_line(self, tmp_dataset, tmp_path, capsys, line,
                                                 message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\ndataset={tmp_dataset}\n\n{line}\ntracker=tts\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}:4: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("what", ["config", "scripted params"])
    def test_unreadable_settings_file_is_a_usage_error(self, tmp_dataset, tmp_path, capsys,
                                                       what):
        missing = str(tmp_path / "nope")
        flags = (["--config", missing] if what == "config"
                 else ["--dataset", tmp_dataset, "--tracker", f"scripted:@{missing}"])
        assert cli.main(["run", "--out", str(tmp_path / "out"), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read {what} {missing!r}: ")

    @pytest.mark.parametrize("root", ["missing", "empty"])
    def test_dataset_without_sequences_is_a_usage_error(self, tmp_path, capsys, root):
        (tmp_path / "empty" / "not_a_sequence").mkdir(parents=True)
        data = str(tmp_path / root)
        out = tmp_path / "out"
        assert cli.main(["run", "--dataset", data, "--out", str(out), "--tracker", "tts"]) == 2
        expected = (f"dataset directory not found: {data!r}" if root == "missing"
                    else f"no sequences under {data!r} (need <seq>/groundtruth.txt)")
        assert capsys.readouterr().err.splitlines() == [f"error: {expected}"]
        assert not out.exists()

    def test_bad_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset=x\nturbo=yes\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2

    def test_missing_dataset_is_usage_error(self):
        assert cli.main(["run", "--tracker", "tts"]) == 2

    def test_missing_trackers_is_usage_error(self, pipeline):
        assert cli.main(["run", "--dataset", pipeline["data"]]) == 2

    def test_bad_tracker_spec_is_usage_error(self, pipeline):
        rc = cli.main(["run", "--dataset", pipeline["data"], "--tracker", "warp"])
        assert rc == 2

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_unbalanced_quote_in_a_command_is_one_error_line(self, tmp_dataset, tmp_path,
                                                             capsys, via_config):
        spec = "cmd:x:python3 'unterminated"
        flags = ["--tracker", spec]
        if via_config:
            (tmp_path / "run.cfg").write_text(f"tracker={spec}\n")
            flags = ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out"
        rc = cli.main(["run", "--dataset", tmp_dataset, "--out", str(out), *flags])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: tracker 'x': bad command line: No closing quotation"]
        assert not out.exists()


class TestMeasureCommand:
    def test_stdout_table(self, pipeline, capsys):
        seq, traj = first_raw(pipeline, "tto", ".traj")
        _, rec = first_raw(pipeline, "tto", ".record")
        rc = cli.main([
            "measure", "--sequence", seq, "--trajectory", traj,
            "--record", rec, "--name", "probe",
        ])
        assert rc == 0
        table = loads_measure_table(capsys.readouterr().out)
        assert table.rows[0].tracker == "probe"
        assert len(table.rows[0].values) == 16

    def test_out_file(self, pipeline, tmp_path):
        seq, traj = first_raw(pipeline, "tts", ".traj")
        dest = str(tmp_path / "one.tsv")
        rc = cli.main(["measure", "--sequence", seq, "--trajectory", traj, "--out", dest])
        assert rc == 0
        assert len(read_measure_table(dest).rows) == 1

    def test_needs_some_input(self, pipeline):
        seq, _ = first_raw(pipeline, "tts", ".traj")
        assert cli.main(["measure", "--sequence", seq]) == 2

    def test_a_trajectory_longer_than_the_sequence_is_a_data_error(self, pipeline, tmp_path,
                                                                   capsys):
        seq, traj = first_raw(pipeline, "tts", ".traj")
        longer = tmp_path / "longer.traj"
        with open(traj, encoding="utf-8") as fh:
            text = fh.read()
        longer.write_text(text + text.splitlines()[-1] + "\n")
        n = len(text.splitlines())
        assert cli.main(["measure", "--sequence", seq, "--trajectory", str(longer)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: annotation has {n} frames, trajectory {n + 1}"]

    def test_unsafe_name_is_usage_error(self, pipeline, tmp_path, capsys):
        # A tab would split the tracker cell, so analyze could not read the table.
        seq, traj = first_raw(pipeline, "tts", ".traj")
        dest = tmp_path / "m.tsv"
        rc = cli.main(["measure", "--sequence", seq, "--trajectory", traj,
                       "--name", "a\tb", "--out", str(dest)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: unsafe tracker name 'a\\tb'"]
        assert not dest.exists()

    def test_each_row_rescored_from_its_files_gives_the_same_cells(self, tmp_path, capsys):
        # run scores failure frames in memory; measure reads them back from F: lines.
        data, out = str(tmp_path / "data"), str(tmp_path / "out")
        assert cli.main(["synth", "--out", data, "--sequences", "4", "--seed", "3"]) == 0
        params = "center_noise=3,loss_prob=0.2,seed=4"
        child = (f"cmd:kid:{shlex.quote(sys.executable)} -m trackbench.tracker_cli scripted"
                 f" --groundtruth {{groundtruth}} --params name=kid,{params}")
        specs = ["ttf", "tto", f"scripted:name=lossy,{params}", child]
        assert cli.main(["run", "--dataset", data, "--out", out,
                         *(a for spec in specs for a in ("--tracker", spec)),
                         "--tau", "0.3", "--repetitions", "2", "--mode", "both"]) == 0
        rows = read_measure_table(os.path.join(out, "measures.tsv")).rows
        assert len(rows) == 4 * (1 + 1 + 2 + 2)  # a deterministic tracker runs once
        assert all(row.error is None for row in rows)
        assert any(row.values[-1] > 0 for row in rows)  # some run failed
        for row in rows:
            stem = os.path.join(out, "raw", row.tracker, row.sequence, "run_%02d" % row.run)
            capsys.readouterr()
            assert cli.main(["measure", "--sequence", os.path.join(data, row.sequence),
                             "--trajectory", stem + ".traj", "--record", stem + ".record"]) == 0
            (got,) = loads_measure_table(capsys.readouterr().out).rows
            assert [v.hex() for v in got.values] == [v.hex() for v in row.values], stem


class TestAnalyzeCommand:
    def test_reports_written(self, pipeline, tmp_path):
        rep = str(tmp_path / "rep")
        rc = cli.main([
            "analyze", "--measures", os.path.join(pipeline["out"], "measures.tsv"),
            "--out", rep,
        ])
        assert rc == 0
        for name in ("correlation.tsv", "ar_summary.tsv", "clusters.tsv"):
            text = open(os.path.join(rep, name)).read()
            assert text.startswith("# format: trackbench/1\n")
        corr = open(os.path.join(rep, "correlation.tsv")).read().splitlines()
        assert corr[-1].startswith("samples\t")
        ar = open(os.path.join(rep, "ar_summary.tsv")).read()
        assert "tracker\taccuracy\trobustness\treliability" in ar

    @pytest.mark.parametrize("span", ["inf", "nan"])
    def test_non_finite_span_is_one_error_line(self, pipeline, tmp_path, capsys, span):
        measures = os.path.join(pipeline["out"], "measures.tsv")
        rc = cli.main(["analyze", "--measures", measures, "--out", str(tmp_path),
                       "--span", span])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: span {span} must be positive and finite"]
        assert not (tmp_path / "ar_summary.tsv").exists()

    @pytest.mark.parametrize("flag, value, status", [("--span", "inf", 1), ("--damping", "1", 2)])
    def test_a_rejected_argument_writes_nothing(self, pipeline, tmp_path, capsys, flag, value,
                                                status):
        # --out holds the reports of another table, so any write would show.
        measures = os.path.join(pipeline["out"], "measures.tsv")
        table = read_measure_table(measures)
        other = str(tmp_path / "other.tsv")
        write_measure_table(other, type(table)(rows=[r for r in table.rows if r.tracker != "tta"]))
        out = tmp_path / "reports"
        assert cli.main(["analyze", "--measures", other, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["ar_summary.tsv", "clusters.tsv", "correlation.tsv"]
        capsys.readouterr()
        assert cli.main(["analyze", "--measures", measures, "--out", str(out), flag, value]) == status
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_skipped_clustering_removes_stale_clusters(self, pipeline, tmp_path, capsys):
        measures = os.path.join(pipeline["out"], "measures.tsv")
        table = read_measure_table(measures)
        # The two center-error columns never share a row, so their
        # correlation is undefined; each still pairs with the other 14.
        nan = float("nan")
        gappy = str(tmp_path / "gappy.tsv")
        write_measure_table(gappy, type(table)(rows=[
            dataclasses.replace(r, values=(nan, *r.values[1:]) if i % 2
                                else (r.values[0], nan, *r.values[2:]))
            for i, r in enumerate(table.rows)]))
        out, fresh = tmp_path / "reports", tmp_path / "fresh"
        assert cli.main(["analyze", "--measures", measures, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["analyze", "--measures", gappy, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: clustering skipped: ")
        assert cli.main(["analyze", "--measures", gappy, "--out", str(fresh)]) == 1
        want = {p.name: p.read_bytes() for p in fresh.iterdir()}
        assert sorted(want) == ["ar_summary.tsv", "correlation.tsv"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == want

    def test_a_constant_column_is_dropped_and_the_rest_cluster(self, pipeline, tmp_path,
                                                               capsys):
        measures = os.path.join(pipeline["out"], "measures.tsv")
        table = read_measure_table(measures)
        constant = str(tmp_path / "constant.tsv")
        write_measure_table(constant, type(table)(rows=[
            dataclasses.replace(r, values=(*r.values[:15], 0.0)) for r in table.rows]))
        out = tmp_path / "reports"
        assert cli.main(["analyze", "--measures", constant, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        lines = (out / "clusters.tsv").read_text().splitlines()
        notes = [line for line in lines if line.startswith("# dropped")]
        assert notes == ["# dropped, correlation undefined against every other item: failures"]
        items = dict(line.split("\t") for line in lines if not line.startswith("#"))
        del items["item"]
        assert len(items) == 16 and items.pop("failures") == "NA"
        assert set(items.values()) <= set(items)

    def test_one_correlation_matrix_per_analyze(self, pipeline, tmp_path, monkeypatch):
        calls = []
        pearson = analysis.pearson_matrix

        def counting(table):
            calls.append(table)
            return pearson(table)

        # Both names: cli's own binding and the one analysis resolves.
        monkeypatch.setattr(analysis, "pearson_matrix", counting)
        monkeypatch.setattr(cli, "pearson_matrix", counting)
        measures = os.path.join(pipeline["out"], "measures.tsv")
        assert cli.main(["analyze", "--measures", measures, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_missing_file_is_usage_error(self, tmp_path):
        rc = cli.main(["analyze", "--measures", str(tmp_path / "nope.tsv")])
        assert rc == 2

    def test_too_few_rows_is_data_error(self, pipeline, tmp_path):
        table = read_measure_table(os.path.join(pipeline["out"], "measures.tsv"))
        small = type(table)(rows=table.rows[:2])
        p = tmp_path / "small.tsv"
        write_measure_table(str(p), small)
        assert cli.main(["analyze", "--measures", str(p), "--out", str(tmp_path)]) == 1


class TestExitStatus:
    """One exit status for a missing input file, whichever reader opens it."""

    MISSING_INPUT = [
        pytest.param(cli.main, ["measure", "--sequence", "{missing}"], id="measure-sequence"),
        pytest.param(cli.main, ["measure", "--sequence", "{seq}", "--trajectory", "{missing}"],
                     id="measure-trajectory"),
        pytest.param(cli.main, ["measure", "--sequence", "{seq}", "--record", "{missing}"],
                     id="measure-record"),
        pytest.param(cli.main, ["analyze", "--measures", "{missing}"], id="analyze-measures"),
        pytest.param(cli.main, ["plot", "--type", "ar", "--measures", "{missing}"],
                     id="plot-measures"),
        pytest.param(cli.main, ["plot", "--type", "overlap", "--sequence", "{seq}",
                                "--trajectory", "x={missing}"], id="plot-trajectory"),
        pytest.param(cli.main, ["plot", "--type", "fragmentation", "--sequence", "{seq}",
                                "--record", "x={missing}"], id="plot-record"),
        pytest.param(tracker_main, ["ttf", "--groundtruth", "{missing}"],
                     id="tracker-groundtruth"),
        pytest.param(tracker_main, ["tto", "--sequence", "{missing}"], id="tracker-sequence"),
        pytest.param(tracker_main, ["tta", "--meta", "{missing}"], id="tracker-meta"),
    ]

    @staticmethod
    def call(main, argv, tmp_dataset, tmp_path):
        where = {"seq": os.path.join(tmp_dataset, "alpha"), "missing": str(tmp_path / "nope")}
        return main([arg.format(**where) for arg in argv])

    @pytest.mark.parametrize("main, argv", MISSING_INPUT)
    def test_missing_input_file_exits_2(self, main, argv, tmp_dataset, tmp_path, capsys):
        assert self.call(main, argv, tmp_dataset, tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "nope" in err[0]

    @pytest.mark.parametrize("main, argv", [
        pytest.param(cli.main, ["measure", "--sequence", "{seq}", "--trajectory", "{bad}"],
                     id="measure-trajectory"),
        pytest.param(tracker_main, ["ttf", "--groundtruth", "{bad}"],
                     id="tracker-groundtruth"),
    ])
    def test_input_file_that_is_not_utf8_exits_1(self, main, argv, tmp_dataset, tmp_path,
                                                  capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe1,2,3,4\n")
        where = {"seq": os.path.join(tmp_dataset, "alpha"), "bad": str(bad)}
        assert main([arg.format(**where) for arg in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: not UTF-8 text: invalid start byte"]

    def test_directory_as_groundtruth_exits_1(self, tmp_dataset, tmp_path, capsys):
        argv = ["ttf", "--groundtruth", "{seq}"]
        assert self.call(tracker_main, argv, tmp_dataset, tmp_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("key, value", [("width", "nan"), ("width", "-320"), ("height", "0")])
    def test_bad_frame_size_is_one_error_naming_the_meta_line(self, tmp_dataset, tmp_path,
                                                               capsys, key, value):
        out = tmp_path / "out"
        assert cli.main(["run", "--dataset", tmp_dataset, "--out", str(out), "--tracker", "tts",
                         "--repetitions", "1"]) == 0
        meta = os.path.join(tmp_dataset, "alpha", "sequence.meta")
        size = {"width": "320", "height": "240", key: value}
        with open(meta, "w") as fh:
            fh.write(f"name=alpha\nwidth={size['width']}\nheight={size['height']}\n")
        line = {"width": 2, "height": 3}[key]
        want = [f"error: {meta}:{line}: {key} must be finite and positive: {value!r}"]
        for main, argv in (
            (cli.main, ["run", "--dataset", tmp_dataset, "--out", str(tmp_path / "again"),
                        "--tracker", "tta"]),
            (cli.main, ["label", "--dataset", tmp_dataset, "--out", str(tmp_path / "reports")]),
            (cli.main, ["plot", "--type", "ar", "--measures", str(out / "measures.tsv"),
                        "--dataset", tmp_dataset, "--out", str(tmp_path / "ar.svg")]),
            (tracker_main, ["tta", "--meta", meta]),
        ):
            capsys.readouterr()
            assert main(argv) == 1, argv
            assert capsys.readouterr().err.splitlines() == want, argv

    def test_timeout_past_what_select_can_wait_is_a_usage_error(self, tmp_dataset, tmp_path,
                                                                capsys):
        out = tmp_path / "out"
        spec = f"cmd:child:{shlex.quote(sys.executable)} -m trackbench.tracker_cli tts"
        assert cli.main(["run", "--dataset", tmp_dataset, "--out", str(out), "--timeout", "1e10",
                         "--tracker", spec]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: tracker 'child': timeout must be positive and at most"
                       f" {threading.TIMEOUT_MAX:.0f} seconds"]
        assert not out.exists()

    @pytest.mark.parametrize("first", ["T:40,30,24,18", "F:"])
    def test_record_that_does_not_start_with_an_init_exits_1(self, tmp_dataset, tmp_path,
                                                              capsys, first):
        record = tmp_path / "run.record"
        record.write_text("# format: trackbench/1\ntau:0\n" + first + "\n"
                          + "I:40,30,24,18\n" + "T:40,30,24,18\n" * 18)
        seq = os.path.join(tmp_dataset, "alpha")
        assert cli.main(["measure", "--sequence", seq, "--record", str(record)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: frame 1 is not an Init"]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_synth_of_no_sequences_exits_2_and_creates_nothing(tmp_path, capsys, count):
    out = tmp_path / "data"
    assert cli.main(["synth", "--out", str(out), "--sequences", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()


class TestOverflowingRegions:
    """A valid region whose center distance overflows is a measure error, not a crash."""

    OVERFLOW = "center error overflows the float range"

    @pytest.mark.parametrize("mode", ["huge", "wide"])
    def test_run_gives_the_tracker_an_error_row(self, tmp_dataset, tmp_path, mode):
        huge = f"cmd:huge:{shlex.quote(sys.executable)} {shlex.quote(STUB)} {mode}"
        tables = {}
        for name, specs in (("alone", ["tts"]), ("mixed", ["tts", huge])):
            out = tmp_path / name
            argv = ["run", "--dataset", tmp_dataset, "--out", str(out), "--repetitions", "1"]
            assert cli.main(argv + [a for s in specs for a in ("--tracker", s)]) == 0
            tables[name] = read_measure_table(str(out / "measures.tsv"))
        rows = tables["mixed"].rows
        assert [(r.tracker, r.error) for r in rows if r.tracker == "huge"] == [
            ("huge", f"measure error: frame 2: {self.OVERFLOW}")] * 3
        tts = type(tables["alone"])(rows=[r for r in rows if r.tracker == "tts"])
        assert dumps_measure_table(tts) == dumps_measure_table(tables["alone"])

    @pytest.mark.parametrize("box", ["1e160,0,1,1", "1.7e308,0,1.7e308,4"])
    def test_measure_prints_one_error_line(self, tmp_dataset, tmp_path, capsys, box):
        traj = tmp_path / "far.traj"
        traj.write_text(box + "\n" + "40,30,24,18\n" * 19)
        seq = os.path.join(tmp_dataset, "alpha")
        assert cli.main(["measure", "--sequence", seq, "--trajectory", str(traj)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: frame 1: {self.OVERFLOW}"]
        assert captured.out == ""


class TestOverflowingSums:
    """A center error, normalized error or sum of them that overflows is a
    measure error: a row error from run, one error line from measure."""

    def test_run_of_a_drift_whose_squares_overflow_gives_an_error_row(self, tmp_path):
        data, out = str(tmp_path / "data"), tmp_path / "out"
        assert cli.main(["synth", "--out", data, "--sequences", "1"]) == 0
        assert cli.main(["run", "--dataset", data, "--out", str(out), "--repetitions", "1",
                         "--tracker", "scripted:name=d,drift_onset=0,drift_velocity=1e152:0"]) == 0
        [row] = read_measure_table(str(out / "measures.tsv")).rows
        assert row.error == ("measure error: the sum of squared center errors overflows"
                             " the float range")
        assert (out / "raw" / "d").is_dir()

    @pytest.mark.parametrize("gt, far, message", [
        ("0,0,4,4", "1e154,0,4,4", "the sum of squared center errors overflows the float range"),
        ("0,0,5e-324,1", "3e146,0,4,4",
         "the sum of normalized center errors overflows the float range"),
        ("0,0,5e-324,1", "1e150,0,4,4",
         "frame 2: normalized center error overflows the float range"),
    ])
    def test_measure_prints_one_error_line(self, tmp_path, capsys, gt, far, message):
        seq = str(tmp_path / "s")
        write_sequence(seq, SequenceAnnotation("s", (parse_region(gt),) * 3))
        traj = tmp_path / "far.traj"
        traj.write_text(f"{gt}\n{far}\n{far}\n")
        assert cli.main(["measure", "--sequence", seq, "--trajectory", str(traj)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_analyze_of_a_non_finite_cell_exits_1_naming_its_line(pipeline, tmp_path, capsys, cell):
    with open(os.path.join(pipeline["out"], "measures.tsv"), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    cells = lines[4].split("\t")
    cells[5] = cell  # avg_norm_center_error
    lines[4] = "\t".join(cells)
    measures = tmp_path / "measures.tsv"
    measures.write_text("\n".join(lines))
    assert cli.main(["analyze", "--measures", str(measures), "--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {measures}:5: non-finite measure value: {cell!r}"]
    assert not (tmp_path / "a" / "correlation.tsv").exists()


class TestGoldenReports:
    # SHA-256 of the pipeline fixture's reports, and of its A-R plot with
    # the reference trackers' points. The correlation and cluster tables
    # are left out: their numpy reductions may differ in the last digits
    # between numpy builds.
    GOLDEN_SHA256 = {
        "measures.tsv": "1076e1f45c00ff61e2d5ab22b62e037e656196caf7a4817e1721c42828728347",
        "ar_summary.tsv": "496e354dab197a8d9c2339aa8397d58c0aa00d498c12786f9a6d522cc0093dd4",
        "labels.tsv": "d872733ce18fedbe055c66a2b968a46d9d2b96b7375615bc92964fb225f28c28",
        "ar.svg": "1eac64e66d03bf5b5784d418a16a173957e3f074db13f8098ec6707ba4880827",
    }

    def test_reports_match_golden_digests(self, pipeline, tmp_path):
        measures = os.path.join(pipeline["out"], "measures.tsv")
        ar_svg = str(tmp_path / "ar.svg")
        assert cli.main(["analyze", "--measures", measures, "--out", str(tmp_path)]) == 0
        assert cli.main(["label", "--dataset", pipeline["data"], "--out", str(tmp_path)]) == 0
        assert cli.main(["plot", "--type", "ar", "--measures", measures,
                         "--dataset", pipeline["data"], "--out", ar_svg]) == 0
        paths = {"measures.tsv": measures,
                 "ar_summary.tsv": str(tmp_path / "ar_summary.tsv"),
                 "labels.tsv": str(tmp_path / "labels.tsv"),
                 "ar.svg": ar_svg}
        for name, path in paths.items():
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == self.GOLDEN_SHA256[name], name

    # Every report's notes and column header, which the digests above
    # leave out for correlation.tsv and clusters.tsv.
    HEADERS = {
        "correlation.tsv": [
            "# format: trackbench/1",
            "# clean rows: 48",
            "# cells: pairwise complete Pearson rho",
            "measure\tavg_center_error\tavg_norm_center_error\trmse\tp_0.1\tp_0.5\t"
            "len_0.1\tlen_0.5\tavg_overlap\tcotps\tsup_avg_center_error\t"
            "sup_avg_norm_center_error\tsup_rmse\tsup_p_0.1\tsup_p_0.5\tsup_avg_overlap\t"
            "failures",
        ],
        "clusters.tsv": [
            "# format: trackbench/1",
            "# converged: yes",
            "# iterations: 32",
            "# clusters: 3",
            "# similarity: correlation with lower-is-better columns sign-flipped",
            "item\texemplar",
        ],
        "ar_summary.tsv": [
            "# format: trackbench/1",
            "# span: 30",
            "# accuracy: mean supervised overlap; robustness: mean failures",
            "tracker\taccuracy\trobustness\treliability",
        ],
        "labels.tsv": [
            "# format: trackbench/1",
            "# levels: 3",
            "# motion and size_change probes fall as the property grows; "
            "their scales are flipped so labels read as the property",
            "sequence\tsize\tmotion\tspeed\tsize_change",
        ],
    }

    def test_report_headers(self, pipeline, tmp_path):
        measures = os.path.join(pipeline["out"], "measures.tsv")
        assert cli.main(["analyze", "--measures", measures, "--out", str(tmp_path)]) == 0
        assert cli.main(["label", "--dataset", pipeline["data"], "--out", str(tmp_path)]) == 0
        for name, want in self.HEADERS.items():
            lines = (tmp_path / name).read_text().split("\n")
            assert lines[:len(want)] == want, name

    # The pipeline fixture's run at tau 0.3, where failures and
    # reinitializations turn on overlap values other than 0: SHA-256 of
    # measures.tsv, and one over every file under raw/ (each relative
    # path, its length and its bytes, in path order).
    TAU_SHA256 = {
        "measures.tsv": "48564c6eeed30255cf9f06cd7069cfeb615b571f3bdb9ca719b85a2def23ed67",
        "raw": "8cec2042c33cd33e7f71f990d839be02d07c58f7b12be9a7ce3d2df5f73dacb4",
    }

    def test_run_at_tau_matches_golden_digests(self, pipeline, tmp_path):
        out = tmp_path / "out"
        assert cli.main(pipeline_run(pipeline["data"], str(out), "--tau", "0.3")) == 0
        raw = hashlib.sha256()
        paths = sorted(p.relative_to(out / "raw").as_posix()
                       for p in (out / "raw").rglob("*") if p.is_file())
        for rel in paths:
            data = (out / "raw" / rel).read_bytes()
            raw.update(f"{rel}\0{len(data)}\0".encode() + data)
        assert len(paths) == 96
        assert {"measures.tsv": hashlib.sha256((out / "measures.tsv").read_bytes()).hexdigest(),
                "raw": raw.hexdigest()} == self.TAU_SHA256


class TestLabelCommand:
    def test_labels_written(self, pipeline, tmp_path):
        rep = str(tmp_path)
        rc = cli.main(["label", "--dataset", pipeline["data"], "--out", rep])
        assert rc == 0
        text = open(os.path.join(rep, "labels.tsv")).read()
        lines = text.splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "sequence\tsize\tmotion\tspeed\tsize_change"
        data_lines = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_lines) == 8
        vocab = {"low", "medium", "high", "small", "large"}
        for line in data_lines:
            cells = line.split("\t")
            assert set(cells[1:]) <= vocab

    def test_too_few_sequences_is_data_error(self, pipeline, tmp_path):
        import shutil

        small = tmp_path / "small_data"
        names = sorted(os.listdir(pipeline["data"]))[:2]
        for n in names:
            shutil.copytree(os.path.join(pipeline["data"], n), small / n)
        assert cli.main(["label", "--dataset", str(small), "--out", str(tmp_path)]) == 1

    def test_spaces_in_the_dataset_path_change_no_byte(self, pipeline, tmp_path):
        # The reference trackers run in process, so no frame path leaves it.
        import shutil

        measures = os.path.join(pipeline["out"], "measures.tsv")
        outputs = []
        for where, prefix in (("plain", ""), ("my data", "seq ")):
            data = tmp_path / where
            for n in sorted(os.listdir(pipeline["data"])):
                shutil.copytree(os.path.join(pipeline["data"], n), data / (prefix + n))
            rep = tmp_path / (where + " out")
            assert cli.main(["label", "--dataset", str(data), "--out", str(rep)]) == 0
            assert cli.main(["plot", "--type", "ar", "--measures", measures,
                             "--dataset", str(data), "--out", str(rep / "ar.svg")]) == 0
            outputs.append([(rep / f).read_bytes() for f in ("labels.tsv", "ar.svg")])
        assert outputs[0] == outputs[1]


class TestOneFrameSequence:
    """A dataset that adds a one-frame sequence, where no reference tracker tracks a frame."""

    @pytest.fixture
    def data(self, pipeline, tmp_path):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        one = static_sequence(1, name="zz_one")
        write_sequence(str(data / "zz_one"), one.annotation, one.image_size)
        return str(data)

    def test_ar_plot_draws_every_reference_point_and_no_nan(self, pipeline, data, tmp_path):
        measures = os.path.join(pipeline["out"], "measures.tsv")
        svg = tmp_path / "ar.svg"
        assert cli.main(["plot", "--type", "ar", "--measures", measures,
                         "--dataset", data, "--out", str(svg)]) == 0
        text = svg.read_text()
        assert "nan" not in text
        assert len([el for el in ET.fromstring(text).iter() if el.get("class") == "ref"]) == 4

    def test_label_names_the_sequence_and_its_undefined_property(self, data, tmp_path, capsys):
        assert cli.main(["label", "--dataset", data, "--out", str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: sequence 'zz_one': size is undefined"]


class TestPlotCommand:
    def plot(self, args, dest):
        rc = cli.main(["plot", *args, "--out", dest])
        assert rc == 0
        root = ET.parse(dest).getroot()
        assert root.tag.split("}")[-1] == "svg"

    def test_frame_series_plots(self, pipeline, tmp_path):
        seq, traj = first_raw(pipeline, "tto", ".traj")
        _, rec = first_raw(pipeline, "tto", ".record")
        for kind in ("center_error", "overlap", "threshold"):
            self.plot(
                ["--type", kind, "--sequence", seq,
                 "--trajectory", f"probe={traj}", "--record", f"sup={rec}"],
                str(tmp_path / f"{kind}.svg"),
            )

    def test_ar_plot_with_references(self, pipeline, tmp_path):
        self.plot(
            ["--type", "ar",
             "--measures", os.path.join(pipeline["out"], "measures.tsv"),
             "--dataset", pipeline["data"]],
            str(tmp_path / "ar.svg"),
        )

    def test_fragmentation_plot(self, pipeline, tmp_path):
        seq, rec = first_raw(pipeline, "ttf", ".record")
        self.plot(
            ["--type", "fragmentation", "--sequence", seq, "--record", f"ttf={rec}"],
            str(tmp_path / "frag.svg"),
        )

    def test_survival_plot(self, pipeline, tmp_path):
        self.plot(
            ["--type", "survival",
             "--measures", os.path.join(pipeline["out"], "measures.tsv")],
            str(tmp_path / "survival.svg"),
        )

    def test_a_bare_path_is_named_by_its_file(self, pipeline, tmp_path):
        seq, traj = first_raw(pipeline, "tts", ".traj")
        dest = tmp_path / "overlap.svg"
        self.plot(["--type", "overlap", "--sequence", seq, "--trajectory", traj], str(dest))
        assert traj.endswith("run_00.traj")
        assert ">run_00</text>" in dest.read_text(encoding="utf-8")

    @pytest.mark.parametrize("item", ["probe=", "=x.traj", "="])
    def test_a_name_or_path_left_empty_is_a_usage_error(self, pipeline, tmp_path, capsys, item):
        seq, _ = first_raw(pipeline, "tts", ".traj")
        dest = tmp_path / "overlap.svg"
        rc = cli.main(["plot", "--type", "overlap", "--sequence", seq, "--trajectory", item,
                       "--out", str(dest)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad --trajectory {item!r}, want NAME=PATH"]
        assert not dest.exists()

    @pytest.mark.parametrize("inputs, name", [
        (["--trajectory", "{tts_traj}", "--trajectory", "{tta_traj}"], "run_00"),
        (["--trajectory", "probe={tts_traj}", "--trajectory", "probe={tta_traj}"], "probe"),
        (["--trajectory", "probe={tts_traj}", "--record", "probe={tts_rec}"], "probe"),
    ], ids=["default", "explicit", "across-kinds"])
    def test_a_name_given_twice_is_a_usage_error(self, pipeline, tmp_path, capsys, inputs, name):
        # Each name is one curve and one legend entry; a repeat would drop a curve.
        seq, tts_traj = first_raw(pipeline, "tts", ".traj")
        _, tta_traj = first_raw(pipeline, "tta", ".traj")
        _, tts_rec = first_raw(pipeline, "tts", ".record")
        where = {"tts_traj": tts_traj, "tta_traj": tta_traj, "tts_rec": tts_rec}
        dest = tmp_path / "overlap.svg"
        rc = cli.main(["plot", "--type", "overlap", "--sequence", seq,
                       *(arg.format(**where) for arg in inputs), "--out", str(dest)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: plot input name {name!r} is given more than once"]
        assert not dest.exists()

    @pytest.mark.parametrize("cap", ["nan", "inf", "-inf"])
    def test_non_finite_cap_is_one_error_line(self, pipeline, tmp_path, capsys, cap):
        seq, traj = first_raw(pipeline, "tto", ".traj")
        dest = tmp_path / "center_error.svg"
        rc = cli.main(["plot", "--type", "center_error", "--sequence", seq,
                       "--trajectory", f"probe={traj}", f"--cap={cap}", "--out", str(dest)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: cap {cap} must be finite"]
        assert not dest.exists()

    def test_missing_inputs_are_usage_errors(self, pipeline):
        assert cli.main(["plot", "--type", "overlap"]) == 2
        assert cli.main(["plot", "--type", "ar"]) == 2
        assert cli.main(["plot", "--type", "fragmentation"]) == 2
        assert cli.main(["plot", "--type", "survival"]) == 2
        seq, _ = first_raw(pipeline, "tts", ".traj")
        assert cli.main(["plot", "--type", "overlap", "--sequence", seq]) == 2


class TestParserReuse:
    """main builds its argparse tree once per process; no call sees another's arguments."""

    def test_a_second_run_sees_only_its_own_trackers(self, tmp_dataset, tmp_path):
        common = ["run", "--dataset", tmp_dataset, "--mode", "unsupervised",
                  "--repetitions", "1"]
        for tracker in ("tta", "tts"):
            out = str(tmp_path / tracker)
            assert cli.main([*common, "--out", out, "--tracker", tracker]) == 0
            table = read_measure_table(os.path.join(out, "measures.tsv"))
            assert {r.tracker for r in table.rows} == {tracker}
            assert os.listdir(os.path.join(out, "raw")) == [tracker]

    def test_plot_inputs_do_not_accumulate(self, pipeline, tmp_path, monkeypatch):
        seen = []
        named_inputs = cli._named_inputs

        def spy(pairs, kind):
            seen.append((kind, list(pairs or ())))
            return named_inputs(pairs, kind)

        monkeypatch.setattr(cli, "_named_inputs", spy)
        seq, traj = first_raw(pipeline, "tts", ".traj")
        for name in ("first_probe", "second_probe"):
            dest = str(tmp_path / f"{name}.svg")
            argv = ["plot", "--type", "overlap", "--sequence", seq,
                    "--trajectory", f"{name}={traj}", "--out", dest]
            assert cli.main(argv) == 0
        assert seen == [
            ("trajectory", [f"first_probe={traj}"]), ("record", []),
            ("trajectory", [f"second_probe={traj}"]), ("record", []),
        ]
        second = (tmp_path / "second_probe.svg").read_text(encoding="utf-8")
        assert "second_probe" in second and "first_probe" not in second

    def test_usage_errors_in_a_row_each_exit_2(self, capsys):
        for argv in (["plot", "--type", "bogus"], ["run", "--repetitions", "x"], [],
                     ["no-such-command"]):
            with pytest.raises(SystemExit) as e:
                cli.main(argv)
            assert e.value.code == 2
        assert cli.main(["plot", "--type", "ar"]) == 2
        assert cli.main(["plot", "--type", "ar"]) == 2
        assert "plot ar needs --measures" in capsys.readouterr().err

    def test_later_calls_build_no_parser(self, monkeypatch):
        cli.main(["plot", "--type", "ar"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert cli.main(["plot", "--type", "survival"]) == 2
        with pytest.raises(SystemExit):
            cli.main(["plot", "--type", "bogus"])
        assert built == []


RESET_SEQ = moving_sequence(10)
NOISY_DRIFT = ScriptedTrackerSpec(
    name="wob", center_noise=1.5, scale_noise=0.03, loss_prob=0.2,
    drift_onset=2, drift_velocity=(0.5, -0.25), seed=9,
)


def fresh_behavior(kind):
    return BuiltinTracker(kind, NOISY_DRIFT if kind == "scripted" else None)(RESET_SEQ)


def run_messages(seed, length, inits):
    """One run's messages: hello, then frames 1..length; `inits` reinitialize."""
    regions, paths = RESET_SEQ.annotation.regions, RESET_SEQ.frame_paths
    lines = [f"hello version=1 seed={seed}"]
    for t in range(1, length + 1):
        if t == 1 or t in inits:
            lines.append(f"initialize {paths[t - 1]} {format_region(regions[t - 1])}")
        else:
            lines.append(f"frame {paths[t - 1]}")
    return lines


def served_text(behavior, lines):
    wfile = io.StringIO()
    rfile = io.StringIO("".join(line + "\n" for line in lines))
    assert serve(behavior, rfile, wfile) == 0
    return wfile.getvalue()


class TestTrackerServe:
    def run_session(self, lines):
        rfile = io.StringIO("".join(line + "\n" for line in lines))
        wfile = io.StringIO()
        behavior = StaticTracker()
        code = serve(behavior, rfile, wfile)
        return code, wfile.getvalue().splitlines()

    @given(
        kind=st.sampled_from(["tta", "tts", "ttf", "tto", "scripted"]),
        seeds=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
        lengths=st.tuples(st.integers(1, 10), st.integers(1, 10)),
        inits=st.tuples(*[st.frozensets(st.integers(2, 10), max_size=3)] * 2),
    )
    def test_a_second_hello_resets_every_behavior(self, kind, seeds, lengths, inits):
        runs = [run_messages(*args) for args in zip(seeds, lengths, inits)]
        together = served_text(fresh_behavior(kind), runs[0] + runs[1] + ["quit"])
        apart = "".join(served_text(fresh_behavior(kind), run + ["quit"]) for run in runs)
        assert together == apart

    def test_full_session(self):
        code, replies = self.run_session([
            "hello version=1 seed=42",
            "initialize img-001.jpg 10,20,30,40",
            "frame img-002.jpg",
            "quit",
        ])
        assert code == 0
        assert replies == [
            "hello name=tts deterministic=1 runs=many",
            "state 10,20,30,40",
            "state 10,20,30,40",
        ]

    def test_unsupported_version(self):
        code, replies = self.run_session(["hello version=9 seed=0"])
        assert code == 2
        assert replies == ["error unsupported protocol version"]

    def test_unknown_command(self):
        code, replies = self.run_session(["hello version=1 seed=0", "teleport"])
        assert code == 2
        assert replies[-1] == "error unknown command teleport"

    def test_bad_region_is_an_error_reply(self):
        code, replies = self.run_session([
            "hello version=1 seed=0",
            "initialize img.jpg 1,2,3",
        ])
        assert code == 2
        assert replies[-1].startswith("error")
