"""The built-in tracker registry at its two front ends.

`trackbench run --tracker <spec>` and the `trackbench-tracker <kind>`
process both build their behavior from `theoretical.BUILTINS`; these
tests hold the two to the same kinds, inputs and parameter rules.
"""

import io
import os
import pickle
import subprocess
import sys

import pytest

from trackbench import cli, tracker_cli
from trackbench.dataset import format_region
from trackbench.errors import ConfigError
from trackbench.geometry import Point
from trackbench.io_formats import (
    SequenceAnnotation,
    dumps_record,
    read_measure_table,
    read_sequence,
    write_sequence,
)
from trackbench.runner import TrackerHandle, run_supervised, run_unsupervised
from trackbench.theoretical import (
    BUILTINS,
    THEORETICAL_KINDS,
    BuiltinTracker,
    ScriptedTrackerSpec,
    theoretical_trajectory,
)

from conftest import moving_sequence

NOISY_DRIFT = (
    "scripted:name=wob,center_noise=1.5,scale_noise=0.03,loss_prob=0.2,"
    "drift_onset=2,drift_velocity=0.5:-0.25,seed=9"
)


@pytest.mark.parametrize("kind", ["ttf", "tto", "scripted"])
def test_ground_truth_kinds_need_groundtruth_or_sequence(kind, capsys):
    assert tracker_cli.main([kind]) == 2
    assert "needs --groundtruth or --sequence" in capsys.readouterr().err


def test_tta_needs_a_frame_size(tmp_path, capsys):
    seq_dir = str(tmp_path / "sizeless")
    write_sequence(seq_dir, moving_sequence(4).annotation, image_size=None)
    meta = os.path.join(seq_dir, "sequence.meta")
    for argv in (["tta"], ["tta", "--sequence", seq_dir], ["tta", "--meta", meta]):
        assert tracker_cli.main(argv) == 2, argv
        assert "tta needs the image size" in capsys.readouterr().err


@pytest.mark.parametrize("kind", THEORETICAL_KINDS)
def test_params_on_a_kind_other_than_scripted_rejected(kind, tmp_dataset, capsys):
    seq_dir = os.path.join(tmp_dataset, "bravo")
    assert tracker_cli.main([kind, "--sequence", seq_dir, "--params", "seed=1"]) == 2
    assert "takes no parameters" in capsys.readouterr().err
    for spec in (f"{kind}:seed=1", f"{kind}:"):
        with pytest.raises(ConfigError, match="takes no parameters"):
            cli.parse_tracker_spec(spec)


# A scale_noise past the bound can overflow math.exp in
# ScriptedTracker.frame, and a center_noise past it the reported center
# (center_noise=1e308 reported Region(x=-inf, ...) at frame 8 of a run);
# a non-finite noise value or drift component, which would make every
# drifting report invalid, is rejected with them.
UNSAFE_SCRIPTED = ["scale_noise=1000", "scale_noise=-82.01", "scale_noise=inf",
                   "center_noise=1e308", "center_noise=-1.01e300",
                   "center_noise=nan", "loss_prob=-inf", "drift_velocity=nan:0",
                   "drift_velocity=0:-inf,drift_onset=0"]


@pytest.mark.parametrize("params", UNSAFE_SCRIPTED)
def test_unsafe_scripted_params_are_usage_errors_at_run(params, tmp_dataset, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--dataset", tmp_dataset, "--out", str(out),
                     "--tracker", f"scripted:{params}"]) == 2
    err = capsys.readouterr().err
    assert f"scripted parameter {params.split('=')[0]!r}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("params", UNSAFE_SCRIPTED)
def test_unsafe_scripted_params_are_usage_errors_at_the_tracker(params, tmp_dataset, capsys):
    seq_dir = os.path.join(tmp_dataset, "bravo")
    assert tracker_cli.main(["scripted", "--sequence", seq_dir, "--params", params]) == 2
    captured = capsys.readouterr()
    assert f"scripted parameter {params.split('=')[0]!r}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_scale_noise_at_its_bound_runs(tmp_dataset, tmp_path):
    out = tmp_path / "out"
    assert cli.main([
        "run", "--dataset", tmp_dataset, "--out", str(out), "--repetitions", "3",
        "--tracker", "scripted:name=up,scale_noise=82",
        "--tracker", "scripted:name=down,scale_noise=-82",
    ]) == 0
    rows = read_measure_table(str(out / "measures.tsv")).rows
    assert len(rows) == 18 and not any(r.error for r in rows)


@pytest.mark.parametrize("noise", [1e300, -1e300])
def test_center_noise_at_its_bound_reports_valid_regions(noise):
    spec = ScriptedTrackerSpec(center_noise=noise, scale_noise=82.0)
    handle = TrackerHandle.in_process("c", BuiltinTracker("scripted", spec))
    for seed in range(20):
        # An invalid report raises ProtocolViolationError.
        assert len(run_unsupervised(handle, moving_sequence(40), seed=seed)) == 40


@pytest.mark.parametrize("kind", list(BUILTINS))
def test_every_builtin_kind_is_accepted_by_both_front_ends(
    kind, tmp_dataset, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "out"
    assert cli.main([
        "run", "--dataset", tmp_dataset, "--out", str(out), "--mode", "unsupervised",
        "--repetitions", "1", "--tracker", kind,
    ]) == 0
    rows = read_measure_table(str(out / "measures.tsv")).rows
    assert [(r.tracker, r.error) for r in rows] == [(kind, None)] * 3

    session = "hello version=1 seed=0\ninitialize f1 10,40,20,16\nframe f2\nquit\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(session))
    capsys.readouterr()
    seq_dir = os.path.join(tmp_dataset, "bravo")
    assert tracker_cli.main([kind, "--sequence", seq_dir]) == 0
    replies = capsys.readouterr().out.splitlines()
    assert replies[0].startswith(f"hello name={kind} ")
    assert len(replies) == 3


@pytest.mark.parametrize("spec", [*THEORETICAL_KINDS, NOISY_DRIFT])
def test_a_builtin_factory_pickles_by_value(spec):
    factory = cli.parse_tracker_spec(spec).factory
    copy = pickle.loads(pickle.dumps(factory))
    assert copy == factory
    seq = moving_sequence(12)
    trajectories = [
        run_unsupervised(TrackerHandle.in_process("t", f), seq, seed=5)
        for f in (factory, copy)
    ]
    assert trajectories[0] == trajectories[1]


def test_groundtruth_flag_reads_the_center_file_beside_it(tmp_path):
    """tto follows center.txt whether the child gets --groundtruth or
    the in-process run gets the whole sequence."""
    base = moving_sequence(8).annotation
    centers = tuple(
        Point(r.x + r.width / 2.0 + (i % 3) - 1.0, r.y + r.height / 2.0 + 0.5 * i)
        for i, r in enumerate(base.regions)
    )
    seq_dir = str(tmp_path / "offcenter")
    write_sequence(seq_dir, SequenceAnnotation("offcenter", base.regions, centers),
                   (320.0, 240.0))
    seq = read_sequence(seq_dir)

    local = TrackerHandle.in_process("tto", BuiltinTracker("tto"))
    child = TrackerHandle.from_command(
        "tto-child",
        [sys.executable, "-m", "trackbench.tracker_cli", "tto", "--groundtruth",
         "{groundtruth}"],
        timeout=20.0,
    )
    rec_local = run_supervised(local, seq, tau=0.0, seed=13)
    rec_child = run_supervised(child, seq, tau=0.0, seed=13)
    assert dumps_record(rec_child) == dumps_record(rec_local)
    t_local = run_unsupervised(local, seq, seed=13)
    t_child = run_unsupervised(child, seq, seed=13)
    assert [format_region(r) for r in t_child] == [
        format_region(r) for r in t_local
    ]
    assert t_local != theoretical_trajectory("tto", base)


def test_a_flag_and_its_value_may_be_one_argument(tmp_dataset, monkeypatch, capsys):
    seq_dir = os.path.join(tmp_dataset, "charlie")
    gt_path = os.path.join(seq_dir, "groundtruth.txt")
    params = "center_noise=1.5,scale_noise=0.03,seed=9"
    session = "hello version=1 seed=4\ninitialize f1 100,80,20,16\nframe f2\nframe f3\nquit\n"
    replies = []
    for argv in (["scripted", "--groundtruth", gt_path, "--params", params],
                 ["scripted", f"--groundtruth={gt_path}", f"--params={params}"],
                 [f"--params={params}", "--sequence", seq_dir, "scripted"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(session))
        assert tracker_cli.main(argv) == 0, capsys.readouterr().err
        replies.append(capsys.readouterr().out)
    # The noise parameters reached the tracker: it declares itself stochastic.
    assert replies[0].startswith("hello name=scripted deterministic=0 ")
    assert len(replies[0].splitlines()) == 4
    assert replies[1] == replies[0] and replies[2] == replies[0]


@pytest.mark.parametrize("name", ["a b", "a\tb"], ids=["space", "tab"])
def test_a_name_with_whitespace_is_a_usage_error(name, tmp_dataset, monkeypatch, capsys):
    # The hello reply is whitespace-separated tokens, so the runner would reject it.
    gt_path = os.path.join(tmp_dataset, "alpha", "groundtruth.txt")
    monkeypatch.setattr(sys, "stdin", io.StringIO("hello version=1 seed=1\nquit\n"))
    rc = tracker_cli.main(["scripted", "--params", f"name={name},center_noise=1",
                           "--groundtruth", gt_path])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: tracker name {name!r} holds whitespace"]


def serve_child(argv, text):
    """Run `python -m trackbench.tracker_cli` on stdin text; the completed process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracker_cli.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "trackbench.tracker_cli", *argv], input=text,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )


RUN = "hello version=1 seed=0\ninitialize f1 10,40,20,16\nframe f2\nframe f3\n"
REPLIES = ["hello name=tts deterministic=1 runs=many"] + ["state 10,40,20,16"] * 3


class TestChildProcess:
    """The process ends in os._exit; every reply and message is out by then."""

    @pytest.mark.parametrize("end", ["quit\n", ""], ids=["quit", "end-of-input"])
    def test_a_run_exits_0_with_every_reply(self, end):
        proc = serve_child(["tts"], RUN + end)
        assert (proc.returncode, proc.stdout.splitlines(), proc.stderr) == (0, REPLIES, "")

    def test_a_protocol_error_replies_then_exits_2(self):
        proc = serve_child(["tts"], "hello version=1 seed=0\nframe f1\nframe f2\n")
        assert proc.returncode == 2
        assert proc.stdout.splitlines() == [
            REPLIES[0], "error frame before the run's first initialize"]

    @pytest.mark.parametrize("argv, message", [
        (["ttf"], "error: tracker 'ttf' needs --groundtruth or --sequence"),
        (["nosuch"], "invalid choice: 'nosuch'"),
    ], ids=["config", "argparse"])
    def test_a_usage_error_exits_2(self, argv, message):
        proc = serve_child(argv, RUN)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert message in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["tts", "--bogus", "x"], "error: unrecognized argument '--bogus'"),
        (["tts", "--ground", "x"], "error: unrecognized argument '--ground'"),
        (["tts", "--meta"], "error: argument --meta expects a value"),
        (["tts", "--meta", "--params", "x"], "error: argument --meta expects a value"),
        (["tts", "extra"], "error: unrecognized argument 'extra'"),
        ([], "error: the tracker kind is required"),
    ], ids=["unknown-flag", "abbreviated-flag", "missing-value", "flag-as-value",
            "extra-positional", "no-kind"])
    def test_a_bad_argument_exits_2_with_one_stderr_line(self, argv, message):
        proc = serve_child(argv, RUN)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(message), proc

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exits_0(self, flag):
        proc = serve_child(["tts", flag], RUN)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: trackbench-tracker {tta,tts,ttf,tto,scripted} ")
        for name in ("--groundtruth", "--sequence", "--meta", "--params"):
            assert name in proc.stdout


class Flushed(io.StringIO):
    def __init__(self, events, name, fail=False):
        super().__init__()
        self.events, self.name, self.fail = events, name, fail

    def flush(self):
        if self.fail:
            raise BrokenPipeError
        self.events.append(f"flush {self.name}")


def exits_with(status):
    raise SystemExit(status)


@pytest.mark.parametrize("main, fail, status", [
    (lambda: 3, False, 3),
    (lambda: exits_with(2), False, 2),
    (lambda: 0, True, 120),
], ids=["returned", "system-exit", "failed-flush"])
def test_run_flushes_then_exits_without_teardown(monkeypatch, main, fail, status):
    events = []
    monkeypatch.setattr(tracker_cli, "main", main)
    monkeypatch.setattr(sys, "stdout", Flushed(events, "stdout", fail))
    monkeypatch.setattr(sys, "stderr", Flushed(events, "stderr"))
    monkeypatch.setattr(os, "_exit", lambda code: events.append(f"exit {code}"))
    tracker_cli.run()
    assert events == ([] if fail else ["flush stdout", "flush stderr"]) + [f"exit {status}"]
