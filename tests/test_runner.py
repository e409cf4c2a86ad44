import _thread
import hashlib
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from trackbench import geometry, io_formats, runner
from trackbench.errors import (
    ConfigError,
    InvalidRegionError,
    PrematureExitError,
    ProtocolViolationError,
    TrackerTimeoutError,
)
from trackbench.geometry import Region, overlap
from trackbench.io_formats import SequenceData, dumps_measure_table, dumps_record, read_sequence
from trackbench.runner import (
    RunPlan,
    TrackerHandle,
    derive_seed,
    execute_plan,
    run_supervised,
    run_unsupervised,
)
from trackbench.theoretical import (
    BUILTINS,
    BuiltinTracker,
    ScriptedTrackerSpec,
    StaticTracker,
    parse_scripted_params,
)
from trackbench.trajectory import Init

from conftest import STUB, make_sequence, moving_sequence, static_sequence

NOISY = ScriptedTrackerSpec(name="noisy", center_noise=2.0, scale_noise=0.04, seed=3)


def tts_handle():
    return TrackerHandle.in_process("tts", BuiltinTracker("tts"))


def scripted_handle(spec=NOISY):
    return TrackerHandle.in_process(spec.name, BuiltinTracker("scripted", spec))


def stub_handle(mode, *options, timeout=10.0):
    return TrackerHandle.from_command(
        f"stub-{mode}", [sys.executable, STUB, mode, *options], timeout=timeout
    )


WOBBLE = "name=wob,center_noise=1.0,seed=8"


def wob_handle():
    """A stochastic `trackbench-tracker scripted` child; it declares runs=many."""
    return TrackerHandle.from_command("wob", [
        sys.executable, "-m", "trackbench.tracker_cli", "scripted",
        "--groundtruth", "{groundtruth}", "--params", WOBBLE,
    ], timeout=20.0)


@pytest.fixture
def started(monkeypatch):
    """Every process the runner starts during the test, in start order."""
    procs = []
    popen = subprocess.Popen

    def counting(*args, **kwargs):
        proc = popen(*args, **kwargs)
        procs.append(proc)
        return proc

    monkeypatch.setattr(subprocess, "Popen", counting)
    return procs


@pytest.fixture
def sigint_raises():
    """SIGINT raises KeyboardInterrupt for the test's duration.

    A shell starts a background job with SIGINT ignored, and Python then
    installs no handler, so neither interrupt_main nor a real SIGINT
    would reach the code under test.
    """
    old = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, old)


def all_exited(procs):
    return all(proc.poll() is not None for proc in procs)


def tree_bytes(root):
    """{relative path: content} of every file under root."""
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestSupervisedProtocol:
    def test_static_tracker_matches_manual_simulation(self):
        seq = moving_sequence(30)
        rec = run_supervised(tts_handle(), seq, tau=0.0, seed=0)

        # Independent simulation of the reinitialization rule.
        a = seq.annotation
        held = None
        want_failures = []
        init_pending = True
        for t in range(1, len(a) + 1):
            gt = a.regions[t - 1]
            if init_pending:
                held = gt
                init_pending = False
                continue
            if overlap(gt, held) <= 0.0:
                want_failures.append(t)
                init_pending = True
        assert list(rec.failure_frames) == want_failures
        assert len(want_failures) >= 2

    def test_self_failing_tracker_failure_frames(self):
        seq = static_sequence(11)
        handle = TrackerHandle.in_process("ttf", BuiltinTracker("ttf"))
        rec = run_supervised(handle, seq, tau=0.0, seed=0)
        assert rec.failure_frames == (2, 4, 6, 8, 10)

    def test_first_frame_is_init_with_ground_truth(self):
        seq = static_sequence(5)
        rec = run_supervised(tts_handle(), seq, tau=0.0, seed=0)
        assert isinstance(rec.frames[0], Init)
        assert rec.frames[0].region == seq.annotation.regions[0]

    def test_tau_domain(self):
        seq = static_sequence(5)
        with pytest.raises(ConfigError):
            run_supervised(tts_handle(), seq, tau=1.5)
        with pytest.raises(ConfigError):
            run_supervised(tts_handle(), seq, tau=-0.1)

    def test_higher_tau_fails_earlier(self):
        seq = moving_sequence(30)
        low = run_supervised(tts_handle(), seq, tau=0.0, seed=0)
        high = run_supervised(tts_handle(), seq, tau=0.5, seed=0)
        assert len(high.failure_frames) > len(low.failure_frames)

    def test_whitespace_frame_paths_rejected(self, started):
        seq = make_sequence([(0.0, 0.0, 4.0, 4.0)] * 3, root="has space")
        with pytest.raises(ConfigError):
            run_supervised(tracker_cli_handle("tts"), seq)
        with pytest.raises(ConfigError):
            run_unsupervised(tracker_cli_handle("tts"), seq)
        assert started == []


QUIET = "name=quiet,center_noise=0.5,scale_noise=0.01,seed=4"


def tracker_cli_handle(kind, *args):
    return TrackerHandle.from_command(
        f"cmd-{kind}", [sys.executable, "-m", "trackbench.tracker_cli", kind, *args], timeout=20.0)


class TestValidationBudget:
    """Each region is checked once: the ground truth when its annotation
    is built, each report as the session returns it."""

    @pytest.fixture
    def checks(self, monkeypatch):
        seen = []

        def counted(fn):
            def check(r, *args):
                seen.append(r)
                return fn(r, *args)
            return check

        for module in (geometry, io_formats, runner):
            for name in ("is_valid_region", "validate_region"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name)))
        return seen

    @pytest.mark.parametrize("tau", [0.0, 0.6])
    def test_at_most_one_check_per_ground_truth_and_reported_region(self, checks, tau):
        seq = moving_sequence(30, step=4.0)
        assert len(checks) == len(seq)
        checks.clear()
        rec = run_supervised(scripted_handle(), seq, tau=tau, seed=4)
        assert tau == 0.0 or rec.failure_frames
        assert 0 < len(checks) <= len(seq)

    def test_invalid_ground_truth_cannot_be_built(self):
        with pytest.raises(InvalidRegionError, match="^frame 2: invalid ground truth of sequence 's': Region"):
            make_sequence([(0.0, 0.0, 4.0, 4.0), (0.0, 0.0, 4.0, math.inf)], name="s")


class TestOneLoop:
    # Trackers that never fail at tau 0 on the static and growing sequences.
    @pytest.mark.parametrize("make", [
        tts_handle,
        lambda: scripted_handle(parse_scripted_params(QUIET)),
        lambda: tracker_cli_handle("tts"),
        lambda: tracker_cli_handle("scripted", "--groundtruth", "{groundtruth}",
                                   "--params", QUIET),
    ], ids=["tts", "scripted", "cmd-tts", "cmd-scripted"])
    @pytest.mark.parametrize("name", ["alpha", "charlie"])
    def test_a_run_without_failures_is_the_same_run_under_both_protocols(
        self, tmp_dataset, make, name
    ):
        seq = read_sequence(os.path.join(tmp_dataset, name))
        handle = make()
        trajectory = run_unsupervised(handle, seq, seed=5)
        record = run_supervised(handle, seq, tau=0.0, seed=5)
        want = (Init(seq.annotation.regions[0]), *trajectory[1:])
        assert record.frames == want
        assert len(want) == len(seq.annotation)


class TestSeeds:
    def test_derivation_is_plain_sha256(self):
        got = derive_seed(42, "trk", "seq", 3, "supervised")
        digest = hashlib.sha256(b"42|trk|seq|3|supervised").digest()
        assert got == int.from_bytes(digest[:8], "big")

    def test_distinct_inputs_distinct_seeds(self):
        base = derive_seed(0, "a", "s", 0, "supervised")
        assert derive_seed(0, "a", "s", 1, "supervised") != base
        assert derive_seed(0, "a", "s", 0, "unsupervised") != base
        assert derive_seed(1, "a", "s", 0, "supervised") != base
        assert derive_seed(0, "b", "s", 0, "supervised") != base


class TestRunPlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunPlan(mode="nope")
        with pytest.raises(ConfigError):
            RunPlan(repetitions=0)
        with pytest.raises(ConfigError):
            RunPlan(tau=2.0)

    def test_duplicate_tracker_names_rejected(self):
        with pytest.raises(ConfigError):
            execute_plan(RunPlan(), [tts_handle(), tts_handle()], [static_sequence(3)])

    def test_duplicate_sequence_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate sequence names"):
            execute_plan(RunPlan(), [tts_handle()],
                         [static_sequence(3, name="s"), moving_sequence(4, name="s")])

    @pytest.mark.parametrize("tracker, sequence", [
        ("../../escaped", "static"),
        ("a\tb", "static"),
        ("tts", ".."),
        ("tts", "a\nb"),
    ])
    def test_unsafe_names_rejected_before_any_unit(self, tmp_path, tracker, sequence):
        # At "../../escaped" a unit would write beside out_dir, not under raw/;
        # a tab or newline would split the name's measures.tsv cell.
        handle = TrackerHandle.in_process(tracker, BuiltinTracker("tts"))
        out = tmp_path / "apiout"
        with pytest.raises(ConfigError, match="unsafe"):
            execute_plan(RunPlan(repetitions=1), [handle], [static_sequence(3, name=sequence)],
                         out_dir=str(out))
        assert list(tmp_path.iterdir()) == []

    def test_a_placeholder_needs_a_sequence_on_disk(self):
        handle = TrackerHandle.from_command("kid", [sys.executable, STUB, "{groundtruth}"])
        with pytest.raises(ConfigError, match="tracker 'kid' needs sequence files on disk"):
            run_unsupervised(handle, static_sequence(3), seed=1)

    def test_deterministic_trackers_collapse_repetitions(self):
        table = execute_plan(
            RunPlan(repetitions=5, mode="supervised"),
            [tts_handle()],
            [static_sequence(6), moving_sequence(8)],
        )
        assert len(table.rows) == 2
        assert all(r.run == 0 for r in table.rows)

    def test_stochastic_trackers_run_every_repetition(self):
        table = execute_plan(
            RunPlan(repetitions=4, mode="unsupervised"),
            [scripted_handle()],
            [static_sequence(6)],
        )
        assert len(table.rows) == 4
        assert [r.run for r in table.rows] == [0, 1, 2, 3]

    def test_worker_count_does_not_change_the_table(self, tmp_dataset, tmp_path):
        seqs = [read_sequence(os.path.join(tmp_dataset, n)) for n in ("alpha", "bravo")]
        child_handles = lambda: [scripted_handle(), tts_handle(), stub_handle("ok"), wob_handle()]
        # The same trackers, every one in-process.
        local_handles = [
            scripted_handle(),
            tts_handle(),
            TrackerHandle.in_process("stub-ok", lambda seq: StaticTracker()),
            scripted_handle(parse_scripted_params(WOBBLE)),
        ]
        plan = RunPlan(repetitions=2, mode="both")
        tables, trees = [], []
        for workers, handles in ((1, child_handles()), (2, child_handles()),
                                 (3, child_handles()), (2, local_handles)):
            out = tmp_path / f"out{len(tables)}"
            table = execute_plan(plan, handles, seqs, master_seed=5,
                                 workers=workers, out_dir=str(out))
            assert not any(r.error for r in table.rows)
            tables.append(dumps_measure_table(table))
            trees.append(tree_bytes(out))
        # Both stochastic trackers ran every repetition: 2 pairs x 2 runs.
        assert sum(r.tracker in ("noisy", "wob") for r in table.rows) == 8
        assert tables[0] == tables[1] == tables[2] == tables[3]
        assert trees[0] == trees[1] == trees[2] == trees[3]
        assert len(trees[0]) == 2 * len(table.rows)

    def test_every_unit_runs_exactly_once_under_thread_churn(self):
        seqs = [static_sequence(4, name=f"s{i:02d}") for i in range(24)]
        handles = lambda: [scripted_handle(), tts_handle()]
        plan = RunPlan(repetitions=2, mode="both")
        serial = execute_plan(plan, handles(), seqs, master_seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = execute_plan(plan, handles(), seqs, master_seed=3, workers=8)
        finally:
            sys.setswitchinterval(interval)
        keys = [(r.tracker, r.sequence, r.run) for r in threaded.rows]
        assert len(keys) == len(set(keys)) == 24 * 3
        assert dumps_measure_table(threaded) == dumps_measure_table(serial)

    def test_a_worker_exception_reaches_the_caller(self):
        def factory(seq):
            if seq.annotation.name == "s3":
                raise ValueError("no tracker for s3")
            return StaticTracker()

        seqs = [static_sequence(4, name=f"s{i}") for i in range(6)]
        before = threading.active_count()
        with pytest.raises(ValueError, match="^no tracker for s3$"):
            execute_plan(RunPlan(repetitions=1), [TrackerHandle.in_process("t", factory)],
                         seqs, workers=3)
        assert threading.active_count() == before

    def test_an_interrupt_stops_new_units_and_every_thread(self, sigint_raises):
        interrupted = threading.Event()
        starts = []  # (sequence, whether the interrupt came first), per unit

        def factory(seq):
            name = seq.annotation.name
            starts.append((name, interrupted.is_set()))
            return Interrupter(5 if name == "s1" else None, interrupted)

        seqs = [static_sequence(30, name=f"s{i}") for i in range(6)]
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            execute_plan(RunPlan(repetitions=1, mode="unsupervised"),
                         [TrackerHandle.in_process("t", factory)], seqs, workers=2)
        assert threading.active_count() == before
        assert ("s1", False) in starts and len(starts) < len(seqs)
        assert not any(late for _, late in starts), starts

    def test_an_interrupt_while_waiting_for_a_worker_waits_for_its_unit(self, sigint_raises):
        # The unit on the main thread takes about 30 ms; the worker's unit
        # signals the main thread, by then waiting, on frame 10 of 30.
        frames = []

        class Signalling(StaticTracker):
            def frame(self, frame, path):
                if threading.current_thread() is threading.main_thread():
                    time.sleep(0.001)  # so that the worker takes the other unit
                else:
                    time.sleep(0.01)
                    frames.append(path)
                    if len(frames) == 9:
                        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                return super().frame(frame, path)

        seqs = [static_sequence(30, name=f"s{i}") for i in range(2)]
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            execute_plan(RunPlan(repetitions=1, mode="unsupervised"),
                         [TrackerHandle.in_process("t", lambda seq: Signalling())], seqs,
                         workers=2)
        assert threading.active_count() == before
        assert len(frames) == 29

    def test_rows_sorted_by_tracker_sequence_run(self):
        table = execute_plan(
            RunPlan(repetitions=2, mode="unsupervised"),
            [scripted_handle(), scripted_handle(ScriptedTrackerSpec(name="b", center_noise=1.0))],
            [static_sequence(5, name="s2"), static_sequence(5, name="s1")],
            master_seed=1,
        )
        keys = [(r.tracker, r.sequence, r.run) for r in table.rows]
        assert keys == sorted(keys)

    def test_a_unit_that_raises_writes_no_run_file(self, tmp_path):
        scripted = BuiltinTracker("scripted", NOISY)
        opened = []

        def factory(seq):
            opened.append(seq.annotation.name)
            if opened.count("s1") == 2:
                raise ValueError("no second run on s1")
            return scripted(seq)

        out = tmp_path / "out"
        seqs = [static_sequence(5, name="s0"), static_sequence(5, name="s1")]
        with pytest.raises(ValueError, match="^no second run on s1$"):
            execute_plan(RunPlan(repetitions=2, mode="unsupervised"),
                         [TrackerHandle.in_process("t", factory)], seqs, out_dir=str(out))
        raw = out / "raw" / "t"
        assert sorted(p.name for p in (raw / "s0").iterdir()) == ["run_00.traj", "run_01.traj"]
        assert not list(raw.glob("s1/run_*"))

    @pytest.mark.parametrize("box", [(0.0, 0.0, -1.0, 4.0), (math.nan, 0.0, 4.0, 4.0),
                                     (0.0, 0.0, 4.0, -math.inf)])
    @pytest.mark.parametrize("frame", [1, 3])
    def test_invalid_ground_truth_cannot_reach_a_plan(self, box, frame):
        boxes = [(0.0, 0.0, 4.0, 4.0)] * 4
        boxes[frame - 1] = box
        with pytest.raises(InvalidRegionError,
                           match=f"^frame {frame}: invalid ground truth of sequence 'bad': "
                                 rf"{re.escape(str(Region(*box)))}$"):
            make_sequence(boxes, name="bad")

    def test_out_dir_that_is_a_file_is_rejected_before_any_unit(self, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        opened = []
        handle = TrackerHandle.in_process("tts", lambda seq: opened.append(seq) or StaticTracker())
        for out in (afile, afile / "sub"):
            with pytest.raises(ConfigError, match="is not a directory"):
                execute_plan(RunPlan(repetitions=1), [handle], [static_sequence(3)],
                             out_dir=str(out))
        assert opened == []
        assert afile.read_text() == "kept\n"

    def test_raw_artifacts_written(self, tmp_path):
        out = tmp_path / "out"
        execute_plan(
            RunPlan(repetitions=1, mode="both"),
            [tts_handle()],
            [static_sequence(5, name="alpha")],
            out_dir=str(out),
        )
        d = out / "raw" / "tts" / "alpha"
        assert (d / "run_00.traj").exists()
        assert (d / "run_00.record").exists()


class Interrupter(StaticTracker):
    """tts that sleeps 2 ms a frame, so that units on two threads overlap,
    and interrupts the main thread on frame `at`."""

    def __init__(self, at, interrupted):
        self._at = at
        self._interrupted = interrupted

    def frame(self, frame, path):
        region = super().frame(frame, path)
        time.sleep(0.002)
        if frame == self._at:
            self._interrupted.set()
            _thread.interrupt_main()
        return region


class TestSessionReuse:
    def test_a_runs_many_unit_starts_one_process(self, tmp_dataset, started):
        seq = read_sequence(os.path.join(tmp_dataset, "alpha"))
        table = execute_plan(RunPlan(repetitions=3, mode="both"), [wob_handle()], [seq])
        assert [r.run for r in table.rows] == [0, 1, 2]
        assert not any(r.error for r in table.rows)
        assert len(started) == 1
        assert all_exited(started)

    def test_a_tracker_without_the_token_starts_one_process_per_run(self, started):
        handle = stub_handle("ok", "deterministic=0")
        table = execute_plan(RunPlan(repetitions=3, mode="both"), [handle], [static_sequence(6)])
        assert len(table.rows) == 3
        assert len(started) == 6
        assert all_exited(started)

    @pytest.mark.parametrize("mode, timeout", [("exit", 10.0), ("slow", 0.5)])
    def test_a_failed_run_stops_its_process_and_the_next_run_starts_anew(
        self, started, mode, timeout
    ):
        seq = static_sequence(8)
        handle = stub_handle(mode, "runs=many", "deterministic=0", "at=2", timeout=timeout)
        table = execute_plan(RunPlan(repetitions=3, mode="unsupervised"), [handle], [seq])
        assert len(started) == 2  # run 1 and 2 in one process, run 3 in a new one
        # The error row of a tracker that gets one process per run.
        once = execute_plan(RunPlan(repetitions=1, mode="unsupervised"),
                            [stub_handle(mode, "deterministic=0", timeout=timeout)], [seq])
        first, failed, after = table.rows
        assert failed.error is not None and failed.error == once.rows[0].error
        assert repr(failed.values) == repr(once.rows[0].values)
        assert first.error is None and after.error is None
        assert repr(after.values) == repr(first.values)
        assert all_exited(started)

    def test_a_line_left_unread_after_the_last_reply_is_not_parked(self, started):
        # The stray line follows the reply to frame 3, the last frame.
        handle = stub_handle("stray", "runs=many", "deterministic=0")
        table = execute_plan(RunPlan(repetitions=2, mode="unsupervised"), [handle],
                             [static_sequence(3)])
        assert [r.error for r in table.rows] == [None, None]
        assert len(started) == 2
        assert all_exited(started)

    def test_no_process_outlives_a_plan_that_raises(self, tmp_dataset, tmp_path, started):
        seqs = [read_sequence(os.path.join(tmp_dataset, n)) for n in ("alpha", "bravo")]
        out = tmp_path / "out"
        # A directory where a run file goes: the unit runs, then its write raises.
        (out / "raw" / "stub-ok" / "alpha" / "run_00.traj").mkdir(parents=True)
        handles = [wob_handle(), stub_handle("ok", "runs=many", "deterministic=0")]
        with pytest.raises(OSError):
            execute_plan(RunPlan(repetitions=2, mode="both"), handles, seqs,
                         workers=2, out_dir=str(out))
        assert started
        assert all_exited(started)

    def test_every_run_opens_its_session_through_the_handle(
        self, tmp_dataset, started, monkeypatch
    ):
        # A wrapper around TrackerHandle.open that exposes only the
        # session methods a run may use still sees every run.
        opened = []
        handle_open = TrackerHandle.open

        class Proxy:
            def __init__(self, inner):
                self.handshake, self.initialize = inner.handshake, inner.initialize
                self.frame, self.quit, self.close = inner.frame, inner.quit, inner.close

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

        def wrapped(handle, seq):
            opened.append(seq.annotation.name)
            return Proxy(handle_open(handle, seq))

        monkeypatch.setattr(TrackerHandle, "open", wrapped)
        seqs = [read_sequence(os.path.join(tmp_dataset, n)) for n in ("alpha", "bravo")]
        table = execute_plan(RunPlan(repetitions=3, mode="both"), [wob_handle()], seqs,
                             workers=2)
        assert not any(r.error for r in table.rows)
        assert len(opened) == 2 * len(table.rows) == 12
        assert len(started) == 2
        assert all_exited(started)

    def test_direct_runs_never_keep_a_process(self, tmp_dataset, started):
        seq = read_sequence(os.path.join(tmp_dataset, "alpha"))
        handle = wob_handle()
        run_unsupervised(handle, seq, seed=1)
        run_supervised(handle, seq, seed=1)
        assert len(started) == 2
        assert all_exited(started)


class TestHandle:
    @pytest.mark.parametrize("make", [tts_handle, lambda: stub_handle("ok")],
                             ids=["in-process", "cmd"])
    def test_fresh_tracker_handles_admit_concurrent_sessions(self, make):
        handle = make()
        seq = static_sequence(4)
        box = seq.annotation.regions[0]
        with handle.open(seq) as first, handle.open(seq) as second:
            for session in (first, second):
                assert session.handshake(0)[1] is True
            for session in (first, second):
                assert session.initialize(1, seq.frame_paths[0], box) == box
            for session in (first, second):
                assert session.frame(2, seq.frame_paths[1]) == box

    @pytest.mark.parametrize("handle", [
        *(TrackerHandle.in_process(kind, BuiltinTracker.parse(kind)) for kind in BUILTINS),
        scripted_handle(),
        wob_handle(),
    ], ids=[*BUILTINS, "noisy", "cmd"])
    def test_handle_pickles_by_value(self, handle):
        # A handle holds no lock, so a process pool can send it as it is.
        assert pickle.loads(pickle.dumps(handle)) == handle

    def test_no_transport_rejected(self):
        with pytest.raises(ConfigError):
            TrackerHandle(name="empty").open(static_sequence(3))

    # select cannot wait longer than threading.TIMEOUT_MAX seconds.
    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.inf, math.nan,
                                         threading.TIMEOUT_MAX * 1.01, 1e10])
    def test_timeout_must_be_positive_and_at_most_timeout_max(self, timeout):
        for make in (lambda: stub_handle("ok", timeout=timeout),
                     lambda: TrackerHandle.in_process("tts", BuiltinTracker("tts"), timeout)):
            with pytest.raises(ConfigError, match="timeout"):
                make()

    def test_longest_timeout_serves_a_child(self):
        handle = stub_handle("ok", timeout=threading.TIMEOUT_MAX)
        assert len(run_supervised(handle, static_sequence(3))) == 3

    def test_empty_command_rejected(self):
        with pytest.raises(ConfigError):
            TrackerHandle.from_command("x", "")


class TestChildProcess:
    def test_well_behaved_stub_matches_in_process_static(self):
        seq = moving_sequence(18)
        child = run_supervised(stub_handle("ok"), seq, tau=0.0, seed=7)
        local = run_supervised(tts_handle(), seq, tau=0.0, seed=7)
        assert dumps_record(child) == dumps_record(local)

    def test_zero_area_report_is_a_tracking_failure_not_an_error(self):
        seq = static_sequence(6)
        rec = run_supervised(stub_handle("zerocopy"), seq, tau=0.0, seed=0)
        assert rec.failure_frames == (2, 4, 6)

    def test_garbage_reply_is_a_protocol_violation(self):
        seq = static_sequence(8)
        with pytest.raises(ProtocolViolationError) as e:
            run_supervised(stub_handle("garbage"), seq, tau=0.0, seed=0)
        assert e.value.frame == 3

    def test_slow_reply_times_out_with_frame_number(self):
        seq = static_sequence(8)
        with pytest.raises(TrackerTimeoutError) as e:
            run_supervised(stub_handle("slow", timeout=0.5), seq, tau=0.0, seed=0)
        assert e.value.frame == 3

    def test_a_timed_out_child_is_killed_without_a_second_wait(self, started):
        t0 = time.monotonic()
        table = execute_plan(RunPlan(repetitions=1, mode="unsupervised"),
                             [stub_handle("slow", timeout=1.0)], [static_sequence(8)])
        assert time.monotonic() - t0 < 1.75  # the deadline, not the deadline twice
        assert table.rows[0].error == "timeout at frame 3: no reply within 1.0s"
        assert all_exited(started)

    @staticmethod
    def run_lingering(mode, started):
        """One unsupervised run of a stub that outlives its misbehavior, at a
        0.5 s timeout: (the row's error, seconds taken). No child is left."""
        t0 = time.monotonic()
        table = execute_plan(RunPlan(repetitions=1, mode="unsupervised"),
                             [stub_handle(mode, timeout=0.5)], [static_sequence(8)])
        elapsed = time.monotonic() - t0
        assert len(started) == 1 and all_exited(started)
        return table.rows[0].error, elapsed

    def test_a_request_to_a_child_that_closed_its_stdin_is_a_premature_exit(self, started):
        error, elapsed = self.run_lingering("deaf", started)
        assert error.startswith("premature-exit at frame 4: tracker stdin closed: ")
        assert elapsed < 0.5  # no wait: the write fails at once

    def test_a_child_that_closed_its_stdout_is_killed_after_the_timeout(self, started):
        error, elapsed = self.run_lingering("mute", started)
        assert error == "premature-exit at frame 3: tracker exited (status None)"
        assert 0.5 <= elapsed < 1.25  # the wait for the exit, once

    def test_a_child_that_ignores_quit_is_killed_after_the_timeout(self, started):
        error, elapsed = self.run_lingering("stubborn", started)
        assert error is None
        assert 0.5 <= elapsed < 1.25  # the wait for the exit, once

    def test_silent_exit_is_detected(self):
        seq = static_sequence(8)
        with pytest.raises(PrematureExitError) as e:
            run_supervised(stub_handle("exit"), seq, tau=0.0, seed=0)
        assert e.value.frame == 3

    def test_endless_reply_line_fails_fast_and_stops_the_tracker(self, started):
        t0 = time.monotonic()
        with pytest.raises(ProtocolViolationError, match="reply longer") as e:
            run_supervised(stub_handle("flood", timeout=10.0), static_sequence(8))
        assert time.monotonic() - t0 < 5.0  # half the per-frame timeout
        assert e.value.frame == 3
        assert all_exited(started)

    def test_reply_that_is_not_utf8_is_a_protocol_violation_at_its_frame(self, started):
        t0 = time.monotonic()
        with pytest.raises(ProtocolViolationError, match="not UTF-8") as e:
            run_supervised(stub_handle("notutf8", timeout=10.0), static_sequence(8))
        assert time.monotonic() - t0 < 1.0
        assert e.value.frame == 3
        assert all_exited(started)

    def test_long_reply_is_rejected_even_when_its_lf_arrives_with_it(self, started):
        with pytest.raises(ProtocolViolationError, match="reply longer than 4096 bytes") as e:
            run_supervised(stub_handle("long"), static_sequence(8))
        assert e.value.frame == 3
        assert all_exited(started)

    def test_a_last_reply_without_lf_is_read_before_the_exit(self):
        # The reply to frame 3 has no LF; the child exits after it.
        box = static_sequence(3).annotation.regions[0]
        assert run_unsupervised(stub_handle("partial"), static_sequence(3)) == (box,) * 3
        with pytest.raises(PrematureExitError) as e:
            run_unsupervised(stub_handle("partial"), static_sequence(4))
        assert e.value.frame == 4

    def test_crlf_replies_are_accepted(self):
        seq = moving_sequence(12)
        with stub_handle("crlf").open(seq) as session:
            reply = session._request("hello version=1 seed=0", 0)
        assert reply == "hello name=stub deterministic=1"
        child = run_supervised(stub_handle("crlf"), seq, tau=0.0, seed=7)
        local = run_supervised(tts_handle(), seq, tau=0.0, seed=7)
        assert dumps_record(child) == dumps_record(local)

    def test_a_child_session_starts_no_thread(self):
        before = threading.active_count()
        with stub_handle("ok").open(static_sequence(3)) as session:
            session.handshake(0)
            assert threading.active_count() == before

    def test_mangled_handshake_is_rejected_at_frame_zero(self):
        seq = static_sequence(8)
        with pytest.raises(ProtocolViolationError) as e:
            run_supervised(stub_handle("badhello"), seq, tau=0.0, seed=0)
        assert e.value.frame == 0

    def test_run_errors_become_error_rows(self):
        table = execute_plan(
            RunPlan(repetitions=1, mode="supervised"),
            [stub_handle("garbage")],
            [static_sequence(8)],
        )
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.error is not None and "protocol-violation" in row.error
        assert all(math.isnan(v) for v in row.values)

    def test_nonexistent_command_fails_at_handshake(self):
        handle = TrackerHandle.from_command("ghost", "/no/such/binary")
        with pytest.raises(PrematureExitError) as e:
            run_supervised(handle, static_sequence(4))
        assert e.value.frame == 0


class TestUnsupervised:
    def test_trajectory_length_and_first_frame(self):
        seq = moving_sequence(12)
        t = run_unsupervised(tts_handle(), seq, seed=0)
        assert len(t) == 12
        assert t[0] == seq.annotation.regions[0]

    def test_seed_reaches_the_tracker(self):
        seq = static_sequence(10)
        h = scripted_handle()
        a = run_unsupervised(h, seq, seed=1)
        b = run_unsupervised(h, seq, seed=1)
        c = run_unsupervised(h, seq, seed=2)
        assert a == b
        assert a != c


class Reporter(StaticTracker):
    """In-process tracker that holds its initial region but reports
    `report` on frame `at`."""

    name = "reporter"

    def __init__(self, report, at):
        self._report = report
        self._at = at

    def initialize(self, frame, path, region):
        held = super().initialize(frame, path, region)
        return self._report if frame == self._at else held

    def frame(self, frame, path):
        held = super().frame(frame, path)
        return self._report if frame == self._at else held


def reporter_handle(report, at):
    return TrackerHandle.in_process("reporter", lambda seq: Reporter(report, at))


BAD_REPORTS = [
    Region(math.nan, 30.0, 24.0, 18.0),
    Region(40.0, math.inf, 24.0, 18.0),
    Region(-math.inf, 30.0, 24.0, 18.0),
    Region(40.0, 30.0, math.nan, 18.0),
    Region(40.0, 30.0, math.inf, 18.0),
    Region(40.0, 30.0, 24.0, math.inf),
    Region(40.0, 30.0, -1.0, 18.0),
    Region(40.0, 30.0, 24.0, -5e-324),
]


class TestInProcessReportCheck:
    @pytest.mark.parametrize("run", [run_unsupervised, run_supervised])
    @pytest.mark.parametrize("at", [1, 4])
    @pytest.mark.parametrize("bad", BAD_REPORTS)
    def test_invalid_report_is_a_protocol_violation_at_its_frame(self, run, at, bad):
        with pytest.raises(ProtocolViolationError) as e:
            run(reporter_handle(bad, at), static_sequence(6))
        assert e.value.frame == at
        assert str(e.value).endswith(f"invalid reported region {bad}")

    @pytest.mark.parametrize("run", [run_unsupervised, run_supervised])
    @pytest.mark.parametrize("bad", BAD_REPORTS)
    def test_a_child_reporting_it_fails_with_the_in_process_error(self, run, bad):
        # The stub answers its first frame request, frame 2, with the region's text.
        with pytest.raises(ProtocolViolationError) as wire:
            run(stub_handle("ok", "state=" + ",".join(map(repr, bad))), static_sequence(6))
        with pytest.raises(ProtocolViolationError) as local:
            run(reporter_handle(bad, 2), static_sequence(6))
        assert (str(wire.value), wire.value.frame) == (str(local.value), local.value.frame)

    def test_non_region_report_is_a_protocol_violation(self):
        with pytest.raises(ProtocolViolationError, match="tracker returned tuple") as e:
            run_unsupervised(reporter_handle((40.0, 30.0, 24.0, 18.0), 3), static_sequence(6))
        assert e.value.frame == 3

    @pytest.mark.parametrize(
        "report",
        [
            Region(-0.0, -0.0, -0.0, 18.0),
            Region(40.0, 30.0, 0.0, 0.0),
            Region(-7.5, 30.0, 0.0, 18.0),
        ],
    )
    def test_negative_zero_and_zero_area_reports_are_accepted(self, report):
        t = run_unsupervised(reporter_handle(report, 4), static_sequence(6))
        got = t[3]
        assert got == report
        signs = [math.copysign(1.0, v) for v in (got.x, got.y, got.width, got.height)]
        assert signs == [math.copysign(1.0, v)
                         for v in (report.x, report.y, report.width, report.height)]
        rec = run_supervised(reporter_handle(report, 4), static_sequence(6))
        assert rec.failure_frames == (4,)


class TestStateNumbers:
    """A reply's region follows the dataset files' number rule; inf and nan
    parse, so a non-finite report fails as an invalid region."""

    @pytest.mark.parametrize("state", ["1_0,2,3,4", "\u0661,2,3,4", "1,2,3,\u0664\u0662"])
    def test_a_number_text_outside_the_rule_is_a_bad_state_region(self, state):
        with pytest.raises(ProtocolViolationError, match="bad state region") as e:
            run_unsupervised(stub_handle("ok", f"state={state}"), static_sequence(4))
        assert str(e.value) == f"protocol-violation at frame 2: bad state region: {state!r}"

    @pytest.mark.parametrize("state", ["inf,0,1,1", "0,nan,1,1"])
    def test_a_non_finite_number_reaches_the_region_check(self, state):
        with pytest.raises(ProtocolViolationError, match="invalid reported region"):
            run_unsupervised(stub_handle("ok", f"state={state}"), static_sequence(4))


class TestFramePathCheck:
    """The wire cannot frame a path that holds whitespace: a `cmd:` session
    rejects one before its child starts, and a plan before any unit starts."""

    @pytest.mark.parametrize("space", [" ", "\t", "\u3000", "\x1c", "\x85", "\xa0", "\u2028"])
    def test_unicode_whitespace_is_rejected(self, space, started):
        seq = make_sequence([(0.0, 0.0, 4.0, 4.0)] * 3, root=f"data{space}dir")
        for run in (run_unsupervised, run_supervised):
            with pytest.raises(ConfigError, match="frame path contains whitespace"):
                run(tracker_cli_handle("tts"), seq)
        assert started == []

    def test_error_names_the_offending_path(self, started):
        a = static_sequence(3).annotation
        seq = SequenceData(annotation=a, image_size=None,
                           frame_paths=("f/1.jpg", "f/2\x1c.jpg", "f/3 .jpg"))
        with pytest.raises(ConfigError) as e:
            run_unsupervised(tracker_cli_handle("tts"), seq)
        assert str(e.value) == "frame path contains whitespace: 'f/2\\x1c.jpg'"
        assert started == []

    def test_an_in_process_run_frames_no_path(self):
        clean = make_sequence([(0.0, 0.0, 4.0, 4.0)] * 3 + [(9.0, 0.0, 4.0, 4.0)])
        spaced = make_sequence(clean.annotation.regions, root="data dir")
        for handle in (tts_handle(), scripted_handle()):
            got = run_supervised(handle, spaced, tau=0.1, seed=3)
            assert dumps_record(got) == dumps_record(run_supervised(handle, clean, tau=0.1, seed=3))
            want = run_unsupervised(handle, clean, seed=3)
            assert run_unsupervised(handle, spaced, seed=3) == want
        assert run_supervised(tts_handle(), spaced, tau=0.1).failure_frames == (4,)

    @pytest.mark.parametrize("make", [scripted_handle, lambda: tracker_cli_handle("tts")],
                             ids=["in-process", "cmd"])
    def test_a_plan_checks_each_sequence_once_and_each_child_start_once(
        self, monkeypatch, started, make
    ):
        checked = []
        check = runner._check_paths
        monkeypatch.setattr(runner, "_check_paths", lambda seq: checked.append(seq) or check(seq))
        seqs = [static_sequence(4, name="s1"), moving_sequence(5, name="s2")]
        table = execute_plan(RunPlan(repetitions=3), [make()], seqs, workers=2)
        assert len(table.rows) == (6 if make is scripted_handle else 2)
        assert bool(started) == (make is not scripted_handle)
        names = [s.annotation.name for s in checked]
        assert sorted(names[:2]) == ["s1", "s2"]  # the plan's check, before any unit
        assert len(names) == 2 + len(started)

    def test_non_whitespace_unicode_is_accepted(self):
        seq = make_sequence([(0.0, 0.0, 4.0, 4.0)] * 3, root="caf\u00e9\u200b")
        assert len(run_unsupervised(tts_handle(), seq)) == 3
