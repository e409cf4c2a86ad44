"""Tracker evaluation engine: wire protocol, sessions, run plans.

Trackers are driven over a line-based protocol, UTF-8, one message per
line, LF-terminated. The evaluator speaks first:

    hello version=1 seed=<u64>          -> hello name=<id> deterministic=<0|1> [runs=many]
    initialize <frame-path> <x>,<y>,<w>,<h>  -> state <x>,<y>,<w>,<h>
    frame <frame-path>                  -> state <x>,<y>,<w>,<h>
    quit                                (tracker exits)

Numbers are decimal with `.` as separator; regions use the same
`x,y,w,h` syntax as dataset files. A tracker may answer with a
zero-area region to deliberately signal loss. A reply is decoded as
strict UTF-8 and ends at its LF; a CR just before the LF is dropped, and
a bare CR does not end a line. A reply that does not match the expected
shape, is not UTF-8, or holds more than MAX_REPLY_CHARS bytes (4095 plus
the LF) is a protocol violation. Replies are read on the calling
thread with `select` on the child's stdout pipe, so `cmd:` trackers
need a POSIX system. Frame paths are passed verbatim and never opened
by the evaluator; paths containing whitespace cannot be framed on this
protocol, so no child is started on them.

A child process that ends its hello reply with `runs=many` accepts a
fresh `hello` after a run's last reply and resets all its state there.
`execute_plan` then keeps that child for every run of its (tracker,
sequence) unit and sends `quit` once, when the unit ends. Any other
child is started for one run and sent `quit` after it. A run that ends
in an error kills its child at once, without `quit`, so the next run
starts a new one.

A session is what the run loop drives: handshake(seed), initialize(frame,
path, region) and frame(frame, path) with the 1-based frame number, quit()
after a clean run, and close(). theoretical.TrackerBehavior implements it
in process, with no timeouts, and PipeSession for a child over stdio;
identical reports give identical records, or errors. Per-frame timeouts
and tracker crashes invalidate the run (run failures, not tracking ones).

The supervised protocol reinitializes after failures: frame 1 is
always an Init frame; on any later frame whose reported overlap with
the ground truth is at or below tau, a failure frame (None) is
recorded and the next frame (if any) becomes an Init frame carrying
that frame's ground-truth region.
"""

import os
import re
import select
import shlex
import subprocess
import threading
import time
from dataclasses import dataclass, field, replace

# hashlib loads OpenSSL; the builtin module is enough for one digest
# (random.py does the same for sha512).
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from .dataset import _breaks_number_rule, format_region, is_safe_name
from .errors import (
    ConfigError,
    PrematureExitError,
    ProtocolViolationError,
    RunError,
    TrackbenchError,
    TrackerTimeoutError,
)
from .geometry import Region, box_overlap, is_valid_region
from .io_formats import SequenceData, write_record, write_trajectory
from .measures import compute_all
from .trajectory import (
    Init,
    MeasureRow,
    MeasureTable,
    SupervisedRunRecord,
)

__all__ = [
    "PROTOCOL_VERSION",
    "TrackerHandle",
    "RunPlan",
    "run_unsupervised",
    "run_supervised",
    "execute_plan",
    "derive_seed",
]

PROTOCOL_VERSION = 1

# A reply line, LF included, holds at most this many bytes; a region line
# is under 100. Past it the run fails instead of buffering.
MAX_REPLY_CHARS = 4096


def _parse_state_line(line: str, frame: int) -> Region:
    parts = line.split()
    if len(parts) != 2 or parts[0] != "state":
        raise ProtocolViolationError(f"expected 'state <region>', got {line!r}", frame)
    # dataset's number rule, as parse_number applies it; inf and nan reach _checked.
    text = "" if _breaks_number_rule(parts[1]) else parts[1]
    try:
        return Region(*map(float, text.split(",")))
    except (TypeError, ValueError):
        raise ProtocolViolationError(f"bad state region: {parts[1]!r}", frame) from None


def _parse_hello_line(line: str) -> dict[str, str]:
    parts = line.split()
    if not parts or parts[0] != "hello":
        raise ProtocolViolationError(f"expected hello reply, got {line!r}", 0)
    fields = {}
    for token in parts[1:]:
        if "=" not in token:
            raise ProtocolViolationError(f"bad hello token {token!r}", 0)
        k, v = token.split("=", 1)
        fields[k] = v
    if "name" not in fields or fields.get("deterministic") not in ("0", "1"):
        raise ProtocolViolationError(f"incomplete hello reply: {line!r}", 0)
    return fields


class PipeSession:
    """Child process spoken to over stdin/stdout.

    `idle` is the slot of a pair-scoped TrackerHandle, or None. A clean
    quit() after a hello that carried `runs=many` parks the session
    there with its child alive, and close() leaves a parked session
    alone. Any other clean quit() sends `quit` and waits for the child
    to exit; close() kills a live child at once.
    """

    def __init__(self, argv: list[str], timeout: float, idle: list | None = None):
        self._timeout = timeout
        self._idle = idle
        self._pending = b""  # read from stdout, not yet returned as a reply
        self._runs_many = False  # the last hello reply carried runs=many
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as e:
            raise PrematureExitError(f"could not start tracker: {e}", 0) from e

    def _send(self, line: str) -> Exception | None:
        """Write one line; return the error if the child's stdin is gone."""
        try:
            self._proc.stdin.write(line.encode("utf-8") + b"\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as e:
            return e
        return None

    def _request(self, line: str, frame: int) -> str:
        if (e := self._send(line)) is not None:
            raise PrematureExitError(f"tracker stdin closed: {e}", frame)
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + self._timeout
        while (end := self._pending.find(b"\n", 0, MAX_REPLY_CHARS)) < 0:
            if len(self._pending) >= MAX_REPLY_CHARS:
                raise ProtocolViolationError(f"reply longer than {MAX_REPLY_CHARS} bytes", frame)
            if not select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
                raise TrackerTimeoutError(f"no reply within {self._timeout}s", frame)
            chunk = os.read(fd, 65536)
            if not chunk and not self._pending:
                # stdout closes before the child is reaped; poll() alone could
                # still read None for a child that has exited.
                try:
                    code = self._proc.wait(timeout=min(5.0, self._timeout))
                except subprocess.TimeoutExpired:
                    code = None
                raise PrematureExitError(f"tracker exited (status {code})", frame)
            self._pending += chunk or b"\n"  # ends a last line, as readline did
        reply, self._pending = self._pending[:end], self._pending[end + 1:]
        try:
            return reply.decode("utf-8").removesuffix("\r")
        except UnicodeDecodeError:
            raise ProtocolViolationError("reply is not UTF-8", frame) from None

    def handshake(self, seed: int) -> tuple[str, bool]:
        reply = self._request(f"hello version={PROTOCOL_VERSION} seed={seed}", 0)
        fields = _parse_hello_line(reply)
        self._runs_many = fields.get("runs") == "many"
        return fields["name"], fields["deterministic"] == "1"

    def initialize(self, frame: int, path: str, region: Region) -> Region:
        reply = self._request(f"initialize {path} {format_region(region)}", frame)
        return _parse_state_line(reply, frame)

    def frame(self, frame: int, path: str) -> Region:
        reply = self._request(f"frame {path}", frame)
        return _parse_state_line(reply, frame)

    def close(self) -> None:
        """Kill a live child at once, unless the session is parked."""
        if self._idle and self in self._idle:
            return
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout):
            try:
                stream.close()
            except OSError:
                pass

    def _stop(self) -> None:
        """The clean end: send quit and give the child time to exit, then close()."""
        self._send("quit")
        try:
            self._proc.wait(timeout=min(5.0, self._timeout))
        except subprocess.TimeoutExpired:
            pass
        self.close()

    def quit(self) -> None:
        # An unread line would answer the next run's hello.
        if (self._idle is not None and self._runs_many
                and self._proc.poll() is None and not self._pending
                and not select.select([self._proc.stdout], [], [], 0)[0]):
            self._idle.append(self)
        else:
            self._stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


_PLACEHOLDERS = ("{groundtruth}", "{meta}", "{sequence}", "{frames}")


@dataclass
class TrackerHandle:
    """Addressable tracker: a name plus one transport.

    Exactly one of `factory` (in-process behaviors) or `command` (argv
    template for a child process; `{groundtruth}`, `{meta}`,
    `{sequence}` and `{frames}` expand per sequence) is set. Both start
    a fresh tracker per session, so a handle admits any number of open
    sessions, and it holds no lock, so it pickles when its factory does.
    Before it starts a child, `open` raises ConfigError for a frame path
    that holds whitespace; an in-process session frames no path.

    `execute_plan` runs each (tracker, sequence) unit on a copy whose
    `_idle` slot is a list. A `command` child that declared `runs=many`
    waits there after a clean run, the next `open` resumes it instead
    of starting a process, and `close_idle` stops it when the unit ends.
    """

    name: str
    timeout: float = 30.0
    factory: object = None
    command: tuple[str, ...] | None = None
    _idle: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # select cannot wait longer than TIMEOUT_MAX seconds.
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(f"tracker {self.name!r}: timeout must be positive and at most"
                              f" {threading.TIMEOUT_MAX:.0f} seconds")

    @classmethod
    def in_process(cls, name: str, factory, timeout: float = 30.0) -> "TrackerHandle":
        """factory(seq: SequenceData) -> TrackerBehavior; `open` returns it as the session."""
        return cls(name=name, timeout=timeout, factory=factory)

    @classmethod
    def from_command(cls, name: str, command, timeout: float = 30.0) -> "TrackerHandle":
        try:
            argv = tuple(shlex.split(command) if isinstance(command, str) else command)
        except ValueError as e:
            raise ConfigError(f"tracker {name!r}: bad command line: {e}") from None
        if not argv:
            raise ConfigError(f"tracker {name!r}: empty command")
        return cls(name=name, timeout=timeout, command=argv)

    def _expand_command(self, seq: SequenceData) -> list[str]:
        argv = []
        for token in self.command:
            if any(p in token for p in _PLACEHOLDERS):
                if seq.root is None:
                    raise ConfigError(
                        f"tracker {self.name!r} needs sequence files on disk"
                    )
                token = token.replace("{groundtruth}",
                                      os.path.join(seq.root, "groundtruth.txt"))
                token = token.replace("{meta}",
                                      os.path.join(seq.root, "sequence.meta"))
                token = token.replace("{sequence}", seq.root)
                token = token.replace("{frames}", os.path.join(seq.root, "frames"))
            argv.append(token)
        return argv

    def open(self, seq: SequenceData):
        if self.factory is not None:
            return self.factory(seq)
        if self.command is None:
            raise ConfigError(f"tracker {self.name!r} has no transport")
        if self._idle:
            return self._idle.pop()
        _check_paths(seq)
        return PipeSession(self._expand_command(seq), self.timeout, self._idle)

    def close_idle(self) -> None:
        while self._idle:
            self._idle.pop()._stop()


# Matches what str.isspace accepts: both use the same Unicode table.
_WHITESPACE = re.compile(r"\s")


def _check_paths(seq: SequenceData) -> None:
    if _WHITESPACE.search("".join(seq.frame_paths)):
        bad = next(p for p in seq.frame_paths if _WHITESPACE.search(p))
        raise ConfigError(f"frame path contains whitespace: {bad!r}")


def _check_out_dirs(out_dir: str, units) -> None:
    """Raise ConfigError when out_dir or a unit's raw/<tracker>/<sequence>/ cannot be a
    directory: the path, or its nearest existing ancestor, is something else."""
    for path in (out_dir, *(os.path.join(out_dir, "raw", handle.name, seq.annotation.name)
                            for handle, seq in units)):
        d = os.path.abspath(path)
        while not os.path.lexists(d):
            d = os.path.dirname(d)
        if not os.path.isdir(d):
            raise ConfigError(f"output directory {path!r}: {d!r} is not a directory")


def _checked(report, frame: int) -> Region:
    """A session's report if it is a valid Region, whatever its transport."""
    if not isinstance(report, Region):
        raise ProtocolViolationError(f"tracker returned {type(report).__name__}", frame)
    if not is_valid_region(report):
        raise ProtocolViolationError(f"invalid reported region {report}", frame)
    return report


def _drive(handle: TrackerHandle, seq: SequenceData, seed: int, hello: dict | None,
           tau: float | None) -> list:
    """The session loop of both protocols; returns one entry per frame.

    With tau None every entry is the reported region. Otherwise entries
    are Init, a failure frame (None) or the reported region as
    run_supervised describes.
    _checked checks each report, and the ground truth was checked when its
    SequenceAnnotation was built, so every region the loop scores is valid.
    """
    entries = []
    with handle.open(seq) as session:
        _, deterministic = session.handshake(seed)
        if hello is not None:
            hello.setdefault("deterministic", deterministic)
        init = True  # frame 1 initializes
        for t, (path, gt) in enumerate(zip(seq.frame_paths, seq.annotation.regions), 1):
            if init:
                state = _checked(session.initialize(t, path, gt), t)
                init = False
                entries.append(state if tau is None else Init(gt))
            else:
                state = _checked(session.frame(t, path), t)
                init = tau is not None and box_overlap(*gt, *state) <= tau
                entries.append(None if init else state)
        session.quit()
    return entries


def run_unsupervised(
    handle: TrackerHandle, seq: SequenceData, seed: int = 0, hello: dict | None = None
) -> tuple[Region, ...]:
    """One single-initialization run; returns one region per frame.

    Frame 1 holds the region the tracker echoed for the initialization.
    If given, `hello["deterministic"]` is set from the handshake reply
    unless an earlier handshake already set it.
    """
    return tuple(_drive(handle, seq, seed, hello, None))


def run_supervised(
    handle: TrackerHandle,
    seq: SequenceData,
    tau: float = 0.0,
    seed: int = 0,
    hello: dict | None = None,
) -> SupervisedRunRecord:
    """One supervised run with reinitialization after each failure.

    Frame 1 is an Init frame. On every non-Init frame the reported
    region is scored against the ground truth; overlap <= tau records a
    failure frame (None) there and turns the next frame (if any) into an
    Init frame carrying its ground-truth region. A failure on the final
    frame is recorded with no subsequent Init. Init entries store the
    ground-truth region bit-exactly. `hello` is as in run_unsupervised.
    """
    if not (0.0 <= tau <= 1.0):
        raise ConfigError(f"tau {tau} outside [0, 1]")
    return SupervisedRunRecord(_drive(handle, seq, seed, hello, tau), tau=tau)


def derive_seed(master_seed: int, tracker: str, sequence: str, rep: int, mode: str) -> int:
    """Stable per-run seed; distinct repetitions get distinct seeds."""
    text = f"{master_seed}|{tracker}|{sequence}|{rep}|{mode}"
    digest = sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RunPlan:
    """What to run: repetitions per pair, protocol mode, threshold.

    mode is "unsupervised", "supervised" or "both"; "both" performs one
    run per protocol per repetition so a row carries all 16 measures.
    """

    repetitions: int = 30
    mode: str = "both"
    tau: float = 0.0

    def __post_init__(self):
        if self.mode not in ("unsupervised", "supervised", "both"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if not (0.0 <= self.tau <= 1.0):
            raise ConfigError(f"tau {self.tau} outside [0, 1]")


_RUN_FILE = re.compile(r"run_\d{2,}\.(?:traj|record)")


def _run_pair(plan: RunPlan, handle: TrackerHandle, seq: SequenceData, master_seed: int) -> list:
    """Run one unit; returns (row, trajectory or None, record or None) per run."""
    runs = []
    a = seq.annotation
    hello: dict = {}  # this pair's first handshake decides the collapse
    # The unit's runs=many child waits here between runs.
    handle = replace(handle, _idle=[])
    try:
        for rep in range(plan.repetitions):
            trajectory = record = error = None
            try:
                if plan.mode in ("unsupervised", "both"):
                    seed = derive_seed(master_seed, handle.name, a.name, rep, "unsupervised")
                    trajectory = run_unsupervised(handle, seq, seed=seed, hello=hello)
                if plan.mode in ("supervised", "both"):
                    seed = derive_seed(master_seed, handle.name, a.name, rep, "supervised")
                    record = run_supervised(handle, seq, tau=plan.tau, seed=seed, hello=hello)
            except RunError as e:
                error = str(e)
            try:
                values = compute_all(a, trajectory, record)
            except TrackbenchError as e:
                values = (float("nan"),) * 16
                error = error or f"measure error: {e}"
            row = MeasureRow(tracker=handle.name, sequence=a.name, run=rep, frames=len(a),
                             values=values, error=error)
            runs.append((row, trajectory, record))
            if hello.get("deterministic"):
                break
    finally:
        handle.close_idle()
    return runs


def _write_runs(out_dir: str, runs) -> None:
    """Write a unit's runs to raw/<tracker>/<sequence>/, removing stale run files first."""
    d = os.path.join(out_dir, "raw", runs[0][0].tracker, runs[0][0].sequence)
    os.makedirs(d, exist_ok=True)
    for name in os.listdir(d):
        if _RUN_FILE.fullmatch(name):
            os.remove(os.path.join(d, name))
    for row, trajectory, record in runs:
        stem = os.path.join(d, "run_%02d" % row.run)
        if trajectory is not None:
            write_trajectory(stem + ".traj", trajectory)
        if record is not None:
            write_record(stem + ".record", record)


def execute_plan(
    plan: RunPlan,
    trackers: list[TrackerHandle],
    sequences: list[SequenceData],
    master_seed: int = 0,
    workers: int = 1,
    out_dir: str | None = None,
) -> MeasureTable:
    """Run the full plan and return one measure row per completed run.

    The unit of work is one (tracker, sequence) pair. Its repetitions
    run in order and collapse to a single run when the pair's first
    handshake declares the tracker deterministic. Run errors become
    rows with the error field set, never aborts. `workers` workers, the
    calling thread one of them, take units from one shared iterator;
    sessions wait on child pipes, which releases the GIL. Any other
    exception, or an interrupt anywhere on the calling thread, stops
    every worker from taking new units; once each has finished its unit,
    the first one raised reaches the caller. Rows are sorted by (tracker,
    sequence, run) so the result does not depend on scheduling. With
    `out_dir`, a unit's run files are written once all its runs are done;
    a unit that raises writes none. Before any unit starts, a duplicate
    or unsafe name, a frame path holding whitespace, or an `out_dir` or
    unit directory under it that cannot be a directory raises
    ConfigError. The ground truth needs no check here: a SequenceAnnotation
    holds only valid regions.
    """
    # Names key the rows and the raw/<tracker>/<sequence>/ directories,
    # which units on different threads write at the same time, so each
    # must be unique and fit a directory and a TSV cell.
    for kind, names in (("tracker", [h.name for h in trackers]),
                        ("sequence", [s.annotation.name for s in sequences])):
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate {kind} names in plan: {names}")
        for name in names:
            if not is_safe_name(name):
                raise ConfigError(f"unsafe {kind} name {name!r} in plan")
    # Before any unit starts, so a bad value leaves no partial raw/ output.
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    units = [(handle, seq) for handle in trackers for seq in sequences]
    if out_dir is not None:
        _check_out_dirs(out_dir, units)
    for seq in sequences:
        _check_paths(seq)

    todo = iter(units)
    lock = threading.Lock()
    # Each worker releases it as it ends. The calling thread waits on it, as
    # a Thread.join cut short by an interrupt can mark a live thread stopped.
    ended = threading.Semaphore(0)
    rows: list[MeasureRow] = []
    failures: list[BaseException] = []

    def work(others=()) -> None:
        try:
            for t in others:
                t.start()
            while True:
                with lock:
                    unit = None if failures else next(todo, None)
                if unit is None:
                    break
                runs = _run_pair(plan, *unit, master_seed)
                if out_dir is not None:
                    _write_runs(out_dir, runs)
                rows.extend([row for row, _, _ in runs])
                del runs  # not held while the next unit runs
            for _ in others:
                ended.acquire()
        except BaseException as e:
            with lock:
                failures.append(e)
        finally:
            ended.release()

    threads = [threading.Thread(target=work) for _ in range(min(workers, len(units)) - 1)]
    work(threads)
    for t in threads:
        if t.is_alive():
            t.join()
    if failures:
        raise failures[0]
    rows.sort(key=lambda r: (r.tracker, r.sequence, r.run))
    return MeasureTable(rows=tuple(rows))
