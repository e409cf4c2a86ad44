"""The three workloads: set-up, one timed iteration, and its output checks.

Each iteration is a closed loop driven from this process through
`cli.main`: a session sends its next frame only after the reply, and
the stages of an iteration run back to back. `iterate` returns the wall
time of each stage plus what the checks need, and `check` reads the
outputs after the timed region.
"""

import contextlib
import dataclasses
import io
import os
import shlex
import subprocess
import sys
import time

from trackbench import cli, io_formats, measures, synthdata
from trackbench.io_formats import SequenceData

WORKERS = min(2, os.cpu_count() or 1)
SEQUENCES = 12
# make_dataset draws each length from 60-120. Every sequence is cut to its
# first FRAMES frames so that the input size, and with it the run time,
# does not change with the seed.
FRAMES = 60
REPETITIONS = 3
CMD_SEQUENCES = 3
CMD_REPETITIONS = 2
CMD_TRACKERS = ("tts", "tto", "noisy")


def _nullspan(layer, name):
    return contextlib.nullcontext()


def _span(rec):
    return rec.span if rec is not None else _nullspan


def call_cli(argv, rec=None):
    """Run one `trackbench` command; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), _span(rec)("cli", argv[0]):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - t0


def scripted_spec(spec):
    """`scripted:` tracker spec text for a ScriptedTrackerSpec."""
    onset = "none" if spec.drift_onset is None else str(spec.drift_onset)
    dx, dy = spec.drift_velocity
    return (
        f"scripted:name={spec.name},center_noise={spec.center_noise!r},"
        f"scale_noise={spec.scale_noise!r},loss_prob={spec.loss_prob!r},"
        f"drift_onset={onset},drift_velocity={dx!r}:{dy!r},seed={spec.seed}"
    )


def inproc_specs(names=None):
    """The 4 theoretical trackers and the 7 scripted corpus specs."""
    specs = {k: k for k in ("tta", "tts", "ttf", "tto")}
    specs.update((s.name, scripted_spec(s)) for s in synthdata.corpus_trackers())
    return [specs[n] for n in (names or specs)]


def cmd_specs():
    """CMD_TRACKERS served by child processes of trackbench.tracker_cli."""
    py = f"{shlex.quote(sys.executable)} -m trackbench.tracker_cli"
    gt = "--groundtruth {groundtruth}"
    out = []
    for name, spec in zip(CMD_TRACKERS, inproc_specs(CMD_TRACKERS)):
        if spec.startswith("scripted:"):
            params = shlex.quote(spec[len("scripted:"):])
            out.append(f"cmd:{name}:{py} scripted {gt} --params {params}")
        else:
            out.append(f"cmd:{name}:{py} {name} {gt}")
    return out


def run_argv(data, out, seed, specs, repetitions):
    argv = ["run", "--dataset", data, "--out", out, "--mode", "both",
            "--repetitions", str(repetitions), "--seed", str(seed),
            "--workers", str(WORKERS)]
    for spec in specs:
        argv += ["--tracker", spec]
    return argv


def make_data(tmp, n, seed, rec=None):
    """Synthesize, write and load a dataset; returns (root, sequences)."""
    span = _span(rec)
    with span("synthdata", "make_dataset"):
        seqs = synthdata.make_dataset(n_sequences=n, seed=seed)
    seqs = [SequenceData.synthetic(
        dataclasses.replace(s.annotation, regions=s.annotation.regions[:FRAMES]),
        image_size=s.image_size) for s in seqs]
    root = os.path.join(tmp, "data")
    with span("synthdata", "write_dataset"):
        synthdata.write_dataset(root, seqs)
    with span("io_formats", "load_dataset"):
        loaded = [io_formats.read_sequence(d) for d in io_formats.list_sequences(root)]
    return root, loaded


def snapshot(root, skip=("manifest.txt",)):
    """{relative path: bytes} of every file under root but `skip`.

    manifest.txt holds a timestamp and the absolute dataset path, so it
    is the one output allowed to differ between runs.
    """
    files = {}
    for d, _, names in os.walk(root):
        for name in names:
            if name in skip:
                continue
            path = os.path.join(d, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def diff(expected, got):
    """Paths whose bytes differ or that only one side has."""
    return sorted(p for p in expected.keys() | got.keys()
                  if expected.get(p) != got.get(p))


def run_counts(files):
    """Exact counts a `run` output implies, derived without tracing."""
    table = io_formats.loads_measure_table(files["measures.tsv"].decode("utf-8"))
    records = [b for p, b in files.items() if p.endswith(".record")]
    return {
        "runner.sessions": 2 * len(table.rows),
        "runner.reinits": sum(b.count(b"\nI:") - 1 for b in records),
        "measures.compute_all_calls": len(table.rows),
        "io_formats.files_written": len(files),
        "io_formats.bytes_written": sum(len(b) for b in files.values()),
    }, table


def children_exited():
    """True when no child process of this one is still running.

    Exited children that nobody waited for are reaped here.
    """
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            return False


class Iteration:
    """What one iteration did: stage seconds, work sizes, check results."""

    def __init__(self, stages, operations, failures, counts, size):
        self.stages = stages
        self.operations = operations
        self.failures = failures
        self.counts = counts
        self.size = size

    @property
    def wall(self):
        return sum(self.stages.values())


class RunWorkload:
    """`trackbench run` of `specs`; its outputs must equal a reference run.

    Set-up writes the dataset and makes the reference: an in-process run
    of `reference_specs` (the same trackers) with the same seed.
    """

    # Layers whose spans every traced iteration must record; synthdata is
    # checked in set-up and tracker_cli by the start-up probes.
    layers = ("cli", "runner", "measures", "io_formats")

    def __init__(self, name, sequences, repetitions, specs, reference_specs, setups):
        self.name = name
        self.sequences = sequences
        self.repetitions = repetitions
        self.specs = specs
        self.reference_specs = reference_specs
        self.setups = setups

    def setup(self, tmp, seed, rec=None):
        data, seqs = make_data(tmp, self.sequences, seed, rec)
        ref = os.path.join(tmp, "reference")
        argv = run_argv(data, ref, seed, self.reference_specs, self.repetitions)
        code, _, _ = call_cli(argv, rec)
        if code != 0:
            raise RuntimeError(f"reference run exited {code}")
        return {"data": data, "seed": seed, "sequences": len(seqs),
                "store": ref, "reference": snapshot(ref)}

    def iterate(self, state, out, rec=None):
        argv = run_argv(state["data"], out, state["seed"], self.specs, self.repetitions)
        code, _, seconds = call_cli(argv, rec)
        return {"run": seconds}, code

    def check(self, state, out, stages, code):
        failures = [] if code == 0 else [f"run exited {code}"]
        if not children_exited():
            failures.append("a tracker child process is still running")
        files = snapshot(out)
        if "measures.tsv" not in files:
            return Iteration(stages, 1, failures + ["no measures.tsv"], {}, {})
        counts, table = run_counts(files)
        failures += [f"run error in {r.tracker}/{r.sequence}/{r.run}: {r.error}"
                     for r in table.rows if r.error is not None]
        failures += [f"output differs from the reference run: {p}"
                     for p in diff(state["reference"], files)]
        size = {"sequences": state["sequences"], "rows": len(table.rows),
                "sessions": counts["runner.sessions"],
                "frames": sum(2 * r.frames for r in table.rows)}
        return Iteration(stages, len(table.rows), failures, counts, size)


INPROC_RUN = RunWorkload("inproc_run", SEQUENCES, REPETITIONS,
                         inproc_specs(), inproc_specs(), setups=3)
CMD_RUN = RunWorkload("cmd_run", CMD_SEQUENCES, CMD_REPETITIONS,
                      cmd_specs(), inproc_specs(CMD_TRACKERS), setups=5)


class ScoreReport:
    """Re-score a stored run, then analyze, label and plot it.

    Set-up makes an inproc_run output. The timed part loads io_formats
    parsing (the read side of inproc_run's writes), measures, analysis,
    theoretical and plots, and drives no tracker session except the
    probes `label` and the ar plot run internally.
    """

    name = "score_report"
    setups = 3
    layers = ("cli", "runner", "measures", "io_formats", "analysis",
              "theoretical", "plots")
    reports = ("correlation.tsv", "ar_summary.tsv", "clusters.tsv", "labels.tsv")

    def setup(self, tmp, seed, rec=None):
        state = INPROC_RUN.setup(tmp, seed, rec)
        state["table"] = io_formats.read_measure_table(
            os.path.join(state["store"], "measures.tsv"))
        if any(r.error is not None for r in state["table"].rows):
            raise RuntimeError("set-up run has rows with a run error")
        state["reference"] = None
        return state

    def iterate(self, state, out, rec=None):
        data, store, table = state["data"], state["store"], state["table"]
        tsv = os.path.join(store, "measures.tsv")
        stages, codes, scored = {}, [], []

        # Re-score every stored pair the way `trackbench measure` does.
        t0 = time.perf_counter()
        annotations = {name: io_formats.read_sequence(os.path.join(data, name)).annotation
                       for name in sorted({r.sequence for r in table.rows})}
        for r in table.rows:
            raw = os.path.join(store, "raw", r.tracker, r.sequence, "run_%02d" % r.run)
            scored.append(measures.compute_all(
                annotations[r.sequence],
                io_formats.read_trajectory(raw + ".traj"),
                io_formats.read_record(raw + ".record")))
        stages["rescore"] = time.perf_counter() - t0

        for stage, argv in (
            ("analyze", ["analyze", "--measures", tsv, "--out", out]),
            ("label", ["label", "--dataset", data, "--out", out]),
        ):
            code, _, stages[stage] = call_cli(argv, rec)
            codes.append(code)

        t0 = time.perf_counter()
        for argv in self._plots(state, out):
            code, _, _ = call_cli(argv, rec)
            codes.append(code)
        stages["plot"] = time.perf_counter() - t0
        return stages, (codes, scored)

    def _plots(self, state, out):
        """ar and survival, then four per-sequence plots of every tracker's run 0."""
        data, store = state["data"], state["store"]
        tsv = os.path.join(store, "measures.tsv")
        yield ["plot", "--type", "ar", "--measures", tsv, "--dataset", data,
               "--out", os.path.join(out, "ar.svg")]
        yield ["plot", "--type", "survival", "--measures", tsv,
               "--out", os.path.join(out, "survival.svg")]
        trackers = sorted({r.tracker for r in state["table"].rows})
        for seq in sorted({r.sequence for r in state["table"].rows}):
            runs = [(t, os.path.join(store, "raw", t, seq, "run_00")) for t in trackers]
            trajs = [a for t, p in runs for a in ("--trajectory", f"{t}={p}.traj")]
            recs = [a for t, p in runs for a in ("--record", f"{t}={p}.record")]
            for kind, inputs in (("overlap", trajs), ("center_error", trajs),
                                 ("threshold", trajs), ("fragmentation", recs)):
                yield ["plot", "--type", kind, "--sequence", os.path.join(data, seq),
                       "--out", os.path.join(out, f"{kind}_{seq}.svg")] + inputs

    def check(self, state, out, stages, outcome):
        codes, scored = outcome
        table = state["table"]
        failures = [f"command {i} exited {c}" for i, c in enumerate(codes) if c != 0]
        for row, values in zip(table.rows, scored):
            if [v.hex() for v in values] != [v.hex() for v in row.values]:
                failures.append(f"re-scored {row.tracker}/{row.sequence}/{row.run} "
                                "differs from measures.tsv")
        files = snapshot(out)
        if state["reference"] is None:
            state["reference"] = files
        failures += [f"report differs: {p}" for p in diff(state["reference"], files)]
        reports = [files.get(name, b"") for name in self.reports]
        iterations = [line for line in files.get("clusters.tsv", b"").split(b"\n")
                      if line.startswith(b"# iterations: ")]
        counts = {
            "measures.compute_all_calls": len(scored),
            "io_formats.files_written": sum(name in files for name in self.reports),
            "io_formats.bytes_written": sum(len(b) for b in reports),
            "analysis.affinity_iterations":
                int(iterations[0].split(b": ")[1]) if iterations else -1,
        }
        size = {"sequences": state["sequences"], "rows": len(scored),
                "frames": sum(r.frames for r in table.rows)}
        return Iteration(stages, len(codes), failures, counts, size)


def probe_starts(n=5):
    """Start-up floors in seconds: a bare interpreter run to its exit, and
    a tracker_cli process from spawn to its hello reply."""
    python, tracker = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        python.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", "trackbench.tracker_cli", "tts"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True) as proc:
            proc.stdin.write("hello version=1 seed=0\n")
            proc.stdin.flush()
            reply = proc.stdout.readline()
            tracker.append(time.perf_counter() - t0)
            proc.stdin.write("quit\n")
            proc.stdin.close()
            proc.wait(timeout=30)
        if not reply.startswith("hello "):
            raise RuntimeError(f"tracker_cli probe answered {reply!r}")
    return python, tracker


WORKLOADS = {w.name: w for w in (INPROC_RUN, CMD_RUN, ScoreReport())}
