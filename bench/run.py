"""trackbench benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload inproc_run --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload seed is both the synth seed
and the run's master seed. Set-up is repeated and its median reported
as setup_s; then iterations of the workload run back to back until
--seconds have passed, every output is checked, and the medians are
reported. With --trace 1 every second iteration runs with spans around
the public calls into each layer, and the per-layer figures replace the
end-to-end ones in the result. Human-readable lines come first; the
last line of stdout is the JSON result. The exit code is 1 when an
output check fails and 2 when the sources are missing.

Outputs go to a temporary directory under .bench_tmp/, removed at the
end; the full result and the spans of the last traced iteration are
written under .bench_results/.
"""

import argparse
import gc
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Counts that must repeat exactly between iterations and between the
# traced and untraced iterations of one run.
EXACT = ("runner.sessions", "runner.reinits", "measures.compute_all_calls",
         "io_formats.files_written", "io_formats.bytes_written",
         "analysis.affinity_iterations")

MIN_ITERATIONS = 3

# On a shared 2-vCPU virtual machine CPU speed was measured to drift by up
# to 2x over seconds to minutes. A fixed pure-Python probe, timed right
# before and right after each iteration, measures the speed the iteration
# ran at; wall_ref_s scales the iteration's wall time to the speed at which
# one probe takes PROBE_REF_S seconds. The probe is benchmark code, so no
# change to trackbench moves it.
PROBE_REF_S = 0.018


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(rec, wall):
    """Per-layer figures of one traced iteration (None when not exercised)."""
    c = rec.counts
    dur = rec.durations
    self_time = rec.layer_self_time()

    def total(layer, *names, scale=1.0):
        spans = [d for n in names for d in dur(layer, n)]
        return sum(spans) * scale if spans else None

    def ratio(num, den, scale):
        return num / den * scale if num is not None and den else None

    def pct(values, q, scale):
        return percentile(values, q) * scale if values else None

    opens = rec.samples["open_s"]
    trips = dur("runner", "roundtrip")
    sessions = dur("runner", "session")
    reads = dur("io_formats", "read_sequence")
    scoring = total("measures", "compute_all")
    return {
        "runner.sessions": c["runner.sessions"],
        "runner.reinits": c["runner.reinits"],
        "runner.run_errors": c["runner.run_errors"],
        "runner.open_ms.p50": pct(opens, 50, 1e3),
        "runner.open_ms.p90": pct(opens, 90, 1e3),
        "runner.roundtrip_us.p50": pct(trips, 50, 1e6),
        "runner.roundtrip_us.p99": pct(trips, 99, 1e6),
        "runner.session_ms.p50": pct(sessions, 50, 1e3),
        "runner.session_ms.p90": pct(sessions, 90, 1e3),
        "runner.self_s": self_time["runner"],
        "measures.compute_all_calls": c["measures.compute_all_calls"],
        "measures.us_per_frame": ratio(scoring, c["measures.frames_scored"], 1e6),
        "measures.busy_share": ratio(scoring, wall, 1.0),
        "io_formats.write_us_per_frame": ratio(
            total("io_formats", "write_artifact"), c["io_formats.frames_written"], 1e6),
        "io_formats.files_written": c["io_formats.files_written"],
        "io_formats.bytes_written": c["io_formats.bytes_written"],
        "io_formats.parse_us_per_frame": ratio(
            total("io_formats", "parse", "read_sequence"), c["io_formats.frames_parsed"], 1e6),
        "io_formats.table_ms": total("io_formats", "table", scale=1e3),
        "io_formats.read_sequence_ms": pct(reads, 50, 1e3),
        "analysis.pearson_ms": total("analysis", "pearson", scale=1e3),
        "analysis.affinity_ms": total("analysis", "affinity", scale=1e3),
        "analysis.affinity_iterations": c["analysis.affinity_iterations"],
        "analysis.kmeans_ms": total("analysis", "kmeans", scale=1e3),
        "theoretical.sequence_properties_ms": total("theoretical", "sequence_properties", scale=1e3),
        "theoretical.ar_points_ms": total("theoretical", "ar_points", scale=1e3),
        "plots.svg_ms": total("plots", "svg", scale=1e3),
        "plots.svg_bytes": c["plots.svg_bytes"],
        "cli.self_s": self_time["cli"],
    }


def probe():
    """Seconds for a fixed mix of float, str, tuple and dict work (best of 3)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table = {}
        acc = 0.0
        for i in range(20000):
            x = i * 0.37
            text = repr(x)
            acc += float(text) * 1.0001
            table[i & 255] = (x, text)
        best = min(best, time.perf_counter() - t0)
    return best


def median_of(dicts, key):
    values = [d[key] for d in dicts if d.get(key) is not None]
    return statistics.median(values) if values else None


def measure(work, seed, seconds, trace, tmp):
    """Set up, iterate for `seconds`, check; returns the result record."""
    import numpy
    import spans
    from workloads import probe_starts

    failures = []
    setup_s, make_dataset_s = [], []
    for k in range(work.setups):
        rec = spans.Recorder() if trace else None
        d = os.path.join(tmp, f"setup{k}")
        t0 = time.perf_counter()
        state = work.setup(d, seed, rec)
        setup_s.append(time.perf_counter() - t0)
        if rec is not None:
            make_dataset_s += rec.durations("synthdata", "make_dataset")
        if k + 1 < work.setups:
            shutil.rmtree(d)

    iterations, traced = [], []
    last_rec = None
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        rec = spans.Recorder() if trace and i % 2 == 1 else None
        out = os.path.join(tmp, f"iter{i}")
        gc.collect()
        before = probe()
        undo = spans.install(rec) if rec is not None else None
        try:
            stages, outcome = work.iterate(state, out, rec)
        finally:
            if undo is not None:
                undo()
        speed = PROBE_REF_S / ((before + probe()) / 2)
        it = work.check(state, out, stages, outcome)
        it.wall_ref = it.wall * speed
        shutil.rmtree(out, ignore_errors=True)
        failures += it.failures
        if rec is None:
            iterations.append(it)
        else:
            layers = layer_metrics(rec, it.wall)
            for key, value in it.counts.items():
                if layers[key] != value:
                    failures.append(f"{key}: traced {layers[key]} != untraced {value}")
            failures += [f"layer {lay} recorded no span"
                         for lay in work.layers if lay not in rec.layers()]
            traced.append((it, layers))
            last_rec = rec
        i += 1
        if (time.perf_counter() >= deadline and len(iterations) >= MIN_ITERATIONS
                and (not trace or len(traced) >= MIN_ITERATIONS)):
            break

    every = iterations + [it for it, _ in traced]
    for key in EXACT:
        seen = {it.counts[key] for it in every if key in it.counts}
        seen |= {layers[key] for _, layers in traced}
        if len(seen) > 1:
            failures.append(f"{key} differs between iterations: {sorted(seen)}")

    per_layer = None
    if trace:
        if not make_dataset_s:
            failures.append("layer synthdata recorded no span")
        per_layer = {key: median_of([layers for _, layers in traced], key)
                     for key in traced[0][1]}
        python, tracker = probe_starts()
        per_layer["tracker_cli.start_ms"] = statistics.median(tracker) * 1e3
        per_layer["python.start_ms"] = statistics.median(python) * 1e3
        per_layer["synthdata.make_dataset_ms"] = statistics.median(make_dataset_s) * 1e3
        untraced_wall = statistics.median(it.wall for it in iterations)
        traced_wall = statistics.median(it.wall for it, _ in traced)
        per_layer["trace.overhead_s"] = traced_wall - untraced_wall
        per_layer["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall

    operations = sum(it.operations for it in every)
    return {
        "workload": work.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "size": iterations[0].size,
        "samples": {"setup": len(setup_s), "iterations": len(iterations),
                    "traced_iterations": len(traced)},
        "end_to_end": {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(it.wall for it in iterations),
            "wall_ref_s": statistics.median(it.wall_ref for it in iterations),
            **{name + "_s": statistics.median(it.stages[name] for it in iterations)
               for name in iterations[0].stages},
            "error_share": len(failures) / max(1, operations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "iteration_walls": [(it.wall, it.wall_ref) for it in iterations],
        "per_layer": per_layer,
        "spans": last_rec.spans if last_rec is not None else None,
        "operations": operations,
        "failed": len(failures),
        "failures": failures[:50],
    }


def unit_of(name):
    stem = re.sub(r"\.p\d+$", "", name)
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("us_per_frame", "us"),
                         ("_mb", "MB"), ("_share", "share"), ("bytes", "bytes"),
                         ("bytes_written", "bytes")):
        if stem.endswith(suffix):
            return unit
    return "count"


def report(result, declared):
    """Human-readable lines, then the JSON result line."""
    env = result["environment"]
    size = result["size"]
    n = result["samples"]
    lines = [
        f"trackbench benchmark: workload={result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} trace={result['trace']}",
        f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']}",
        "input: " + " ".join(f"{k}={v}" for k, v in size.items()),
    ]
    sizes = " ".join(f"{k}={v}" for k, v in size.items() if k != "sequences")
    e2e = result["end_to_end"]
    for name, value in e2e.items():
        if name == "setup_s":
            note = f"median of {n['setup']} set-ups"
        elif name == "error_share":
            note = f"{result['failed']} of {result['operations']} operations"
        elif name == "peak_rss_mb":
            note = "evaluator process"
        else:
            note = f"median of {n['iterations']} iterations; {sizes}"
        lines.append(f"  {name:<34} {value:>14.6g} {unit_of(name):<6} {note}")
    if result["trace"]:
        lines.append(f"per layer (median of {n['traced_iterations']} traced iterations):")
        for name, value in result["per_layer"].items():
            shown = "-" if value is None else f"{value:.6g}"
            lines.append(f"  {name:<34} {shown:>14} {unit_of(name)}")
    for failure in result["failures"]:
        lines.append(f"FAILED: {failure}")
    figures = result["per_layer"] if result["trace"] else e2e
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in declared}
    lines.append(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["operations"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return lines


def write_results(result, name):
    out = os.path.join(ROOT, ".bench_results")
    os.makedirs(out, exist_ok=True)
    spans = result.pop("spans")
    with open(os.path.join(out, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if spans:
        with open(os.path.join(out, name + "-spans.tsv"), "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tname\tstart_s\tend_s\n")
            t = spans[0][4]
            for sid, parent, layer, span, t0, t1 in spans:
                fh.write(f"{sid}\t{parent or ''}\t{layer}\t{span}\t{t0 - t:.7f}\t{t1 - t:.7f}\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "trackbench", "cli.py")):
        print(f"error: no trackbench sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, SRC)
    # cmd: trackers run `python -m trackbench.tracker_cli` from these sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        result = measure(work, args.seed, args.seconds, args.trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    lines = report(result, declared["per_layer" if args.trace else "end_to_end"])
    write_results(result, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print("\n".join(lines))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
