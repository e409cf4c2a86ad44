"""Command line interface.

Subcommands: synth (generate a dataset), run (evaluate trackers),
measure (score stored outputs), analyze (dataset-level tables),
label (sequence properties), plot (SVG diagnostics).

Exit codes: 0 success, 1 evaluation/data error, 2 bad invocation,
configuration or missing input file (argparse uses 2 as well); see
errors.exit_status.
"""

import argparse
import functools
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .analysis import ar_summary, cluster_measures, label_sequences, pearson_matrix, survival_scores
from .dataset import format_number, is_safe_name, settings_lines, write_text
from .errors import ClusterDomainError, ConfigError, TrackbenchError, exit_status
from .io_formats import (
    SequenceData,
    dumps_measure_table,
    list_sequences,
    read_measure_table,
    read_record,
    read_sequence,
    read_trajectory,
    write_ar_summary,
    write_cluster_assignment,
    write_correlation_matrix,
    write_label_table,
    write_manifest,
    write_measure_table,
)
from .measures import compute_all
from .runner import RunPlan, TrackerHandle, execute_plan
from .theoretical import BUILTINS, BuiltinTracker, theoretical_ar_points
from .trajectory import MeasureRow, MeasureTable, score_record, score_trajectory

__all__ = ["main", "parse_tracker_spec"]


def _settings_lines(path: str, what: str) -> list[tuple[int, str]]:
    """dataset.settings_lines, with an unreadable file a ConfigError."""
    try:
        return settings_lines(path)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path!r}: {e}") from e


def parse_tracker_spec(spec: str, timeout: float = 30.0) -> TrackerHandle:
    """Turn a tracker spec string into a handle.

    Forms:
      tta | tts | ttf | tto                  theoretical trackers
      scripted[:key=value,...]               scripted perturbation of ground truth
      scripted:@params.txt                   same, parameters from a file
      cmd:<name>:<command line>              child process over stdio

    The built-in forms (theoretical.BUILTINS) become a BuiltinTracker
    that the handle calls to build the behavior; only scripted takes
    parameters. The tracker name becomes a directory under `raw/` and
    a TSV cell, so empty names, `.`, `..` and names containing `/`,
    `\\`, a tab, CR or LF are rejected.
    """
    text = spec.strip()
    kind, colon, body = text.partition(":")
    if kind in BUILTINS:
        if kind == "scripted" and body.startswith("@"):
            body = ",".join(line for _, line in _settings_lines(body[1:], "scripted params"))
        tracker = BuiltinTracker.parse(kind, body if colon else None)
        handle = TrackerHandle.in_process(tracker.name, tracker, timeout=timeout)
    elif kind == "cmd":
        if ":" not in body:
            raise ConfigError(f"cmd tracker needs cmd:<name>:<command>, got {text!r}")
        name, command = body.split(":", 1)
        if not name or not command.strip():
            raise ConfigError(f"cmd tracker needs a name and a command, got {text!r}")
        handle = TrackerHandle.from_command(name, command, timeout=timeout)
    else:
        raise ConfigError(f"unrecognized tracker spec {text!r}")
    if not is_safe_name(handle.name):
        raise ConfigError(f"unsafe tracker name {handle.name!r} in {spec!r}")
    return handle


# Each `run` setting once: (type, default, help) for both its flag and its
# config key. Flags default to None so that a config line can fill them in.
_RUN_SETTINGS = {
    "dataset": (str, None, "dataset root (one directory per sequence)"),
    "out": (str, "out", "output directory"),
    "mode": (str, "both", "supervised, unsupervised or both"),
    "repetitions": (int, 30, "runs per pair"),
    "tau": (float, 0.0, "failure threshold"),
    "seed": (int, 0, "master seed"),
    "workers": (int, 1, "(tracker, sequence) units run in parallel"),
    "timeout": (float, 30.0, "per-reply timeout in seconds"),
}


def _read_config(path: str) -> dict:
    """Flat key=value config; `tracker=` may repeat. Flags win over this."""
    out: dict = {"tracker": []}
    for i, line in _settings_lines(path, "config"):
        if "=" not in line:
            raise ConfigError(f"{path}:{i}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key == "tracker":
            out["tracker"].append(value)
        elif key in _RUN_SETTINGS:
            try:
                out[key] = _RUN_SETTINGS[key][0](value)
            except ValueError:
                raise ConfigError(f"{path}:{i}: bad value for {key}: {value!r}") from None
        else:
            raise ConfigError(f"{path}:{i}: unknown config key {key!r}")
    return out


def _load_dataset(root: str) -> list[SequenceData]:
    if not os.path.isdir(root):
        raise ConfigError(f"dataset directory not found: {root!r}")
    dirs = list_sequences(root)
    if not dirs:
        raise ConfigError(f"no sequences under {root!r} (need <seq>/groundtruth.txt)")
    return [read_sequence(d) for d in dirs]


def _cmd_synth(args) -> int:
    from .synthdata import make_dataset, write_dataset

    seqs = make_dataset(n_sequences=args.sequences, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    written = write_dataset(args.out, seqs)
    for seq in written:
        print(f"{seq.annotation.name}\t{len(seq)} frames")
    print(f"wrote {len(written)} sequences under {args.out}")
    return 0


def _cmd_run(args) -> int:
    import numpy

    # Defaults, then config lines, then flags.
    settings = {key: default for key, (_, default, _) in _RUN_SETTINGS.items()}
    settings["tracker"] = []
    if args.config:
        settings.update(_read_config(args.config))
    for key in settings:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    run = argparse.Namespace(**settings)

    if not run.dataset:
        raise ConfigError("run needs --dataset (or dataset= in the config)")
    if not run.tracker:
        raise ConfigError("run needs at least one --tracker (or tracker= in the config)")
    handles = [parse_tracker_spec(spec, timeout=run.timeout) for spec in run.tracker]
    seqs = _load_dataset(run.dataset)
    table_path = os.path.join(run.out, "measures.tsv")
    manifest_path = os.path.join(run.out, "manifest.txt")
    for path in (table_path, manifest_path):
        if os.path.isdir(path):
            raise ConfigError(f"output file {path!r} is a directory")

    plan = RunPlan(repetitions=run.repetitions, mode=run.mode, tau=run.tau)
    table = execute_plan(
        plan, handles, seqs, master_seed=run.seed, workers=run.workers, out_dir=run.out
    )

    write_measure_table(table_path, table)
    write_manifest(manifest_path, [
        ("generated", datetime.now(timezone.utc).isoformat()),
        ("trackbench", __version__),
        ("python", ".".join(map(str, sys.version_info[:3]))),
        ("numpy", numpy.__version__),
        ("dataset", os.path.abspath(run.dataset)),
        ("sequences", len(seqs)),
        ("trackers", ",".join(h.name for h in handles)),
        *(("tracker", spec) for spec in run.tracker),
        ("mode", run.mode),
        ("repetitions", run.repetitions),
        ("tau", format_number(float(run.tau))),
        ("master_seed", run.seed),
        ("timeout", format_number(float(run.timeout))),
        ("workers", run.workers),
    ])

    bad = sum(1 for r in table.rows if r.error is not None)
    print(f"wrote {table_path} ({len(table.rows)} rows)")
    if bad:
        print(f"warning: {bad} rows carry a run error", file=sys.stderr)
    return 0


def _cmd_measure(args) -> int:
    if not is_safe_name(args.name):
        raise ConfigError(f"unsafe tracker name {args.name!r}")
    annotation = read_sequence(args.sequence).annotation
    trajectory = read_trajectory(args.trajectory) if args.trajectory else None
    record = read_record(args.record) if args.record else None
    if trajectory is None and record is None:
        raise ConfigError("measure needs --trajectory and/or --record")
    values = compute_all(annotation, trajectory=trajectory, record=record)
    row = MeasureRow(
        tracker=args.name,
        sequence=annotation.name,
        run=0,
        frames=len(annotation),
        values=values,
    )
    table = MeasureTable(rows=(row,))
    if args.out:
        write_measure_table(args.out, table)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(dumps_measure_table(table))
    return 0


def _report(write, out_dir: str, name: str, *result) -> None:
    path = os.path.join(out_dir, name)
    write(path, *result)
    print(f"wrote {path}")


def _cmd_analyze(args) -> int:
    table = read_measure_table(args.measures)
    clean = sum(1 for r in table.rows if r.error is None)
    # Every report is computed before the first is written, so a rejected
    # argument leaves --out as it was.
    corr = pearson_matrix(table)
    rows = ar_summary(table, span=args.span)
    try:
        assignment = cluster_measures(corr, damping=args.damping)
    except ClusterDomainError as e:
        assignment, skipped = None, e

    os.makedirs(args.out, exist_ok=True)
    _report(write_correlation_matrix, args.out, "correlation.tsv", corr, clean)
    _report(write_ar_summary, args.out, "ar_summary.tsv", rows, args.span)
    if assignment is None:
        # An earlier analysis's clusters would sit beside reports they do not match.
        stale = os.path.join(args.out, "clusters.tsv")
        if os.path.exists(stale):
            os.remove(stale)
        print(f"error: clustering skipped: {skipped}", file=sys.stderr)
        return 1
    _report(write_cluster_assignment, args.out, "clusters.tsv", corr.labels, assignment)
    return 0


def _cmd_label(args) -> int:
    seqs = _load_dataset(args.dataset)
    rows = label_sequences(seqs, span=args.span, k=args.levels)
    os.makedirs(args.out, exist_ok=True)
    _report(write_label_table, args.out, "labels.tsv", rows, args.levels)
    return 0


def _named_inputs(pairs, kind: str) -> list[tuple[str, str]]:
    out = []
    for item in pairs or ():
        if "=" in item:
            name, path = item.split("=", 1)
        else:
            name = os.path.splitext(os.path.basename(item))[0]
            path = item
        if not name or not path:
            raise ConfigError(f"bad --{kind} {item!r}, want NAME=PATH")
        out.append((name, path))
    return out


def _cmd_plot(args) -> int:
    from . import plots

    out_path = args.out or f"{args.type}.svg"
    trajs = _named_inputs(args.trajectory, "trajectory")
    recs = _named_inputs(args.record, "record")
    names = [name for name, _ in trajs + recs]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"plot input name {name!r} is given more than once")

    if args.type in ("center_error", "overlap", "threshold"):
        if not args.sequence:
            raise ConfigError(f"plot {args.type} needs --sequence")
        if not trajs and not recs:
            raise ConfigError(f"plot {args.type} needs --trajectory and/or --record inputs")
        annotation = read_sequence(args.sequence).annotation
        scored = [(n, score_trajectory(annotation, read_trajectory(p))) for n, p in trajs]
        scored += [(n, score_record(read_record(p), annotation)) for n, p in recs]
        kind = "center_errors" if args.type == "center_error" else "overlaps"
        series = {name: getattr(scores, kind) for name, scores in scored}
        if args.type == "center_error":
            svg = plots.center_error_plot(series, cap=args.cap)
        elif args.type == "overlap":
            svg = plots.overlap_plot(series)
        else:
            flat = {
                name: [v for v in vals if v is not None]
                for name, vals in series.items()
            }
            svg = plots.threshold_plot(flat)
    elif args.type == "ar":
        if not args.measures:
            raise ConfigError("plot ar needs --measures")
        table = read_measure_table(args.measures)
        points = {
            tracker: (acc, rel)
            for tracker, acc, _, rel in ar_summary(table, span=args.span)
        }
        refs = None
        if args.dataset:
            refs = theoretical_ar_points(_load_dataset(args.dataset), span=args.span)
        svg = plots.ar_plot(points, refs)
    elif args.type == "fragmentation":
        if not args.sequence or not recs:
            raise ConfigError("plot fragmentation needs --sequence and --record inputs")
        annotation = read_sequence(args.sequence).annotation
        failure_sets = {
            name: read_record(path).failure_frames for name, path in recs
        }
        svg = plots.fragmentation_timeline(failure_sets, len(annotation))
    else:  # survival, the last of argparse's choices
        if not args.measures:
            raise ConfigError("plot survival needs --measures")
        svg = plots.survival_curve(survival_scores(read_measure_table(args.measures)))

    write_text(out_path, svg)
    print(f"wrote {out_path}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trackbench",
        description="Evaluate single-target trackers: run, score, analyze, plot.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    sp.add_argument("--out", required=True, help="dataset root to create")
    sp.add_argument("--sequences", type=int, default=12)
    sp.add_argument("--seed", type=int, default=2024)
    sp.set_defaults(func=_cmd_synth)

    rp = sub.add_parser("run", help="evaluate trackers over a dataset")
    for key, (kind, default, text) in _RUN_SETTINGS.items():
        shown = "" if default is None else f" (default: {default})"
        rp.add_argument(f"--{key}", type=kind, help=text + shown)
    rp.add_argument(
        "--tracker",
        action="append",
        help="tracker spec; repeatable (tta|tts|ttf|tto, scripted:..., "
        "cmd:<name>:<command>)",
    )
    rp.add_argument("--config", help="key=value config file; flags win")
    rp.set_defaults(func=_cmd_run)

    mp = sub.add_parser("measure", help="score stored tracker output")
    mp.add_argument("--sequence", required=True, help="sequence directory")
    mp.add_argument("--trajectory", help="trajectory file (unsupervised half)")
    mp.add_argument("--record", help="supervised run record file")
    mp.add_argument("--name", default="tracker", help="tracker name for the row")
    mp.add_argument("--out", help="write the table here instead of stdout")
    mp.set_defaults(func=_cmd_measure)

    ap = sub.add_parser("analyze", help="dataset-level tables from a measure table")
    ap.add_argument("--measures", required=True, help="measures.tsv from run")
    ap.add_argument("--out", default=".", help="directory for the reports")
    ap.add_argument("--span", type=float, default=30.0)
    ap.add_argument("--damping", type=float, default=0.5)
    ap.set_defaults(func=_cmd_analyze)

    lp = sub.add_parser("label", help="ordinal sequence property labels")
    lp.add_argument("--dataset", required=True)
    lp.add_argument("--out", default=".")
    lp.add_argument("--span", type=float, default=30.0)
    lp.add_argument("--levels", type=int, default=3)
    lp.set_defaults(func=_cmd_label)

    pp = sub.add_parser("plot", help="render an SVG diagnostic")
    pp.add_argument(
        "--type",
        required=True,
        choices=(
            "center_error",
            "overlap",
            "threshold",
            "ar",
            "fragmentation",
            "survival",
        ),
    )
    pp.add_argument("--out", help="output SVG path (default: <type>.svg)")
    pp.add_argument("--sequence", help="sequence directory (frame-series plots)")
    pp.add_argument(
        "--trajectory", action="append", help="NAME=PATH trajectory input; repeatable"
    )
    pp.add_argument(
        "--record", action="append", help="NAME=PATH run record input; repeatable"
    )
    pp.add_argument("--measures", help="measures.tsv (ar and survival plots)")
    pp.add_argument("--dataset", help="dataset root for reference points (ar plot)")
    pp.add_argument("--span", type=float, default=30.0)
    pp.add_argument("--cap", type=float, help="center error clip value")
    pp.set_defaults(func=_cmd_plot)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrackbenchError, OSError) as e:
        return exit_status(e)


if __name__ == "__main__":
    sys.exit(main())
