"""Standalone tracker process speaking the line protocol.

Runs one of the built-in behaviors behind stdin and stdout. The
protocol is the one the runner speaks: `hello version=1 seed=<n>`,
`initialize <path> <x>,<y>,<w>,<h>`, `frame <path>`, `quit`; every
frame is answered with `state <x>,<y>,<w>,<h>`. The hello reply ends
with `runs=many`: a later `hello` starts a new run, and `begin(seed)`
resets all of the behavior's state, so the runner keeps one process
for every run of a (tracker, sequence) unit.

Which behavior runs comes from `theoretical.BUILTINS`, the registry
`trackbench run --tracker` also builds from, and so does what the
process reads before serving: ttf, tto and scripted read the ground
truth via --groundtruth (with the center.txt beside it) or --sequence;
tta reads the frame size via --meta or --sequence; tts reads nothing.
--params is for scripted only, and any other kind rejects it. The
runner expands placeholders for those paths in command specs, e.g.:

    trackbench run --dataset data \\
        --tracker 'cmd:ttf:trackbench-tracker ttf --groundtruth {groundtruth}'

Every (tracker, sequence) unit of a run starts one of these processes,
so this module imports only what serving needs: the dataset layer and
the behaviors, and no numpy, trajectory, io_formats, measures, runner,
analysis or cli (tests/test_imports.py holds it to that). For the same
reason the process ends in os._exit once its output is flushed, without
interpreter teardown (see run).
"""

import argparse
import os
import sys

from .dataset import format_region, parse_region, read_annotation, read_image_size
from .errors import ConfigError, ParseError, TrackbenchError, exit_status
from .theoretical import BUILTINS, BuiltinTracker

__all__ = ["main", "run", "serve"]


def _read_input(args, needs: str | None):
    """The value of the SequenceData field `needs` names, from the flags."""
    if needs == "annotation":
        if args.groundtruth:
            gt_path = os.path.abspath(args.groundtruth)
            return read_annotation(os.path.dirname(gt_path), gt_path)
        if args.sequence:
            return read_annotation(args.sequence)
        raise ConfigError(f"tracker {args.kind!r} needs --groundtruth or --sequence")
    if needs == "image_size":
        meta_path = args.meta
        if meta_path is None and args.sequence:
            candidate = os.path.join(args.sequence, "sequence.meta")
            meta_path = candidate if os.path.exists(candidate) else None
        return None if meta_path is None else read_image_size(meta_path)
    return None


def serve(behavior, rfile, wfile) -> int:
    """Serve runs until quit or end of input; returns the exit code."""

    def reply(line: str) -> None:
        wfile.write(line + "\n")
        wfile.flush()

    # A run starts at hello, and its first frame must be an initialize.
    begun = initialized = False
    for raw in rfile:
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        cmd = parts[0]
        try:
            if cmd == "hello":
                kv = dict(
                    token.split("=", 1) for token in parts[1:] if "=" in token
                )
                if kv.get("version") != "1":
                    reply("error unsupported protocol version")
                    return 2
                behavior.begin(int(kv.get("seed", "0")))
                begun, initialized = True, False
                det = 1 if behavior.deterministic else 0
                reply(f"hello name={behavior.name} deterministic={det} runs=many")
            elif cmd == "initialize":
                if len(parts) < 3:
                    reply("error initialize needs a path and a region")
                    return 2
                if not begun:
                    reply("error initialize before hello")
                    return 2
                region = parse_region(parts[-1])
                path = " ".join(parts[1:-1])
                reply(f"state {format_region(behavior.initialize(path, region))}")
                initialized = True
            elif cmd == "frame":
                if len(parts) < 2:
                    reply("error frame needs a path")
                    return 2
                if not initialized:
                    reply("error frame before the run's first initialize")
                    return 2
                path = " ".join(parts[1:])
                reply(f"state {format_region(behavior.update(path))}")
            elif cmd == "quit":
                return 0
            else:
                reply(f"error unknown command {cmd}")
                return 2
        except (ParseError, ValueError) as e:
            reply(f"error {e}")
            return 2
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="trackbench-tracker",
        description="Serve a built-in tracker over the line protocol.",
    )
    p.add_argument("kind", choices=tuple(BUILTINS))
    p.add_argument("--groundtruth", help="ground truth file of the sequence")
    p.add_argument("--sequence", help="sequence directory (alternative to the above)")
    p.add_argument("--meta", help="sequence.meta path (frame size for tta)")
    p.add_argument("--params", help="scripted parameters, key=value,...")
    args = p.parse_args(argv)
    try:
        tracker = BuiltinTracker.parse(args.kind, args.params)
        needs, build = BUILTINS[tracker.kind]
        behavior = build(tracker.params, _read_input(args, needs))
        return serve(behavior, sys.stdin, sys.stdout)
    except (TrackbenchError, OSError) as e:
        return exit_status(e)


def run() -> None:
    """Entry point of the process: main, then exit without teardown.

    Teardown would only free memory that the operating system reclaims
    at exit anyway, and it is on the runner's path: the runner waits
    for the exit after `quit`. What output is still buffered is
    flushed first; a failed flush exits 120, as at interpreter exit.
    """
    try:
        status = main()
    except SystemExit as e:  # argparse: usage errors and --help
        status = e.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        status = 120
    os._exit(status)


if __name__ == "__main__":
    run()
