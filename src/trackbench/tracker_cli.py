"""Standalone tracker process speaking the line protocol.

Runs one of the built-in behaviors behind stdin and stdout. The
protocol is the one the runner speaks: `hello version=1 seed=<n>`,
`initialize <path> <x>,<y>,<w>,<h>`, `frame <path>`, `quit`; every
frame is answered with `state <x>,<y>,<w>,<h>`. The hello reply ends
with `runs=many`: a later `hello` starts a new run, and the behavior's
handshake resets all of its state, so the runner keeps one process
for every run of a (tracker, sequence) unit. serve counts each run's
frames; a request past the ground truth's last frame gets an `error`
reply, and the process exits 2.

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
the behaviors, and no numpy, dataclasses, argparse, trajectory,
io_formats, measures, runner, analysis or cli (tests/test_imports.py
holds it to that). main parses its arguments by hand for the same
reason, and the process ends in os._exit once its output is flushed,
without interpreter teardown (see run).
"""

import os
import sys

from .dataset import format_region, parse_region, read_groundtruth, read_meta
from .errors import ConfigError, ParseError, TrackbenchError, exit_status
from .theoretical import BUILTINS, BuiltinTracker

__all__ = ["main", "run", "serve"]

_KINDS = "{%s}" % ",".join(BUILTINS)
_HELP = f"""usage: trackbench-tracker {_KINDS} [--groundtruth FILE] [--sequence DIR]
                          [--meta FILE] [--params TEXT]

Serve a built-in tracker over the line protocol.

options (each also as --flag=value):
  --groundtruth FILE  ground truth file of the sequence
  --sequence DIR      sequence directory (alternative to the above)
  --meta FILE         sequence.meta path (frame size for tta)
  --params TEXT       scripted parameters, key=value,...
  -h, --help          show this help and exit
"""


def _parse_args(argv: list[str]) -> tuple[str, dict] | None:
    """(kind, {flag name: value or None}) from argv; None for -h/--help.

    A usage error is a ConfigError.
    """
    kind, flags = None, dict.fromkeys(("groundtruth", "sequence", "meta", "params"))
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None
        if arg.startswith("-") and arg != "-":
            flag, eq, value = arg.partition("=")
            if not flag.startswith("--") or flag[2:] not in flags:
                raise ConfigError(f"unrecognized argument {arg!r}")
            if not eq:
                value = next(args, None)
                if value is None or (value.startswith("-") and value != "-"):
                    raise ConfigError(f"argument {flag} expects a value")
            flags[flag[2:]] = value
        elif kind is None:
            kind = arg
        else:
            raise ConfigError(f"unrecognized argument {arg!r}")
    if kind is None:
        raise ConfigError(f"the tracker kind is required, one of {_KINDS}")
    if kind not in BUILTINS:
        raise ConfigError(f"invalid choice: {kind!r} (choose from {_KINDS})")
    return kind, flags


def _read_input(kind: str, flags: dict, needs: str | None):
    """The input BUILTINS says kind is built from, read as the flags say."""
    if needs == "groundtruth":
        if flags["groundtruth"]:
            gt_path = os.path.abspath(flags["groundtruth"])
            return read_groundtruth(os.path.dirname(gt_path), gt_path)
        if flags["sequence"]:
            return read_groundtruth(flags["sequence"])
        raise ConfigError(f"tracker {kind!r} needs --groundtruth or --sequence")
    if needs == "image_size":
        meta_path = flags["meta"]
        if meta_path is None and flags["sequence"]:
            candidate = os.path.join(flags["sequence"], "sequence.meta")
            meta_path = candidate if os.path.exists(candidate) else None
        return None if meta_path is None else read_meta(meta_path)[1]
    return None


def serve(behavior, rfile, wfile) -> int:
    """Serve runs until quit or end of input; returns the exit code."""

    def reply(line: str) -> None:
        wfile.write(line + "\n")
        wfile.flush()

    def next_frame() -> int:
        nonlocal frames
        frames += 1
        if frames > behavior.length:
            raise ValueError(f"frame {frames} is past the sequence's {behavior.length} frames")
        return frames

    # A run starts at hello, and its first frame must be an initialize.
    begun, initialized, frames = False, False, 0
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
                name, deterministic = behavior.handshake(int(kv.get("seed", "0")))
                begun, initialized, frames = True, False, 0
                reply(f"hello name={name} deterministic={int(deterministic)} runs=many")
            elif cmd == "initialize":
                if len(parts) < 3:
                    reply("error initialize needs a path and a region")
                    return 2
                if not begun:
                    reply("error initialize before hello")
                    return 2
                region = parse_region(parts[-1])
                path = " ".join(parts[1:-1])
                reply(f"state {format_region(behavior.initialize(next_frame(), path, region))}")
                initialized = True
            elif cmd == "frame":
                if len(parts) < 2:
                    reply("error frame needs a path")
                    return 2
                if not initialized:
                    reply("error frame before the run's first initialize")
                    return 2
                path = " ".join(parts[1:])
                reply(f"state {format_region(behavior.frame(next_frame(), path))}")
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
    """Parse argv (default sys.argv[1:]), then serve on stdin and stdout.

    Returns 0 after quit, end of input or -h/--help, and exit_status's
    code, after one `error:` line on stderr, for a usage or input error.
    """
    try:
        parsed = _parse_args(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            sys.stdout.write(_HELP)
            return 0
        kind, flags = parsed
        tracker = BuiltinTracker.parse(kind, flags["params"])
        if any(map(str.isspace, tracker.name)):
            # The hello reply is whitespace-separated `key=value` tokens.
            raise ConfigError(f"tracker name {tracker.name!r} holds whitespace")
        needs, build = BUILTINS[kind]
        behavior = build(tracker.params, _read_input(kind, flags, needs))
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
    except SystemExit as e:
        status = e.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        status = 120
    os._exit(status)


if __name__ == "__main__":
    run()
