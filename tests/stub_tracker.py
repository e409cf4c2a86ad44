"""Minimal external tracker used by the protocol tests.

Speaks the evaluator's line protocol on stdio, echoing the
initialization region forever (a static tracker), except for one
scripted misbehavior selected by argv[1]:

  ok        well-behaved
  garbage   answers the 2nd frame request with a non-protocol line
  slow      sleeps 5s before answering the 2nd frame request
  exit      exits silently before answering the 2nd frame request
  badhello  mangles the handshake reply
  zerocopy  reports a zero-area region on every frame request
  huge      reports 0,0,1e200,1e200 on every frame request: a valid
            region whose center distance to any target overflows
  wide      reports 1.7e308,0,1.7e308,4 on every frame request: a valid
            region whose center itself overflows
  flood     answers the 2nd frame request with megabytes and no newline
  notutf8   answers the 2nd frame request with bytes that are not UTF-8
  long      answers the 2nd frame request with one 5000-byte line, LF
            included, in a single write
  stray     follows its reply to the 2nd frame request with a second
            state line, in the same write
  crlf      well-behaved, but ends every reply with CR LF
  partial   answers the 2nd frame request with a state line without LF,
            then exits
  deaf      answers the 2nd frame request with its stdin closed, then
            sleeps: the next request finds no reader
  mute      closes its stdout at the 2nd frame request, then sleeps
  stubborn  well-behaved, but ignores quit and reads on until killed
            or its stdin ends

deaf and mute keep running after they misbehave, so only the runner's
kill ends them.

Options may follow the mode:

  runs=many        end the hello reply with runs=many; every hello then
                   starts a new run
  deterministic=0  declare the tracker stochastic, so repetitions run
  at=K             misbehave only in the K-th run of this process
  state=TEXT       report TEXT, verbatim, on every frame request the mode
                   does not misbehave on

Deliberately self-contained: no package imports, so it behaves like a
foreign executable.
"""

import os
import sys
import time

LINGER = 60.0  # seconds a misbehaving mode keeps running

# Modes that answer every frame request with one fixed region.
FIXED = {"zerocopy": "0,0,0,0", "huge": "0,0,1e200,1e200", "wide": "1.7e308,0,1.7e308,4"}


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "ok"
    options = dict(arg.split("=", 1) for arg in sys.argv[2:])
    hello = f"hello name=stub deterministic={options.get('deterministic', '1')}"
    if options.get("runs") == "many":
        hello += " runs=many"
    at = int(options.get("at", "0"))
    end = "\r\n" if mode == "crlf" else "\n"

    def reply(text):
        sys.stdout.write(text + end)
        sys.stdout.flush()

    held = "0,0,0,0"
    runs = 0
    frames_seen = 0
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        cmd = parts[0]
        if cmd == "hello":
            runs += 1
            frames_seen = 0
            if mode == "badhello":
                reply("hi there")
            else:
                reply(hello)
        elif cmd == "initialize":
            held = parts[-1]
            reply(f"state {held}")
        elif cmd == "frame":
            frames_seen += 1
            if frames_seen == 2 and at in (0, runs):
                if mode == "garbage":
                    reply("banana banana banana")
                    continue
                if mode == "notutf8":
                    os.write(1, b"state \xff\xfe\n")
                    continue
                if mode == "long":
                    os.write(1, b"state " + b"1" * 4993 + b"\n")
                    continue
                if mode == "partial":
                    os.write(1, f"state {held}".encode())
                    return 0
                if mode == "stray":
                    reply(f"state {held}\nstate {held}")
                    continue
                if mode == "deaf":
                    # Closed before the reply, so that the next request is sure
                    # to find no reader.
                    os.close(0)
                    reply(f"state {held}")
                    time.sleep(LINGER)
                    return 1
                if mode == "mute":
                    os.close(1)
                    time.sleep(LINGER)
                    return 1
                if mode == "slow":
                    time.sleep(5.0)
                if mode == "exit":
                    return 1
                if mode == "flood":
                    for _ in range(256):
                        sys.stdout.write("x" * (1 << 20))
                        sys.stdout.flush()
                    return 1
            reply(f"state {options.get('state', FIXED.get(mode, held))}")
        elif cmd == "quit" and mode != "stubborn":
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
