"""Malformed conversations get an error reply or a ProtocolViolationError, never a traceback.

On any list of command lines, `trackbench-tracker` (tracker_cli.serve)
writes only `hello `, `state ` and `error ` lines and returns 0 or 2.
On any reply text, the runner's parsers raise only
ProtocolViolationError, and a state reply parses as it did before the
wire shared dataset's number parser.
"""

import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trackbench.errors import ProtocolViolationError
from trackbench.geometry import Region
from trackbench.runner import _parse_hello_line, _parse_state_line
from trackbench.theoretical import BUILTINS, BuiltinTracker, ScriptedTrackerSpec
from trackbench.tracker_cli import serve

from conftest import NON_ASCII, moving_sequence

SEQ = moving_sequence(4)
NOISY = ScriptedTrackerSpec(
    name="wob", center_noise=1.5, scale_noise=0.03, loss_prob=0.2,
    drift_onset=1, drift_velocity=(0.5, -0.25), seed=9,
)

numbers = st.sampled_from(["0", "1", "-1", "2.5", "-0", "1e308", "1e400", "nan", "inf",
                           "", "x", "1_0", "١"]) | st.text(max_size=4)
regions = st.lists(numbers, max_size=5).map(",".join)
paths = st.sampled_from(["f1", "a b", "f 2 3"]) | st.text(max_size=6)
tokens = st.sampled_from(["version=1", "version=2", "seed=0", "seed=-5", "seed=x",
                          f"seed={2**64}", "runs=many", "=", "bare"]) | st.text(max_size=6)
commands = st.one_of(
    st.builds(lambda ts: " ".join(["hello", *ts]), st.lists(tokens, max_size=4)),
    st.builds(lambda p, r: f"initialize {p} {r}", paths, regions),
    st.builds(lambda p: f"frame {p}", paths),
    st.sampled_from(["hello version=1 seed=1", "initialize f1 10,40,20,16", "frame f2",
                     "hello", "initialize", "frame", "quit", "", " ", "teleport"]),
    st.text(max_size=20),
)
# Well-formed runs of up to 6 frames, on a 4-frame sequence, mixed with any commands.
runs = st.integers(0, 5).map(
    lambda k: ["hello version=1 seed=1", "initialize f1 10,40,20,16"] + ["frame f"] * k)
conversations = st.lists(runs | commands.map(lambda c: [c]), max_size=8).map(
    lambda chunks: [line for chunk in chunks for line in chunk])


def served(kind, lines):
    """serve's exit code and its output for one conversation."""
    behavior = BuiltinTracker(kind, NOISY if kind == "scripted" else None)(SEQ)
    wfile = io.StringIO()
    code = serve(behavior, io.StringIO("".join(line + "\n" for line in lines)), wfile)
    return code, wfile.getvalue()


@pytest.mark.parametrize("kind", list(BUILTINS))
@given(lines=conversations)
def test_serve_answers_any_commands_with_protocol_lines(kind, lines):
    code, out = served(kind, lines)
    assert code in (0, 2)
    assert "\r" not in out and out[-1:] in ("", "\n")
    for line in out.split("\n")[:-1]:
        assert line.startswith(("hello ", "state ", "error ")), line


@pytest.mark.parametrize("kind", list(BUILTINS))
@pytest.mark.parametrize("lines, reply", [
    (["frame a.jpg"], "error frame before the run's first initialize"),
    (["initialize a.jpg 1,2,3,4"], "error initialize before hello"),
    (["hello version=1 seed=1", "frame a.jpg"], "error frame before the run's first initialize"),
    (["hello version=1 seed=1", "initialize f1 10,40,20,16", "frame f2",
      "hello version=1 seed=2", "frame f1"], "error frame before the run's first initialize"),
])
def test_a_frame_out_of_order_is_an_error_reply(kind, lines, reply):
    code, out = served(kind, lines)
    assert code == 2
    assert out.splitlines()[-1] == reply


@pytest.mark.parametrize("kind", list(BUILTINS))
@pytest.mark.parametrize("seed", ["1_0", "٣", "１", "1e3", "2.5", "x", ""])
def test_a_seed_that_is_no_integer_text_is_an_error_reply(kind, seed):
    # int alone reads 1_0, ٣ and １ as 10, 3 and 1.
    code, out = served(kind, [f"hello version=1 seed={seed}", "initialize f1 10,40,20,16"])
    assert code == 2
    assert out.startswith("error ") and out.count("\n") == 1, out


@pytest.mark.parametrize("kind", ["ttf", "tto", "scripted"])
def test_a_message_past_the_sequence_is_an_error_reply(kind):
    lines = ["hello version=1 seed=1", "initialize f1 10,40,20,16"] + ["frame f"] * 4
    code, out = served(kind, lines)
    assert code == 2
    assert out.splitlines()[-1] == "error frame 5 is past the sequence's 4 frames"
    assert len(out.splitlines()) == 6  # hello, four states, the error


@pytest.mark.parametrize("kind", ["ttf", "tto", "scripted"])
def test_each_hello_starts_the_frame_count_again(kind):
    run = ["hello version=1 seed=1", "initialize f1 10,40,20,16"] + ["frame f"] * 3
    code, out = served(kind, run + run)
    replies = [line.split()[0] for line in out.splitlines()]
    assert code == 0
    assert replies == (["hello"] + ["state"] * 4) * 2


replies = st.one_of(
    st.text(),
    st.builds(lambda ts: " ".join(["hello", *ts]), st.lists(tokens, max_size=4)),
    st.builds(lambda r: f"state {r}", regions),
)


@given(replies)
@example("hello name=x deterministic=1")
@example("state 1,2,3,4")
def test_reply_parsers_raise_only_protocol_violations(line):
    for parse in (_parse_hello_line, lambda text: _parse_state_line(text, 3)):
        try:
            parse(line)
        except ProtocolViolationError:
            pass


# dataset's number rule before it was folded into dataset._parse_numbers: the
# bytes a number text may hold, commas included.
OLD_NUMBER_BYTES = bytes(c for c in range(0x21, 0x7F) if c != 0x5F)


def reference_parse_state_line(line: str, frame: int) -> Region:
    """runner._parse_state_line as it was before the wire shared that parser."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != "state":
        raise ProtocolViolationError(f"expected 'state <region>', got {line!r}", frame)
    breaks = not parts[1].isascii() or parts[1].encode().translate(None, OLD_NUMBER_BYTES)
    text = "" if breaks else parts[1]
    try:
        return Region(*map(float, text.split(",")))
    except (TypeError, ValueError):
        raise ProtocolViolationError(f"bad state region: {parts[1]!r}", frame) from None


def state_outcome(parse, line):
    try:
        return "ok", [v.hex() for v in parse(line, 3)]
    except ProtocolViolationError as e:
        return "error", str(e), e.frame


def test_every_character_parses_in_a_state_reply_as_before():
    for c in [*map(chr, range(128)), *NON_ASCII]:
        for region in (c, f"1{c}5,2,3,4", f"1,2,3,4{c}", f"{c}1,2,3,4", f"1,2,{c},4",
                       f"1,2,3{c}", f"1e{c}5,2,3,4", f"{c}inf,nan,3,4"):
            for line in (f"state {region}", f"state  {region} ", f"{c}state 1,2,3,4"):
                assert state_outcome(_parse_state_line, line) == state_outcome(
                    reference_parse_state_line, line), repr(line)


@given(replies)
def test_any_reply_parses_as_before(line):
    assert state_outcome(_parse_state_line, line) == state_outcome(
        reference_parse_state_line, line)
