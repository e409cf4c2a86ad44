"""Malformed conversations get an error reply or a ProtocolViolationError, never a traceback.

On any list of command lines, `trackbench-tracker` (tracker_cli.serve)
writes only `hello `, `state ` and `error ` lines and returns 0 or 2.
On any reply text, the runner's parsers raise only
ProtocolViolationError.
"""

import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trackbench.errors import ProtocolViolationError
from trackbench.runner import _parse_hello_line, _parse_state_line
from trackbench.theoretical import BUILTINS, BuiltinTracker, ScriptedTrackerSpec
from trackbench.tracker_cli import serve

from conftest import moving_sequence

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
