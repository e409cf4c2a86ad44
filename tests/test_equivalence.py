"""One net for transports, workers and re-runs.

A drawn plan runs four ways through `trackbench run`: in process at
--workers 1, in process at --workers 2, as `cmd:` children of
trackbench.tracker_cli, and again into the first run's --out. The
runner promises identical records for identical reports whatever the
transport, and rows that do not depend on scheduling, so all four must
leave the same measures.tsv and raw/ tree, byte for byte. manifest.txt
records the settings and the time of each run, and is left out.
"""

import os
import shlex
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from trackbench import cli
from trackbench.io_formats import SequenceAnnotation, write_sequence
from trackbench.synthdata import make_dataset

# Every cmd: unit starts a child, about 0.1 s each; this count keeps the
# test to a few seconds.
EXAMPLES = 20

# The flag each reference kind's child reads its input from.
REFERENCE_INPUT = {"tta": ["--meta", "{meta}"], "tts": [],
                   "ttf": ["--groundtruth", "{groundtruth}"],
                   "tto": ["--groundtruth", "{groundtruth}"]}


@st.composite
def scripted_params(draw, name):
    """A scripted tracker's --params text: noise, losses and drift."""
    params = [f"name={name}",
              f"center_noise={draw(st.floats(0.0, 6.0))!r}",
              f"scale_noise={draw(st.floats(0.0, 0.15))!r}",
              f"loss_prob={draw(st.floats(0.0, 0.3))!r}",
              f"seed={draw(st.integers(0, 2**32))}"]
    if draw(st.booleans()):
        velocity = draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
        params += [f"drift_onset={draw(st.integers(0, 8))}",
                   "drift_velocity=%r:%r" % velocity]
    return ",".join(params)


@st.composite
def plans(draw):
    """(sequences, scripted params, reference kind, run flags) of one plan."""
    count = draw(st.integers(1, 2))
    seqs = []
    for seq in make_dataset(n_sequences=count, seed=draw(st.integers(0, 2**16))):
        length = draw(st.integers(2, 12))
        seqs.append(SequenceAnnotation(seq.annotation.name, seq.annotation.regions[:length]))
    scripted = [draw(scripted_params(f"s{i}")) for i in range(draw(st.integers(1, 2)))]
    flags = ["--mode", draw(st.sampled_from(["unsupervised", "supervised", "both"])),
             "--tau", repr(draw(st.floats(0.0, 1.0))),
             "--repetitions", str(draw(st.integers(1, 3))),
             "--seed", str(draw(st.integers(0, 2**32)))]
    return seqs, scripted, draw(st.sampled_from(sorted(REFERENCE_INPUT))), flags


def child_spec(name, kind, *args):
    argv = [sys.executable, "-m", "trackbench.tracker_cli", kind, *args]
    return f"cmd:{name}:{shlex.join(argv)}"


def outputs(out):
    """measures.tsv and every file under raw/, by path relative to out."""
    found = {}
    for root, _, files in os.walk(out):
        for f in files:
            path = os.path.join(root, f)
            rel = os.path.relpath(path, out)
            if rel != "manifest.txt":
                with open(path, "rb") as fh:
                    found[rel] = fh.read()
    return found


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(plans())
def test_transports_workers_and_reruns_give_the_same_bytes(plan):
    seqs, scripted, kind, flags = plan
    in_process = [*(f"scripted:{p}" for p in scripted), kind]
    children = [*(child_spec(f"s{i}", "scripted", "--groundtruth", "{groundtruth}",
                             "--params", p) for i, p in enumerate(scripted)),
                child_spec(kind, kind, *REFERENCE_INPUT[kind])]
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data")
        for a in seqs:
            write_sequence(os.path.join(data, a.name), a, image_size=(320.0, 240.0))

        def run(out, specs, *extra):
            argv = ["run", "--dataset", data, "--out", os.path.join(tmp, out), *flags, *extra]
            assert cli.main(argv + [a for s in specs for a in ("--tracker", s)]) == 0
            return outputs(os.path.join(tmp, out))

        first = run("one", in_process, "--workers", "1")
        assert "measures.tsv" in first and len(first) > 1
        assert run("two", in_process, "--workers", "2") == first
        assert run("cmd", children, "--workers", "2") == first
        assert run("one", in_process, "--workers", "1") == first
