"""Deterministic synthetic sequences and a reference tracker corpus.

The dataset spans the properties the analyses care about: target size
(small vs large), motion (static vs fast), speed and size change, so
sequence labeling and the accuracy-robustness reference points have
real contrast to work with. The tracker corpus spans the
accuracy x robustness grid: accuracy is driven by report noise,
robustness by the loss probability, and the two vary independently
across the seven specs so that accuracy-style measures stay decorrelated
from failure counts at the dataset level.
"""

import math
import os
import random

from .errors import ConfigError
from .geometry import Region
from .io_formats import SequenceAnnotation, SequenceData, write_sequence
from .theoretical import ScriptedTrackerSpec

__all__ = [
    "ARCHETYPES",
    "make_dataset",
    "write_dataset",
    "corpus_trackers",
]

ARCHETYPES = (
    "static_small",
    "static_large",
    "drift_slow",
    "fast_sine",
    "grow",
    "shrink",
    "wander",
    "zigzag",
)

_WIDTH, _HEIGHT = 320.0, 240.0  # the frame size of every synthetic sequence


def _clamp_box(cx, cy, w, h, width, height):
    w = min(max(w, 6.0), width - 2.0)
    h = min(max(h, 6.0), height - 2.0)
    x = min(max(cx - w / 2.0, 1.0), width - w - 1.0)
    y = min(max(cy - h / 2.0, 1.0), height - h - 1.0)
    return Region(x, y, w, h)


def _make_regions(kind, rng, n, width, height):
    margin = 0.22
    cx = rng.uniform(width * margin, width * (1.0 - margin))
    cy = rng.uniform(height * margin, height * (1.0 - margin))
    out = []
    if kind == "static_small":
        w, h = rng.uniform(22.0, 28.0), rng.uniform(18.0, 24.0)
        out = [_clamp_box(cx, cy, w, h, width, height)] * n
    elif kind == "static_large":
        w, h = rng.uniform(58.0, 70.0), rng.uniform(46.0, 56.0)
        out = [_clamp_box(cx, cy, w, h, width, height)] * n
    elif kind == "drift_slow":
        w, h = rng.uniform(30.0, 44.0), rng.uniform(24.0, 36.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(0.2, 0.4)
        for t in range(n):
            out.append(
                _clamp_box(
                    cx + speed * t * math.cos(angle),
                    cy + speed * t * math.sin(angle),
                    w, h, width, height,
                )
            )
    elif kind == "fast_sine":
        w, h = rng.uniform(32.0, 42.0), rng.uniform(26.0, 34.0)
        ax = rng.uniform(50.0, 70.0)
        ay = rng.uniform(24.0, 40.0)
        period = rng.uniform(20.0, 30.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        cx = width / 2.0
        cy = height / 2.0
        for t in range(n):
            u = 2.0 * math.pi * t / period + phase
            out.append(
                _clamp_box(cx + ax * math.sin(u), cy + ay * math.cos(u),
                           w, h, width, height)
            )
    elif kind in ("grow", "shrink"):
        w0, h0 = rng.uniform(24.0, 30.0), rng.uniform(20.0, 24.0)
        factor = rng.uniform(2.0, 2.4)
        cx, cy = width / 2.0, height / 2.0
        for t in range(n):
            u = t / (n - 1) if n > 1 else 0.0
            if kind == "shrink":
                u = 1.0 - u
            k = 1.0 + (factor - 1.0) * u
            out.append(_clamp_box(cx, cy, w0 * k, h0 * k, width, height))
    elif kind == "wander":
        w, h = rng.uniform(34.0, 46.0), rng.uniform(28.0, 38.0)
        x, y = cx, cy
        for _ in range(n):
            x += rng.gauss(0.0, 2.2)
            y += rng.gauss(0.0, 2.2)
            x = min(max(x, width * 0.12), width * 0.88)
            y = min(max(y, height * 0.12), height * 0.88)
            out.append(_clamp_box(x, y, w, h, width, height))
    else:  # zigzag, the last of ARCHETYPES
        w, h = rng.uniform(24.0, 34.0), rng.uniform(20.0, 28.0)
        speed = rng.uniform(3.2, 4.4)
        leg = rng.randrange(12, 19)
        x, y = width * 0.2, cy
        direction = 1.0
        for t in range(n):
            out.append(_clamp_box(x, y, w, h, width, height))
            x += direction * speed
            if t % leg == leg - 1:
                direction = -direction
                y += rng.uniform(-8.0, 8.0)
            x = min(max(x, width * 0.1), width * 0.9)
    return out


def make_dataset(n_sequences: int = 12, seed: int = 2024) -> list[SequenceData]:
    """Generate a deterministic in-memory dataset.

    Archetypes are cycled so any n_sequences >= len(ARCHETYPES) covers
    all of them; lengths vary in [60, 120]. Same seed, same dataset.
    """
    if n_sequences < 1:
        raise ConfigError(f"need at least 1 sequence, got {n_sequences}")
    rng = random.Random(seed)
    seqs = []
    for i in range(n_sequences):
        kind = ARCHETYPES[i % len(ARCHETYPES)]
        n = rng.randrange(60, 121)
        regions = _make_regions(kind, rng, n, _WIDTH, _HEIGHT)
        annotation = SequenceAnnotation(
            name=f"{kind}_{i + 1:02d}", regions=tuple(regions)
        )
        seqs.append(
            SequenceData.synthetic(annotation, image_size=(_WIDTH, _HEIGHT))
        )
    return seqs


def write_dataset(root: str, seqs) -> list[SequenceData]:
    """Write sequences as dataset directories under root.

    Returns the re-rooted SequenceData list (frame paths under each
    sequence directory, so command trackers can receive them).
    """
    out = []
    for seq in seqs:
        seq_dir = os.path.join(root, seq.annotation.name)
        write_sequence(seq_dir, seq.annotation, seq.image_size)
        out.append(
            SequenceData.synthetic(
                seq.annotation, image_size=seq.image_size, root=seq_dir
            )
        )
    return out


def corpus_trackers() -> tuple[ScriptedTrackerSpec, ...]:
    """Seven scripted trackers spanning the accuracy x robustness grid.

    Report noise (accuracy axis) and loss probability (robustness axis)
    are assigned so neither predicts the other across the corpus:
    precise/flaky share low noise but sit at opposite loss extremes,
    sloppy/erratic share high noise likewise, with wobbly in between.
    """
    return (
        ScriptedTrackerSpec(name="precise", center_noise=0.4, scale_noise=0.008,
                            seed=11),
        ScriptedTrackerSpec(name="flaky", center_noise=0.7, scale_noise=0.012,
                            loss_prob=0.055, seed=14),
        ScriptedTrackerSpec(name="noisy", center_noise=2.2, scale_noise=0.05,
                            seed=12),
        ScriptedTrackerSpec(name="wobbly", center_noise=2.8, scale_noise=0.06,
                            loss_prob=0.045, drift_onset=18,
                            drift_velocity=(0.3, 0.15), seed=17),
        ScriptedTrackerSpec(name="drifter", center_noise=1.2, scale_noise=0.02,
                            drift_onset=10, drift_velocity=(0.9, 0.4), seed=15),
        ScriptedTrackerSpec(name="sloppy", center_noise=7.0, scale_noise=0.13,
                            drift_onset=12, drift_velocity=(0.5, 0.25), seed=13),
        ScriptedTrackerSpec(name="erratic", center_noise=9.0, scale_noise=0.11,
                            loss_prob=0.035, drift_onset=10,
                            drift_velocity=(0.65, 0.35), seed=16),
    )
