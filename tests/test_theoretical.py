import math
import random

import pytest

from trackbench.errors import ConfigError
from trackbench.geometry import Region
from trackbench.runner import TrackerHandle, run_supervised, run_unsupervised
from trackbench.synthdata import corpus_trackers
from trackbench.theoretical import (
    THEORETICAL_KINDS,
    BuiltinTracker,
    ScriptedTracker,
    ScriptedTrackerSpec,
    sequence_properties,
    theoretical_ar_points,
    theoretical_trajectory,
)

from conftest import make_annotation, make_sequence, moving_sequence, static_sequence


def drive_unsupervised(behavior, seq):
    """Feed a behavior the whole sequence with a single initialization."""
    behavior.handshake(0)
    a = seq.annotation
    regions = [behavior.initialize(1, "frame-1", a.regions[0])]
    for t in range(2, len(a) + 1):
        regions.append(behavior.frame(t, f"frame-{t}"))
    return tuple(regions)


def scripted_run(spec, seq, seed):
    """Single-initialization trajectory of a scripted tracker, through the runner."""
    handle = TrackerHandle.in_process(spec.name, BuiltinTracker("scripted", spec))
    return run_unsupervised(handle, seq, seed=seed)


class TestTheoreticalTrajectories:
    @pytest.mark.parametrize("kind", THEORETICAL_KINDS)
    def test_stateful_behavior_matches_direct_construction(self, kind):
        for seq in (static_sequence(9), moving_sequence(12)):
            behavior = BuiltinTracker(kind)(seq)
            got = drive_unsupervised(behavior, seq)
            want = theoretical_trajectory(kind, seq.annotation, seq.image_size)
            assert got == want

    def test_full_frame_reports_the_frame(self):
        seq = static_sequence(5)
        t = theoretical_trajectory("tta", seq.annotation, seq.image_size)
        assert all(r == Region(0.0, 0.0, 320.0, 240.0) for r in t)

    def test_full_frame_needs_image_size(self):
        seq = static_sequence(3)
        with pytest.raises(ConfigError):
            theoretical_trajectory("tta", seq.annotation, None)
        with pytest.raises(ConfigError):
            BuiltinTracker("tta")(
                type(seq)(
                    annotation=seq.annotation,
                    image_size=None,
                    frame_paths=seq.frame_paths,
                ),
            )

    def test_static_holds_first_region(self):
        a = moving_sequence(8).annotation
        t = theoretical_trajectory("tts", a)
        assert all(r == a.regions[0] for r in t)

    def test_self_failing_pattern(self):
        a = moving_sequence(6).annotation
        t = theoretical_trajectory("ttf", a)
        assert t[0] == a.regions[0]
        assert t[-1] == a.regions[-1]
        for r in t[1:-1]:
            assert r.width == 0.0 and r.height == 0.0

    def test_center_oracle_locks_first_size(self):
        seq = make_sequence([(100.0, 80.0, 20.0 + i, 16.0 + i) for i in range(5)])
        a = seq.annotation
        t = theoretical_trajectory("tto", a)
        for i, r in enumerate(t):
            assert (r.width, r.height) == (20.0, 16.0)
            c = a.center(i)
            assert abs(r.x + r.width / 2.0 - c.x) < 1e-12
            assert abs(r.y + r.height / 2.0 - c.y) < 1e-12

    def test_unknown_kind_rejected(self):
        seq = static_sequence(3)
        with pytest.raises(ConfigError):
            BuiltinTracker("ttx")
        with pytest.raises(ConfigError):
            theoretical_trajectory("ttx", seq.annotation, seq.image_size)


class TestScriptedTracker:
    def test_zero_noise_reproduces_ground_truth(self):
        seq = moving_sequence(10)
        t = scripted_run(ScriptedTrackerSpec(), seq, seed=5)
        assert t == seq.annotation.regions

    def test_same_seed_same_trajectory(self):
        seq = moving_sequence(15)
        spec = ScriptedTrackerSpec(center_noise=2.0, scale_noise=0.05, seed=3)
        assert scripted_run(spec, seq, seed=9) == scripted_run(spec, seq, seed=9)

    def test_different_seed_different_trajectory(self):
        seq = moving_sequence(15)
        spec = ScriptedTrackerSpec(center_noise=2.0, seed=3)
        assert scripted_run(spec, seq, seed=1) != scripted_run(spec, seq, seed=2)

    def test_determinism_flag(self):
        a = static_sequence(3).annotation
        assert ScriptedTracker(ScriptedTrackerSpec(), a.regions).deterministic
        assert not ScriptedTracker(ScriptedTrackerSpec(center_noise=1.0), a.regions).deterministic

    def test_drift_displaces_late_frames(self):
        seq = static_sequence(30)
        a = seq.annotation
        spec = ScriptedTrackerSpec(drift_onset=5, drift_velocity=(2.0, 0.0))
        t = scripted_run(spec, seq, seed=0)
        # frame t is since_init = t - 1 updates after the initialization
        for i, r in enumerate(t):
            steps = max(0, i - 5)
            assert abs(r.x - (a.regions[i].x + 2.0 * steps)) < 1e-9

    def test_certain_loss_reports_zero_area_near_target(self):
        spec = ScriptedTrackerSpec(center_noise=1.0, loss_prob=1.0, seed=4)
        t = scripted_run(spec, static_sequence(8), seed=4)
        for r in t[1:]:
            assert r.width == 0.0 and r.height == 0.0
            assert abs(r.x - 52.0) < 10.0 and abs(r.y - 39.0) < 10.0


def gauss_reference_run(spec, regions, seed):
    """A scripted tracker's unsupervised frames, drawn with rng.gauss.

    Each tracked frame takes one rng.random() for the loss, then four
    rng.gauss(0.0, 1.0) calls, as a child tracker in another language
    would reproduce the stream.
    """
    _, noise, scale, onset, (vx, vy), loss, _ = spec
    rng = random.Random(((spec.seed * 0x9E3779B97F4A7C15) ^ seed) & 0xFFFFFFFFFFFFFFFF)
    out = [regions[0]]
    for since_init, base in enumerate(regions[1:], 1):
        loss_draw = rng.random()
        nx, ny, sw, sh = (rng.gauss(0.0, 1.0) for _ in range(4))
        x, y, w, h = base
        steps = 0 if onset is None else max(0, since_init - onset)
        cx = x + w / 2.0 + nx * noise + steps * vx
        cy = y + h / 2.0 + ny * noise + steps * vy
        if loss > 0.0 and loss_draw < loss:
            out.append(Region(cx, cy, 0.0, 0.0))
        elif noise == 0.0 and scale == 0.0 and steps == 0:
            out.append(base)
        else:
            w *= math.exp(sw * scale)
            h *= math.exp(sh * scale)
            out.append(Region(cx - w / 2.0, cy - h / 2.0, w, h))
    return out


def hexes(regions):
    return [tuple(map(float.hex, r)) for r in regions]


class TestScriptedDraws:
    """The inline Box-Muller draws are random.gauss's, bit for bit."""

    specs = corpus_trackers() + (
        ScriptedTrackerSpec(name="lossy", center_noise=3.0, scale_noise=0.2,
                            loss_prob=0.4, drift_onset=2, drift_velocity=(-1.5, 0.5),
                            seed=7),
    )

    @pytest.mark.parametrize("spec", specs, ids=lambda s: s.name)
    def test_every_region_equals_the_gauss_reference(self, spec):
        regions = moving_sequence(40, step=3.5).annotation.regions
        tracker = ScriptedTracker(spec, regions)
        for seed in range(60):
            tracker.handshake(seed)
            got = [tracker.initialize(1, "f", regions[0])]
            got += [tracker.frame(t, "f") for t in range(2, len(regions) + 1)]
            assert hexes(got) == hexes(gauss_reference_run(spec, regions, seed)), seed

    def test_the_lossy_spec_reports_losses(self):
        # So the loss branch above is compared, not skipped.
        regions = moving_sequence(40).annotation.regions
        got = gauss_reference_run(self.specs[-1], regions, 3)
        assert any(r.width == 0.0 for r in got[1:])


class TestSequenceProperties:
    def test_static_sequence(self):
        seq = static_sequence(20)
        size, motion, speed, size_change = sequence_properties(seq)
        assert abs(size - (24.0 * 18.0) / (320.0 * 240.0)) < 1e-12
        assert motion == 1.0
        assert speed == 0.0
        assert size_change == 1.0

    def test_moving_sequence_lowers_motion(self):
        _, motion, speed, size_change = sequence_properties(moving_sequence(24))
        assert motion < 0.2
        assert speed > 0.2
        assert size_change == 1.0

    def test_growing_sequence_lowers_size_change(self):
        seq = make_sequence([(100.0, 80.0, 20.0 + i, 16.0 + i) for i in range(22)])
        _, motion, speed, size_change = sequence_properties(seq)
        assert size_change < 1.0


class TestReferencePoints:
    def test_corner_points(self):
        seqs = [static_sequence(11), moving_sequence(14)]
        pts = theoretical_ar_points(seqs)
        assert set(pts) == set(THEORETICAL_KINDS)
        acc_tta, rel_tta = pts["tta"]
        assert acc_tta < 0.1
        assert rel_tta == 1.0
        acc_ttf, rel_ttf = pts["ttf"]
        assert acc_ttf == 1.0
        assert rel_ttf < 0.1
        acc_tto, rel_tto = pts["tto"]
        assert acc_tto == 1.0 and rel_tto == 1.0

    def test_a_sequence_without_a_tracked_frame_leaves_the_accuracy_means(self):
        seqs = [static_sequence(11), moving_sequence(14)]
        with_one = theoretical_ar_points([*seqs, static_sequence(1, name="one")])
        for kind, (acc, _) in theoretical_ar_points(seqs).items():
            assert with_one[kind][0] == acc

    def test_self_failing_failure_count(self):
        for n in (7, 12):
            seq = static_sequence(n)
            handle = TrackerHandle.in_process("ttf", BuiltinTracker("ttf"))
            rec = run_supervised(handle, seq, tau=0.0, seed=0)
            assert len(rec.failure_frames) == (n - 1) // 2
