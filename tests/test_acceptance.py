"""Acceptance suite: one test per advertised guarantee.

Each test states its tolerance inline and runs standalone; together
they pin the numeric identities, the protocol behavior, the corpus
structure and the rendering guarantees the package commits to.
"""

import itertools
import math
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from trackbench.analysis import (
    affinity_propagation,
    cluster_measures,
    kmeans_partition,
    pearson_matrix,
)
from trackbench.dataset import format_region
from trackbench.errors import (
    ProtocolViolationError,
    TrackerTimeoutError,
)
from trackbench.geometry import Region, overlap
from trackbench.io_formats import SequenceAnnotation, SequenceData, dumps_record
from trackbench.measures import (
    auc,
    average_overlap,
    correct_fraction,
    cotps_closed_form,
    cotps_original,
    fragmentation,
    measure_keys,
    mota_single,
    motp_single,
    reliability,
)
from trackbench.runner import (
    RunPlan,
    TrackerHandle,
    execute_plan,
    run_supervised,
    run_unsupervised,
)
from trackbench.synthdata import corpus_trackers, make_dataset, write_dataset
from trackbench.theoretical import BuiltinTracker

from conftest import STUB


@pytest.fixture(scope="module")
def overlap_corpus():
    """10^4 random overlap sequences, N in [1, 500], zero fractions
    covering the whole range including 0 and 1."""
    rng = np.random.default_rng(20240817)
    corpus = []
    for i in range(10_000):
        n = int(rng.integers(1, 501))
        kind = i % 4
        if kind == 0:
            vals = rng.random(n)
            vals[rng.random(n) < 0.3] = 0.0
        elif kind == 1:
            vals = rng.uniform(1e-6, 1.0, n)   # no zero-overlap frames
        elif kind == 2:
            vals = np.zeros(n)                 # only zero-overlap frames
        else:
            vals = rng.random(n)
            vals[rng.random(n) < 0.8] = 0.0
        corpus.append([float(v) for v in vals])
    return corpus


def test_01_threshold_curve_area_equals_average_overlap(overlap_corpus):
    """|auc - average_overlap| < 1e-12 on 10^4 sequences, plus a
    midpoint-grid evaluation of the correct fraction within 2e-3,
    all inside 5 s."""
    grid_n = 1000
    grid = (np.arange(grid_n) + 0.5) / grid_n
    start = time.monotonic()
    worst_pair = 0.0
    worst_grid = 0.0
    for phis in overlap_corpus:
        a = auc(phis)
        worst_pair = max(worst_pair, abs(a - average_overlap(phis)))
        s = np.sort(np.asarray(phis))
        # fraction of frames strictly above each grid threshold
        above = len(phis) - np.searchsorted(s, grid, side="right")
        worst_grid = max(worst_grid, abs(a - float(above.mean()) / len(phis)))
    elapsed = time.monotonic() - start
    assert worst_pair < 1e-12
    assert worst_grid < 2e-3
    assert elapsed < 5.0


def test_02_combined_score_routes_agree(overlap_corpus):
    """|cotps_original - cotps_closed_form| < 1e-10 on the same corpus,
    zero-overlap fractions 0 and 1 included, inside 5 s."""
    start = time.monotonic()
    worst = 0.0
    for phis in overlap_corpus:
        worst = max(worst, abs(cotps_original(phis) - cotps_closed_form(phis)))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 5.0


def test_03_fragmentation_entropy_properties():
    """Uniform failures give 1 +- 1e-9; circular shifts change nothing
    beyond 1e-12; the two-failure case {50, 60} in 100 frames scores
    0.46900 +- 1e-4, checked against a direct evaluation."""
    for count in (2, 4, 5, 10, 20, 50):
        frames = [i * (100 // count) + 7 for i in range(count)]
        frames = [((f - 1) % 100) + 1 for f in frames]
        assert abs(fragmentation(frames, 100) - 1.0) < 1e-9

    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(4, 400))
        count = int(rng.integers(2, min(n, 15)))
        frames = sorted(rng.choice(np.arange(1, n + 1), size=count, replace=False))
        frames = [int(f) for f in frames]
        base = fragmentation(frames, n)
        shift = int(rng.integers(0, 3 * n))
        shifted = sorted(((f - 1 + shift) % n) + 1 for f in frames)
        assert abs(fragmentation(shifted, n) - base) < 1e-12

    # direct evaluation: intervals 10 and 90 over 100 frames, two failures
    p1, p2 = 10 / 100, 90 / 100
    direct = -(p1 * math.log(p1) + p2 * math.log(p2)) / math.log(2)
    got = fragmentation([50, 60], 100)
    assert abs(got - direct) < 1e-12
    assert abs(got - 0.46900) < 1e-4


def test_04_single_target_reductions_are_exact():
    """motp_single == average_overlap and mota_single == the correct
    fraction at the same threshold, bit-exact on 10^3 random inputs."""
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        phis = rng.random(n)
        phis[rng.random(n) < 0.2] = 0.0
        phis = [float(v) for v in phis]
        tau = float(rng.random())
        assert motp_single(phis) == average_overlap(phis)
        assert mota_single(phis, tau) == correct_fraction(phis, tau)


def _walk_sequence(rng, n, leave):
    """Random-walk GT inside a 320x240 frame; `leave` walks away from
    the start, otherwise it stays within its own initial extent."""
    w, h = 24.0, 18.0
    x, y = 120.0, 100.0
    regions = [Region(x, y, w, h)]
    for _ in range(n - 1):
        if leave:
            x += rng.uniform(4.0, 9.0)
            y += rng.uniform(-2.0, 2.0)
        else:
            x = 120.0 + rng.uniform(-0.4, 0.4) * w
            y = 100.0 + rng.uniform(-0.4, 0.4) * h
        x = min(max(x, 0.0), 320.0 - w)
        y = min(max(y, 0.0), 240.0 - h)
        regions.append(Region(x, y, w, h))
    return SequenceData.synthetic(
        SequenceAnnotation(name=f"walk{leave}", regions=tuple(regions)),
        image_size=(320.0, 240.0),
    )


def _theoretical_record(kind, seq, tau=0.0):
    handle = TrackerHandle.in_process(kind, BuiltinTracker(kind))
    return run_supervised(handle, seq, tau=tau, seed=0)


def test_05_theoretical_trackers_under_supervision():
    """At tau=0: the full-frame and center-oracle trackers never fail on
    in-frame positive-area ground truth; the self-failing tracker fails
    exactly floor((N-1)/2) times for N in 2..50; the static tracker
    fails zero times iff every GT region overlaps the first one."""
    rng = np.random.default_rng(5)
    walks = [_walk_sequence(rng, int(rng.integers(8, 40)), leave=bool(i % 2)) for i in range(40)]

    for seq in walks:
        assert _theoretical_record("tta", seq).failure_frames == ()
        assert _theoretical_record("tto", seq).failure_frames == ()

    for n in range(2, 51):
        seq = SequenceData.synthetic(
            SequenceAnnotation(
                name=f"n{n}", regions=(Region(10.0, 10.0, 20.0, 20.0),) * n
            ),
            image_size=(320.0, 240.0),
        )
        assert len(_theoretical_record("ttf", seq).failure_frames) == (n - 1) // 2

    saw_zero = saw_nonzero = False
    for seq in walks:
        gts = seq.annotation.regions
        always_overlapping = all(overlap(g, gts[0]) > 0.0 for g in gts[1:])
        failures = len(_theoretical_record("tts", seq).failure_frames)
        assert (failures == 0) == always_overlapping
        saw_zero |= failures == 0
        saw_nonzero |= failures > 0
    assert saw_zero and saw_nonzero


def test_06_overlap_matches_pixel_counting():
    """Analytic overlap equals rasterized pixel-count IoU to 1e-12 on
    1500 random integer-coordinate region pairs inside a 64x64 grid."""
    rng = np.random.default_rng(6)

    def random_region():
        x = int(rng.integers(0, 64))
        y = int(rng.integers(0, 64))
        w = int(rng.integers(0, 65 - x))
        h = int(rng.integers(0, 65 - y))
        return Region(float(x), float(y), float(w), float(h))

    def paint(r):
        grid = np.zeros((64, 64), dtype=bool)
        grid[int(r.y):int(r.y + r.height), int(r.x):int(r.x + r.width)] = True
        return grid

    for _ in range(1500):
        a, b = random_region(), random_region()
        ga, gb = paint(a), paint(b)
        union = int((ga | gb).sum())
        pixel = int((ga & gb).sum()) / union if union else 0.0
        assert abs(overlap(a, b) - pixel) < 1e-12


def test_07_measure_correlation_structure_on_the_corpus():
    """7 scripted trackers x 12 sequences x 5 repetitions: the three
    center-error measures correlate pairwise above 0.9 and share one
    cluster; the 0.1-threshold fraction and average overlap correlate
    above 0.8; |rho| between the failure count and the supervised
    average overlap stays below 0.5. All inside 60 s."""
    start = time.monotonic()
    seqs = make_dataset(n_sequences=12, seed=2024)
    handles = [
        TrackerHandle.in_process(spec.name, BuiltinTracker("scripted", spec))
        for spec in corpus_trackers()
    ]
    table = execute_plan(RunPlan(repetitions=5, mode="both"), handles, seqs, master_seed=7)
    assert sum(1 for r in table.rows if r.error is not None) == 0

    corr = pearson_matrix(table)
    assignment = cluster_measures(corr)
    elapsed = time.monotonic() - start

    keys = measure_keys()
    ce = [keys.index("avg_center_error"), keys.index("avg_norm_center_error"), keys.index("rmse")]
    for i, j in itertools.combinations(ce, 2):
        assert corr.values[i, j] > 0.9, (keys[i], keys[j], corr.values[i, j])
    assert len({assignment.exemplar_of[i] for i in ce}) == 1

    p01, avgov = keys.index("p_0.1"), keys.index("avg_overlap")
    assert corr.values[p01, avgov] > 0.8, corr.values[p01, avgov]

    fails, supov = keys.index("failures"), keys.index("sup_avg_overlap")
    assert abs(corr.values[fails, supov]) < 0.5, corr.values[fails, supov]
    assert elapsed < 60.0


def test_08_exact_partitions_and_exemplar_choices():
    """The 1-D k-means DP returns the same minimal WCSS as exhaustive
    enumeration of contiguous partitions (n <= 12, 1000 trials, exact
    equality; the shared segment-cost primitive is validated against an
    independent formula elsewhere, the enumeration here checks the
    optimization); affinity propagation finds an optimal exemplar set
    on at least 95% of 200 random instances with n <= 8."""
    rng = np.random.default_rng(8)

    for _ in range(1000):
        n = int(rng.integers(1, 13))
        values = [float(v) for v in np.round(rng.normal(size=n) * 50, 3)]
        k = int(rng.integers(1, n + 1))
        if len(set(values)) < k:
            continue
        assignment, _, wcss = kmeans_partition(values, k)

        # same segment cost the DP uses, minimized by brute force instead
        order = sorted(range(n), key=lambda i: values[i])
        xs = [values[i] for i in order]
        shift = math.fsum(xs) / n
        centered = [v - shift for v in xs]
        prefix = [0.0]
        prefix_sq = [0.0]
        for v in centered:
            prefix.append(prefix[-1] + v)
            prefix_sq.append(prefix_sq[-1] + v * v)

        def cost(i, j):
            m = j - i + 1
            s = prefix[j + 1] - prefix[i]
            sq = prefix_sq[j + 1] - prefix_sq[i]
            return max(0.0, sq - s * s / m)

        best = math.inf
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = [0, *cuts, n]
            total = 0.0
            for t in range(k):
                total = total + cost(bounds[t], bounds[t + 1] - 1)
            best = min(best, total)
        assert wcss == best, (values, k, wcss, best)

    matched = 0
    rng = np.random.default_rng(88)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        if trial % 4 == 3:
            pts = rng.uniform(0.0, 10.0, size=n)  # no structure, ambiguous
        else:
            c = int(rng.integers(1, min(3, n) + 1))
            centers = np.cumsum(rng.uniform(8.0, 20.0, size=c))
            pts = centers[rng.integers(0, c, size=n)] + rng.normal(0.0, 0.5, size=n)
        S = -np.square(pts[:, None] - pts[None, :])
        pref = float(np.median(S[~np.eye(n, dtype=bool)]))

        def net(exemplars):
            idx = np.array(sorted(exemplars))
            score = pref * len(idx)
            for i in range(n):
                if i not in exemplars:
                    score += float(S[i, idx].max())
            return score

        optimum = max(
            net(set(combo))
            for size in range(1, n + 1)
            for combo in itertools.combinations(range(n), size)
        )
        got = affinity_propagation(S)
        if abs(net(set(got.exemplars)) - optimum) < 1e-9:
            matched += 1
    assert matched >= 190, f"{matched}/200 instances matched the exemplar oracle"


def test_09_child_processes_reproduce_in_process_records(tmp_path):
    """Built-in trackers driven as child processes over the wire
    protocol produce byte-identical records and trajectories; a
    misbehaving tracker surfaces protocol-violation/timeout errors
    carrying the frame where it misbehaved."""
    seqs = write_dataset(str(tmp_path / "data"), make_dataset(n_sequences=3, seed=9))

    def cmd_handle(kind):
        argv = [sys.executable, "-m", "trackbench.tracker_cli", kind]
        if kind in ("ttf", "tto"):
            argv += ["--groundtruth", "{groundtruth}"]
        if kind == "tta":
            argv += ["--meta", "{meta}"]
        return TrackerHandle.from_command(f"{kind}-child", argv, timeout=20.0)

    for kind in ("tta", "tts", "ttf", "tto"):
        for seq in seqs:
            local = TrackerHandle.in_process(kind, BuiltinTracker(kind))
            child = cmd_handle(kind)
            rec_local = run_supervised(local, seq, tau=0.0, seed=13)
            rec_child = run_supervised(child, seq, tau=0.0, seed=13)
            assert dumps_record(rec_child) == dumps_record(rec_local), (kind, seq.annotation.name)
            t_local = run_unsupervised(local, seq, seed=13)
            t_child = run_unsupervised(child, seq, seed=13)
            assert [format_region(r) for r in t_child] == [
                format_region(r) for r in t_local
            ]

    seq = seqs[0]
    with pytest.raises(ProtocolViolationError) as e:
        run_supervised(
            TrackerHandle.from_command("garbage", [sys.executable, STUB, "garbage"]),
            seq, tau=0.0, seed=0,
        )
    assert e.value.frame == 3
    with pytest.raises(TrackerTimeoutError) as e:
        run_supervised(
            TrackerHandle.from_command("slow", [sys.executable, STUB, "slow"], timeout=0.5),
            seq, tau=0.0, seed=0,
        )
    assert e.value.frame == 3
    with pytest.raises(ProtocolViolationError) as e:
        run_supervised(
            TrackerHandle.from_command("badhello", [sys.executable, STUB, "badhello"]),
            seq, tau=0.0, seed=0,
        )
    assert e.value.frame == 0


def test_10_reliability_ranking_is_span_invariant():
    """For 1000 random (failure count, length) sets and 20 spans, the
    ranking induced by the reliability score equals the ranking by
    -failures/length exactly."""
    rng = np.random.default_rng(10)
    for _ in range(1000):
        m = int(rng.integers(2, 21))
        items = []
        for _ in range(m):
            n = int(rng.integers(1, 501))
            items.append((int(rng.integers(0, n + 1)), n))
        # higher -F/N is better, ties broken by index in both rankings
        base = sorted(range(m), key=lambda i: (items[i][0] / items[i][1], i))
        for _ in range(20):
            span = float(rng.uniform(0.1, 200.0))
            by_rel = sorted(
                range(m), key=lambda i: (-reliability(items[i][0], items[i][1], span), i)
            )
            assert by_rel == base


def test_11_svg_documents_are_deterministic_and_well_formed():
    """Every plot type emits well-formed XML; threshold curves never
    increase along x; the same inputs re-render byte-identically."""
    from trackbench import plots

    def render_all():
        errors = {"a": [1.0, 2.0, 40.0, 3.0, 2.5], "b": [0.5, 0.6, 0.7, 0.8, 0.2]}
        phis = {"a": [0.9, 0.8, None, 0.7, 0.65], "b": [0.5, 0.45, 0.5, 0.55, 0.5]}
        raw = {"a": [0.9, 0.8, 0.2, 0.7, 0.0], "b": [0.5, 0.5, 0.5, 0.5, 0.5]}
        return {
            "center_error": plots.center_error_plot(errors),
            "overlap": plots.overlap_plot(phis),
            "threshold": plots.threshold_plot(raw),
            "ar": plots.ar_plot(
                {"a": (0.8, 0.9), "b": (0.5, 0.4)},
                {"tta": (0.05, 1.0), "tts": (0.9, 0.2), "ttf": (1.0, 0.05), "tto": (1.0, 1.0)},
            ),
            "fragmentation": plots.fragmentation_timeline({"a": [50, 60], "b": [10]}, 100),
            "survival": plots.survival_curve({"a": [0.9, 0.5, 0.7], "b": [0.4, 0.6]}),
        }

    first = render_all()
    second = render_all()
    for kind, svg in first.items():
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert svg == second[kind], f"{kind} render is not deterministic"

    svg = first["threshold"]
    for el in ET.fromstring(svg).iter():
        if el.tag.split("}")[-1] == "polyline" and el.get("class") == "data":
            pts = [tuple(map(float, p.split(","))) for p in el.get("points").split()]
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                assert x1 >= x0 - 1e-9
                assert y1 >= y0 - 1e-9  # svg y axis points down
