import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trackbench import analysis
from trackbench.analysis import (
    CorrelationMatrix,
    affinity_propagation,
    ar_summary,
    cluster_measures,
    kmeans_labels,
    kmeans_partition,
    label_sequences,
    measure_similarity,
    pearson_matrix,
    survival_scores,
)
from trackbench.errors import (
    ClusterDomainError,
    ConfigError,
    InsufficientSamplesError,
)
from trackbench.measures import MEASURES, measure_keys
from trackbench.trajectory import MeasureRow, MeasureTable

from conftest import make_sequence, moving_sequence, static_sequence


def row(tracker, sequence, values, run=0, frames=100, error=None):
    return MeasureRow(
        tracker=tracker, sequence=sequence, run=run, frames=frames,
        values=tuple(values), error=error,
    )


class TestArPair:
    def test_per_tracker_summary(self):
        clean = [float(i) for i in range(16)]
        v_a1 = clean.copy(); v_a1[14] = 0.8; v_a1[15] = 2.0
        v_a2 = clean.copy(); v_a2[14] = 0.6; v_a2[15] = 4.0
        v_b = clean.copy(); v_b[14] = 0.4; v_b[15] = 10.0
        bad = clean.copy(); bad[14] = 0.0; bad[15] = 0.0
        table = MeasureTable(rows=(
            row("b", "s1", v_b, frames=100),
            row("a", "s1", v_a1, frames=100),
            row("a", "s2", v_a2, frames=200),
            row("a", "s3", bad, error="boom"),
        ))
        got = ar_summary(table, span=30.0)
        assert [t for t, *_ in got] == ["a", "b"]
        name, acc, rob, rel = got[0]
        assert abs(acc - 0.7) < 1e-15
        assert rob == 3.0
        want_rel = (math.exp(-30.0 * 2 / 100) + math.exp(-30.0 * 4 / 200)) / 2.0
        assert abs(rel - want_rel) < 1e-15


    def test_a_tracker_without_a_defined_failure_count_is_left_out(self):
        # An unsupervised-only run leaves the supervised columns undefined.
        defined = [0.5] * 16
        undefined = defined.copy(); undefined[14] = undefined[15] = float("nan")
        table = MeasureTable(rows=(
            row("a", "s1", defined),
            row("u", "s1", undefined),
            row("u", "s2", defined, error="boom"),
        ))
        assert [t for t, *_ in ar_summary(table)] == ["a"]


def overlaps(avg=float("nan"), sup=float("nan")):
    """A 16-measure row that defines only avg_overlap and sup_avg_overlap."""
    values = [float("nan")] * 16
    keys = measure_keys()
    values[keys.index("avg_overlap")] = avg
    values[keys.index("sup_avg_overlap")] = sup
    return values


class TestSurvivalScores:
    def test_supervised_column_when_any_clean_row_defines_it(self):
        table = MeasureTable(rows=(
            row("a", "s1", overlaps(avg=0.9, sup=0.5)),
            row("a", "s2", overlaps(avg=0.9)),  # no supervised value: skipped
        ))
        assert survival_scores(table) == {"a": [0.5]}

    def test_unsupervised_column_otherwise(self):
        table = MeasureTable(rows=(
            row("a", "s1", overlaps(avg=0.25)),
            row("a", "s2", overlaps(avg=0.75, sup=0.5), error="timeout at frame 3"),
        ))
        assert survival_scores(table) == {"a": [0.25]}

    def test_error_rows_and_nan_cells_are_skipped(self):
        table = MeasureTable(rows=(
            row("a", "s1", overlaps(sup=0.5), run=0),
            row("a", "s1", overlaps(sup=0.0), run=1, error="boom"),
            row("a", "s1", overlaps(), run=2),
            row("b", "s1", overlaps(), run=0),
        ))
        assert survival_scores(table) == {"a": [0.5]}

    def test_one_mean_per_sequence_in_name_order_with_trackers_sorted(self):
        table = MeasureTable(rows=(
            row("b", "s2", overlaps(sup=0.5)),
            row("b", "s1", overlaps(sup=0.25), run=0),
            row("b", "s1", overlaps(sup=0.5), run=1),
            row("a", "s3", overlaps(sup=0.125)),
        ))
        got = survival_scores(table)
        assert list(got) == ["a", "b"]
        assert got == {"a": [0.125], "b": [0.375, 0.5]}

    def test_empty_table(self):
        assert survival_scores(MeasureTable(rows=())) == {}


def two_pass_pearson(x, y):
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def random_table(seed, rows=40, nan_cols=(), error_rows=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(rows):
        vals = rng.normal(size=16)
        # correlated pair so the matrix has structure
        vals[7] = vals[0] * -0.9 + rng.normal() * 0.1
        for c in nan_cols:
            if rng.random() < 0.3:
                vals[c] = float("nan")
        out.append(row("t", f"s{i}", vals, run=i))
    for i in range(error_rows):
        out.append(row("t", f"e{i}", [float("nan")] * 16, run=100 + i, error="x"))
    return MeasureTable(rows=tuple(out))


class TestPearsonMatrix:
    def test_matches_two_pass_oracle(self):
        table = random_table(1, rows=50, nan_cols=(3, 11))
        corr = pearson_matrix(table)
        data = [r.values for r in table.rows]
        for i in range(16):
            for j in range(16):
                pairs = [
                    (v[i], v[j]) for v in data
                    if not (math.isnan(v[i]) or math.isnan(v[j]))
                ]
                assert corr.counts[i, j] == len(pairs)
                if not math.isnan(corr.values[i, j]):
                    want = two_pass_pearson([p[0] for p in pairs], [p[1] for p in pairs])
                    assert abs(corr.values[i, j] - want) < 1e-12

    def test_symmetry_range_and_diagonal(self):
        corr = pearson_matrix(random_table(2))
        v = corr.values
        assert np.allclose(v, v.T, equal_nan=True)
        defined = ~np.isnan(v)
        assert (np.abs(v[defined]) <= 1.0).all()
        assert np.allclose(np.diag(v), 1.0)

    def test_error_rows_excluded(self):
        table = random_table(3, rows=10, error_rows=5)
        corr = pearson_matrix(table)
        assert int(corr.counts[0, 0]) == 10

    def test_needs_three_clean_rows(self):
        table = random_table(4, rows=2, error_rows=10)
        with pytest.raises(InsufficientSamplesError):
            pearson_matrix(table)

    def test_zero_variance_column_is_undefined_not_zero(self):
        rows = []
        rng = np.random.default_rng(5)
        for i in range(10):
            vals = rng.normal(size=16)
            vals[6] = 7.0
            rows.append(row("t", f"s{i}", vals, run=i))
        corr = pearson_matrix(MeasureTable(rows=tuple(rows)))
        assert math.isnan(corr.values[6, 0])
        assert math.isnan(corr.values[6, 6])
        assert corr.counts[6, 0] == 10

    def test_too_few_paired_samples_is_undefined(self):
        rows = []
        rng = np.random.default_rng(6)
        for i in range(10):
            vals = rng.normal(size=16)
            if i >= 2:
                vals[2] = float("nan")
            rows.append(row("t", f"s{i}", vals, run=i))
        corr = pearson_matrix(MeasureTable(rows=tuple(rows)))
        assert corr.counts[2, 0] == 2
        assert math.isnan(corr.values[2, 0])

    def test_columns_near_1e200_correlate_as_their_unscaled_values(self):
        # Unscaled, np.corrcoef's sums of columns near 1e200 overflow.
        rows, small = [], []
        rng = np.random.default_rng(7)
        for i in range(10):
            vals = rng.normal(size=16)
            vals[0], vals[2] = (i + 1) * 1e200, (i % 4 + 1) * 1e200
            rows.append(row("t", f"s{i}", vals, run=i))
            small.append((i + 1, i % 4 + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corr = pearson_matrix(MeasureTable(rows=tuple(rows)))
        want = two_pass_pearson(*zip(*small))
        assert abs(corr.values[0, 2] - want) < 1e-12 and corr.values[2, 0] == corr.values[0, 2]
        assert abs(corr.values[0, 1]) < 1.0 and corr.values[0, 1] != 0.0
        assert corr.counts[0, 2] == 10
        assert not math.isnan(corr.values[1, 3])

    def test_columns_scaled_by_powers_of_two_keep_every_cell(self):
        table = random_table(9, rows=30, nan_cols=(4,))
        scale = np.ones(16)
        scale[3], scale[4] = 2.0 ** 600, 2.0 ** -600
        scaled = MeasureTable(rows=tuple(
            row(r.tracker, r.sequence, np.array(r.values) * scale, run=r.run)
            for r in table.rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pearson_matrix(scaled)
        want = pearson_matrix(table)
        assert [float(v).hex() for v in got.values.ravel()] == [
            float(v).hex() for v in want.values.ravel()]
        assert np.isnan(want.values).sum() == 0


class TestPolarityAlignment:
    def test_sign_flips_follow_the_registry(self):
        n = 16
        values = np.full((n, n), 0.5)
        corr = CorrelationMatrix(
            labels=tuple(m.key for m in MEASURES),
            values=values,
            counts=np.full((n, n), 10),
        )
        sim = measure_similarity(corr)
        keys = [m.key for m in MEASURES]
        ce, ov, fails = keys.index("avg_center_error"), keys.index("avg_overlap"), keys.index("failures")
        # lower-better vs higher-better flips, same-polarity pairs do not
        assert sim[ce, ov] == -0.5
        assert sim[ce, fails] == 0.5
        assert sim[ov, keys.index("p_0.5")] == 0.5
        assert sim[ce, ce] == 0.5


def gaussian_blob_similarity(points):
    pts = np.asarray(points, dtype=np.float64)
    return -np.square(pts[:, None] - pts[None, :])


class TestAffinityPropagation:
    def test_two_well_separated_groups(self):
        sim = gaussian_blob_similarity([0.0, 0.1, 0.2, 10.0, 10.1, 10.2])
        got = affinity_propagation(sim)
        assert got.converged
        of = got.exemplar_of
        assert of[0] == of[1] == of[2] != of[3] == of[4] == of[5]
        assert set(of) == set(got.exemplars)
        for e in got.exemplars:
            assert got.exemplar_of[e] == e

    def test_single_item(self):
        got = affinity_propagation(np.zeros((1, 1)))
        assert got.exemplar_of == (0,) and got.converged

    def test_deterministic(self):
        sim = gaussian_blob_similarity([0.0, 0.3, 5.0, 5.2, 9.0])
        a = affinity_propagation(sim)
        b = affinity_propagation(sim)
        assert a == b

    def test_validation(self):
        with pytest.raises(ConfigError):
            affinity_propagation(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            affinity_propagation(np.zeros((0, 0)))
        with pytest.raises(ConfigError):
            affinity_propagation(np.zeros((3, 3)), damping=0.4)
        with pytest.raises(ConfigError):
            affinity_propagation(np.zeros((3, 3)), damping=1.0)
        bad = np.zeros((3, 3))
        bad[0, 1] = float("nan")
        with pytest.raises(ClusterDomainError):
            affinity_propagation(bad)


# Values that stress np.median's arithmetic: signed zeros, infinities,
# sums that overflow, and subnormals whose halves round.
MEDIAN_EDGES = [0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324,
                1.5e-323, 2.2250738585072014e-308, 1.0, -1.0]


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestJitterAndMedian:
    """The stored jitter and the sort-based median give numpy's bits."""

    def test_table_is_the_generators_first_256_draws(self):
        assert hexes(analysis._JITTER) == hexes(
            np.random.default_rng(0x5EED).standard_normal(256))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_table_prefix_is_the_square_draw(self, n):
        got = analysis._jitter(n)
        assert got.shape == (n, n)
        assert hexes(got) == hexes(np.random.default_rng(0x5EED).standard_normal((n, n)))

    @given(st.lists(st.sampled_from(MEDIAN_EDGES) | st.floats(allow_nan=False),
                    min_size=1, max_size=240))
    @example([-0.0])
    @example([-0.0, -0.0])
    @example([-0.0, 0.0, -0.0])
    @example([1e308, 1e308])
    @example([-math.inf, math.inf])
    @example([5e-324, 5e-324, 1.0])
    @example([5e-324, 1.5e-323])
    def test_median_matches_numpy(self, values):
        x = np.array(values)
        with np.errstate(all="ignore"):
            expected = float(np.median(x))
        assert analysis._median(x).hex() == expected.hex()

    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_clustering_matches_numpy_jitter_and_median(self, monkeypatch, n, seed):
        # Pairs of identical items give exact ties, which only the jitter
        # breaks; n = 16 reads the stored table, n = 17 numpy's generator.
        rng = np.random.default_rng(seed)
        points = np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]
        sim = -np.subtract.outer(points, points) ** 2
        got = affinity_propagation(sim)
        monkeypatch.setattr(
            analysis, "_jitter",
            lambda n: np.random.default_rng(0x5EED).standard_normal((n, n)))
        monkeypatch.setattr(analysis, "_median", lambda v: float(np.median(v)))
        assert got == affinity_propagation(sim)


def gappy_table(gaps, rows=12):
    """Random rows where gaps(i, vals) may blank or fix values of row i."""
    out = []
    rng = np.random.default_rng(7)
    for i in range(rows):
        vals = list(rng.normal(size=16))
        gaps(i, vals)
        out.append(row("t", f"s{i}", vals, run=i))
    return MeasureTable(rows=tuple(out))


class TestClusterMeasures:
    def test_undefined_columns_are_reported(self):
        # rmse and failures never share a row; each pairs with the other 14.
        def gaps(i, vals):
            vals[2 if i % 2 else 15] = float("nan")

        with pytest.raises(ClusterDomainError) as e:
            cluster_measures(pearson_matrix(gappy_table(gaps)))
        assert str(e.value) == "cannot cluster, undefined correlations for: rmse, failures"

    def test_a_column_with_no_defined_correlation_is_dropped(self):
        def constant(i, vals):
            vals[15] = 0.0

        table = gappy_table(constant)
        got = cluster_measures(pearson_matrix(table))
        assert got.exemplar_of[15] is None
        assert None not in got.exemplar_of[:15] and 15 not in got.exemplars
        # The other 15 cluster as they would without the column.
        alone = affinity_propagation(measure_similarity(pearson_matrix(table))[:15, :15])
        assert got.exemplar_of[:15] == alone.exemplar_of
        assert (got.exemplars, got.converged) == (alone.exemplars, alone.converged)

    def test_every_column_without_a_correlation_is_dropped(self):
        # The supervised half entirely NaN: no record was produced.
        def unsupervised_only(i, vals):
            vals[9:] = [float("nan")] * 7

        got = cluster_measures(pearson_matrix(gappy_table(unsupervised_only)))
        assert got.exemplar_of[9:] == (None,) * 7
        assert None not in got.exemplar_of[:9]

    def test_nothing_to_cluster_names_every_measure(self):
        def all_constant(i, vals):
            vals[:] = [1.0] * 16

        with pytest.raises(ClusterDomainError) as e:
            cluster_measures(pearson_matrix(gappy_table(all_constant)))
        assert str(e.value).endswith(": " + ", ".join(m.key for m in MEASURES))

    def test_full_table_clusters(self):
        assignment = cluster_measures(pearson_matrix(random_table(8, rows=60)))
        assert len(assignment.exemplar_of) == 16
        assert len(assignment.exemplars) >= 1
        assert set(assignment.exemplar_of) == set(assignment.exemplars)


def brute_force_wcss(values, k):
    """Minimum WCSS over contiguous partitions of the sorted values."""
    xs = sorted(values)
    n = len(xs)

    def seg(i, j):
        m = xs[i:j]
        mu = sum(m) / len(m)
        return sum((v - mu) ** 2 for v in m)

    best = float("inf")
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = [0, *cuts, n]
        w = sum(seg(bounds[t], bounds[t + 1]) for t in range(k))
        best = min(best, w)
    return best


class TestKmeansPartition:
    def test_frozen_example(self):
        assignment, centroids, wcss = kmeans_partition([1.0, 2.0, 10.0, 11.0, 12.0], 2)
        assert assignment == [0, 0, 1, 1, 1]
        assert centroids == [1.5, 11.0]
        assert abs(wcss - 2.5) < 1e-12

    def test_clusters_numbered_by_ascending_centroid(self):
        assignment, centroids, _ = kmeans_partition([5.0, 5.0, 3.0], 2)
        assert assignment == [1, 1, 0]
        assert centroids == [3.0, 5.0]

    def test_single_cluster(self):
        values = [4.0, 8.0, 6.0]
        assignment, centroids, wcss = kmeans_partition(values, 1)
        assert assignment == [0, 0, 0]
        assert centroids == [6.0]
        assert abs(wcss - 8.0) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ClusterDomainError):
            kmeans_partition([0.0, 0.0, 1.0], 3)
        with pytest.raises(ClusterDomainError):
            kmeans_partition([1.0, 2.0], 0)
        with pytest.raises(ClusterDomainError):
            kmeans_partition([1.0, float("inf")], 2)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            values = [float(v) for v in rng.normal(size=n) * 10]
            k = int(rng.integers(1, min(n, 4) + 1))
            if len(set(values)) < k:
                continue
            _, _, wcss = kmeans_partition(values, k)
            assert abs(wcss - brute_force_wcss(values, k)) < 1e-9

    def test_label_vocabularies(self):
        assert kmeans_labels([1.0, 10.0], 2) == ["low", "high"]
        assert kmeans_labels([1.0, 5.0, 10.0], 3) == ["low", "medium", "high"]
        assert kmeans_labels([1.0, 4.0, 7.0, 10.0], 4) == [
            "level_1", "level_2", "level_3", "level_4",
        ]
        assert kmeans_labels([10.0, 1.0, 5.0], 3, ("small", "medium", "large")) == [
            "large", "small", "medium",
        ]


class TestLabelSequences:
    def test_needs_three_sequences(self):
        with pytest.raises(InsufficientSamplesError):
            label_sequences([static_sequence(5), moving_sequence(5)])

    def test_mini_dataset_labels(self):
        seqs = [
            static_sequence(20, name="alpha"),
            moving_sequence(24, name="bravo"),
            make_sequence(
                [(100.0, 80.0, 20.0 + i, 16.0 + i) for i in range(22)], name="charlie"
            ),
        ]
        got = label_sequences(seqs, k=2)
        byname = {r[0]: r[1:] for r in got}
        size, motion, speed, change = byname["bravo"]
        assert (motion, speed, change) == ("high", "high", "low")
        size, motion, speed, change = byname["alpha"]
        assert (motion, speed, change) == ("low", "low", "low")
        size, motion, speed, change = byname["charlie"]
        assert (size, motion, change) == ("high", "low", "high")

    def test_identical_columns_rejected(self):
        seqs = [static_sequence(10, name=f"s{i}") for i in range(4)]
        with pytest.raises(ClusterDomainError):
            label_sequences(seqs, k=2)
