"""Dataset-level analysis: A-R summaries, measure correlation, clustering.

Correlation between measure columns is Pearson's rho over
pairwise-complete rows. Before clustering, lower-is-better columns are
sign-flipped so that high similarity means "responds to the same aspect
the same way"; flipping a column only negates its correlations, so the
adjustment is applied to the correlation matrix directly. Cluster
discovery is affinity propagation (message passing with damping);
ordinal property labels come from an exact 1-D k-means solved by
dynamic programming over the sorted values, so the partition is the
global optimum, not a local one.
"""

import binascii
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClusterDomainError, ConfigError, InsufficientSamplesError
from .measures import MEASURES, measure_keys, reliability
from .trajectory import MeasureTable

__all__ = [
    "ar_summary",
    "survival_scores",
    "CorrelationMatrix",
    "pearson_matrix",
    "measure_similarity",
    "ClusterAssignment",
    "affinity_propagation",
    "cluster_measures",
    "kmeans_partition",
    "kmeans_labels",
    "label_sequences",
]


# The first 256 draws of np.random.default_rng(0x5EED).standard_normal,
# as little-endian float64. Reading them from here rather than from
# numpy.random keeps that subpackage, and the OpenSSL binding it imports
# through `secrets`, out of every process that clusters up to 16 items.
_JITTER = np.frombuffer(binascii.a2b_base64("""
h4cdNWVY1T+0czD14FntPzTJUH0HK/k/Tpr/JZuvkL8kDp1rSBz7vwwWPtXHufA/dNIjMuSl8j92
augb+RTovxU+xe+HzuO/9nI/3/qg9r93HN2222zTv61PTMgeauS//oH9IX6a4T80DLXwLVPpvzMh
pMtbrNw/uCj/U52p4z+eGcGeIXbQv1MfimCrRN4/v7m/wsqG9D/HYgA593rlv1yY7xgtGde/nbsI
s+TF3b9PqrGxsW36P5JhPqNS2tu/QAw8xpjW1r98kpFQgZ7wv0RxUBO/6gDA93CgWDCM/b+zwTL5
GCnDPwJ11SBQbMm/sRVzq2lDAEAi3l4i60Hjv1FaIA91Z/g//F7jXxE08z/6OaXuOt3xvzhzjc3k
pe4/v6KCKFDL9D8i5IWUBVinv/wPbXDQyP8/DUfzQNyZ+L9VgrP+2QD4P/T3/mmdzfA/lKWvX+o3
zT/sDyHSXhmlvzQXQCJLGtq/2Yuk7xo04T9pSKqwDufBv6tptBPG4O2/y0Ec12hc879nu13tjpaZ
P9mJ+mjGCd0/Xs547Cf06T+mxM4geJ7mv53v29jhxM2/4WN6kuYNBECabdY33pzcP9Gh8/oLcfk/
UDZLm+AN9j8fGFWEyw7bv78Y+xIFDeK/N3BoUnBA8T9P02eUdQP2v2Rj6gOv2fe/lV3nnHr65r82
v7eRqMzWP37uZ6b6xANAWXI/OtLX57/OqWWW7aHdP3LNcVaco+g/iEmCdoRX6L9/LbKbcVv2v0Bv
c2vRMd4/QhHHrTREyb9AMEUgK/HkP+tDxqUj9fG/1BvbDN314z8/YRPs4k+/PxPDIn5KPrK/h43n
TfRZ679/fyu7qa3xP1JWVWOfteA/0vno8cBZ1z9oWmiar0brv2WuE4lTSec/sd6CKVPO+j/hisHe
HRjev5197A3D7t6/LLxghGk26D/kJoaeccPev+HXGbsUWPk/zfsHT7gWnz+ToGov3FLxP7VP6Wqe
sf8/WyY3nkeez78iGAIg/szZv8KACh7Letu/Eyj8T6K1wb9Kx+0lrFbyP+XBrzkdXuG/LxYqau0Z
8L8vYdYK0C3Dv9ZAqDj6NZe//TkB/yyYyz+YA3D3LrT/P1Cyu06nL/Q/LwOLhZst3D+7Fyv2/f3/
v4P/SxfGB8Y/WBKvS/h09z9aKJQYJsHiv1zVRy42HeQ/+8a4vASywr/jMa5EeBkEQIj4nxdP+Ny/
V5R0zkrv+b+lsbufd6Oyv3+zS5Ni2e4//VfiNgVTtr/FD4lTJan0PwbBNJ2BE+e/wWqE3EQB0T+z
8OnIWQvvv/BlHhJID6A/cK78Li2g8z9HYWXDrOx6v80J8eKyCfG/OOt/inH9xj9WEYqDxeLjv8B8
VNnJ+ua/OtuMZk5G/D+W6Surc+DZv+8AIt1RYvO/18blDKtF3T/NPw61wzTzP3DNcEPiiRBAdFoy
2v2R4D/2wpG2qlDzPwV+igexKNE/uxdIcViI2r8YhnFaXvD6vzI7aJEFCfw/BFwcjlvz17+6DUiX
5d+ev1WtpS+kdPQ/RysPJ3FH1j+liA+xZofrvytMeqed+tQ/p8HJhUms6D9fNLNyCsPYP/79ZY6W
v/8/uca8MfD19L/UrAFPZNHBP0UFQv70pe8/ADFX+dHMxD9PSbtso4bmv9N7dPkk3QPArS7jEKgE
BEB0vlsNUznzv2TfQDJcktq/mtFmLWbi7r8RChEExFL9v/RHcWPgUfs/NfZ0Ihx6z78VcrQ90UK+
vwXjfW0Hec6/pKK6bO+frb9TIbwskUixv4u6gsG7zrK/1EdJDURW8T8UMqcviIndP3RdvHc8fdS/
vQSTSGrCg78Y88UF1kfTP9Gc0ldtmee/58ZZ2IBA9b86Wy/ORfbIv8IshMyZFri/XetudDFlyD/I
lG75BzDvv3BZVotW4u4/zgrboUe71T+JkHQNYKzkP2wWsTKb0Oe/XOZL/w+Znj9KQx9lOZ7dv01D
7cdMjLu/z4j+i8yO2j92zOBnXIDjPwm6ulUU8uG/h7Wt9+DE9D8U8aW+YSf0PxvrzjulD9I/6Qhh
yb+X3L9JXrb8dj3ZvyQivPBL7eS/1nejvP9B/r/ZGb26VWrQvzI8sqw3Ddo/YuSQ0rnL9j8LJldk
DpfqvwnM50BF1fa/+2Xxfwo+9L9/WgdaUE7avwkO0QqpYQJASi3f6Z0It7/gPB7gbRPqPxgjMuJv
5/o/rvgsV7rI2z9c+u1z7vHdP9RREUSSaNo/DoPV5Gc26D8oRTd7T9nuP7zoIzy7krG/NiXLnXnQ
8L+XJMxg7r/lvy7d54Q+/ZW/HCX+yeTct7+XbqmfcBHxPyUeFk9oxdY/lR7bgWG29L8SvixwiT0G
QP19h8xrbADAeobboFA07D8rTSwiAqv5P0cJj5gPlOE/z5ypiCZHlb/kP57uwpLkP6ga9dqWQKo/
YKmxhWzUAMBfl1WgtHnYvyWKiCHtBfu/BOZ/ufu++78ISlD1CKYAwBQsOCzmTt8/RdeTxdme+r/6
xPqycLXov5F547ui1fK/NId+AM3Szr+DkEWbj3WovztpRPyZqPE/g3hco07JtT+xzliBqi7xP/Ne
RM3hefq/fnPi0S1dAMD7rHrz3Fzhv4JrNxgFj9w/wYxr/vDhvD+ylwVdBEryP4+toLfGdPS/U1Li
RhZs2T+Fvf4Ky3flPyk64nsMm/G/+RCrRkv+hb+K9/0tjBjsPwbbTmK6UM4/n09vE8ZT3j8=
"""), "<f8")


def _jitter(n: int) -> np.ndarray:
    """The first n * n draws of default_rng(0x5EED).standard_normal, as (n, n).

    A generator's first draws do not depend on how many are asked for,
    so the stored prefix and numpy's generator give the same bits.
    """
    if n * n <= _JITTER.size:
        return _JITTER[: n * n].reshape(n, n)
    return np.random.default_rng(0x5EED).standard_normal((n, n))


def _median(values: np.ndarray) -> float:
    """np.median of a NaN-free 1-D array, without loading numpy.ma.

    np.median takes the mean of the middle element or pair, and np.mean
    sums from 0.0; starting from 0.0 here gives the same bits, signed
    zeros and infinities included.
    """
    v = np.sort(values)
    m = v.size // 2
    if v.size % 2:
        return 0.0 + float(v[m])
    return (0.0 + float(v[m - 1]) + float(v[m])) / 2


def ar_summary(table: MeasureTable, span: float = 30.0) -> list[tuple[str, float, float, float]]:
    """Per-tracker mean accuracy, mean failure count, mean reliability.

    Aggregates the supervised columns of clean rows; reliability is
    computed per row from its own sequence length, then averaged.
    """
    keys = measure_keys()
    acc_idx = keys.index("sup_avg_overlap")
    fail_idx = keys.index("failures")
    by_tracker: dict[str, list] = {}
    for row in table.rows:
        if row.error is not None:
            continue
        by_tracker.setdefault(row.tracker, []).append(row)
    out = []
    for tracker in sorted(by_tracker):
        rows = by_tracker[tracker]
        accs = [r.values[acc_idx] for r in rows if not math.isnan(r.values[acc_idx])]
        fails = [r.values[fail_idx] for r in rows if not math.isnan(r.values[fail_idx])]
        rels = [
            reliability(r.values[fail_idx], r.frames, span)
            for r in rows
            if not math.isnan(r.values[fail_idx])
        ]
        if not fails:
            continue
        acc = math.fsum(accs) / len(accs) if accs else float("nan")
        out.append(
            (
                tracker,
                acc,
                math.fsum(fails) / len(fails),
                math.fsum(rels) / len(rels),
            )
        )
    return out


def survival_scores(table: MeasureTable) -> dict[str, list[float]]:
    """Per tracker, the mean average overlap of each sequence, in sequence-name order.

    Uses the supervised average overlap when any clean row defines it,
    the unsupervised one otherwise; error rows and NaN cells are skipped.
    """
    keys = measure_keys()
    sup_idx = keys.index("sup_avg_overlap")
    uns_idx = keys.index("avg_overlap")
    use_sup = any(
        r.error is None and not math.isnan(r.values[sup_idx]) for r in table.rows
    )
    idx = sup_idx if use_sup else uns_idx
    per: dict = {}
    for r in table.rows:
        if r.error is not None or math.isnan(r.values[idx]):
            continue
        per.setdefault(r.tracker, {}).setdefault(r.sequence, []).append(
            r.values[idx]
        )
    return {
        tracker: [sum(v) / len(v) for _, v in sorted(by_seq.items())]
        for tracker, by_seq in sorted(per.items())
    }


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pairwise Pearson correlation with per-cell sample counts.

    Undefined cells (zero-variance column or fewer than 3 paired
    samples) hold NaN; counts still report how many pairs were seen.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    counts: np.ndarray


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """v with its largest magnitude, if nonzero and outside [2**-500, 2**500),
    scaled into [0.5, 1) by a power of two: exact, and rho is scale-free."""
    m = float(np.max(np.abs(v)))
    return v if m == 0.0 or 2.0 ** -500 <= m < 2.0 ** 500 else np.ldexp(v, -math.frexp(m)[1])


def pearson_matrix(table: MeasureTable) -> CorrelationMatrix:
    """Correlation of the 16 measure columns over clean rows.

    Rows flagged with an error are excluded; at least 3 clean rows are
    required. Each cell uses the rows where both measures are defined.
    """
    rows = [r for r in table.rows if r.error is None]
    if len(rows) < 3:
        raise InsufficientSamplesError(
            f"correlation needs at least 3 clean rows, got {len(rows)}"
        )
    data = np.array([r.values for r in rows], dtype=np.float64)
    k = data.shape[1]
    values = np.full((k, k), np.nan)
    counts = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(i, k):
            mask = ~(np.isnan(data[:, i]) | np.isnan(data[:, j]))
            n = int(mask.sum())
            counts[i, j] = counts[j, i] = n
            if n < 3:
                continue
            x = _unit_scaled(data[mask, i])
            y = _unit_scaled(data[mask, j])
            if np.var(x) == 0.0 or np.var(y) == 0.0:
                continue  # undefined, not 0
            # clip bounds rounding past +-1.
            values[i, j] = values[j, i] = np.clip(np.corrcoef(x, y)[0, 1], -1.0, 1.0)
    return CorrelationMatrix(
        labels=tuple(m.key for m in MEASURES), values=values, counts=counts
    )


def measure_similarity(corr: CorrelationMatrix) -> np.ndarray:
    """Polarity-aligned similarity for clustering the 16 measures.

    Lower-is-better measures are sign-flipped; flipping column i negates
    row/column i of the correlation matrix, which is applied directly.
    """
    signs = np.array([1.0 if m.higher_is_better else -1.0 for m in MEASURES])
    return corr.values * np.outer(signs, signs)


@dataclass(frozen=True)
class ClusterAssignment:
    """Affinity propagation outcome.

    exemplar_of maps each item to its exemplar's index (exemplars map
    to themselves), or to None for an item left out of the clustering.
    converged is False when the exemplar set did not stay stable; the
    assignment is then the current partial estimate.
    """

    exemplar_of: tuple[int | None, ...]
    exemplars: tuple[int, ...]
    converged: bool
    iterations: int


_MAX_ITER = 500
_STABLE_ITER = 25


def affinity_propagation(
    similarity: np.ndarray,
    damping: float = 0.5,
) -> ClusterAssignment:
    """Exemplar clustering by responsibility/availability message passing.

    similarity[i, k] scores how well k would represent i; the diagonal
    is overwritten with the preference, the median of the off-diagonal
    similarities, which favors a moderate cluster count.
    Messages are damped by `damping` in [0.5, 1). The run converges
    when the exemplar set stays identical for _STABLE_ITER (25)
    consecutive iterations; hitting _MAX_ITER (500) first reports
    converged=False with the current estimate.
    """
    S = np.array(similarity, dtype=np.float64, copy=True)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ConfigError(f"similarity must be square, got {S.shape}")
    n = S.shape[0]
    if n == 0:
        raise ConfigError("empty similarity matrix")
    if not (0.5 <= damping < 1.0):
        raise ConfigError(f"damping {damping} outside [0.5, 1)")
    off_diag = ~np.eye(n, dtype=bool)
    if np.isnan(S[off_diag]).any():
        raise ClusterDomainError("similarity contains undefined entries")
    if n == 1:
        return ClusterAssignment((0,), (0,), True, 0)

    np.fill_diagonal(S, _median(S[off_diag]))

    # Exact ties (e.g. two identical similarity rows) make the messages
    # oscillate forever; fixed-seed jitter far below data scale breaks
    # them without costing determinism.
    spread = float(S.max() - S.min()) or 1.0
    S += 1e-9 * spread * _jitter(n)

    R = np.zeros((n, n))
    A = np.zeros((n, n))
    idx = np.arange(n)
    exemplars: tuple[int, ...] = ()
    stable = 0
    iterations = 0
    converged = False
    for iterations in range(1, _MAX_ITER + 1):
        # Responsibilities: how strongly i favors k over the runner-up.
        AS = A + S
        best = np.argmax(AS, axis=1)
        first = AS[idx, best]
        AS[idx, best] = -np.inf
        second = AS.max(axis=1)
        Rnew = S - first[:, None]
        Rnew[idx, best] = S[idx, best] - second
        R = damping * R + (1.0 - damping) * Rnew

        # Availabilities: accumulated support for k being an exemplar.
        Rp = np.maximum(R, 0.0)
        np.fill_diagonal(Rp, np.diag(R))
        colsum = Rp.sum(axis=0)
        Anew = np.minimum(0.0, colsum[None, :] - Rp)
        np.fill_diagonal(Anew, colsum - np.diag(R))
        A = damping * A + (1.0 - damping) * Anew

        current = tuple(int(k) for k in np.flatnonzero(np.diag(A) + np.diag(R) > 0))
        if current == exemplars and current:
            stable += 1
            if stable >= _STABLE_ITER:
                converged = True
                break
        else:
            stable = 0
        exemplars = current

    if not exemplars:
        # Degenerate landscape (e.g. identical items): best single exemplar.
        exemplars = (int(np.argmax(np.diag(A) + np.diag(R))),)
        converged = False

    # The fixed point fixes the cluster count; within each cluster the
    # exemplar identity can still be off. Re-pick each cluster's member
    # with the highest total similarity to the cluster, then reassign.
    ex = np.array(sorted(exemplars))
    assign = ex[np.argmax(S[:, ex], axis=1)]
    assign[ex] = ex
    refined = []
    for e in ex:
        members = np.flatnonzero(assign == e)
        scores = S[np.ix_(members, members)].sum(axis=0)
        refined.append(int(members[int(np.argmax(scores))]))
    ex = np.array(sorted(refined))
    exemplars = tuple(int(e) for e in ex)
    assign = ex[np.argmax(S[:, ex], axis=1)]
    assign[ex] = ex
    return ClusterAssignment(
        exemplar_of=tuple(int(v) for v in assign),
        exemplars=exemplars,
        converged=converged,
        iterations=iterations,
    )


def cluster_measures(corr: CorrelationMatrix, damping: float = 0.5) -> ClusterAssignment:
    """Cluster the measure columns of the given correlation matrix by similarity.

    A measure whose correlation is undefined against every other one (a
    constant column, say) is left out: its exemplar_of entry is None.
    Any undefined correlation among the rest raises ClusterDomainError.
    """
    sim = measure_similarity(corr)
    n = sim.shape[0]
    defined = ~np.isnan(sim)
    np.fill_diagonal(defined, False)
    kept = np.flatnonzero(defined.any(axis=1))
    undefined = [corr.labels[i] for i in kept if defined[i, kept].sum() < kept.size - 1]
    if undefined or kept.size == 0:
        raise ClusterDomainError(
            f"cannot cluster, undefined correlations for: {', '.join(undefined or corr.labels)}"
        )
    got = affinity_propagation(sim[np.ix_(kept, kept)], damping=damping)
    exemplar_of = [None] * n
    for i, e in zip(kept, got.exemplar_of):
        exemplar_of[i] = int(kept[e])
    return ClusterAssignment(tuple(exemplar_of), tuple(int(kept[e]) for e in got.exemplars),
                             got.converged, got.iterations)


def kmeans_partition(values, k: int) -> tuple[list[int], list[float], float]:
    """Globally optimal 1-D k-means by dynamic programming.

    Returns (assignment, centroids, wcss): assignment[i] is the cluster
    of values[i] with clusters numbered by ascending centroid. Optimal
    clusters of sorted values are contiguous runs, so the DP over run
    boundaries finds the exact minimum of the within-cluster sum of
    squares. Requires at least k distinct values.
    """
    values = [float(v) for v in values]
    n = len(values)
    if k < 1:
        raise ClusterDomainError(f"cluster count {k} must be at least 1")
    if any(not math.isfinite(v) for v in values):
        raise ClusterDomainError("values must be finite")
    if len(set(values)) < k:
        raise ClusterDomainError(
            f"need at least {k} distinct values, got {len(set(values))}"
        )

    order = sorted(range(n), key=lambda i: values[i])
    xs = [values[i] for i in order]
    shift = math.fsum(xs) / n
    centered = [v - shift for v in xs]
    prefix = [0.0]
    prefix_sq = [0.0]
    for v in centered:
        prefix.append(prefix[-1] + v)
        prefix_sq.append(prefix_sq[-1] + v * v)

    def cost(i: int, j: int) -> float:
        # WCSS of sorted items i..j inclusive.
        m = j - i + 1
        s = prefix[j + 1] - prefix[i]
        sq = prefix_sq[j + 1] - prefix_sq[i]
        return max(0.0, sq - s * s / m)

    inf = float("inf")
    best = [[inf] * (n + 1) for _ in range(k + 1)]
    cut = [[0] * (n + 1) for _ in range(k + 1)]
    best[0][0] = 0.0
    for c in range(1, k + 1):
        for j in range(c, n + 1):
            for m in range(c, j + 1):
                candidate = best[c - 1][m - 1] + cost(m - 1, j - 1)
                if candidate < best[c][j]:
                    best[c][j] = candidate
                    cut[c][j] = m - 1
    assignment = [0] * n
    hi = n
    for c in range(k, 0, -1):
        lo = cut[c][hi]
        for pos in range(lo, hi):
            assignment[order[pos]] = c - 1
        hi = lo
    centroids = []
    for c in range(k):
        members = [values[i] for i in range(n) if assignment[i] == c]
        centroids.append(math.fsum(members) / len(members))
    return assignment, centroids, best[k][n]


_ORDINAL_NAMES = {
    1: ("all",),
    2: ("low", "high"),
    3: ("low", "medium", "high"),
}


def kmeans_labels(values, k: int, names=None) -> list[str]:
    """Ordinal labels from the optimal 1-D partition, ascending.

    names holds one label per level, lowest first; by default they are
    low/high, low/medium/high or level_1..level_k.
    """
    assignment, _, _ = kmeans_partition(values, k)
    if names is None:
        names = _ORDINAL_NAMES.get(k, tuple(f"level_{i + 1}" for i in range(k)))
    return [names[c] for c in assignment]


_SIZE_NAMES = ("small", "medium", "large")


def label_sequences(seqs, span: float = 30.0, k: int = 3) -> tuple[tuple[str, ...], ...]:
    """One (name, size, motion, speed, size_change) label row per sequence.

    Scalars come from sequence_properties; each column is partitioned
    by exact 1-D k-means into k ordinal levels. Polarity is aligned so
    labels read as the property: motion and size change are probed by
    scores that FALL as the property grows (tts reliability, tto
    overlap), so those columns are negated before partitioning.
    Identical scalars across sequences (fewer distinct values than k),
    or an undefined one, raise ClusterDomainError.
    """
    from .theoretical import sequence_properties

    seqs = list(seqs)
    if len(seqs) < 3:
        raise InsufficientSamplesError(
            f"labeling needs at least 3 sequences, got {len(seqs)}"
        )
    scalars = [sequence_properties(seq, span=span) for seq in seqs]
    for seq, values in zip(seqs, scalars):
        for prop, v in zip(("size", "motion", "speed", "size_change"), values):
            if not math.isfinite(v):
                raise ClusterDomainError(f"sequence {seq.annotation.name!r}: {prop} is undefined")
    size_l = kmeans_labels([s[0] for s in scalars], k, _SIZE_NAMES if k == 3 else None)
    motion_l = kmeans_labels([-s[1] for s in scalars], k)  # high reliability = low motion
    speed_l = kmeans_labels([s[2] for s in scalars], k)
    change_l = kmeans_labels([-s[3] for s in scalars], k)  # high tto overlap = low size change
    return tuple(
        (seq.annotation.name, size_l[i], motion_l[i], speed_l[i], change_l[i])
        for i, seq in enumerate(seqs)
    )
