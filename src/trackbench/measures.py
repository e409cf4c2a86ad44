"""Per-sequence tracking performance measures.

The canonical vector holds 16 measures. Entries 1-9 score a trajectory
from a single initialization (center errors, threshold statistics,
average overlap, combined tracking performance); entries 10-16 score a
supervised run with reinitialization after each failure (the same
family plus the failure count). Lower-is-better entries are marked in
the registry so dataset-level analysis can align polarities.

Conventions, applied consistently:
  * thresholded correctness is strict: a frame counts only when
    overlap > tau;
  * in supervised series, failure frames (None) contribute overlap 0
    and Init frames are excluded from every average;
  * center errors on supervised records use the reported regions only
    (failure frames (None) carry no region, Init frames are excluded).
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import mul

from .errors import EmptySeriesError, FragmentationUndefinedError, MeasureDomainError
from .trajectory import SupervisedRunRecord, score_record, score_trajectory

__all__ = [
    "MeasureId",
    "MEASURES",
    "measure_keys",
    "average_center_error",
    "rmse",
    "average_overlap",
    "correct_fraction",
    "tracking_length",
    "fragmentation",
    "cotps_closed_form",
    "cotps_original",
    "auc",
    "threshold_curve",
    "motp_single",
    "mota_single",
    "reliability",
    "unsupervised_measures",
    "supervised_measures",
    "compute_all",
]


@dataclass(frozen=True)
class MeasureId:
    """Identity of a measure: list position, stable key, human label,
    polarity, and whether it needs a supervised record."""

    index: int
    key: str
    label: str
    higher_is_better: bool
    supervised: bool


MEASURES: tuple[MeasureId, ...] = (
    MeasureId(1, "avg_center_error", "average center error", False, False),
    MeasureId(2, "avg_norm_center_error", "average normalized center error", False, False),
    MeasureId(3, "rmse", "root-mean-square center error", False, False),
    MeasureId(4, "p_0.1", "fraction of frames with overlap > 0.1", True, False),
    MeasureId(5, "p_0.5", "fraction of frames with overlap > 0.5", True, False),
    MeasureId(6, "len_0.1", "tracking length at threshold 0.1", True, False),
    MeasureId(7, "len_0.5", "tracking length at threshold 0.5", True, False),
    MeasureId(8, "avg_overlap", "average overlap", True, False),
    MeasureId(9, "cotps", "combined tracking performance score", False, False),
    MeasureId(10, "sup_avg_center_error", "supervised average center error", False, True),
    MeasureId(11, "sup_avg_norm_center_error", "supervised average normalized center error", False, True),
    MeasureId(12, "sup_rmse", "supervised root-mean-square center error", False, True),
    MeasureId(13, "sup_p_0.1", "supervised fraction of frames with overlap > 0.1", True, True),
    MeasureId(14, "sup_p_0.5", "supervised fraction of frames with overlap > 0.5", True, True),
    MeasureId(15, "sup_avg_overlap", "supervised average overlap", True, True),
    MeasureId(16, "failures", "failure count", False, True),
)

def measure_keys() -> list[str]:
    """Keys of the 16 canonical measures in list order."""
    return [m.key for m in MEASURES]


def _check_overlaps(phis) -> list[float]:
    phis = [float(p) for p in phis]
    if not phis:
        raise EmptySeriesError("empty overlap series")
    for i, p in enumerate(phis):
        if not (0.0 <= p <= 1.0):
            raise MeasureDomainError(f"overlap {p} at frame {i + 1} outside [0, 1]")
    return phis


def average_center_error(deltas) -> float:
    """Mean of a per-frame center-error series."""
    deltas = list(deltas)
    if not deltas:
        raise EmptySeriesError("empty center-error series")
    return math.fsum(deltas) / len(deltas)


def rmse(deltas) -> float:
    """Root of the mean squared center error."""
    deltas = list(deltas)
    if not deltas:
        raise EmptySeriesError("empty center-error series")
    return math.sqrt(math.fsum(d * d for d in deltas) / len(deltas))


def average_overlap(phis) -> float:
    """Mean per-frame overlap."""
    phis = _check_overlaps(phis)
    return math.fsum(phis) / len(phis)


def correct_fraction(phis, tau: float) -> float:
    """Fraction of frames with overlap strictly above tau."""
    phis = _check_overlaps(phis)
    hits = sum(1 for p in phis if p > tau)
    return hits / len(phis)


def _leading(phis: list[float], tau: float) -> int:
    n = 0
    for p in phis:
        if p > tau:
            n += 1
        else:
            break
    return n


def tracking_length(phis, tau: float) -> int:
    """Number of leading frames with overlap strictly above tau."""
    return _leading(_check_overlaps(phis), tau)


def fragmentation(failures, n: int) -> float:
    """Entropy-based spread of failures over the sequence.

    The sequence is treated circularly: with sorted failure frames
    f_1 < ... < f_F, the interval after f_i is f_{i+1} - f_i, and the
    interval after the last failure wraps to f_1 + n - f_F. The
    intervals sum to n; their normalized entropy (natural log, divided
    by log F) is 1 exactly when failures are equally spaced and falls
    toward 0 as they bunch up. Needs at least two failures.
    """
    failures = sorted(int(f) for f in failures)
    count = len(failures)
    if count < 2:
        raise FragmentationUndefinedError(
            f"fragmentation needs at least 2 failures, got {count}"
        )
    prev = 0
    for f in failures:
        if f < 1 or f > n:
            raise MeasureDomainError(f"failure frame {f} outside 1..{n}")
        if f == prev:
            raise MeasureDomainError(f"duplicate failure frame {f}")
        prev = f
    intervals = [failures[i + 1] - failures[i] for i in range(count - 1)]
    intervals.append(failures[0] + n - failures[-1])
    entropy = -math.fsum((d / n) * math.log(d / n) for d in intervals)
    return entropy / math.log(count)


def cotps_closed_form(phis) -> float:
    """Combined tracking performance score, closed form.

    1 - mean(phi) - (1 - lam0) * lam0 where lam0 is the fraction of
    frames with exactly zero overlap. 0 is ideal, 1 is the worst case.
    """
    phis = _check_overlaps(phis)
    n = len(phis)
    lam0 = sum(1 for p in phis if p == 0.0) / n
    return 1.0 - math.fsum(phis) / n - (1.0 - lam0) * lam0


def cotps_original(phis) -> float:
    """Combined tracking performance score, threshold-sum form.

    Weighs an accuracy term and the zero-overlap fraction:
    beta * Omega + (1 - beta) * lam0 with beta = 1 - lam0. Omega is the
    integral over tau in (0, 1] of the fraction of positive-overlap
    frames whose overlap is <= tau, evaluated exactly as a step-function
    integral over the sorted positive overlaps. Kept deliberately
    independent of cotps_closed_form; the two agree to rounding error.
    """
    import numpy as np

    phis = _check_overlaps(phis)
    n = len(phis)
    pos = np.sort(np.array([p for p in phis if p > 0.0], dtype=np.float64))
    m = pos.size
    lam0 = (n - m) / n
    if m == 0:
        return lam0
    # N(tau)/m is constant at k on [pos[k-1], pos[k]) and at m on [pos[-1], 1].
    uppers = np.append(pos[1:], 1.0)
    integral = float(np.dot(np.arange(1, m + 1, dtype=np.float64), uppers - pos))
    omega = integral / m
    beta = m / n
    return beta * omega + (1.0 - beta) * lam0


def auc(phis) -> float:
    """Area under the overlap-threshold curve.

    Integrates the fraction of frames with overlap at least tau over
    tau in [0, 1], evaluated exactly as a step-function integral over
    the sorted overlaps. Mathematically this equals the average
    overlap; the implementation keeps the integral construction so the
    identity stays an executable cross-check, not an assumption.
    """
    import numpy as np

    phis = _check_overlaps(phis)
    n = len(phis)
    s = np.sort(np.array(phis, dtype=np.float64))
    # On (s[i-1], s[i]) exactly n - i + 1 overlaps are >= tau.
    steps = np.diff(np.concatenate(([0.0], s)))
    weights = np.arange(n, 0, -1, dtype=np.float64)
    return float(np.dot(weights, steps)) / n


def threshold_curve(phis) -> list[tuple[float, float]]:
    """Exact step curve of the correct fraction as tau sweeps [0, 1].

    Returns polyline vertices (tau, fraction of frames with overlap
    strictly above tau), including the vertical drops, starting at
    tau=0 and ending at tau=1. The fraction is non-increasing in tau.
    """
    ordered = sorted(_check_overlaps(phis))
    n = len(ordered)
    i = bisect_right(ordered, 0.0)
    points = [(0.0, (n - i) / n)]
    while i < n:
        v = ordered[i]
        i = bisect_right(ordered, v, i)
        points.append((v, points[-1][1]))
        points.append((v, (n - i) / n))
    if points[-1][0] < 1.0:
        points.append((1.0, points[-1][1]))
    return points


def motp_single(phis) -> float:
    """Multiple-object tracking precision reduced to one target.

    Sum of per-frame overlaps divided by the number of frame-object
    matches, which for a single always-visible target is the frame
    count. Coincides exactly with average_overlap.
    """
    phis = _check_overlaps(phis)
    matches = sum(1 for _ in phis)
    return math.fsum(phis) / matches


def mota_single(phis, tau: float) -> float:
    """Multiple-object tracking accuracy reduced to one target.

    1 minus the miss ratio, where a frame is a miss when its overlap is
    at or below tau; there are no identity switches or extra false
    positives with a single target. Computed as (n - misses) / n so it
    coincides bit-exactly with correct_fraction at the same tau.
    """
    phis = _check_overlaps(phis)
    n = len(phis)
    misses = sum(1 for p in phis if p <= tau)
    return (n - misses) / n


def reliability(failure_count: float, n: int, span: float = 30.0) -> float:
    """Probability-style reliability exp(-span * failures / n).

    span is the frame horizon over which survival without intervention
    is scored; the ranking induced over trackers is the same for every
    positive span (it is monotone in failures / n alone). A run cannot
    fail more often than it has frames, so failure_count > n is
    rejected.
    """
    if n < 1:
        raise MeasureDomainError(f"sequence length {n} must be at least 1")
    if failure_count < 0:
        raise MeasureDomainError(f"negative failure count {failure_count}")
    if failure_count > n:
        raise MeasureDomainError(
            f"failure count {failure_count} exceeds sequence length {n}"
        )
    if not 0 < span < math.inf:
        raise MeasureDomainError(f"span {span} must be positive and finite")
    return math.exp(-span * (failure_count / n))


def _included(series) -> list[float]:
    return [v for v in series if v is not None]


# The reductions below take the scoring kernel's own series, whose
# overlaps it keeps in [0, 1], so they skip the public reductions' checks;
# each value equals the public reduction's bit for bit. A sum of center
# errors that overflows the float range raises MeasureDomainError.
def _center_measures(deltas: list[float], normalized: list[float]) -> list[float]:
    """Average center error, average normalized error and RMSE; NaN if empty."""
    n = len(deltas)
    if not n:
        return [math.nan] * 3
    sums = []
    for what, terms in (("center errors", deltas), ("normalized center errors", normalized),
                        ("squared center errors", map(mul, deltas, deltas))):
        try:
            sums.append(math.fsum(terms))  # inf when a square overflows
        except OverflowError:
            sums.append(math.inf)
        if sums[-1] == math.inf:
            raise MeasureDomainError(f"the sum of {what} overflows the float range")
    return [sums[0] / n, sums[1] / n, math.sqrt(sums[2] / n)]


def _overlap_measures(phis: list[float]) -> list[float]:
    """Correct fractions at 0.1 and 0.5 and the average overlap; NaN if empty."""
    n = len(phis)
    if not n:
        return [math.nan] * 3
    ordered = sorted(phis)
    return [
        (n - bisect_right(ordered, 0.1)) / n,
        (n - bisect_right(ordered, 0.5)) / n,
        math.fsum(phis) / n,
    ]


def unsupervised_measures(a: "SequenceAnnotation", t: "tuple[Region, ...]") -> list[float]:
    """Measures 1-9 from a single-initialization trajectory."""
    scores = score_trajectory(a, t)
    phis = scores.overlaps
    p_01, p_05, mean = _overlap_measures(phis)
    lam0 = phis.count(0.0) / len(phis)
    return _center_measures(scores.center_errors, scores.normalized_errors()) + [
        p_01,
        p_05,
        float(_leading(phis, 0.1)),
        float(_leading(phis, 0.5)),
        mean,
        1.0 - mean - (1.0 - lam0) * lam0,
    ]


def supervised_measures(rec: SupervisedRunRecord, a: "SequenceAnnotation") -> list[float]:
    """Measures 10-16 from a supervised run record.

    Center-error entries are NaN when the run has no tracked frame.
    """
    scores = score_record(rec, a)
    return (
        _center_measures(_included(scores.center_errors),
                         _included(scores.normalized_errors()))
        + _overlap_measures(_included(scores.overlaps))
        + [float(len(rec.failure_frames))]
    )


def compute_all(
    a: "SequenceAnnotation",
    trajectory: "tuple[Region, ...] | None" = None,
    record: SupervisedRunRecord | None = None,
) -> tuple[float, ...]:
    """Assemble the 16-entry measure vector.

    The trajectory fills entries 1-9, the record entries 10-16; a
    missing input leaves its half as NaN so partial experiments still
    produce rows.
    """
    nan = float("nan")
    values: list[float] = [nan] * 16
    if trajectory is not None:
        values[0:9] = unsupervised_measures(a, trajectory)
    if record is not None:
        values[9:16] = supervised_measures(record, a)
    return tuple(values)
