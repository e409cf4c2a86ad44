"""Run model and scoring: trajectories, supervised runs, measure rows.

A trajectory is the tuple of Regions an uninterrupted run reported, one
per frame. Frame numbers are 1-based everywhere they are exposed
(failure frames, error messages); plain Python indices into the
underlying tuples stay 0-based. The ground truth a run is scored
against is an io_formats.SequenceAnnotation.
"""

from dataclasses import dataclass, field
from math import inf as _INF, sqrt as _sqrt
from typing import NamedTuple

from .errors import (
    DegenerateAnnotationError,
    LengthMismatchError,
    MalformedRecordError,
    MeasureDomainError,
)
from .geometry import Region, box_overlap, validate_region

__all__ = [
    "Init",
    "SupervisedRunRecord",
    "MeasureRow",
    "MeasureTable",
    "FrameSeries",
    "score_trajectory",
    "score_record",
]


@dataclass(frozen=True)
class Init:
    """Frame where the tracker was (re)initialized with the GT region."""

    region: Region


# None is a failure frame: the tracker's report fell at or below tau.
FrameRecord = Region | Init | None


@dataclass(frozen=True)
class SupervisedRunRecord:
    """Outcome of one supervised run with reinitialization.

    The threshold tau is the overlap at or below which a frame counts as
    failed. failure_frames is derived, not passed: the 1-based frame
    numbers of the failure frames (None), in order. Construction is
    where the structure is checked, once: it raises MalformedRecordError
    for an empty record, a first frame that is not an Init, or a failure
    frame not followed by an Init (except on the final frame), so every
    record that exists is well formed.
    """

    frames: tuple[FrameRecord, ...]
    tau: float
    failure_frames: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        frames = tuple(self.frames)
        n = len(frames)
        if n == 0:
            raise MalformedRecordError("record has no frames")
        if not isinstance(frames[0], Init):
            raise MalformedRecordError("frame 1 is not an Init")
        failures = tuple(i + 1 for i, f in enumerate(frames) if f is None)
        for f in failures:
            if f < n and not isinstance(frames[f], Init):
                raise MalformedRecordError(f"frame {f + 1} after failure at {f} is not an Init")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "failure_frames", failures)
        object.__setattr__(self, "tau", float(self.tau))

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class MeasureRow:
    """One evaluated (tracker, sequence, repetition) with its measure vector.

    values holds the 16 canonical measures in list order; undefined
    entries are NaN. error is None for a clean run, otherwise a short
    message and every value the run could not produce stays NaN.
    """

    tracker: str
    sequence: str
    run: int
    frames: int
    values: tuple[float, ...]
    error: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != 16:
            raise LengthMismatchError(
                f"measure row needs 16 values, got {len(self.values)}"
            )


@dataclass(frozen=True)
class MeasureTable:
    """All measure rows of one experiment."""

    rows: tuple[MeasureRow, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))


class FrameSeries(NamedTuple):
    """Per-frame overlap, center error and normalized center error of a run.

    None marks a frame a series excludes: in a supervised run an Init
    frame is excluded from every series, a failure frame (None) scores
    overlap 0.0 and has no center error, and a reported region scores as
    in a trajectory. degenerate_frame is the 1-based number of the first
    scored frame whose ground truth has zero size, or None.
    """

    overlaps: list[float | None]
    center_errors: list[float | None]
    normalized: list[float | None]
    degenerate_frame: int | None

    def normalized_errors(self) -> list[float | None]:
        """The normalized series; DegenerateAnnotationError when undefined."""
        if self.degenerate_frame is not None:
            raise DegenerateAnnotationError(
                "zero-size ground-truth region, normalized error undefined",
                frame=self.degenerate_frame,
            )
        return self.normalized


def _score_frames(a: "SequenceAnnotation", frames) -> FrameSeries:
    """Score one run in one pass over local floats.

    frames holds a Region or a supervised FrameRecord per frame. A
    failure frame (None) scores overlap 0 and no center error, an Init is
    excluded from every series, and any other frame is a prediction. The
    annotation's regions are valid by construction; a prediction that
    fails the inline finiteness and sign check goes to validate_region,
    which raises InvalidRegionError with its frame if it is invalid.
    Finite boxes give a non-finite center or normalized distance only by
    overflow, which raises MeasureDomainError for the first such frame,
    after the loop, so any invalid region is reported first.
    """
    overlaps: list[float | None] = []
    errors: list[float | None] = []
    normalized: list[float | None] = []
    degenerate = None
    centers = a.centers
    for i, (gt, f) in enumerate(zip(a.regions, frames)):
        if f.__class__ is not Region and (f is None or isinstance(f, Init)):
            overlaps.append(0.0 if f is None else None)
            errors.append(None)
            normalized.append(None)
            continue
        gx, gy, gw, gh = gt
        px, py, pw, ph = f
        # NaN or an infinity makes the sum NaN or infinite; a sum of
        # finite values that overflows only costs the exact check.
        total = px + py + pw + ph
        if not (total - total == 0.0 and pw >= 0.0 and ph >= 0.0):
            validate_region(f, i + 1)
        overlaps.append(box_overlap(gx, gy, gw, gh, px, py, pw, ph))
        if centers is None:
            cx, cy = gx + gw / 2.0, gy + gh / 2.0
        else:
            cx, cy = centers[i]
        try:
            d = ((cx - (px + pw / 2.0)) ** 2 + (cy - (py + ph / 2.0)) ** 2) ** 0.5
        except OverflowError:
            d = _INF
        if d != d:  # both centers overflow: inf - inf
            d = _INF
        errors.append(d)
        size = _sqrt(gw * gh)
        if size > 0:
            normalized.append(d / size)
        else:
            normalized.append(None)
            if degenerate is None:
                degenerate = i + 1
    for what, series in (("center error", errors), ("normalized center error", normalized)):
        if _INF in series:
            frame = series.index(_INF) + 1
            raise MeasureDomainError(f"frame {frame}: {what} overflows the float range")
    return FrameSeries(overlaps, errors, normalized, degenerate)


def score_trajectory(a: "SequenceAnnotation", regions: tuple[Region, ...]) -> FrameSeries:
    """Every per-frame series of a trajectory; the first invalid prediction raises."""
    if len(a) != len(regions):
        raise LengthMismatchError(f"annotation has {len(a)} frames, trajectory {len(regions)}")
    return _score_frames(a, regions)


def score_record(rec: SupervisedRunRecord, a: "SequenceAnnotation") -> FrameSeries:
    """Every per-frame series of a supervised run.

    The record's structure was checked when it was built; each reported
    region is checked as a trajectory's is.
    """
    if len(rec) != len(a):
        raise LengthMismatchError(f"record has {len(rec)} frames, annotation {len(a)}")
    return _score_frames(a, rec.frames)

