"""Data model for annotated sequences, trajectories and supervised runs.

Frame numbers are 1-based everywhere they are exposed (failure frames,
error messages); plain Python indices into the underlying tuples stay
0-based. A sequence annotation optionally carries an explicit per-frame
center channel; when absent, centers derive from the region geometry.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    DegenerateAnnotationError,
    LengthMismatchError,
    MalformedRecordError,
)
from .geometry import Point, Region, iou, region_center, region_size, validate_region

__all__ = [
    "SequenceAnnotation",
    "Trajectory",
    "Tracked",
    "Failure",
    "Init",
    "SupervisedRunRecord",
    "MeasureRow",
    "MeasureTable",
    "validate_pair",
    "validate_record",
    "FrameSeries",
    "score_trajectory",
    "score_record",
    "overlap_series",
    "center_error_series",
]


@dataclass(frozen=True)
class SequenceAnnotation:
    """Ground truth for one sequence: per-frame regions, optional centers."""

    name: str
    regions: tuple[Region, ...]
    centers: tuple[Point, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        if self.centers is not None:
            object.__setattr__(self, "centers", tuple(self.centers))
        if len(self.regions) < 1:
            raise LengthMismatchError(f"sequence {self.name!r} has no frames")
        if self.centers is not None and len(self.centers) != len(self.regions):
            raise LengthMismatchError(
                f"sequence {self.name!r}: {len(self.centers)} centers"
                f" for {len(self.regions)} regions"
            )

    def __len__(self) -> int:
        return len(self.regions)

    def center(self, index: int) -> Point:
        """Center for 0-based frame index: explicit if present, else derived."""
        if self.centers is not None:
            return self.centers[index]
        return region_center(self.regions[index])


@dataclass(frozen=True)
class Trajectory:
    """Tracker output of an uninterrupted run: one region per frame."""

    regions: tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))

    def __len__(self) -> int:
        return len(self.regions)


@dataclass(frozen=True)
class Tracked:
    """Frame where the tracker ran and reported a region that passed."""

    region: Region


@dataclass(frozen=True)
class Failure:
    """Frame where the tracker's report fell at or below the threshold."""


@dataclass(frozen=True)
class Init:
    """Frame where the tracker was (re)initialized with the GT region."""

    region: Region


FrameRecord = Tracked | Failure | Init


@dataclass(frozen=True)
class SupervisedRunRecord:
    """Outcome of one supervised run with reinitialization.

    failure_frames lists the 1-based frame numbers of Failure entries,
    strictly increasing. The threshold tau is the overlap at or below
    which a frame counts as failed.
    """

    frames: tuple[FrameRecord, ...]
    failure_frames: tuple[int, ...]
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        object.__setattr__(self, "failure_frames", tuple(int(f) for f in self.failure_frames))
        object.__setattr__(self, "tau", float(self.tau))

    def __len__(self) -> int:
        return len(self.frames)

    @classmethod
    def from_frames(cls, frames, tau: float) -> "SupervisedRunRecord":
        """Build a record deriving failure_frames from the Failure entries."""
        frames = tuple(frames)
        failures = tuple(i + 1 for i, f in enumerate(frames) if isinstance(f, Failure))
        return cls(frames=frames, failure_frames=failures, tau=tau)


def validate_record(rec: SupervisedRunRecord) -> None:
    """Check the structural invariants of a supervised run record.

    Raises MalformedRecordError on: empty record, failure_frames not
    strictly increasing or out of range, disagreement between
    failure_frames and the Failure entries, or a Failure not followed by
    an Init (except on the final frame).
    """
    n = len(rec.frames)
    if n == 0:
        raise MalformedRecordError("record has no frames")
    prev = 0
    for f in rec.failure_frames:
        if f <= prev:
            raise MalformedRecordError(f"failure frames not strictly increasing at {f}")
        if f < 1 or f > n:
            raise MalformedRecordError(f"failure frame {f} outside 1..{n}")
        prev = f
    derived = tuple(i + 1 for i, fr in enumerate(rec.frames) if isinstance(fr, Failure))
    if derived != rec.failure_frames:
        raise MalformedRecordError(
            f"failure_frames {rec.failure_frames} disagree with Failure entries {derived}"
        )
    for i, fr in enumerate(rec.frames):
        if isinstance(fr, Failure) and i + 1 < n and not isinstance(rec.frames[i + 1], Init):
            raise MalformedRecordError(f"frame {i + 2} after failure at {i + 1} is not an Init")


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

    def __len__(self) -> int:
        return len(self.rows)


def validate_pair(a: SequenceAnnotation, t: Trajectory) -> None:
    """Check that a trajectory can be scored against an annotation.

    Raises LengthMismatchError on differing lengths and
    InvalidRegionError (carrying the 1-based frame number) on the first
    invalid region in either the annotation or the trajectory.
    """
    if len(a) != len(t):
        raise LengthMismatchError(
            f"annotation has {len(a)} frames, trajectory {len(t)}"
        )
    for i, r in enumerate(a.regions):
        validate_region(r, frame=i + 1)
    for i, r in enumerate(t.regions):
        validate_region(r, frame=i + 1)


class FrameSeries(NamedTuple):
    """Per-frame overlap, center error and normalized center error of a run.

    None marks a frame a series excludes. degenerate_frame is the 1-based
    number of the first scored frame whose ground truth has zero size, so
    that its normalized error is undefined, or None.
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


def _score_frames(a: SequenceAnnotation, frames) -> FrameSeries:
    """Score one run in one pass over already validated regions.

    frames holds a trajectory Region or a supervised FrameRecord per
    frame. A Failure scores overlap 0 and no center error; an Init is
    excluded from every series.
    """
    overlaps: list[float | None] = []
    errors: list[float | None] = []
    normalized: list[float | None] = []
    degenerate = None
    for i, (gt, f) in enumerate(zip(a.regions, frames)):
        if isinstance(f, (Failure, Init)):
            overlaps.append(0.0 if isinstance(f, Failure) else None)
            errors.append(None)
            normalized.append(None)
            continue
        pred = f.region if isinstance(f, Tracked) else f
        overlaps.append(iou(gt, pred))
        # The centers of SequenceAnnotation.center and region_center,
        # without a Point per frame.
        if a.centers is None:
            gx, gy = gt.x + gt.width / 2.0, gt.y + gt.height / 2.0
        else:
            gx, gy = a.centers[i].x, a.centers[i].y
        px, py = pred.x + pred.width / 2.0, pred.y + pred.height / 2.0
        d = ((gx - px) ** 2 + (gy - py) ** 2) ** 0.5
        errors.append(d)
        size = region_size(gt)
        if size <= 0 and degenerate is None:
            degenerate = i + 1
        normalized.append(d / size if size > 0 else None)
    return FrameSeries(overlaps, errors, normalized, degenerate)


def score_trajectory(a: SequenceAnnotation, t: Trajectory) -> FrameSeries:
    """Every per-frame series of a trajectory, after one validate_pair."""
    validate_pair(a, t)
    return _score_frames(a, t.regions)


def score_record(rec: SupervisedRunRecord, a: SequenceAnnotation) -> FrameSeries:
    """Every per-frame series of a supervised run, after one validate_record.

    The regions of each Tracked frame are checked as overlap checks
    them, without a frame number.
    """
    validate_record(rec)
    if len(rec) != len(a):
        raise LengthMismatchError(f"record has {len(rec)} frames, annotation {len(a)}")
    for gt, fr in zip(a.regions, rec.frames):
        if isinstance(fr, Tracked):
            validate_region(gt)
            validate_region(fr.region)
    return _score_frames(a, rec.frames)


def overlap_series(a: SequenceAnnotation, t: Trajectory) -> list[float]:
    """Per-frame overlap between trajectory and ground truth."""
    return score_trajectory(a, t).overlaps


def center_error_series(
    a: SequenceAnnotation, t: Trajectory, normalized: bool = False
) -> list[float]:
    """Per-frame center distance between trajectory and ground truth.

    With normalized=True each distance is divided by the scalar size of
    the ground-truth region of that frame; a zero-size ground-truth
    region then raises DegenerateAnnotationError with the frame number.
    """
    scores = score_trajectory(a, t)
    return scores.normalized_errors() if normalized else scores.center_errors
