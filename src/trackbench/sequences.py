"""The evaluator's sequence types and whole-directory readers and writers.

They build on dataset, which a tracker process reads through alone.
"""

import os
from dataclasses import dataclass

from .dataset import (
    _image_size,
    _read_meta,
    format_number,
    format_region,
    is_safe_name,
    read_groundtruth,
    write_text,
)
from .errors import LengthMismatchError, ParseError
from .geometry import Point, Region, region_center

__all__ = [
    "SequenceAnnotation",
    "SequenceData",
    "read_annotation",
    "read_sequence",
    "write_sequence",
    "list_sequences",
]

_FRAME_EXTENSIONS = (".jpg", ".jpeg", ".png", ".bmp", ".ppm", ".pgm", ".tif", ".tiff")


@dataclass(frozen=True)
class SequenceAnnotation:
    """Ground truth for one sequence: per-frame regions, optional centers.

    When centers is None, a frame's center derives from its region.
    """

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
class SequenceData:
    """A loaded sequence: annotation plus what the runner needs.

    image_size is (width, height) from sequence.meta, or None when the
    meta file is absent. frame_paths always has one entry per frame;
    when no frames/ directory exists the paths are synthesized names
    that trackers receive verbatim but nobody opens.
    """

    annotation: SequenceAnnotation
    image_size: tuple[float, float] | None
    frame_paths: tuple[str, ...]
    root: str | None = None

    def __len__(self) -> int:
        return len(self.annotation)

    @classmethod
    def synthetic(cls, annotation, image_size=None, root=None) -> "SequenceData":
        base = root if root is not None else annotation.name
        paths = tuple(
            os.path.join(base, "frames", "%08d.jpg" % (i + 1))
            for i in range(len(annotation))
        )
        return cls(annotation=annotation, image_size=image_size,
                   frame_paths=paths, root=root)


def read_annotation(seq_dir) -> SequenceAnnotation:
    """Read groundtruth.txt (and center.txt if present) from a sequence dir,
    named by its sequence.meta or else by the directory."""
    return _read_annotation(seq_dir)[0]


def _read_annotation(seq_dir) -> tuple[SequenceAnnotation, dict | None]:
    """read_annotation, plus sequence.meta's key=value pairs (None if absent)."""
    regions, centers = read_groundtruth(seq_dir)
    name = os.path.basename(os.path.normpath(seq_dir))
    source = seq_dir
    meta_path = os.path.join(seq_dir, "sequence.meta")
    meta = _read_meta(meta_path) if os.path.exists(meta_path) else None
    if meta is not None:
        name, source = meta.get("name", name), meta_path
    if not is_safe_name(name):
        raise ParseError(f"unsafe sequence name {name!r}", source)
    return SequenceAnnotation(name, regions, centers), meta


def read_sequence(seq_dir) -> SequenceData:
    """Load a sequence directory into a SequenceData bundle."""
    annotation, meta = _read_annotation(seq_dir)
    meta_path = os.path.join(seq_dir, "sequence.meta")
    image_size = None if meta is None else _image_size(meta, meta_path)

    frames_dir = os.path.join(seq_dir, "frames")
    if not os.path.isdir(frames_dir):
        return SequenceData.synthetic(annotation, image_size, root=str(seq_dir))
    names = sorted(
        f for f in os.listdir(frames_dir)
        if f.lower().endswith(_FRAME_EXTENSIONS)
    )
    if len(names) != len(annotation):
        raise LengthMismatchError(
            f"{frames_dir}: {len(names)} frame images for"
            f" {len(annotation)} annotated frames"
        )
    paths = tuple(os.path.join(frames_dir, f) for f in names)
    return SequenceData(
        annotation=annotation,
        image_size=image_size,
        frame_paths=paths,
        root=str(seq_dir),
    )


def write_sequence(seq_dir, annotation: SequenceAnnotation,
                   image_size: tuple[float, float] | None = None) -> None:
    """Write a sequence directory: ground truth, optional centers, meta."""
    os.makedirs(seq_dir, exist_ok=True)
    write_text(
        os.path.join(seq_dir, "groundtruth.txt"),
        "".join(format_region(r) + "\n" for r in annotation.regions),
    )
    if annotation.centers is not None:
        write_text(
            os.path.join(seq_dir, "center.txt"),
            "".join(
                f"{format_number(c.x)},{format_number(c.y)}\n"
                for c in annotation.centers
            ),
        )
    meta = [f"name={annotation.name}"]
    if image_size is not None:
        meta.append(f"width={format_number(image_size[0])}")
        meta.append(f"height={format_number(image_size[1])}")
    write_text(os.path.join(seq_dir, "sequence.meta"),
               "".join(m + "\n" for m in meta))


def list_sequences(root) -> list[str]:
    """Sorted sequence directories under a dataset root."""
    out = []
    for name in sorted(os.listdir(root)):
        d = os.path.join(root, name)
        if os.path.isdir(d) and os.path.exists(os.path.join(d, "groundtruth.txt")):
            out.append(d)
    return out
