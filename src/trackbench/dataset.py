"""Sequence directories: the dataset layout and the region text.

All files are UTF-8 text with LF newlines and `.` as the decimal
separator. Regions serialize as `x,y,w,h` with no internal whitespace,
the exact syntax also used on the tracker wire protocol. Numbers are
written in shortest round-trip form (integral values without a
fractional part), so write -> read reproduces every float bit-exactly.

Dataset layout: one directory per sequence holding `groundtruth.txt`
(one region per line), optional `center.txt` (one `x,y` per line),
optional `frames/` with the image files, and `sequence.meta` with
`key=value` lines (name, width, height). Region files parse in one
pass, and line by line with parse_region only to report an error with
its file and line. A tracker process needs only this layer, so it
imports neither trajectory nor io_formats, which build on it.
"""

import math
import os
from dataclasses import dataclass

from .errors import LengthMismatchError, ParseError
from .geometry import Point, Region, region_center

__all__ = [
    "format_number",
    "parse_number",
    "format_region",
    "parse_region",
    "is_safe_name",
    "read_text",
    "write_text",
    "SequenceAnnotation",
    "SequenceData",
    "read_annotation",
    "read_image_size",
    "read_sequence",
    "write_sequence",
    "list_sequences",
]

_FRAME_EXTENSIONS = (".jpg", ".jpeg", ".png", ".bmp", ".ppm", ".pgm", ".tif", ".tiff")


def format_number(v: float) -> str:
    """Shortest decimal text that parses back to exactly v."""
    v = float(v)
    if math.isnan(v):
        raise ParseError("cannot serialize NaN as a number")
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def parse_number(text: str, path=None, line=None) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"not a number: {text!r}", path, line) from None


def format_region(r: Region) -> str:
    return ",".join(
        format_number(v) for v in (r.x, r.y, r.width, r.height)
    )


def parse_region(text: str, path=None, line=None) -> Region:
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError(f"region needs 4 comma-separated values: {text!r}", path, line)
    x, y, w, h = (parse_number(p, path, line) for p in parts)
    if not all(math.isfinite(v) for v in (x, y, w, h)):
        raise ParseError(f"non-finite region coordinate: {text!r}", path, line)
    if w < 0 or h < 0:
        raise ParseError(f"negative region extent: {text!r}", path, line)
    return Region(x, y, w, h)


def _parse_regions(texts: list[str]) -> list[Region] | None:
    """parse_region of every text in one pass, or None if any is invalid.

    float parses the numbers on both routes, so they accept the same
    texts; on None the caller's per-line loop reports the error.
    """
    if [t.count(",") for t in texts] != [3] * len(texts):
        return None
    try:
        v = list(map(float, ",".join(texts).split(",")))
    except ValueError:
        return None
    if not all(map(math.isfinite, v)) or min(v[2::4]) < 0 or min(v[3::4]) < 0:
        return None
    return list(map(Region, v[0::4], v[1::4], v[2::4], v[3::4]))


_UNSAFE_NAME_CHARS = ("/", "\\", "\t", "\r", "\n")


def is_safe_name(name: str) -> bool:
    """Whether a name can be a directory under `raw/` and a TSV cell.

    Empty names, `.`, `..` and names containing `/`, `\\`, a tab, CR or
    LF cannot.
    """
    return name not in ("", ".", "..") and not any(c in name for c in _UNSAFE_NAME_CHARS)


def _read_lines(path) -> list[str]:
    lines = read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def read_text(path) -> str:
    """Read UTF-8 text, with CRLF and CR newlines read as LF.

    Other bytes are a ParseError naming the file; an OSError, such as
    FileNotFoundError for a missing file, reaches the caller as it is.
    """
    try:
        with open(path, "r", encoding="utf-8", newline=None) as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason}", path) from None


def write_text(path, text: str) -> None:
    """Write text as UTF-8 with LF newlines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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


def _read_regions(path, what: str) -> list[Region]:
    """The regions of a file holding one region per line, at least one."""
    lines = _read_lines(path)
    regions = _parse_regions(lines)
    if regions is None:
        regions = []
        for i, line in enumerate(lines, start=1):
            if line.strip() == "":
                raise ParseError(f"blank line in {what}", path, i)
            regions.append(parse_region(line, path, i))
    if not regions:
        raise ParseError(f"{what} has no frames", path)
    return regions


def _read_meta(path) -> dict[str, str]:
    meta = {}
    for i, line in enumerate(_read_lines(path), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", str(path), i)
        key, value = line.split("=", 1)
        meta[key.strip()] = value.strip()
    return meta


def read_annotation(seq_dir, gt_path=None) -> SequenceAnnotation:
    """Read groundtruth.txt (and center.txt if present) from a sequence dir.

    gt_path names a ground truth file to read in place of the
    directory's groundtruth.txt; center.txt and sequence.meta still
    come from seq_dir.
    """
    return _read_annotation(seq_dir, gt_path)[0]


def _read_annotation(seq_dir, gt_path=None) -> tuple[SequenceAnnotation, dict | None]:
    """read_annotation, plus sequence.meta's key=value pairs (None if absent)."""
    if gt_path is None:
        gt_path = os.path.join(seq_dir, "groundtruth.txt")
    regions = _read_regions(gt_path, "ground truth")

    centers = None
    center_path = os.path.join(seq_dir, "center.txt")
    if os.path.exists(center_path):
        centers = []
        for i, line in enumerate(_read_lines(center_path), start=1):
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"center needs 2 values: {line!r}", center_path, i)
            x, y = (parse_number(p, center_path, i) for p in parts)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"non-finite center coordinate: {line!r}", center_path, i)
            centers.append(Point(x, y))
        if len(centers) != len(regions):
            raise LengthMismatchError(
                f"{center_path}: {len(centers)} centers for {len(regions)} regions"
            )

    name = os.path.basename(os.path.normpath(seq_dir))
    source = seq_dir
    meta_path = os.path.join(seq_dir, "sequence.meta")
    meta = _read_meta(meta_path) if os.path.exists(meta_path) else None
    if meta is not None:
        name, source = meta.get("name", name), meta_path
    if not is_safe_name(name):
        raise ParseError(f"unsafe sequence name {name!r}", source)
    return SequenceAnnotation(
        name=name,
        regions=tuple(regions),
        centers=tuple(centers) if centers is not None else None,
    ), meta


def read_image_size(meta_path) -> tuple[float, float] | None:
    """(width, height) from a sequence.meta file; None when either is absent."""
    return _image_size(_read_meta(meta_path), meta_path)


def _image_size(meta: dict[str, str], meta_path) -> tuple[float, float] | None:
    if "width" not in meta or "height" not in meta:
        return None
    return (
        parse_number(meta["width"], meta_path),
        parse_number(meta["height"], meta_path),
    )


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
