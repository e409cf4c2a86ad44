"""Sequence directories: the dataset layout and the region text.

All files are UTF-8 text with LF newlines and `.` as the decimal
separator. Regions serialize as `x,y,w,h` with no internal whitespace,
the exact syntax also used on the tracker wire protocol. Numbers are
written in shortest round-trip form (integral values without a
fractional part), so write -> read reproduces every float bit-exactly.

Dataset layout: one directory per sequence holding `groundtruth.txt`
(one region per line), optional `center.txt` (one `x,y` per line),
optional `frames/` with the image files, and `sequence.meta` with
`key=value` lines (name, width, height). Settings files (sequence.meta,
run configs, scripted parameter files) skip blank lines and lines whose
first non-blank character is `#`. One function, _parse_numbers, applies
the number rule to the data files, io_formats' measure tables and the
wire: one check and one float map over the joined numbers of a file or
a row. Region files and center.txt parse in one pass; a per-line loop
runs only to report an error with its file and line. A tracker process
needs only this layer: the ground truth and the frame size, read into
plain values. The sequence types and the whole-directory readers and
writers are in io_formats, which builds on it.
"""

import math
import os
from itertools import repeat

from .errors import LengthMismatchError, ParseError
from .geometry import Point, Region

__all__ = [
    "format_number",
    "parse_number",
    "format_region",
    "format_regions",
    "parse_region",
    "is_safe_name",
    "read_text",
    "write_text",
    "settings_lines",
    "read_groundtruth",
    "read_meta",
]

_new = tuple.__new__


# The bytes a number text may hold but `,`: printable ASCII but space and `_`.
# What survives deleting them from ASCII text is the commas, the controls,
# space, `_` and DEL.
_NUMBER_BYTES = bytes(c for c in range(0x21, 0x7F) if c not in b",_")


def _parse_numbers(texts: list[str], arity: int) -> list[float]:
    """The numbers of texts that each hold `arity` comma-separated number texts, or a
    ValueError. A number text is ASCII, holds no whitespace and no `_`, and parses with
    float, inf and nan included: one translate of the LF-joined texts checks the rule
    and the arity, and one map(float) parses them."""
    joined = "\n".join(texts)
    if not joined.isascii() or joined.encode().translate(None, _NUMBER_BYTES) != b"\n".join(
            repeat(b"," * (arity - 1), len(texts))):
        raise ValueError("breaks the number rule")
    return list(map(float, joined.replace("\n", ",").split(",")))


def parse_number(text: str, path=None, line=None) -> float:
    try:
        return _parse_numbers([text], 1)[0]
    except ValueError:
        raise ParseError(f"not a number: {text!r}", path, line) from None


# A region's line before _region_text: each coordinate's repr and a comma.
_REGION_LINE = "%r,%r,%r,%r,\n"


def _region_text(text: str) -> str:
    """format_region of every _REGION_LINE in text, in one pass.

    Float repr writes an integral value below 1e16 as `<digits>.0` and
    -0.0 as `-0.0`; no other repr ends in `.0` or is `-0`, and the
    infinities' reprs are their format_number text. A line may carry a
    prefix without `0` or `n`, such as `T:`, before its coordinates, or
    be only a prefix and a comma (`F:,`).
    """
    if "nan" in text:
        raise ParseError("cannot serialize NaN as a number")
    return text.replace(".0,", ",").replace("-0,", "0,").replace(",\n", "\n")


def format_number(v: float) -> str:
    """Shortest decimal text that parses back to exactly v."""
    return _region_text("%r,\n" % float(v))[:-1]


def format_region(r: Region) -> str:
    """format_number of each coordinate, joined with commas."""
    return _region_text(_REGION_LINE % r)[:-1]


def format_regions(regions) -> str:
    """format_region of each region, one per LF-terminated line."""
    return _region_text("".join(map(_REGION_LINE.__mod__, regions)))


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

    Both routes parse the numbers by the number rule, so they accept the
    same texts; on None the caller's per-line loop reports the error.
    """
    try:
        v = _parse_numbers(texts, 4)
    except ValueError:
        return None
    if not all(map(math.isfinite, v)) or min(v[2::4]) < 0 or min(v[3::4]) < 0:
        return None
    return list(map(_new, repeat(Region), zip(v[0::4], v[1::4], v[2::4], v[3::4])))


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


def settings_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped line) of every line that is neither blank nor a # comment."""
    return [(i, line) for i, line in enumerate(map(str.strip, _read_lines(path)), start=1)
            if line and line[0] != "#"]


def read_text(path) -> str:
    """Read UTF-8 text, with CRLF and CR newlines read as LF.

    Other bytes are a ParseError naming the file; an OSError, such as
    FileNotFoundError for a missing file, reaches the caller as it is.
    """
    try:  # one read, one decode
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason}", path) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def write_text(path, text: str) -> None:
    """Write text as UTF-8 with LF newlines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_regions(path, what: str) -> list[Region]:
    """The regions of a file holding one region per line, at least one."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{what} has no frames", path)
    regions = _parse_regions(lines)
    if regions is None:  # the per-line pass raises at the first bad line
        for i, line in enumerate(lines, start=1):
            if line.strip() == "":
                raise ParseError(f"blank line in {what}", path, i)
            parse_region(line, path, i)
    return regions


def read_groundtruth(seq_dir, gt_path=None) -> tuple[tuple[Region, ...], tuple | None]:
    """The regions of groundtruth.txt and the Points of center.txt.

    gt_path names a ground truth file to read in place of seq_dir's
    groundtruth.txt. The centers are None when seq_dir has no
    center.txt.
    """
    if gt_path is None:
        gt_path = os.path.join(seq_dir, "groundtruth.txt")
    regions = tuple(_read_regions(gt_path, "ground truth"))
    center_path = os.path.join(seq_dir, "center.txt")
    if not os.path.exists(center_path):
        return regions, None
    lines = _read_lines(center_path)
    try:  # one pass; an empty file reaches the length check with no centers
        v = _parse_numbers(lines, 2) if lines else []
        if not all(map(math.isfinite, v)):
            raise ValueError
    except ValueError:  # the per-line pass raises at the first bad line
        for i, line in enumerate(lines, start=1):
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"center needs 2 values: {line!r}", center_path, i)
            x, y = (parse_number(p, center_path, i) for p in parts)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"non-finite center coordinate: {line!r}", center_path, i)
    if len(lines) != len(regions):
        raise LengthMismatchError(f"{center_path}: {len(lines)} centers for {len(regions)} regions")
    return regions, tuple(map(_new, repeat(Point), zip(v[0::2], v[1::2])))


def read_meta(path) -> tuple[str | None, tuple[float, float] | None]:
    """(name, (width, height)) from a sequence.meta file.

    The name is None when it is absent, and the size when either of its
    keys is. A width or height that is not finite and positive is a
    ParseError at its line.
    """
    meta, lines = {}, {}
    for i, line in settings_lines(path):
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", str(path), i)
        key, value = map(str.strip, line.split("=", 1))
        meta[key], lines[key] = value, i
    if "width" not in meta or "height" not in meta:
        return meta.get("name"), None
    size = tuple(parse_number(meta[key], path, lines[key]) for key in ("width", "height"))
    for key, v in zip(("width", "height"), size):
        if not 0.0 < v < math.inf:
            raise ParseError(f"{key} must be finite and positive: {meta[key]!r}", path, lines[key])
    return meta.get("name"), size
