"""Axis-aligned region geometry: validity, overlap, centers.

Regions are (x, y, width, height) boxes with the origin at the top-left
corner, treated as closed real intervals on both axes. Two boxes that
merely touch along an edge have zero intersection area. All overlap
computations are exact area ratios, never pixel approximations, and go
through one kernel on plain coordinates, box_overlap.
"""

import math
from collections import namedtuple

from .errors import InvalidRegionError

__all__ = [
    "Region",
    "Point",
    "is_valid_region",
    "validate_region",
    "box_overlap",
    "overlap",
    "region_center",
    "region_size",
]

_INF = math.inf
_new = tuple.__new__
_eq = tuple.__eq__


class _FloatTuple(tuple):
    """Named floats, equal only to a value of the same class (never to a
    plain tuple). _make, and so _replace, coerce as construction does."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return other.__class__ is self.__class__ and _eq(self, other)

    def __ne__(self, other):
        return not (other.__class__ is self.__class__ and _eq(self, other))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Point(_FloatTuple, namedtuple("Point", "x y")):
    """A 2-D point."""

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> "Point":
        return _new(cls, (float(x), float(y)))


class Region(_FloatTuple, namedtuple("Region", "x y width height")):
    """Axis-aligned box: top-left corner plus non-negative extent.

    Construction only coerces to float. Finiteness and sign are checked
    where a region enters: by parse_region and the file readers, by the
    runner for every tracker report, by io_formats.SequenceAnnotation for
    ground truth, and by the scoring kernel for predictions, which
    reports an invalid one through validate_region with its frame.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float, width: float, height: float) -> "Region":
        return _new(cls, (float(x), float(y), float(width), float(height)))


def is_valid_region(r: Region) -> bool:
    """True when r is finite with non-negative extent; False for NaN too."""
    x, y, w, h = r
    return -_INF < x < _INF and -_INF < y < _INF and 0.0 <= w < _INF and 0.0 <= h < _INF


def validate_region(r: Region, frame: int | None = None) -> None:
    """Raise InvalidRegionError if r is non-finite or has negative extent.

    Args:
        r: region to check.
        frame: optional 1-based frame number to include in the error.
    """
    if is_valid_region(r):
        return
    for v in r:
        if not math.isfinite(v):
            raise InvalidRegionError(f"non-finite region coordinate in {r}", frame)
    raise InvalidRegionError(f"negative region extent in {r}", frame)


def box_overlap(gx, gy, gw, gh, px, py, pw, ph) -> float:
    """IoU of two valid boxes given by coordinates.

    overlap and the scoring pass in trajectory call it.
    min(a, b) is written `b if b < a else a` and max(a, b)
    `b if b > a else a`: what the builtins return, ties and signed zeros
    included, without a call. Equal boxes overlap exactly, since (x+w)-x
    can absorb a tiny extent. The IoU is the one the same formula gives
    with an unbounded exponent range: when the intersection area
    underflows or the union overflows (inf, or NaN from inf - inf),
    _rescaled_iou takes the ratio at a scale where both are normal.
    """
    ga, pa = gw * gh, pw * ph
    if gx == px and gy == py and gw == pw and gh == ph:
        return 1.0 if gw > 0 and gh > 0 else 0.0
    ge, pe = gx + gw, px + pw
    iw = (pe if pe < ge else ge) - (px if px > gx else gx)
    if iw <= 0:
        return 0.0
    ge, pe = gy + gh, py + ph
    ih = (pe if pe < ge else ge) - (py if py > gy else gy)
    if ih <= 0:
        return 0.0
    # (y+h)-y can exceed h by an ulp of y; no box is smaller than its
    # intersection with another.
    inter = iw * ih
    if ga < inter:
        inter = ga
    if pa < inter:
        inter = pa
    union = ga + pa - inter
    if inter < 2.0 ** -1022 or union - union != 0.0:
        return _rescaled_iou(gx, gy, gw, gh, px, py, pw, ph, iw, ih)
    q = inter / union
    return q if q < 1.0 else 1.0


def _frexp_span(length: float, g: float, gw: float, p: float, pw: float) -> tuple[float, int]:
    """frexp of an intersection extent; of half of it if both far edges overflowed."""
    if length < _INF:
        return math.frexp(length)
    ge, pe = g / 2 + gw / 2, p / 2 + pw / 2
    m, e = math.frexp((pe if pe < ge else ge) - (p if p > g else g) / 2)
    return m, e + 1


def _rescaled_iou(gx, gy, gw, gh, px, py, pw, ph, iw, ih) -> float:
    """IoU of two overlapping boxes whose intersection or union area
    leaves the normal float range.

    Each area is the product of its two extents' frexp mantissas, which
    rounds as the area would with an unbounded exponent, times a power
    of two. One more power of two puts the intersection and the union
    either side of 1, where both are normal; scaling by it is exact, so
    the ratio is the unbounded one. A ratio below 2**-1076 rounds to 0.
    """
    frexp = math.frexp
    areas = [(ma * mb, ea + eb) for (ma, ea), (mb, eb) in (
        (_frexp_span(iw, gx, gw, px, pw), _frexp_span(ih, gy, gh, py, ph)),
        (frexp(gw), frexp(gh)),
        (frexp(pw), frexp(ph)),
    )]
    ei = areas[0][1]
    eu = max(areas[1][1], areas[2][1])
    # inter < 2**ei and union >= 2**(eu - 2), so the ratio < 2**(ei - eu + 2).
    if eu - ei > 1077:
        return 0.0
    s = -((ei + eu) // 2)
    inter, ga, pa = (math.ldexp(m, e + s) for m, e in areas)
    if ga < inter:
        inter = ga
    if pa < inter:
        inter = pa
    q = inter / (ga + pa - inter)
    return q if q < 1.0 else 1.0


def overlap(gt: Region, pred: Region) -> float:
    """Intersection-over-union of two regions.

    Args:
        gt: ground-truth region.
        pred: predicted region.

    Returns:
        Area of intersection divided by area of union, in [0, 1]. When
        the union has zero area (both regions degenerate) the overlap is
        0 by convention.
    """
    validate_region(gt)
    validate_region(pred)
    gx, gy, gw, gh = gt
    px, py, pw, ph = pred
    return box_overlap(gx, gy, gw, gh, px, py, pw, ph)


def region_center(r: Region) -> Point:
    """Geometric center of a region."""
    x, y, w, h = r
    return Point(x + w / 2.0, y + h / 2.0)


def region_size(r: Region) -> float:
    """Scalar region size: the side of the equal-area square, sqrt(w*h)."""
    return math.sqrt(r.width * r.height)
