"""Deterministic SVG emitters for the standard diagnostic plots.

Every function returns a complete standalone SVG 1.1 document as a
string. Rendering is a pure function of the inputs: same data, same
bytes. Only a small element whitelist is used (svg, g, title, desc,
rect, line, polyline, polygon, circle, path, text, plus comments) and
all coordinates are written with 2 decimals. Data series carry
class="data" so tools can find them without guessing at styling.
"""

import math
from dataclasses import dataclass

from .errors import EmptySeriesError, FragmentationUndefinedError, MeasureDomainError
from .measures import fragmentation, threshold_curve

__all__ = [
    "PALETTE",
    "center_error_plot",
    "overlap_plot",
    "threshold_plot",
    "ar_plot",
    "fragmentation_timeline",
    "survival_curve",
]

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#e377c2", "#17becf",
    "#bcbd22", "#7f7f7f", "#aec7e8", "#ff9896",
    "#98df8a", "#c5b0d5", "#ffbb78", "#c49c94",
)

_BG = "#ffffff"
_FRAME = "#333333"
_GRID = "#dddddd"
_TEXT = "#222222"
_FONT = 'font-family="sans-serif" font-size="12"'


def _escape(text: str) -> str:
    # What xml.sax.saxutils.escape does; importing that module loads
    # urllib.request, http.client, ssl and email (45 modules, about 7 MB).
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _color(i: int) -> str:
    return PALETTE[i % len(PALETTE)]


class _Canvas:
    def __init__(self, width: int, height: int, title: str) -> None:
        self.width = width
        self.height = height
        self._lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            (
                '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'width="{width}" height="{height}" '
                f'viewBox="0 0 {width} {height}">'
            ),
            f"<title>{_escape(title)}</title>",
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="{_BG}"/>',
        ]

    def comment(self, text: str) -> None:
        # "--" is illegal inside XML comments.
        self._lines.append(f"<!-- {text.replace('--', '- -')} -->")

    def raw(self, element: str) -> None:
        self._lines.append(element)

    def line(self, x1, y1, x2, y2, stroke=_FRAME, width=1.0, cls=None) -> None:
        attr = f' class="{cls}"' if cls else ""
        self._lines.append(
            f'<line{attr} x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        )

    def polyline(self, points, stroke) -> None:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self._lines.append(
            f'<polyline class="data" points="{coords}" fill="none" '
            f'stroke="{stroke}" stroke-width="1.50"/>'
        )

    def circle(self, cx, cy, r, fill) -> None:
        self._lines.append(
            f'<circle class="data" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"/>'
        )

    def text(self, x, y, s, anchor="start", cls=None) -> None:
        attr = f' class="{cls}"' if cls else ""
        self._lines.append(
            f'<text{attr} x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} '
            f'text-anchor="{anchor}" fill="{_TEXT}">{_escape(s)}</text>'
        )

    def finish(self) -> str:
        self._lines.append("</svg>")
        return "\n".join(self._lines) + "\n"


@dataclass(frozen=True)
class _Axes:
    left: float
    top: float
    right: float
    bottom: float
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def px(self, x: float) -> float:
        return self.left + (x - self.xmin) / (self.xmax - self.xmin) * (self.right - self.left)

    def py(self, y: float) -> float:
        return self.bottom - (y - self.ymin) / (self.ymax - self.ymin) * (self.bottom - self.top)


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _chart(
    c: _Canvas,
    xlabel: str,
    ylabel: str,
    xmin: float,
    xmax: float,
    ymin: float,
    ymax: float,
) -> _Axes:
    ax = _Axes(
        left=56.0,
        top=28.0,
        right=c.width - 20.0,
        bottom=c.height - 44.0,
        xmin=xmin,
        xmax=xmax,
        ymin=ymin,
        ymax=ymax,
    )
    for tx in _ticks(xmin, xmax):
        x = ax.px(tx)
        c.line(x, ax.top, x, ax.bottom, stroke=_GRID, width=0.5)
        c.text(x, ax.bottom + 16, _fmt(tx), anchor="middle")
    for ty in _ticks(ymin, ymax):
        y = ax.py(ty)
        c.line(ax.left, y, ax.right, y, stroke=_GRID, width=0.5)
        c.text(ax.left - 6, y + 4, _fmt(ty), anchor="end")
    c.line(ax.left, ax.top, ax.left, ax.bottom)
    c.line(ax.left, ax.bottom, ax.right, ax.bottom)
    c.text((ax.left + ax.right) / 2, c.height - 10, xlabel, anchor="middle")
    c.text(14, ax.top - 10, ylabel, anchor="start")
    return ax


def _legend(c: _Canvas, ax: _Axes, names) -> None:
    for i, name in enumerate(names):
        y = ax.top + 14 + 16 * i
        c.line(ax.right - 130, y - 4, ax.right - 110, y - 4, stroke=_color(i), width=2.0, cls="legend")
        c.text(ax.right - 104, y, name, cls="legend")


def _draw(c: _Canvas, pts, color: str) -> None:
    """A dot for a single point, else a polyline through the points."""
    if len(pts) == 1:
        c.circle(pts[0][0], pts[0][1], 2.0, color)
    else:
        c.polyline(pts, color)


def _segments(series):
    """Split a series with gaps (None) into runs of (index, value)."""
    run = []
    for i, v in enumerate(series):
        if v is None or (isinstance(v, float) and math.isnan(v)):
            if run:
                yield run
            run = []
        else:
            run.append((i, float(v)))
    if run:
        yield run


def center_error_plot(series_by_name: dict, cap: float | None = None) -> str:
    """Per-frame center error curves, clipped at a cap.

    A single extreme excursion would otherwise flatten every other
    curve, so values above the cap (default: 99th percentile over all
    finite values) are drawn at the cap and the clip is recorded in an
    XML comment. A cap at or below 0 falls back to the largest value; a
    non-finite cap is rejected.
    """
    finite = [
        float(v)
        for series in series_by_name.values()
        for v in series
        if v is not None and math.isfinite(v)
    ]
    if not finite:
        raise EmptySeriesError("no finite center errors to plot")
    if cap is None:
        s = sorted(finite)
        rank = 0.99 * (len(s) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(s) - 1)
        cap = s[lo] + (rank - lo) * (s[hi] - s[lo])
    if not math.isfinite(cap):
        raise MeasureDomainError(f"cap {cap} must be finite")
    if cap <= 0:
        cap = max(finite) if max(finite) > 0 else 1.0
    clipped = sum(1 for v in finite if v > cap)

    n = max(len(series) for series in series_by_name.values())
    c = _Canvas(640, 400, "Center error")
    c.comment(f"capped {clipped} of {len(finite)} points at {cap!r}")
    ax = _chart(c, "frame", "center error", 1.0, float(max(n, 2)), 0.0, cap)
    for i, (name, series) in enumerate(series_by_name.items()):
        for run in _segments(series):
            _draw(c, [(ax.px(idx + 1), ax.py(min(float(v), cap))) for idx, v in run], _color(i))
    _legend(c, ax, series_by_name)
    return c.finish()


def overlap_plot(series_by_name: dict) -> str:
    """Per-frame overlap curves on a fixed [0, 1] axis.

    None entries (e.g. reinitialization frames) break the polyline
    rather than being interpolated across.
    """
    if not series_by_name or all(len(s) == 0 for s in series_by_name.values()):
        raise EmptySeriesError("no overlap series to plot")
    n = max(len(series) for series in series_by_name.values())
    c = _Canvas(640, 400, "Overlap")
    ax = _chart(c, "frame", "overlap", 1.0, float(max(n, 2)), 0.0, 1.0)
    for i, (name, series) in enumerate(series_by_name.items()):
        gaps = sum(1 for v in series if v is None)
        if gaps:
            c.comment(f"{name}: {gaps} gap frames not drawn")
        for run in _segments(series):
            _draw(c, [(ax.px(idx + 1), ax.py(v)) for idx, v in run], _color(i))
    _legend(c, ax, series_by_name)
    return c.finish()


def threshold_plot(overlaps_by_name: dict) -> str:
    """Fraction of correctly tracked frames as the threshold sweeps [0, 1].

    The exact step curve is drawn vertex by vertex (vertical drops
    included), so the polyline is non-increasing in y along x.
    """
    if not overlaps_by_name:
        raise EmptySeriesError("no overlap series to plot")
    c = _Canvas(480, 400, "Overlap threshold curve")
    ax = _chart(c, "overlap threshold", "correct fraction", 0.0, 1.0, 0.0, 1.0)
    for i, (name, phis) in enumerate(overlaps_by_name.items()):
        pts = [(ax.px(t), ax.py(f)) for t, f in threshold_curve(phis)]
        c.polyline(pts, _color(i))
    _legend(c, ax, overlaps_by_name)
    return c.finish()


def _cross(x: float, y: float) -> tuple[str, str]:
    return "path", (
        f'd="M {_fmt(x - 4)} {_fmt(y - 4)} L {_fmt(x + 4)} {_fmt(y + 4)} '
        f'M {_fmt(x - 4)} {_fmt(y + 4)} L {_fmt(x + 4)} {_fmt(y - 4)}"'
    )


def _polygon(*points: tuple[float, float]) -> tuple[str, str]:
    return "polygon", 'points="' + " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points) + '"'


# Reference tracker kind -> (legend label, shape name, builder of the
# hollow marker at (x, y): its SVG tag and geometry attributes). Any
# other kind is drawn as a cross labelled with its own name.
_REF_MARKERS = {
    "tta": ("always whole frame", "square", lambda x, y: (
        "rect", f'x="{_fmt(x - 4)}" y="{_fmt(y - 4)}" width="8" height="8"')),
    "tts": ("never moves", "triangle", lambda x, y: _polygon(
        (x, y - 5), (x - 5, y + 4), (x + 5, y + 4))),
    "ttf": ("fails every other frame", "diamond", lambda x, y: _polygon(
        (x, y - 5), (x + 5, y), (x, y + 5), (x - 5, y))),
    "tto": ("perfect center, fixed size", "cross", _cross),
}


def ar_plot(points_by_name: dict, reference_points: dict | None = None) -> str:
    """Accuracy-robustness scatter on unit axes.

    Both dicts map a name to (accuracy, reliability); reliability is
    the x axis so that up and right are both better. Reference points
    (the theoretical extreme behaviors) are hollow shapes, trackers
    filled circles; a point with a non-finite coordinate is a comment.
    """
    if not points_by_name:
        raise EmptySeriesError("no points to plot")
    c = _Canvas(480, 440, "Accuracy vs reliability")
    ax = _chart(c, "reliability", "accuracy", 0.0, 1.0, 0.0, 1.0)

    def drawable(name, acc, rel):
        if not (finite := math.isfinite(acc) and math.isfinite(rel)):
            c.comment(f"{name}: accuracy {acc}, reliability {rel}: point not drawn")
        return finite

    for i, (name, (acc, rel)) in enumerate(points_by_name.items()):
        if drawable(name, acc, rel):
            c.circle(ax.px(rel), ax.py(acc), 4.0, _color(i))
    _legend(c, ax, points_by_name)
    if reference_points:
        legend = []
        for kind, (acc, rel) in reference_points.items():
            label, shape, marker = _REF_MARKERS.get(kind, (kind, "cross", _cross))
            if drawable(kind, acc, rel):
                tag, geometry = marker(ax.px(rel), ax.py(acc))
                c.raw(f'<{tag} class="ref" {geometry} fill="none" stroke="{_FRAME}" '
                      f'stroke-width="1.50"/>')
            legend.append(f"{shape}: {label}")
        base = ax.bottom - 14 * len(legend)
        for j, text in enumerate(legend):
            c.text(ax.left + 8, base + 14 * j, text, cls="legend")
    return c.finish()


def fragmentation_timeline(records_by_name: dict, n_frames: int) -> str:
    """One row per tracker with a marker at every failure frame.

    Each row is annotated with the fragmentation score of its failure
    set, or (n/a) when the score is undefined (fewer than 2 failures).
    Input maps a name to its failure frame list.
    """
    if not records_by_name:
        raise EmptySeriesError("no failure sets to plot")
    width, height, title = 640, 90 + 28 * len(records_by_name), "Failure timeline"
    c = _Canvas(width, height, title)
    left, right = 56.0, width - 170.0
    top = 36.0
    c.text(left, 20.0, title)

    def px(frame: float) -> float:
        return left + (frame - 1.0) / max(n_frames - 1.0, 1.0) * (right - left)

    for tx in _ticks(1.0, float(n_frames)):
        c.text(px(tx), height - 16.0, _fmt(tx), anchor="middle")
    for i, (name, failures) in enumerate(records_by_name.items()):
        y = top + 28.0 * i + 14.0
        c.line(left, y, right, y, stroke=_GRID, width=1.0)
        for f in failures:
            c.circle(px(float(f)), y, 4.0, _color(i))
        try:
            score = f"({fragmentation(failures, n_frames):.2f})"
        except (FragmentationUndefinedError, EmptySeriesError):
            score = "(n/a)"
        c.text(right + 10.0, y + 4.0, f"{name} {score}")
    c.text((left + right) / 2, height - 2.0, "frame", anchor="middle")
    return c.finish()


def survival_curve(scores_by_name: dict) -> str:
    """Sorted per-sequence scores against rank, best first.

    A tracker that is good everywhere stays high across the whole
    x range; one that is good on a few easy sequences drops quickly.
    """
    if not scores_by_name or all(len(v) == 0 for v in scores_by_name.values()):
        raise EmptySeriesError("no scores to plot")
    n = max(len(v) for v in scores_by_name.values())
    lo = min(min(v) for v in scores_by_name.values() if v)
    hi = max(max(v) for v in scores_by_name.values() if v)
    c = _Canvas(480, 400, "Per-sequence score survival")
    ax = _chart(c, "rank", "score", 1.0, float(max(n, 2)), min(0.0, lo), max(1.0, hi))
    for i, (name, scores) in enumerate(scores_by_name.items()):
        ordered = sorted((float(v) for v in scores), reverse=True)
        _draw(c, [(ax.px(r + 1.0), ax.py(v)) for r, v in enumerate(ordered)], _color(i))
    _legend(c, ax, scores_by_name)
    return c.finish()
