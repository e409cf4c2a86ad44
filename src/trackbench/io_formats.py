"""File formats: dataset layout, run artifacts, measure tables.

All files are UTF-8 text with LF newlines and `.` as the decimal
separator. Regions serialize as `x,y,w,h` with no internal whitespace,
the exact syntax also used on the tracker wire protocol. Numbers are
written in shortest round-trip form (integral values without a
fractional part), so write -> read reproduces every float bit-exactly.

Dataset layout: one directory per sequence holding `groundtruth.txt`
(one region per line), optional `center.txt` (one `x,y` per line),
optional `frames/` with the image files, and `sequence.meta` with
`key=value` lines (name, width, height).

Run records and measure tables start with the version line
`# format: trackbench/1`; parsers reject other versions and trailing
garbage. Region files parse in one pass, and line by line with
parse_region only to report an error with its file and line. Analysis
outputs (correlation matrices, cluster assignments, A-R summaries, label
tables) are write-only artifacts with `#`-prefixed metadata comments.
"""

import math
import os
from dataclasses import dataclass

from .errors import FormatVersionError, LengthMismatchError, ParseError
from .geometry import Point, Region
from .trajectory import (
    Failure,
    Init,
    MeasureRow,
    MeasureTable,
    SequenceAnnotation,
    SupervisedRunRecord,
    Tracked,
    Trajectory,
)

__all__ = [
    "FORMAT_LINE",
    "format_number",
    "parse_number",
    "format_region",
    "parse_region",
    "SequenceData",
    "is_safe_name",
    "read_text",
    "write_text",
    "read_annotation",
    "read_image_size",
    "read_sequence",
    "write_sequence",
    "list_sequences",
    "read_trajectory",
    "write_trajectory",
    "dumps_record",
    "loads_record",
    "read_record",
    "write_record",
    "dumps_measure_table",
    "loads_measure_table",
    "read_measure_table",
    "write_measure_table",
    "write_correlation_matrix",
    "write_cluster_assignment",
    "write_ar_summary",
    "write_label_table",
    "write_manifest",
]

FORMAT_LINE = "# format: trackbench/1"

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


def read_trajectory(path) -> Trajectory:
    """Read a trajectory file: one region per line, same syntax as ground truth."""
    return Trajectory(regions=tuple(_read_regions(str(path), "trajectory")))


def write_trajectory(path, t: Trajectory) -> None:
    write_text(path, "".join(format_region(r) + "\n" for r in t.regions))


def dumps_record(rec: SupervisedRunRecord) -> str:
    """Serialize a supervised run record.

    Line 1 is the format version, line 2 the threshold as `tau:<value>`,
    then one line per frame tagged `T:` (tracked, with region), `F:`
    (failure, no payload) or `I:` (init, with the GT region used).
    """
    lines = [FORMAT_LINE, f"tau:{format_number(rec.tau)}"]
    for fr in rec.frames:
        if isinstance(fr, Tracked):
            lines.append("T:" + format_region(fr.region))
        elif isinstance(fr, Failure):
            lines.append("F:")
        else:
            lines.append("I:" + format_region(fr.region))
    return "".join(line + "\n" for line in lines)


def _versioned_lines(text: str, path) -> list[str]:
    """The lines of a versioned file whose first line is FORMAT_LINE."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith("# format:"):
        raise FormatVersionError("missing format header", path, 1)
    if lines[0] != FORMAT_LINE:
        raise FormatVersionError(f"unsupported format: {lines[0]!r}", path, 1)
    return lines


def loads_record(text: str, path=None) -> SupervisedRunRecord:
    lines = _versioned_lines(text, path)
    if len(lines) < 2 or not lines[1].startswith("tau:"):
        raise ParseError("missing tau line", path, 2)
    tau = parse_number(lines[1][len("tau:"):], path, 2)
    # A bad tag stands in as an empty text, which no region parse accepts.
    regions = _parse_regions(
        [t[2:] if t[:2] in ("T:", "I:") else "" for t in lines[2:] if t != "F:"])
    if regions is not None:
        it = iter(regions)
        frames = [Failure() if line == "F:" else (Tracked if line[0] == "T" else Init)(next(it))
                  for line in lines[2:]]
    else:
        frames = []
        for i, line in enumerate(lines[2:], start=3):
            if line.startswith("T:"):
                frames.append(Tracked(parse_region(line[2:], path, i)))
            elif line == "F:":
                frames.append(Failure())
            elif line.startswith("I:"):
                frames.append(Init(parse_region(line[2:], path, i)))
            else:
                raise ParseError(f"malformed frame tag: {line!r}", path, i)
    if not frames:
        raise ParseError("record has no frames", path)
    return SupervisedRunRecord(frames, tau=tau)


def read_record(path) -> SupervisedRunRecord:
    return loads_record(read_text(path), str(path))


def write_record(path, rec: SupervisedRunRecord) -> None:
    write_text(path, dumps_record(rec))


def _table_columns() -> list[str]:
    # Imported here: tracker processes use this module but never tables.
    from .measures import measure_keys

    return ["tracker", "sequence", "run", "frames"] + measure_keys() + ["error"]


def _format_cell(v: float) -> str:
    """A float TSV cell: NA for NaN, else shortest round-trip form."""
    if math.isnan(v):
        return "NA"
    return repr(float(v))


def _dumps_tsv(header, rows, notes=()) -> str:
    """The format line, a `# ` line per note, then header and rows tab-joined."""
    lines = [FORMAT_LINE, *(f"# {note}" for note in notes), "\t".join(header)]
    lines += ["\t".join(cells) for cells in rows]
    return "".join(line + "\n" for line in lines)


def dumps_measure_table(table: MeasureTable) -> str:
    """Serialize a measure table as tab-separated text.

    Undefined cells are NA; the error column is empty for clean rows.
    Floats use shortest round-trip form (17 significant digits at most).
    """
    return _dumps_tsv(_table_columns(), (
        [row.tracker, row.sequence, str(row.run), str(row.frames),
         *map(_format_cell, row.values),
         "" if row.error is None else row.error.replace("\t", " ").replace("\n", " ")]
        for row in table.rows
    ))


def loads_measure_table(text: str, path=None) -> MeasureTable:
    lines = _versioned_lines(text, path)
    if len(lines) < 2:
        raise ParseError("missing column header", path, 2)
    columns = _table_columns()
    if lines[1].split("\t") != columns:
        raise ParseError("column header mismatch", path, 2)
    rows = []
    for i, line in enumerate(lines[2:], start=3):
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise ParseError(
                f"expected {len(columns)} cells, got {len(cells)}", path, i
            )
        # The header check above pinned the layout: four key columns,
        # one per measure key, then the error column.
        tracker, sequence, run_text, frames_text, *value_cells, error_cell = cells
        try:
            run = int(run_text)
            frames = int(frames_text)
        except ValueError:
            raise ParseError(f"bad run/frames index: {run_text!r}/{frames_text!r}",
                             path, i) from None
        values = []
        for cell in value_cells:
            if cell == "NA":
                values.append(float("nan"))
            else:
                values.append(parse_number(cell, path, i))
        error = error_cell if error_cell != "" else None
        rows.append(MeasureRow(tracker=tracker, sequence=sequence, run=run,
                               frames=frames, values=tuple(values), error=error))
    return MeasureTable(rows=tuple(rows))


def read_measure_table(path) -> MeasureTable:
    return loads_measure_table(read_text(path), str(path))


def write_measure_table(path, table: MeasureTable) -> None:
    write_text(path, dumps_measure_table(table))


def write_correlation_matrix(path, labels, values, counts, notes=()) -> None:
    """Write a labeled correlation matrix; undefined cells as NA."""
    n = len(labels)
    rows = [[labels[i], *(_format_cell(values[i][j]) for j in range(n))] for i in range(n)]
    rows.append(["samples", *(str(int(counts[i][i])) for i in range(n))])
    write_text(path, _dumps_tsv(["measure", *labels], rows, notes))


def write_cluster_assignment(path, labels, exemplar_of, converged, iterations,
                             notes=()) -> None:
    """Write one line per item: item label and its exemplar's label."""
    notes = [f"converged: {'yes' if converged else 'no (partial result)'}",
             f"iterations: {iterations}", *notes]
    rows = ([labels[i], labels[e]] for i, e in enumerate(exemplar_of))
    write_text(path, _dumps_tsv(["item", "exemplar"], rows, notes))


def write_ar_summary(path, rows, span: float, notes=()) -> None:
    """Write per-tracker accuracy, failure count and reliability."""
    rows = ([tracker, _format_cell(accuracy), repr(float(robustness)), repr(float(rel))]
            for tracker, accuracy, robustness, rel in rows)
    write_text(path, _dumps_tsv(["tracker", "accuracy", "robustness", "reliability"], rows,
                                [f"span: {format_number(span)}", *notes]))


def write_label_table(path, rows, notes=()) -> None:
    """Write per-sequence ordinal property labels."""
    write_text(path, _dumps_tsv(["sequence", "size", "motion", "speed", "size_change"],
                                rows, notes))


def write_manifest(path, fields) -> None:
    """The format line, then one `key=value` line per (key, value) field.

    Backslash, CR and LF in a value are written as \\\\, \\r and \\n, so
    every value stays on its line and reads back exactly.
    """
    lines = [FORMAT_LINE]
    for key, value in fields:
        text = str(value).replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n")
        lines.append(f"{key}={text}")
    write_text(path, "".join(line + "\n" for line in lines))
