"""The evaluator's files: sequences, run artifacts, measure tables, manifest.

SequenceAnnotation and SequenceData, with the whole-directory readers
and writers, build on dataset, which a tracker process reads through
alone. Text, regions and numbers follow dataset's conventions, so
write -> read reproduces every float bit-exactly. Run records and
measure tables start with the version line `# format: trackbench/1`;
parsers reject other versions and trailing garbage. Trajectories and
records parse in one pass, and line by line with parse_region only to
report an error with its file and line. Analysis outputs (correlation
matrices, cluster assignments, A-R summaries, label tables) are
write-only artifacts: each writer takes an analysis result and writes
the whole file, its `#`-prefixed notes included.
"""

import math
import os
from dataclasses import dataclass

from .dataset import (
    _REGION_LINE,
    _parse_regions,
    _read_regions,
    _region_text,
    format_number,
    format_regions,
    is_safe_name,
    parse_number,
    parse_region,
    read_groundtruth,
    read_meta,
    read_text,
    write_text,
)
from .errors import FormatVersionError, InvalidRegionError, LengthMismatchError, ParseError
from .geometry import Point, Region, is_valid_region, region_center
from .measures import measure_keys
from .trajectory import (
    Init,
    MeasureRow,
    MeasureTable,
    SupervisedRunRecord,
)

__all__ = [
    "SequenceAnnotation",
    "SequenceData",
    "read_sequence",
    "write_sequence",
    "list_sequences",
    "FORMAT_LINE",
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

_FRAME_EXTENSIONS = (".jpg", ".jpeg", ".png", ".bmp", ".ppm", ".pgm", ".tif", ".tiff")


@dataclass(frozen=True)
class SequenceAnnotation:
    """Ground truth for one sequence: per-frame regions, optional centers.

    When centers is None, a frame's center derives from its region.
    Construction is the one check of the ground truth: it raises
    InvalidRegionError, with its frame, for the first region that is
    not finite with non-negative extent, so every annotation that exists
    can be scored and driven without checking its regions again.
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
        if not all(map(is_valid_region, self.regions)):
            t, r = next((t, r) for t, r in enumerate(self.regions, 1) if not is_valid_region(r))
            raise InvalidRegionError(f"invalid ground truth of sequence {self.name!r}: {r}", t)
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
        prefix = os.path.join(root if root is not None else annotation.name, "frames", "")
        paths = tuple(prefix + "%08d.jpg" % k for k in range(1, len(annotation) + 1))
        return cls(annotation=annotation, image_size=image_size,
                   frame_paths=paths, root=root)


def read_sequence(seq_dir) -> SequenceData:
    """Load a sequence directory into a SequenceData bundle.

    The annotation comes from groundtruth.txt (and center.txt if
    present) and is named by sequence.meta, or else by the directory.
    """
    regions, centers = read_groundtruth(seq_dir)
    meta_path = os.path.join(seq_dir, "sequence.meta")
    has_meta = os.path.exists(meta_path)
    name, image_size = read_meta(meta_path) if has_meta else (None, None)
    if name is None:
        name = os.path.basename(os.path.normpath(seq_dir))
    if not is_safe_name(name):
        raise ParseError(f"unsafe sequence name {name!r}", meta_path if has_meta else seq_dir)
    annotation = SequenceAnnotation(name, regions, centers)

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
    write_text(os.path.join(seq_dir, "groundtruth.txt"), format_regions(annotation.regions))
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


FORMAT_LINE = "# format: trackbench/1"


def read_trajectory(path) -> tuple[Region, ...]:
    """Read a trajectory file: one region per line, same syntax as ground truth."""
    return tuple(_read_regions(str(path), "trajectory"))


def write_trajectory(path, regions) -> None:
    write_text(path, format_regions(regions))


_TRACKED_LINE = "T:" + _REGION_LINE
_INIT_LINE = "I:" + _REGION_LINE


def dumps_record(rec: SupervisedRunRecord) -> str:
    """Serialize a supervised run record.

    Line 1 is the format version, line 2 the threshold as `tau:<value>`,
    then one line per frame tagged `T:` (the reported region), `F:`
    (failure, no payload) or `I:` (init, with the GT region used).
    """
    text = _region_text("".join([
        _INIT_LINE % fr.region if isinstance(fr, Init)
        else "F:,\n" if fr is None
        else _TRACKED_LINE % fr
        for fr in rec.frames
    ]))
    return f"{FORMAT_LINE}\ntau:{format_number(rec.tau)}\n{text}"


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
    body = lines[2:]
    if not body:
        raise ParseError("record has no frames", path)
    # A bad tag stands in as an empty text, which no region parse accepts.
    texts = [t[2:] if t[:2] in ("T:", "I:") else "" for t in body if t != "F:"]
    regions = _parse_regions(texts) if texts else []
    if regions is None:  # the per-line pass raises at the first bad line
        for i, line in enumerate(body, start=3):
            if line[:2] in ("T:", "I:"):
                parse_region(line[2:], path, i)
            elif line != "F:":
                raise ParseError(f"malformed frame tag: {line!r}", path, i)
    it = iter(regions)
    frames = [None if line == "F:" else next(it) if line[0] == "T" else Init(next(it))
              for line in body]
    return SupervisedRunRecord(frames, tau=tau)


def read_record(path) -> SupervisedRunRecord:
    return loads_record(read_text(path), str(path))


def write_record(path, rec: SupervisedRunRecord) -> None:
    write_text(path, dumps_record(rec))


def _table_columns() -> list[str]:
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
    lines.append("")  # one join, no LF-terminated copy of each line
    return "\n".join(lines)


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
            v = math.nan if cell == "NA" else parse_number(cell, path, i)
            if cell != "NA" and not math.isfinite(v):  # NA is the one undefined cell
                raise ParseError(f"non-finite measure value: {cell!r}", path, i)
            values.append(v)
        error = error_cell if error_cell != "" else None
        rows.append(MeasureRow(tracker=tracker, sequence=sequence, run=run,
                               frames=frames, values=tuple(values), error=error))
    return MeasureTable(rows=tuple(rows))


def read_measure_table(path) -> MeasureTable:
    return loads_measure_table(read_text(path), str(path))


def write_measure_table(path, table: MeasureTable) -> None:
    write_text(path, dumps_measure_table(table))


def write_correlation_matrix(path, corr, clean: int) -> None:
    """Write a CorrelationMatrix over `clean` rows; undefined cells as NA."""
    labels, n = corr.labels, len(corr.labels)
    rows = [[labels[i], *(_format_cell(corr.values[i][j]) for j in range(n))]
            for i in range(n)]
    rows.append(["samples", *(str(int(corr.counts[i][i])) for i in range(n))])
    notes = (f"clean rows: {clean}", "cells: pairwise complete Pearson rho")
    write_text(path, _dumps_tsv(["measure", *labels], rows, notes))


def write_cluster_assignment(path, labels, assignment) -> None:
    """Write a ClusterAssignment: item and exemplar labels, NA for an item left out."""
    notes = [f"converged: {'yes' if assignment.converged else 'no (partial result)'}",
             f"iterations: {assignment.iterations}",
             f"clusters: {len(assignment.exemplars)}",
             "similarity: correlation with lower-is-better columns sign-flipped"]
    dropped = [labels[i] for i, e in enumerate(assignment.exemplar_of) if e is None]
    if dropped:
        notes.append(f"dropped, correlation undefined against every other item: "
                     f"{', '.join(dropped)}")
    rows = ([labels[i], "NA" if e is None else labels[e]]
            for i, e in enumerate(assignment.exemplar_of))
    write_text(path, _dumps_tsv(["item", "exemplar"], rows, notes))


def write_ar_summary(path, rows, span: float) -> None:
    """Write per-tracker accuracy, failure count and reliability."""
    rows = ([tracker, _format_cell(accuracy), repr(float(robustness)), repr(float(rel))]
            for tracker, accuracy, robustness, rel in rows)
    notes = (f"span: {format_number(span)}",
             "accuracy: mean supervised overlap; robustness: mean failures")
    write_text(path, _dumps_tsv(["tracker", "accuracy", "robustness", "reliability"], rows,
                                notes))


def write_label_table(path, rows, levels: int) -> None:
    """Write per-sequence ordinal property labels at `levels` levels."""
    notes = (f"levels: {levels}",
             "motion and size_change probes fall as the property grows; "
             "their scales are flipped so labels read as the property")
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
