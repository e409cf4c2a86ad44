"""The one-pass readers against the per-line and per-cell loops they replace.

read_sequence (ground truth and centers), read_trajectory and
loads_record parse a whole file in one pass, and loads_measure_table
each row of a table, each falling back to a per-line or per-cell loop
only to report an error. The reference functions below are those loops
as they were before the one-pass routes existed. For every drawn file
the readers must return the same values (compared by float.hex) or
raise the same exception type with the same message, path and line.
The number parser and read_text are pinned against the expressions
they replace.
"""

import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackbench import dataset, io_formats
from trackbench.dataset import (
    _parse_numbers,
    _read_lines,
    format_region,
    parse_number,
    parse_region,
    read_text,
)
from trackbench.errors import FormatVersionError, LengthMismatchError, ParseError, TrackbenchError
from trackbench.geometry import Point, Region
from trackbench.io_formats import (
    FORMAT_LINE,
    _table_columns,
    _versioned_lines,
    loads_measure_table,
    loads_record,
    read_sequence,
    read_trajectory,
)
from trackbench.trajectory import (
    Init,
    MeasureRow,
    MeasureTable,
    SupervisedRunRecord,
)

from conftest import NON_ASCII


def reference_ground_truth(gt_path):
    regions = []
    for i, line in enumerate(_read_lines(gt_path), start=1):
        if line.strip() == "":
            raise ParseError("blank line in ground truth", gt_path, i)
        regions.append(parse_region(line, gt_path, i))
    if not regions:
        raise ParseError("ground truth has no frames", gt_path)
    return regions


def reference_centers(center_path, n_regions):
    centers = []
    for i, line in enumerate(_read_lines(center_path), start=1):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"center needs 2 values: {line!r}", center_path, i)
        x, y = (parse_number(p, center_path, i) for p in parts)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"non-finite center coordinate: {line!r}", center_path, i)
        centers.append(Point(x, y))
    if len(centers) != n_regions:
        raise LengthMismatchError(
            f"{center_path}: {len(centers)} centers for {n_regions} regions"
        )
    return tuple(centers)


def reference_read_trajectory(path) -> tuple[Region, ...]:
    regions = []
    for i, line in enumerate(_read_lines(path), start=1):
        if line.strip() == "":
            raise ParseError("blank line in trajectory", str(path), i)
        regions.append(parse_region(line, str(path), i))
    if not regions:
        raise ParseError("trajectory has no frames", str(path))
    return tuple(regions)


def reference_loads_record(text: str, path=None) -> SupervisedRunRecord:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith("# format:"):
        raise FormatVersionError("missing format header", path, 1)
    if lines[0] != FORMAT_LINE:
        raise FormatVersionError(f"unsupported format: {lines[0]!r}", path, 1)
    if len(lines) < 2 or not lines[1].startswith("tau:"):
        raise ParseError("missing tau line", path, 2)
    tau = parse_number(lines[1][len("tau:"):], path, 2)
    frames: list = []
    for i, line in enumerate(lines[2:], start=3):
        if line.startswith("T:"):
            frames.append(parse_region(line[2:], path, i))
        elif line == "F:":
            frames.append(None)
        elif line.startswith("I:"):
            frames.append(Init(parse_region(line[2:], path, i)))
        else:
            raise ParseError(f"malformed frame tag: {line!r}", path, i)
    if not frames:
        raise ParseError("record has no frames", path)
    return SupervisedRunRecord(frames, tau=tau)


def bits(region: Region) -> tuple[str, ...]:
    return tuple(v.hex() for v in (region.x, region.y, region.width, region.height))


def frame_bits(frame) -> tuple:
    region = getattr(frame, "region", None)
    return type(frame).__name__, None if region is None else bits(region)


def outcome(read, *args, fingerprint):
    """("ok", fingerprint of the result) or ("error", type, message, path, line)."""
    try:
        result = read(*args)
    except TrackbenchError as e:
        return ("error", type(e), str(e), getattr(e, "path", None), getattr(e, "line", None))
    return ("ok", fingerprint(result))


def regions_bits(regions) -> list:
    return [bits(r) for r in regions]


def points_bits(points) -> list:
    return [(p.x.hex(), p.y.hex()) for p in points]


def record_bits(rec: SupervisedRunRecord) -> tuple:
    return rec.tau.hex(), rec.failure_frames, [frame_bits(f) for f in rec.frames]


extents = st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
valid_texts = st.builds(Region, finite, finite, extents, extents).map(format_region)

# Number texts float accepts and rejects: non-finite and negative values,
# -0.0, underscores, padding, non-ASCII digits, signs, hex, empty fields.
FIELDS = ["0", "1", "-1", "2.5", "-0.0", "-0", "1e308", "1e400", "-1e400", "nan",
          "-nan", "inf", "-inf", "Infinity", "1_0", "1__0", " 3", "4 ", "\t5",
          "١٢", "１", "+7", ".5", "5.", "0x1", "", "x", "1,5"]
center_texts = st.one_of(
    st.sampled_from(["", " ", "1", "1,2,3", "1,,2", ",", "1_0,2", "1, 2", "nan,0", "0,-inf"]),
    st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3).map(",".join),
)
hostile_texts = st.one_of(
    st.sampled_from(["", " ", "\t", "  \t ", " "]),
    st.lists(st.sampled_from(FIELDS), min_size=3, max_size=5).map(",".join),
    st.lists(st.sampled_from(FIELDS), min_size=4, max_size=4).map(",".join),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
            max_size=12),
)


@st.composite
def mixed(draw, valid, hostile, max_size=8):
    """Mostly valid lines with up to two hostile ones inserted anywhere."""
    lines = draw(st.lists(valid, max_size=max_size))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(hostile))
    return lines


def file_text(lines, trailing_newline) -> str:
    return "\n".join(lines) + ("\n" if trailing_newline and lines else "")


def write(path, text) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@pytest.fixture(scope="module")
def seq_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("one_pass") / "seq")


class TestRegionFiles:
    @settings(max_examples=300)
    @given(mixed(valid_texts, hostile_texts), st.booleans())
    def test_ground_truth_matches_the_per_line_loop(self, seq_dir, lines, trailing):
        os.makedirs(seq_dir, exist_ok=True)
        gt_path = os.path.join(seq_dir, "groundtruth.txt")
        write(gt_path, file_text(lines, trailing))
        got = outcome(lambda d: read_sequence(d).annotation.regions, seq_dir,
                      fingerprint=regions_bits)
        assert got == outcome(reference_ground_truth, gt_path, fingerprint=regions_bits)

    @settings(max_examples=300)
    @given(mixed(valid_texts, hostile_texts), st.booleans())
    def test_trajectory_matches_the_per_line_loop(self, seq_dir, lines, trailing):
        os.makedirs(seq_dir, exist_ok=True)
        path = os.path.join(seq_dir, "run_00.traj")
        write(path, file_text(lines, trailing))
        assert outcome(read_trajectory, path, fingerprint=regions_bits) == outcome(
            reference_read_trajectory, path, fingerprint=regions_bits)

    @settings(max_examples=300)
    @given(mixed(st.tuples(finite, finite).map(lambda p: "%r,%r" % p),
                 st.one_of(center_texts, hostile_texts)),
           st.booleans())
    @example(["1,2", "3,4", "-0.0,1e300"], False)
    @example([], True)
    def test_centers_match_the_per_line_loop(self, seq_dir, lines, trailing):
        # As many regions as center lines, so that most drawn files are valid.
        n = max(len(lines), 1)
        os.makedirs(seq_dir, exist_ok=True)
        write(os.path.join(seq_dir, "groundtruth.txt"), "0,0,2,2\n" * n)
        center_path = os.path.join(seq_dir, "center.txt")
        write(center_path, file_text(lines, trailing))
        got = outcome(lambda d: read_sequence(d).annotation.centers, seq_dir,
                      fingerprint=points_bits)
        assert got == outcome(reference_centers, center_path, n, fingerprint=points_bits)


@st.composite
def record_bodies(draw):
    """A structurally valid body (I first, I after every F) as frame lines."""
    kinds = draw(st.lists(st.sampled_from("TTF"), max_size=10))
    body = ["I:" + draw(valid_texts)]
    for kind in kinds:
        if body[-1] == "F:":
            body.append("I:" + draw(valid_texts))
        body.append("F:" if kind == "F" else "T:" + draw(valid_texts))
    return body


hostile_frames = st.one_of(
    hostile_texts.map("T:".__add__),
    hostile_texts.map("I:".__add__),
    # Two characters that are not a region tag, then a valid region.
    st.tuples(st.sampled_from(["F:", "X:", "T;", "TT", "I ", "i:", ":T", "I\t"]),
              valid_texts).map("".join),
    valid_texts,
    st.sampled_from(["", " ", "T:", "I:", "F", "F: ", " F:", "t:1,2,3,4", "TI:1,2,3,4",
                     "T:1,2,3,4\r", "I :1,2,3,4"]),
)


@st.composite
def record_texts(draw):
    body = draw(record_bodies())
    for _ in range(draw(st.integers(0, 2))):
        body.insert(draw(st.integers(0, len(body))), draw(hostile_frames))
    header = draw(st.one_of(
        st.just([FORMAT_LINE, "tau:0"]),
        st.lists(st.sampled_from([FORMAT_LINE, "tau:0.5", "tau:-0.0", "tau:x",
                                  "# format: trackbench/2", "T:1,2,3,4"]),
                 max_size=2),
    ))
    return file_text(header + body, draw(st.booleans()))


class TestRecords:
    @settings(max_examples=400)
    @given(record_texts())
    def test_loads_record_matches_the_per_line_loop(self, text):
        assert outcome(loads_record, text, "run_00.record", fingerprint=record_bits) == outcome(
            reference_loads_record, text, "run_00.record", fingerprint=record_bits)

    def test_empty_region_payload_reports_its_line(self):
        text = f"{FORMAT_LINE}\ntau:0\nI:0,0,2,2\nF:\nI:\n"
        with pytest.raises(ParseError) as e:
            loads_record(text, "r.record")
        assert (e.value.path, e.value.line) == ("r.record", 5)
        assert "region needs 4 comma-separated values: ''" in str(e.value)


class TestOnePassRoute:
    """Valid files never reach parse_region; any bad text sends them back to it."""

    @pytest.fixture
    def no_per_line_parse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-line parse_region ran on valid input")

        # read_sequence and read_trajectory fall back to the dataset
        # module's parse_region, loads_record to io_formats' binding.
        monkeypatch.setattr(dataset, "parse_region", refuse)
        monkeypatch.setattr(io_formats, "parse_region", refuse)

    def test_valid_files_take_the_one_pass_route(self, tmp_path, no_per_line_parse):
        (tmp_path / "groundtruth.txt").write_text("0,0,2,2\n-0.0,1.5,0,1e300\n")
        assert read_sequence(str(tmp_path)).annotation.regions == (
            Region(0, 0, 2, 2), Region(-0.0, 1.5, 0, 1e300))
        (tmp_path / "t.traj").write_text("1,2,3,4\n")
        assert read_trajectory(str(tmp_path / "t.traj")) == (Region(1, 2, 3, 4),)
        rec = loads_record(f"{FORMAT_LINE}\ntau:0\nI:0,0,2,2\nT:1,1,2,2\nF:\nI:0,0,2,2\n")
        assert [type(f).__name__ for f in rec.frames] == ["Init", "Region", "NoneType", "Init"]
        assert rec.failure_frames == (3,)

    def test_valid_centers_take_the_one_pass_route(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-line parse_number ran on a valid center file")

        monkeypatch.setattr(dataset, "parse_number", refuse)
        (tmp_path / "groundtruth.txt").write_text("0,0,2,2\n0,0,2,2\n")
        (tmp_path / "center.txt").write_text("1,1\n-0.0,1e300\n")
        centers = read_sequence(str(tmp_path)).annotation.centers
        assert points_bits(centers) == points_bits([Point(1, 1), Point(-0.0, 1e300)])
        assert all(type(p) is Point for p in centers)

    @pytest.mark.parametrize("text", [
        "", " ", "1,2,3", "1,2,3,4,5", "nan,0,1,1", "0,inf,1,1", "0,0,-1,1",
        "0,0,1,-1e-300", "a,0,1,1", "1,,2,3",
    ])
    def test_one_bad_text_makes_the_whole_pass_decline(self, text):
        good = ["1,2,3,4"] * 3
        assert dataset._parse_regions(good) == [Region(1, 2, 3, 4)] * 3
        assert dataset._parse_regions(good[:1] + [text] + good[1:]) is None
        assert dataset._parse_regions([]) is None


# The overlap and fraction columns; a defined cell must lie in [0, 1].
UNIT_KEYS = ("p_0.1", "p_0.5", "avg_overlap", "sup_p_0.1", "sup_p_0.5", "sup_avg_overlap")


def reference_loads_measure_table(text: str, path=None) -> MeasureTable:
    """The per-cell table reader, with the [0, 1] rule added at its cell and
    the number rule at the run and frames cells."""
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
        tracker, sequence, run_text, frames_text, *value_cells, error_cell = cells
        try:  # the number rule, then int
            if reference_rule(run_text) or reference_rule(frames_text):
                raise ValueError
            run = int(run_text)
            frames = int(frames_text)
        except ValueError:
            raise ParseError(f"bad run/frames index: {run_text!r}/{frames_text!r}",
                             path, i) from None
        values = []
        for key, cell in zip(columns[4:-1], value_cells):
            v = math.nan if cell == "NA" else parse_number(cell, path, i)
            if cell != "NA" and not math.isfinite(v):
                raise ParseError(f"non-finite measure value: {cell!r}", path, i)
            if key in UNIT_KEYS and cell != "NA" and not 0.0 <= v <= 1.0:
                raise ParseError(f"{key} outside [0, 1]: {cell!r}", path, i)
            values.append(v)
        error = error_cell if error_cell != "" else None
        rows.append(MeasureRow(tracker=tracker, sequence=sequence, run=run,
                               frames=frames, values=tuple(values), error=error))
    return MeasureTable(rows=tuple(rows))


def table_bits(table: MeasureTable) -> list:
    return [(r.tracker, r.sequence, r.run, r.frames, [v.hex() for v in r.values], r.error)
            for r in table.rows]


COLUMNS = _table_columns()
# Free text: the key and error cells may hold anything but a tab or a newline.
cell_texts = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\t\n\r"), max_size=6)
unit_values = st.floats(0.0, 1.0).map(repr)
any_values = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# Cells that float or the number rule reject, the NA look-alikes, a comma,
# and numbers that are fine in some columns and out of [0, 1] in others.
HOSTILE_CELLS = ["na", "NaN", "nan", "-nan", "inf", "-inf", "Infinity", "-NA", "+NA", "NA1",
                 "NANA", "1_0", " 1", "1 ", "\x0b1", "١٢", "１", "1,5", ",", "", "x", "2",
                 "-0.5", "1.5", "1e308", "-1e308", "-0.0", "0x1", "+7", ".5", "5.", "1e-400"]
HOSTILE_INDICES = ["x", "1.5", "", " 1", "1_0", "١", "-1", "+2", "0x1", "NA"]


@st.composite
def table_rows(draw):
    """A valid row's cells: overlaps and fractions in [0, 1], NA anywhere."""
    cells = [draw(cell_texts), draw(cell_texts),
             str(draw(st.integers(0, 99))), str(draw(st.integers(0, 10**6)))]
    for key in COLUMNS[4:-1]:
        value = unit_values if key in UNIT_KEYS else any_values
        cells.append(draw(st.one_of(value, value, value, st.just("NA"))))
    return cells + [draw(st.one_of(st.just(""), cell_texts))]


@st.composite
def table_texts(draw):
    """A table of valid rows with up to two hostile edits: a bad value or
    index cell, an overlap or fraction out of [0, 1], or a cell inserted
    or deleted."""
    rows = draw(st.lists(table_rows(), max_size=4))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2])) if rows else 0):
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["value", "unit", "index", "insert", "delete"]))
        if kind == "value":
            cells[draw(st.integers(4, len(cells) - 2))] = draw(st.sampled_from(HOSTILE_CELLS))
        elif kind == "unit":
            cells[COLUMNS.index(draw(st.sampled_from(UNIT_KEYS)))] = draw(st.sampled_from(
                ["2", "-0.5", "1.0000000000000002", "-5e-324", "1e308", "-1e308"]))
        elif kind == "index":
            cells[draw(st.integers(2, 3))] = draw(st.sampled_from(HOSTILE_INDICES))
        elif kind == "insert":
            cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(["0", "NA", ""])))
        else:
            del cells[draw(st.integers(0, len(cells) - 1))]
    lines = [FORMAT_LINE, "\t".join(COLUMNS), *map("\t".join, rows)]
    return file_text(lines, draw(st.booleans()))


# A valid row: NA, -0.0 and huge values where no [0, 1] rule applies.
VALID_ROW = ["t", "s", "0", "60", "NA", "0.5", "1e300", "1", "-0.0", "7", "0", "0.25",
             "NA", "-3", "2.5", "1e-300", "0", "NA", "1", "4", ""]


def table_with(column: str, cell: str) -> str:
    """A two-row table whose second row has cell in column."""
    row = list(VALID_ROW)
    row[COLUMNS.index(column)] = cell
    return file_text([FORMAT_LINE, "\t".join(COLUMNS), "\t".join(VALID_ROW), "\t".join(row)],
                     True)


class TestMeasureTables:
    @settings(max_examples=60, derandomize=True)
    @given(table_texts())
    @example(table_with("rmse", "1,5"))
    @example(table_with("rmse", "-NA"))
    @example(table_with("rmse", "nan"))
    @example(table_with("sup_avg_overlap", "1.5"))
    @example(table_with("p_0.1", "-1e308"))
    @example(file_text([FORMAT_LINE, "\t".join(COLUMNS)], True))
    def test_loads_measure_table_matches_the_per_cell_loop(self, text):
        assert outcome(loads_measure_table, text, "m.tsv", fingerprint=table_bits) == outcome(
            reference_loads_measure_table, text, "m.tsv", fingerprint=table_bits)

    @pytest.mark.parametrize("column, cell", [
        ("run", " 1"), ("run", "1_0"), ("run", "٣"), ("frames", "6_0"), ("frames", "60 "),
    ])
    def test_run_and_frames_cells_keep_the_number_rule(self, column, cell):
        # int alone reads these as 1, 10, 3, 60 and 60.
        with pytest.raises(ParseError) as e:
            loads_measure_table(table_with(column, cell), "m.tsv")
        run, frames = (cell, "60") if column == "run" else ("0", cell)
        assert str(e.value) == f"m.tsv:4: bad run/frames index: {run!r}/{frames!r}"

    def test_valid_tables_take_the_one_pass_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-cell parse_number ran on a valid table")

        monkeypatch.setattr(io_formats, "parse_number", refuse)
        table = loads_measure_table(table_with("error", "timeout"))
        values = [float(c).hex() if c != "NA" else math.nan.hex() for c in VALID_ROW[4:-1]]
        assert table_bits(table) == [("t", "s", 0, 60, values, None),
                                     ("t", "s", 0, 60, values, "timeout")]


# The number rule as it was written before its one-pass form.
def reference_rule(text: str) -> bool:
    return not (text.isascii() and text.isprintable()) or " " in text or "_" in text


def reference_numbers(texts, arity) -> list | None:
    """The numbers of texts by the reference rule, a comma split and float, or None."""
    numbers = []
    for text in texts:
        fields = text.split(",")
        if len(fields) != arity or any(map(reference_rule, fields)):
            return None
        try:
            numbers += map(float, fields)
        except ValueError:
            return None
    return numbers


def numbers_outcome(texts, arity) -> list | None:
    try:
        return [v.hex() for v in _parse_numbers(texts, arity)]
    except ValueError:
        return None


class TestNumberRule:
    def test_every_ascii_character_alone_and_inside_a_number(self):
        for c in [*map(chr, range(128)), *NON_ASCII]:
            for texts in ([c], [f"1{c}5"], [f"1.5e{c}"], [f"{c}2,3,4,5"], ["1,2,3,4", f"1,2{c}3,4"],
                          [f"1{c}5", "2"], ["2", f"{c}"], [f"{c}", "2"]):
                for arity in (1, 2, 4):
                    want = reference_numbers(texts, arity)
                    assert numbers_outcome(texts, arity) == (
                        None if want is None else [v.hex() for v in want]), (texts, arity)

    def test_the_region_pass_applies_the_rule_and_the_arity(self):
        # _parse_regions adds finiteness and sign to _parse_numbers' rule and arity.
        for c in [*map(chr, range(128)), *NON_ASCII]:
            for texts in ([f"1{c}5,2,3,4"], ["1,2,3,4", f"{c}"], [f"1,2,3,4{c}"],
                          ["1,2,3,4", f"1,2{c}3,4"]):
                try:
                    want = [parse_region(t) for t in texts]
                except ParseError:
                    want = None
                assert dataset._parse_regions(texts) == want, repr(texts)


def text_io_reference(path) -> tuple:
    """What read_text gave when it read through a TextIOWrapper."""
    try:
        with open(path, encoding="utf-8", newline=None) as fh:
            return "ok", fh.read()
    except UnicodeDecodeError as e:
        return "error", f"{path}: not UTF-8 text: {e.reason}"


CHUNK = 8192  # the TextIOWrapper's read chunk


@pytest.mark.parametrize("data", [
    b"", b"1,2,3,4\n", b"1,2,3,4\r\n5,6,7,8\r\n", b"1,2,3,4\r5,6,7,8\r",
    b"a\r\nb\rc\nd\r\r\n\n\re", b"x\r", b"\r", b"\r\n\r",
    b"a" * (CHUNK - 1) + b"\r\nb",
    b"a" * (CHUNK - 1) + "é".encode(),
    b"a" * (CHUNK - 2) + "€".encode() + b"\r",
    b"a" * (CHUNK - 1) + "𝟙".encode() + b"\n" + b"b" * CHUNK,
    b"\xff", b"ok\n\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf",
    b"a" * (CHUNK - 1) + b"\xe2\x82\x28", b"a" * (CHUNK - 1) + b"\xe2",
], ids=lambda data: f"{len(data)}B")
def test_read_text_matches_the_text_io_reader(tmp_path, data):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    try:
        got = "ok", read_text(str(path))
    except ParseError as e:
        got = "error", str(e)
    assert got == text_io_reference(str(path))
