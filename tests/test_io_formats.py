import math
import os
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trackbench import dataset
from trackbench.dataset import format_number, format_region, parse_number, parse_region
from trackbench.errors import (
    FormatVersionError,
    LengthMismatchError,
    MalformedRecordError,
    ParseError,
)
from trackbench.geometry import Point, Region
from trackbench.io_formats import (
    FORMAT_LINE,
    SequenceAnnotation,
    SequenceData,
    dumps_measure_table,
    dumps_record,
    list_sequences,
    loads_measure_table,
    loads_record,
    read_measure_table,
    read_record,
    read_sequence,
    read_trajectory,
    write_measure_table,
    write_record,
    write_sequence,
    write_trajectory,
)
from trackbench.trajectory import (
    Init,
    MeasureRow,
    MeasureTable,
    SupervisedRunRecord,
)

from conftest import make_annotation

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
extents = st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False)
regions = st.builds(Region, finite, finite, extents, extents)


class TestNumbers:
    def test_integral_values_have_no_fraction(self):
        assert format_number(3.0) == "3"
        assert format_number(-17.0) == "-17"
        assert format_number(0.0) == "0"

    def test_fractional_values_round_trip_text(self):
        assert format_number(0.1) == "0.1"
        assert parse_number(format_number(0.1)) == 0.1

    def test_nan_rejected(self):
        with pytest.raises(ParseError):
            format_number(float("nan"))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_number("abc")

    @given(finite)
    def test_round_trip_is_bit_exact(self, v):
        assert parse_number(format_number(v)) == v


class TestRegions:
    def test_syntax(self):
        assert format_region(Region(1.0, 2.5, 3.0, 4.0)) == "1,2.5,3,4"
        assert parse_region("1,2.5,3,4") == Region(1.0, 2.5, 3.0, 4.0)

    def test_arity_checked(self):
        with pytest.raises(ParseError):
            parse_region("1,2,3")
        with pytest.raises(ParseError):
            parse_region("1,2,3,4,5")

    def test_nonfinite_and_negative_extent_rejected(self):
        with pytest.raises(ParseError):
            parse_region("nan,2,3,4")
        with pytest.raises(ParseError):
            parse_region("inf,2,3,4")
        with pytest.raises(ParseError):
            parse_region("1,2,-3,4")

    @given(regions)
    def test_round_trip_is_bit_exact(self, r):
        assert parse_region(format_region(r)) == r

    # Integral values either side of 1e16 and 2**53, signed zeros,
    # subnormals, the infinities and NaN.
    coordinates = (st.floats(width=64) | st.integers(-2**60, 2**60).map(float)
                   | st.sampled_from([-0.0, 1e16, -1e16, 2.0 ** 53, 9999999999999998.0,
                                      5e-324, -10.0, 100.0, math.nan, math.inf]))

    @given(st.tuples(coordinates, coordinates, coordinates, coordinates))
    def test_a_region_is_the_format_number_of_each_coordinate(self, values):
        r = Region(*values)
        if any(map(math.isnan, values)):
            with pytest.raises(ParseError, match="NaN"):
                format_region(r)
        else:
            assert format_region(r) == ",".join(map(format_number, values))


class TestNumberRule:
    """A number text is ASCII, holds no whitespace and no `_`, and parses
    with float; every file route rejects any other text at its line."""

    FORMS = ["1_0", "\u0661\u0662", "\u0661", " 1", "1 ", "1\t", "\u30001"]

    @pytest.mark.parametrize("form", FORMS)
    def test_parse_number_and_parse_region(self, form):
        with pytest.raises(ParseError, match="not a number") as e:
            parse_number(form, "f", 7)
        assert (e.value.path, e.value.line) == ("f", 7)
        with pytest.raises(ParseError, match="not a number"):
            parse_region(f"4,{form},2,3")

    @pytest.mark.parametrize("form", FORMS)
    def test_region_files(self, tmp_path, form):
        bad = f"40,30,{form},18"
        traj = tmp_path / "t.traj"
        traj.write_text(f"40,30,24,18\n{bad}\n40,30,24,18\n", encoding="utf-8")
        seq = tmp_path / "s"
        write_sequence(str(seq), make_annotation([(40.0, 30.0, 24.0, 18.0)] * 3, "s"))
        (seq / "groundtruth.txt").write_text(traj.read_text(encoding="utf-8"), encoding="utf-8")
        for read, path in ((read_trajectory, traj), (read_sequence, seq)):
            with pytest.raises(ParseError, match="not a number") as e:
                read(str(path))
            assert e.value.line == 2

    @pytest.mark.parametrize("form", FORMS)
    def test_record_files(self, form):
        good = "# format: trackbench/1\ntau:0\nI:40,30,24,18\nT:40,30,24,18\n"
        for line, text in ((4, good.replace("T:40", f"T:{form}")),
                           (3, good.replace("I:40,30", f"I:40,{form}")),
                           (2, good.replace("tau:0", f"tau:{form}"))):
            with pytest.raises(ParseError, match="not a number") as e:
                loads_record(text, "r.record")
            assert (e.value.path, e.value.line) == ("r.record", line)

    @pytest.mark.parametrize("form", FORMS)
    def test_centers_meta_and_measure_tables(self, tmp_path, form):
        seq = tmp_path / "s"
        write_sequence(str(seq), make_annotation([(40.0, 30.0, 24.0, 18.0)] * 2, "s"),
                       image_size=(320.0, 240.0))
        (seq / "center.txt").write_text(f"52,39\n{form},39\n", encoding="utf-8")
        with pytest.raises(ParseError, match="not a number") as e:
            read_sequence(str(seq))
        assert e.value.line == 2
        (seq / "center.txt").unlink()
        (seq / "sequence.meta").write_text(f"name=s\nwidth=3{form}0\nheight=240\n",
                                           encoding="utf-8")
        with pytest.raises(ParseError, match="not a number") as e:
            read_sequence(str(seq))
        assert e.value.line == 2
        lines = dumps_measure_table(sample_table()).split("\n")
        lines[2] = lines[2].replace("\t0.0\t", f"\t0.{form}\t", 1)
        # A tab ends a TSV cell, so that form fails the cell count instead.
        with pytest.raises(ParseError, match="expected 21 cells" if "\t" in form
                           else "not a number") as e:
            loads_measure_table("\n".join(lines))
        assert e.value.line == 3


class TestSequenceDir:
    def test_round_trip(self, tmp_path):
        a = SequenceAnnotation(
            name="demo",
            regions=(Region(1.0, 2.0, 3.5, 4.0), Region(2.0, 3.0, 3.5, 4.0)),
            centers=(Point(2.75, 4.0), Point(3.75, 5.0)),
        )
        d = tmp_path / "demo"
        write_sequence(str(d), a, image_size=(320.0, 240.0))
        seq = read_sequence(str(d))
        assert seq.annotation == a
        assert seq.image_size == (320.0, 240.0)
        assert len(seq.frame_paths) == 2

    @pytest.mark.parametrize("root", [None, "", "rel/seq", "/abs/seq/"])
    def test_synthetic_frame_paths_join_root_frames_and_number(self, root):
        a = SequenceAnnotation(name="demo", regions=(Region(1.0, 2.0, 3.5, 4.0),) * 12)
        seq = SequenceData.synthetic(a, root=root)
        base = "demo" if root is None else root
        assert seq.frame_paths == tuple(
            os.path.join(base, "frames", "%08d.jpg" % k) for k in range(1, 13))

    def test_read_sequence_reads_each_file_once(self, tmp_path, monkeypatch):
        a = SequenceAnnotation(
            name="demo",
            regions=(Region(1.0, 2.0, 3.5, 4.0), Region(2.0, 3.0, 3.5, 4.0)),
            centers=(Point(2.75, 4.0), Point(3.75, 5.0)),
        )
        d = tmp_path / "demo"
        write_sequence(str(d), a, image_size=(320.0, 240.0))
        reads = Counter()
        read_lines = dataset._read_lines

        def counted(path):
            reads[os.path.basename(path)] += 1
            return read_lines(path)

        monkeypatch.setattr(dataset, "_read_lines", counted)
        seq = read_sequence(str(d))
        assert (seq.annotation, seq.image_size) == (a, (320.0, 240.0))
        assert reads == {"groundtruth.txt": 1, "center.txt": 1, "sequence.meta": 1}

    def test_name_falls_back_to_directory(self, tmp_path):
        d = tmp_path / "fallback"
        d.mkdir()
        (d / "groundtruth.txt").write_text("0,0,2,2\n")
        a = read_sequence(str(d)).annotation
        assert a.name == "fallback"

    @pytest.mark.parametrize("name", ["../../escaped", "a\tb", ""],
                             ids=["escape", "tab", "empty"])
    def test_unsafe_meta_name_rejected_naming_the_file(self, tmp_path, name):
        d = tmp_path / "seq"
        d.mkdir()
        (d / "groundtruth.txt").write_text("0,0,2,2\n")
        (d / "sequence.meta").write_text(f"name={name}\nwidth=9\nheight=9\n")
        with pytest.raises(ParseError, match="unsafe sequence name") as e:
            read_sequence(str(d))
        assert e.value.path == str(d / "sequence.meta")

    def test_blank_ground_truth_line_rejected(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "groundtruth.txt").write_text("0,0,2,2\n\n1,1,2,2\n")
        with pytest.raises(ParseError) as e:
            read_sequence(str(d)).annotation
        assert e.value.line == 2

    def test_center_count_must_match(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "groundtruth.txt").write_text("0,0,2,2\n1,1,2,2\n")
        (d / "center.txt").write_text("1,1\n")
        with pytest.raises(LengthMismatchError):
            read_sequence(str(d)).annotation

    @pytest.mark.parametrize("bad", ["nan,nan", "inf,20", "3,-inf"])
    def test_non_finite_center_rejected_naming_file_and_line(self, tmp_path, bad):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "groundtruth.txt").write_text("0,0,2,2\n1,1,2,2\n")
        (d / "center.txt").write_text(f"1,1\n{bad}\n")
        with pytest.raises(ParseError, match="non-finite center") as e:
            read_sequence(str(d)).annotation
        assert (e.value.path, e.value.line) == (str(d / "center.txt"), 2)

    def test_meta_comments_in_column_1_and_indented_are_skipped(self, tmp_path):
        d = tmp_path / "seq"
        d.mkdir()
        (d / "groundtruth.txt").write_text("0,0,2,2\n")
        (d / "sequence.meta").write_text(
            "# written by hand\nname=kept\n  # indented\n\twidth=9\nheight=8\n")
        seq = read_sequence(str(d))
        assert (seq.annotation.name, seq.image_size) == ("kept", (9.0, 8.0))

    @pytest.mark.parametrize("key", ["width", "height"])
    @pytest.mark.parametrize("bad", ["nan", "-320", "0", "inf", "1e999"])
    def test_meta_frame_size_must_be_finite_and_positive(self, tmp_path, key, bad):
        d = tmp_path / "seq"
        d.mkdir()
        (d / "groundtruth.txt").write_text("0,0,2,2\n")
        size = {"width": "320", "height": "240", key: bad}
        (d / "sequence.meta").write_text(
            f"name=seq\nwidth={size['width']}\n# frame size\nheight={size['height']}\n")
        with pytest.raises(ParseError, match=f"{key} must be finite and positive: '{bad}'") as e:
            read_sequence(str(d))
        assert (e.value.path, e.value.line) == (str(d / "sequence.meta"),
                                                {"width": 2, "height": 4}[key])

    def test_meta_line_without_equals_rejected_naming_file_and_line(self, tmp_path):
        d = tmp_path / "seq"
        d.mkdir()
        (d / "groundtruth.txt").write_text("0,0,2,2\n")
        (d / "sequence.meta").write_text("name=seq\n\nwidth 9\n")
        with pytest.raises(ParseError, match="expected key=value, got 'width 9'") as e:
            read_sequence(str(d))
        assert (e.value.path, e.value.line) == (str(d / "sequence.meta"), 3)

    @pytest.mark.parametrize("bad", ["1", "1,1,1", ""])
    def test_center_line_without_two_values_rejected(self, tmp_path, bad):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "groundtruth.txt").write_text("0,0,2,2\n1,1,2,2\n")
        (d / "center.txt").write_text(f"1,1\n{bad}\n")
        with pytest.raises(ParseError, match="center needs 2 values") as e:
            read_sequence(str(d))
        assert (e.value.path, e.value.line) == (str(d / "center.txt"), 2)

    def test_frame_images_must_match_annotation(self, tmp_path):
        d = tmp_path / "seq"
        d.mkdir()
        (d / "groundtruth.txt").write_text("0,0,2,2\n1,1,2,2\n")
        frames = d / "frames"
        frames.mkdir()
        (frames / "00000001.jpg").write_bytes(b"")
        with pytest.raises(LengthMismatchError):
            read_sequence(str(d))

    def test_listing_skips_non_sequence_dirs(self, tmp_dataset):
        names = [os.path.basename(p) for p in list_sequences(tmp_dataset)]
        assert names == ["alpha", "bravo", "charlie"]
        os.makedirs(os.path.join(tmp_dataset, "not_a_sequence"))
        assert [os.path.basename(p) for p in list_sequences(tmp_dataset)] == names


class TestTrajectoryFile:
    def test_round_trip(self, tmp_path):
        t = (Region(0.5, 1.5, 2.0, 3.0), Region(1.0, 2.0, 3.0, 4.0))
        p = tmp_path / "t.txt"
        write_trajectory(str(p), t)
        assert read_trajectory(str(p)) == t

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("")
        with pytest.raises(ParseError):
            read_trajectory(str(p))


def sample_record():
    r = Region(1.0, 2.0, 3.0, 4.5)
    frames = (Init(r), Region(1.5, 2.0, 3.0, 4.5), None, Init(r), r)
    return SupervisedRunRecord(frames, tau=0.125)


class TestRecordFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rec = sample_record()
        p = tmp_path / "rec.txt"
        write_record(str(p), rec)
        got = read_record(str(p))
        assert got == rec
        write_record(str(tmp_path / "rec2.txt"), got)
        assert (tmp_path / "rec.txt").read_bytes() == (tmp_path / "rec2.txt").read_bytes()

    def test_layout(self):
        text = dumps_record(sample_record())
        lines = text.splitlines()
        assert lines[0] == FORMAT_LINE
        assert lines[1] == "tau:0.125"
        assert lines[2].startswith("I:")
        assert lines[4] == "F:"

    def test_version_checked(self):
        body = dumps_record(sample_record()).splitlines()[1:]
        with pytest.raises(FormatVersionError):
            loads_record("\n".join(["# format: trackbench/2"] + body) + "\n")
        with pytest.raises(FormatVersionError):
            loads_record("\n".join(body) + "\n")

    def test_bad_tag_rejected(self):
        text = dumps_record(sample_record()) + "X:1,2,3,4\n"
        with pytest.raises(ParseError):
            loads_record(text)

    def test_missing_tau_rejected(self):
        with pytest.raises(ParseError):
            loads_record(FORMAT_LINE + "\nT:1,2,3,4\n")

    def test_structural_invariants_checked_on_load(self, tmp_path):
        # failure followed by a tracked frame, not an init
        p = tmp_path / "rec.txt"
        p.write_text(FORMAT_LINE + "\ntau:0\nI:0,0,2,2\nF:\nT:0,0,2,2\n")
        with pytest.raises(MalformedRecordError) as e:
            read_record(str(p))
        assert str(e.value) == "frame 3 after failure at 2 is not an Init"
        p.write_text(FORMAT_LINE + "\ntau:0\n")
        with pytest.raises(ParseError, match="record has no frames"):
            read_record(str(p))

    @given(
        st.lists(
            st.sampled_from(["T", "F", "I"]), min_size=1, max_size=40
        ).map(lambda tags: ["I"] + ["I" if a == "F" else b for a, b in zip(tags, tags[1:])])
    )
    def test_generated_records_round_trip(self, tags):
        r = Region(0.0, 0.0, 2.0, 2.0)
        frames = []
        for tag in tags:
            frames.append({"T": r, "F": None, "I": Init(r)}[tag])
        rec = SupervisedRunRecord(frames, tau=0.0)
        assert loads_record(dumps_record(rec)) == rec


# Signed zeros, integral values either side of 1e16 and 2**53, the
# smallest subnormal, huge and negative coordinates.
EDGE_REGIONS = (
    Region(-0.0, 0.0, 1.0, 2.0),
    Region(9999999999999998.0, 1e16, 1.0000000000000002e16, 2.0 ** 53),
    Region(5e-324, 1e300, 3.25, 0.0),
    Region(-12.0, -0.5, 1e-7, 100.0),
    Region(-1e16, -9999999999999998.0, 10.0, 1e15),
)


def per_region(regions):
    """The lines format_number gives each coordinate of each region."""
    return [",".join(map(format_number, r)) for r in regions]


class TestOnePassWriters:
    """The artifact writers format a whole file at once; each line must be
    what format_number gives its region's coordinates."""

    def test_trajectory_lines(self, tmp_path):
        p = tmp_path / "t.traj"
        for regions in (EDGE_REGIONS, EDGE_REGIONS[:1], EDGE_REGIONS[2:3]):
            write_trajectory(str(p), regions)
            assert p.read_bytes().decode().split("\n") == per_region(regions) + [""]

    coordinate = TestRegions.coordinates.filter(lambda v: not math.isnan(v))

    @given(st.lists(st.tuples(coordinate, coordinate, coordinate, coordinate),
                    min_size=1, max_size=12))
    def test_generated_lines(self, rows):
        regions = [Region(*v) for v in rows]
        assert dataset.format_regions(regions) == "".join(t + "\n" for t in per_region(regions))
        frames = [Init(regions[0])] + list(regions[1:]) + [None]
        lines = dumps_record(SupervisedRunRecord(frames, tau=0.5)).split("\n")
        assert lines[2:] == ["I:" + t for t in per_region(regions[:1])] + [
            "T:" + t for t in per_region(regions[1:])] + ["F:", ""]

    def test_record_lines(self):
        e = EDGE_REGIONS
        frames = (Init(e[0]), e[1], None, Init(e[2]), e[3], e[4], None)
        text = dumps_record(SupervisedRunRecord(frames, tau=0.0))
        t = per_region(e)
        assert text.split("\n") == [FORMAT_LINE, "tau:0", "I:" + t[0], "T:" + t[1], "F:",
                                    "I:" + t[2], "T:" + t[3], "T:" + t[4], "F:", ""]

    def test_one_frame_record(self):
        text = dumps_record(SupervisedRunRecord((Init(Region(-0.0, 2.0, 3.5, 1e16)),), tau=1.0))
        assert text == FORMAT_LINE + "\ntau:1\nI:0,2,3.5,1e+16\n"

    def test_infinities_are_written_as_inf(self, tmp_path):
        r = Region(math.inf, -math.inf, 1.0, math.inf)
        p = tmp_path / "t.traj"
        write_trajectory(str(p), (r, Region(-0.0, 1.0, 2.0, 3.0)))
        assert p.read_text() == "inf,-inf,1,inf\n0,1,2,3\n"
        text = dumps_record(SupervisedRunRecord((Init(Region(0, 0, 1, 1)), r), tau=0.0))
        assert text.endswith("\nI:0,0,1,1\nT:inf,-inf,1,inf\n")

    def test_nan_raises(self, tmp_path):
        r = Region(1.0, math.nan, 2.0, 3.0)
        with pytest.raises(ParseError, match="NaN"):
            write_trajectory(str(tmp_path / "t.traj"), (Region(0, 0, 1, 1), r))
        with pytest.raises(ParseError, match="NaN"):
            dumps_record(SupervisedRunRecord((Init(Region(0, 0, 1, 1)), r), tau=0.0))


def sample_table():
    vals = tuple(float(i) / 7.0 for i in range(16))
    nanvals = tuple(float("nan") if i % 3 == 0 else -1.5 * i for i in range(16))
    return MeasureTable(
        rows=(
            MeasureRow(tracker="a", sequence="s1", run=1, frames=30, values=vals),
            MeasureRow(
                tracker="b", sequence="s2", run=2, frames=44, values=nanvals,
                error="tracker timed out at frame 3",
            ),
        )
    )


class TestMeasureTableFile:
    def test_round_trip_bit_exact(self, tmp_path):
        table = sample_table()
        p = tmp_path / "m.tsv"
        write_measure_table(str(p), table)
        got = read_measure_table(str(p))
        for row, back in zip(table.rows, got.rows):
            assert (row.tracker, row.sequence, row.run, row.frames) == (
                back.tracker, back.sequence, back.run, back.frames,
            )
            for v, w in zip(row.values, back.values):
                assert (math.isnan(v) and math.isnan(w)) or v == w
            assert row.error == back.error
        text = dumps_measure_table(got)
        assert text == p.read_text()

    def test_version_and_header_checked(self):
        text = dumps_measure_table(sample_table())
        lines = text.splitlines()
        with pytest.raises(FormatVersionError):
            loads_measure_table("\n".join(["# format: other/9"] + lines[1:]) + "\n")
        with pytest.raises(ParseError):
            loads_measure_table("\n".join([lines[0], "tracker\tnope"] + lines[2:]) + "\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError, match="missing column header") as e:
            loads_measure_table(FORMAT_LINE + "\n", "m.tsv")
        assert (e.value.path, e.value.line) == ("m.tsv", 2)

    @pytest.mark.parametrize("cells", [("x", "60"), ("0", "1.5")], ids=["run", "frames"])
    def test_bad_run_or_frames_cell_rejected(self, cells):
        lines = dumps_measure_table(sample_table()).split("\n")
        bad = lines[2].split("\t")
        bad[2:4] = cells
        lines[2] = "\t".join(bad)
        with pytest.raises(ParseError, match="bad run/frames index") as e:
            loads_measure_table("\n".join(lines))
        assert e.value.line == 3

    def test_cell_count_checked(self):
        text = dumps_measure_table(sample_table()) + "only\tthree\tcells\n"
        with pytest.raises(ParseError):
            loads_measure_table(text)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity", "NaN"])
    def test_a_non_finite_cell_is_rejected_at_its_line(self, cell):
        lines = dumps_measure_table(sample_table()).split("\n")
        cells = lines[3].split("\t")
        cells[5] = cell
        lines[3] = "\t".join(cells)
        with pytest.raises(ParseError, match="non-finite measure value") as e:
            loads_measure_table("\n".join(lines), "m.tsv")
        assert (e.value.path, e.value.line) == ("m.tsv", 4)

    def test_nan_cells_written_as_na(self):
        text = dumps_measure_table(sample_table())
        row = text.splitlines()[3]
        assert "\tNA\t" in row
