import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trackbench.errors import (
    DegenerateAnnotationError,
    InvalidRegionError,
    LengthMismatchError,
    MalformedRecordError,
)
from trackbench.geometry import Point, Region
from trackbench.io_formats import SequenceAnnotation
from trackbench.trajectory import (
    Init,
    MeasureRow,
    SupervisedRunRecord,
    score_record,
    score_trajectory,
)

from conftest import make_annotation


def traj(regions):
    return tuple(Region(*r) for r in regions)


class TestAnnotation:
    def test_empty_rejected(self):
        with pytest.raises(LengthMismatchError):
            SequenceAnnotation(name="e", regions=())

    def test_center_count_must_match(self):
        with pytest.raises(LengthMismatchError):
            SequenceAnnotation(
                name="c",
                regions=(Region(0, 0, 2, 2), Region(1, 1, 2, 2)),
                centers=(Point(1.0, 1.0),),
            )

    def test_derived_center(self):
        a = make_annotation([(10.0, 20.0, 4.0, 6.0)])
        assert a.center(0) == Point(12.0, 23.0)

    def test_explicit_center_wins(self):
        a = SequenceAnnotation(
            name="c",
            regions=(Region(10.0, 20.0, 4.0, 6.0),),
            centers=(Point(99.0, -1.0),),
        )
        assert a.center(0) == Point(99.0, -1.0)


def record_frames(tags):
    """Frames for tags in "TFI", each failure (None) followed by an Init unless last."""
    r = Region(0, 0, 2, 2)
    make = {"T": lambda: r, "F": lambda: None, "I": lambda: Init(r)}
    return [make[t]() for t in ["I"] + ["I" if a == "F" else b for a, b in zip(tags, tags[1:])]]


class TestRecord:
    def test_failure_frames_derived_from_entries(self):
        r = Region(0, 0, 2, 2)
        rec = SupervisedRunRecord([Init(r), r, None, Init(r), r], tau=0.0)
        assert rec.failure_frames == (3,)
        assert rec.frames == (Init(r), r, None, Init(r), r)

    @given(st.lists(st.sampled_from("TFI"), min_size=1, max_size=30).map(record_frames))
    def test_failure_frames_are_the_failure_positions(self, frames):
        rec = SupervisedRunRecord(frames, tau=0.0)
        assert rec.failure_frames == tuple(
            i + 1 for i, f in enumerate(frames) if f is None)

    def test_failure_frames_is_not_an_argument(self):
        r = Region(0, 0, 2, 2)
        with pytest.raises(TypeError):
            SupervisedRunRecord(frames=(Init(r), None), failure_frames=(2,), tau=0.0)

    @pytest.mark.parametrize("first", [Region(0, 0, 2, 2), None])
    def test_first_frame_must_be_an_init(self, first):
        r = Region(0, 0, 2, 2)
        with pytest.raises(MalformedRecordError, match="^frame 1 is not an Init$"):
            SupervisedRunRecord(frames=(first, Init(r), r), tau=0.0)

    def test_empty_record(self):
        with pytest.raises(MalformedRecordError, match="^record has no frames$"):
            SupervisedRunRecord(frames=(), tau=0.0)

    def test_failure_needs_following_init(self):
        r = Region(0, 0, 2, 2)
        with pytest.raises(MalformedRecordError) as e:
            SupervisedRunRecord(frames=(Init(r), None, r), tau=0.0)
        assert str(e.value) == "frame 3 after failure at 2 is not an Init"

    def test_final_frame_failure_allowed(self):
        r = Region(0, 0, 2, 2)
        rec = SupervisedRunRecord(frames=(Init(r), r, None), tau=0.0)
        assert rec.failure_frames == (3,)


class TestMeasureRow:
    def test_needs_sixteen_values(self):
        with pytest.raises(LengthMismatchError):
            MeasureRow(tracker="t", sequence="s", run=1, frames=10, values=(1.0,) * 15)


class TestPairValidation:
    def test_length_mismatch(self):
        a = make_annotation([(0, 0, 2, 2)] * 3)
        with pytest.raises(LengthMismatchError, match="^annotation has 3 frames, trajectory 2$"):
            score_trajectory(a, traj([(0, 0, 2, 2)] * 2))

    def test_invalid_annotation_region_carries_frame(self):
        rows = [(0.0, 0.0, 2.0, 2.0)] * 10
        rows[6] = (0.0, 0.0, -1.0, 2.0)
        with pytest.raises(InvalidRegionError) as e:
            SequenceAnnotation(name="bad", regions=tuple(Region(*r) for r in rows))
        assert e.value.frame == 7
        assert str(e.value) == (
            "frame 7: invalid ground truth of sequence 'bad': "
            "Region(x=0.0, y=0.0, width=-1.0, height=2.0)")

    def test_invalid_trajectory_region_carries_frame(self):
        rows = [(0.0, 0.0, 2.0, 2.0)] * 5
        rows[2] = (float("nan"), 0.0, 2.0, 2.0)
        a = make_annotation([(0, 0, 2, 2)] * 5)
        with pytest.raises(InvalidRegionError) as e:
            score_trajectory(a, traj(rows))
        assert e.value.frame == 3

    def test_invalid_tracked_region_carries_frame(self):
        r = Region(0.0, 0.0, 2.0, 2.0)
        rec = SupervisedRunRecord([Init(r), r, r._replace(height=-1.0)],
                                  tau=0.0)
        with pytest.raises(InvalidRegionError, match="^frame 3: negative region extent"):
            score_record(rec, make_annotation([r] * 3))


class TestSeries:
    def test_overlap_series_values(self):
        a = make_annotation([(0, 0, 2, 2), (0, 0, 2, 2)])
        t = traj([(0, 0, 2, 2), (1, 0, 2, 2)])
        s = score_trajectory(a, t).overlaps
        assert s[0] == 1.0
        assert abs(s[1] - 1.0 / 3.0) < 1e-15

    def test_center_error_series_values(self):
        a = make_annotation([(0.0, 0.0, 2.0, 2.0)] * 2)
        t = traj([(0.0, 0.0, 2.0, 2.0), (3.0, 4.0, 2.0, 2.0)])
        s = score_trajectory(a, t).center_errors
        assert s == [0.0, 5.0]

    def test_normalized_divides_by_size(self):
        # size of a 3x4 ground-truth box is sqrt(12)
        a = make_annotation([(0.0, 0.0, 3.0, 4.0)])
        t = traj([(6.0, 0.0, 3.0, 4.0)])
        s = score_trajectory(a, t).normalized_errors()
        assert abs(s[0] - 6.0 / math.sqrt(12.0)) < 1e-12

    def test_normalized_rejects_zero_size_gt(self):
        a = make_annotation([(0.0, 0.0, 2.0, 2.0), (5.0, 5.0, 0.0, 0.0)])
        t = traj([(0.0, 0.0, 2.0, 2.0)] * 2)
        with pytest.raises(DegenerateAnnotationError) as e:
            score_trajectory(a, t).normalized_errors()
        assert e.value.frame == 2

    def test_explicit_centers_feed_error_series(self):
        a = SequenceAnnotation(
            name="c",
            regions=(Region(0.0, 0.0, 2.0, 2.0),),
            centers=(Point(10.0, 1.0),),
        )
        t = traj([(0.0, 0.0, 2.0, 2.0)])
        assert score_trajectory(a, t).center_errors == [9.0]


box = st.tuples(
    st.floats(-100, 100), st.floats(-100, 100), st.floats(1, 50), st.floats(1, 50)
)


@given(st.lists(st.tuples(box, box), min_size=2, max_size=12), st.randoms())
def test_series_are_frame_local(pairs, rng):
    """Permuting frames permutes the series the same way."""
    idx = list(range(len(pairs)))
    rng.shuffle(idx)
    a = make_annotation([p[0] for p in pairs])
    t = traj([p[1] for p in pairs])
    ap = make_annotation([pairs[i][0] for i in idx])
    tp = traj([pairs[i][1] for i in idx])
    base, permuted = score_trajectory(a, t), score_trajectory(ap, tp)
    for field in ("overlaps", "center_errors", "normalized"):
        assert getattr(permuted, field) == [getattr(base, field)[i] for i in idx]
