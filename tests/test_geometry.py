import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from trackbench.errors import InvalidRegionError
from trackbench.geometry import (
    Point,
    Region,
    box_overlap,
    overlap,
    region_center,
    region_size,
    validate_region,
)


def grid_regions(limit=64):
    """Integer-coordinate regions fitting a limit x limit pixel grid."""
    return st.integers(0, limit - 1).flatmap(
        lambda x: st.integers(0, limit - 1).flatmap(
            lambda y: st.tuples(
                st.just(x),
                st.just(y),
                st.integers(0, limit - x),
                st.integers(0, limit - y),
            )
        )
    ).map(lambda t: Region(*map(float, t)))


def raster_overlap(a: Region, b: Region, limit=64) -> float:
    """Pixel-counting IoU for integer-coordinate regions."""
    ga = np.zeros((limit, limit), dtype=bool)
    gb = np.zeros((limit, limit), dtype=bool)
    ga[int(a.x):int(a.x + a.width), int(a.y):int(a.y + a.height)] = True
    gb[int(b.x):int(b.x + b.width), int(b.y):int(b.y + b.height)] = True
    union = int((ga | gb).sum())
    if union == 0:
        return 0.0
    return int((ga & gb).sum()) / union


finite_regions = st.builds(
    Region,
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(0, 1e3),
    st.floats(0, 1e3),
)


# Values in the range of finite_regions, subnormals included, so that
# the areas of a pair as drawn may underflow while those of the pair
# scaled by BIG overflow.
coarse = st.floats(-1e3, 1e3)
coarse_regions = st.builds(Region, coarse, coarse, coarse.map(abs), coarse.map(abs))
BIG = 2.0 ** 520


class TestOverlap:
    def test_half_shifted_boxes(self):
        assert overlap(Region(0, 0, 2, 2), Region(1, 0, 2, 2)) == pytest.approx(1 / 3)

    def test_identical_positive(self):
        assert overlap(Region(3.7, -2.1, 5.3, 4.9), Region(3.7, -2.1, 5.3, 4.9)) == 1.0

    def test_touching_boxes_zero(self):
        # Closed intervals: sharing an edge means zero intersection area.
        assert overlap(Region(0, 0, 2, 2), Region(2, 0, 2, 2)) == 0.0

    def test_disjoint(self):
        assert overlap(Region(0, 0, 1, 1), Region(5, 5, 1, 1)) == 0.0

    def test_contained(self):
        assert overlap(Region(0, 0, 4, 4), Region(1, 1, 2, 2)) == pytest.approx(0.25)

    def test_zero_union_convention(self):
        assert overlap(Region(1, 1, 0, 0), Region(1, 1, 0, 0)) == 0.0

    def test_zero_area_vs_positive(self):
        assert overlap(Region(5, 5, 10, 10), Region(7, 7, 0, 0)) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidRegionError):
            overlap(Region(0, 0, float("nan"), 1), Region(0, 0, 1, 1))
        with pytest.raises(InvalidRegionError):
            overlap(Region(0, 0, 1, 1), Region(0, 0, -1, 1))

    @given(finite_regions, finite_regions)
    def test_symmetry(self, a, b):
        assert overlap(a, b) == overlap(b, a)

    @given(finite_regions, finite_regions)
    # Areas overflow to inf, so the union is inf - inf = NaN.
    @example(Region(0.0, 0.0, 1e200, 1e200), Region(1.0, 0.0, 1e200, 1e200))
    def test_range(self, a, b):
        v = overlap(a, b)
        assert 0.0 <= v <= 1.0

    @given(coarse_regions, coarse_regions)
    # A quarter of a box, scaled until both areas overflow.
    @example(Region(0.0, 0.0, 4.0, 4.0), Region(1.0, 1.0, 2.0, 2.0))
    # An intersection area that underflows as drawn but not scaled.
    @example(Region(0.0, 0.0, 1.0, 1.43e-171), Region(0.0, 0.0, 1.43e-171, 1.0))
    def test_scaling_by_a_power_of_two_keeps_the_overlap(self, a, b):
        # A power-of-two scale is exact, so the ratio is the same even
        # when the areas underflow or overflow at one of the two scales.
        up = [Region(r.x * BIG, r.y * BIG, r.width * BIG, r.height * BIG) for r in (a, b)]
        assert overlap(*up) == overlap(a, b)

    @given(finite_regions)
    def test_self_overlap(self, r):
        expected = 1.0 if r.width > 0 and r.height > 0 else 0.0
        assert overlap(r, r) == expected

    @given(finite_regions, finite_regions)
    # A height below an ulp of y: (y+h)-y made the intersection larger
    # than either box, so the overlap read 1.0, not 2/3.
    @example(Region(0.0, 256.0, 2.0, 4.029699754383572e-14),
             Region(0.0, 256.0, 3.0, 4.029699754383572e-14))
    def test_bounded_by_the_area_ratio(self, a, b):
        # The intersection is no larger than the smaller box and the union
        # no smaller than the larger one.
        areas = sorted((a.width * a.height, b.width * b.height))
        if areas[0] >= sys.float_info.min:
            assert overlap(a, b) <= areas[0] / areas[1] * (1.0 + 1e-12)

    @given(finite_regions, finite_regions)
    @example(Region(0.0, 256.0, 2.0, 4.029699754383572e-14),
             Region(0.0, 256.0, 3.0, 4.029699754383572e-14))
    @example(Region(0.0, 0.0, 1e200, 1e200), Region(1.0, 0.0, 1e200, 1e200))
    def test_kernel_is_the_overlap_of_valid_boxes(self, a, b):
        # The scoring pass calls box_overlap on plain coordinates.
        assert box_overlap(*a, *b) == overlap(a, b)

    @given(grid_regions(), grid_regions())
    def test_rasterization_oracle(self, a, b):
        assert abs(overlap(a, b) - raster_overlap(a, b)) < 1e-12


class TestRegionHelpers:
    def test_center(self):
        assert region_center(Region(2, 4, 6, 8)) == Point(5.0, 8.0)

    def test_size_square(self):
        assert region_size(Region(0, 0, 10, 10)) == 10.0

    def test_size_geometric_mean(self):
        assert region_size(Region(0, 0, 4, 9)) == 6.0

    def test_size_degenerate(self):
        assert region_size(Region(0, 0, 0, 5)) == 0.0

    def test_validate_frame_number_in_error(self):
        with pytest.raises(InvalidRegionError) as exc:
            validate_region(Region(0, 0, 1, float("inf")), frame=7)
        assert "7" in str(exc.value)

    def test_region_coerces_to_float(self):
        r = Region(1, 2, 3, 4)
        assert isinstance(r.x, float) and isinstance(r.height, float)

    @given(finite_regions)
    def test_center_size_consistency(self, r):
        c = region_center(r)
        assert math.isclose(c.x, r.x + r.width / 2, rel_tol=0, abs_tol=1e-9)
        assert region_size(r) == pytest.approx(math.sqrt(r.width * r.height))


class TestValueSemantics:
    """What callers can see of Region and Point: a frozen named tuple of
    floats that equals only a value of its own class."""

    def test_repr(self):
        assert repr(Region(1, 2.5, 3, 4)) == "Region(x=1.0, y=2.5, width=3.0, height=4.0)"
        assert repr(Point(-0.0, 7)) == "Point(x=-0.0, y=7.0)"

    def test_equality_and_hash(self):
        a, b = Region(1, 2, 3, 4), Region(1.0, 2.0, 3.0, 4.0)
        assert a == b and hash(a) == hash(b)
        assert a != Region(1, 2, 3, 5)
        assert a != (1.0, 2.0, 3.0, 4.0) and (1.0, 2.0, 3.0, 4.0) != a
        assert not a == (1.0, 2.0, 3.0, 4.0) and not (1.0, 2.0, 3.0, 4.0) == a
        assert Point(1, 2) != (1.0, 2.0) and not Point(1, 2) == (1.0, 2.0)
        assert hash(a) == hash((1.0, 2.0, 3.0, 4.0))
        assert len({a, b, Region(0, 2, 3, 4)}) == 2
        assert Point(1, 2) == Point(1.0, 2.0) and hash(Point(1, 2)) == hash(Point(1.0, 2.0))
        assert Point(1, 2) != Point(2, 1)

    @pytest.mark.parametrize("value", [Region(1, 2, 3, 4), Point(1, 2)],
                             ids=["region", "point"])
    def test_fields_are_frozen(self, value):
        with pytest.raises(AttributeError):
            value.x = 9.0
        with pytest.raises(AttributeError):
            del value.y
        with pytest.raises(AttributeError):
            value.z = 9.0

    @pytest.mark.parametrize("raw", [3, True, np.float64(0.1), np.int64(-2), 2.5],
                             ids=["int", "bool", "float64", "int64", "float"])
    def test_arguments_are_stored_as_exact_float(self, raw):
        r = Region(raw, raw, raw, raw)
        p = Point(raw, raw)
        for v in (r.x, r.y, r.width, r.height, p.x, p.y):
            assert type(v) is float
            assert v.hex() == float(raw).hex()

    def test_keyword_and_positional_construction_agree(self):
        assert Region(x=1, y=2, width=3, height=4) == Region(1, 2, 3, 4)
        assert Region(1, 2, height=4, width=3) == Region(1, 2, 3, 4)
        assert Point(y=2, x=1) == Point(1, 2)
        with pytest.raises(TypeError):
            Region(1, 2, 3)
        with pytest.raises(TypeError):
            Point(1, 2, z=3)

    @pytest.mark.parametrize("value", [Region(0.1, -0.0, 3, 1e300), Point(0.1, -0.0)],
                             ids=["region", "point"])
    def test_pickle_round_trip(self, value):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(value, protocol))
            assert copy == value and type(copy) is type(value)
            assert [v.hex() for v in copy] == [v.hex() for v in value]

    def test_namedtuple_helpers(self):
        r = Region(1, 2, 3, 4)
        assert Region._fields == ("x", "y", "width", "height")
        assert Point._fields == ("x", "y")
        assert tuple(r) == (1.0, 2.0, 3.0, 4.0) and type(tuple(r)[0]) is float
        assert Point(1, 2)._asdict() == {"x": 1.0, "y": 2.0}
        moved = r._replace(width=7)
        assert moved == Region(1, 2, 7, 4) and type(moved) is Region
        assert type(moved.width) is float
        assert Point(1, 2)._replace(y=5) == Point(1, 5)
        made = Region._make([1, 2, 3, True])
        assert made == Region(1, 2, 3, 1) and type(made.height) is float
