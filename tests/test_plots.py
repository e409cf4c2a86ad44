import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from trackbench.errors import EmptySeriesError
from trackbench.plots import (
    ar_plot,
    center_error_plot,
    fragmentation_timeline,
    overlap_plot,
    survival_curve,
    threshold_plot,
)

ALLOWED_TAGS = {
    "svg", "g", "title", "desc", "rect", "line",
    "polyline", "polygon", "circle", "path", "text",
}


def tags(svg_text):
    root = ET.fromstring(svg_text)
    return [el.tag.split("}")[-1] for el in root.iter()]


def elements(svg_text, tag):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.tag.split("}")[-1] == tag]


def data_polylines(svg_text):
    return [
        el for el in elements(svg_text, "polyline")
        if el.get("class") == "data"
    ]


def sample_plots():
    errors = {"a": [1.0, 2.0, 50.0, 3.0], "b": [0.5, 0.6, 0.7, 0.8]}
    phis = {"a": [0.9, 0.8, None, 0.7], "b": [0.5, 0.5, 0.5, 0.5]}
    raw = {"a": [0.9, 0.8, 0.2, 0.7], "b": [0.5, 0.5, 0.5, 0.5]}
    pts = {"a": (0.8, 0.9), "b": (0.5, 0.4)}
    refs = {"tta": (0.05, 1.0), "tts": (0.9, 0.2), "ttf": (1.0, 0.05), "tto": (1.0, 1.0)}
    fails = {"a": [50, 60], "b": [10]}
    scores = {"a": [0.9, 0.5, 0.7], "b": [0.4, 0.6]}
    return {
        "center_error": center_error_plot(errors),
        "overlap": overlap_plot(phis),
        "threshold": threshold_plot(raw),
        "ar": ar_plot(pts, refs),
        "fragmentation": fragmentation_timeline(fails, 100),
        "survival": survival_curve(scores),
    }


# SHA-256 of each sample_plots() document: a renderer change that moves
# any byte, even in styling or number formatting, fails here.
GOLDEN_SHA256 = {
    "center_error": "683c243df288d92231f637111b63832b692064064230b1c193b7362a51471fd6",
    "overlap": "afeb00e7aaae694f96d6004271deb038aaf0a72eb5d25cef338f50c5f6b52535",
    "threshold": "e9e706092f64f3df5b393e8e90362e7df9d7064bcf2319f2b523e83d0a91e1d1",
    "ar": "fb487653cc60557a4a21693cbf06c6ae60b09c7a15086935abdb94fb977672f9",
    "fragmentation": "cdb4d0e8cfb64d4969f463c15ee854af3fcabe525976a2b4457f86e79b2e4a12",
    "survival": "d058a20732bdc6a3d5f84dc698584a3b1735ee872515a27bf53955ec3e369c86",
}


class TestDocumentShape:
    @pytest.mark.parametrize("kind", list(GOLDEN_SHA256))
    def test_bytes_match_golden_digest(self, kind):
        svg = sample_plots()[kind]
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == GOLDEN_SHA256[kind]

    @pytest.mark.parametrize("kind", list(sample_plots()))
    def test_well_formed_xml_with_whitelisted_tags(self, kind):
        svg = sample_plots()[kind]
        assert svg.startswith('<?xml version="1.0"')
        got = tags(svg)
        assert got[0] == "svg"
        assert set(got) <= ALLOWED_TAGS

    def test_markup_in_names_and_titles_is_escaped(self):
        name = 'a<b> & "c"'
        svg = overlap_plot({name: [0.5, 0.6]})
        texts = [el.text for el in elements(svg, "text") + elements(svg, "title")]
        assert name in texts and "Overlap" in texts
        assert "a&lt;b&gt; &amp; \"c\"" in svg

    def test_re_render_is_byte_identical(self):
        first = sample_plots()
        second = sample_plots()
        for kind in first:
            assert first[kind] == second[kind]

    @pytest.mark.parametrize("kind", list(sample_plots()))
    def test_viewbox_matches_size(self, kind):
        root = ET.fromstring(sample_plots()[kind])
        vb = root.get("viewBox").split()
        assert vb[:2] == ["0", "0"]
        assert vb[2] == root.get("width") and vb[3] == root.get("height")


class TestCenterErrorPlot:
    def test_cap_is_recorded_in_a_comment(self):
        svg = center_error_plot({"a": [1.0, 2.0, 500.0]}, cap=10.0)
        assert "capped 1 of 3 points at 10.0" in svg

    def test_capped_points_stay_on_the_canvas(self):
        svg = center_error_plot({"a": [1.0, 2.0, 500.0]}, cap=10.0)
        ys = [
            float(pair.split(",")[1])
            for el in data_polylines(svg)
            for pair in el.get("points").split()
        ]
        root = ET.fromstring(svg)
        assert all(0.0 <= y <= float(root.get("height")) for y in ys)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptySeriesError):
            center_error_plot({})
        with pytest.raises(EmptySeriesError):
            center_error_plot({"a": [None, None]})


class TestOverlapPlot:
    def test_gaps_split_the_polyline(self):
        whole = overlap_plot({"a": [0.9, 0.8, 0.7, 0.6]})
        broken = overlap_plot({"a": [0.9, 0.8, None, 0.6]})
        assert len(data_polylines(whole)) == 1
        # the run after the gap is a single point, drawn as a circle
        assert len(data_polylines(broken)) == 1
        assert len([e for e in elements(broken, "circle") if e.get("class") == "data"]) == 1
        assert "1 gap frames not drawn" in broken

    def test_empty_input_rejected(self):
        with pytest.raises(EmptySeriesError):
            overlap_plot({})


class TestThresholdPlot:
    def test_curves_never_increase(self):
        svg = threshold_plot({"a": [0.2, 0.6, 0.6, 0.9], "b": [0.5] * 5})
        lines = data_polylines(svg)
        assert len(lines) == 2
        for el in lines:
            pts = [tuple(map(float, p.split(","))) for p in el.get("points").split()]
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                assert x1 >= x0 - 1e-9
                # svg y grows downward, so the fraction dropping means y grows
                assert y1 >= y0 - 1e-9

    def test_empty_input_rejected(self):
        with pytest.raises(EmptySeriesError):
            threshold_plot({})


class TestArPlot:
    def test_reference_shapes_and_labels(self):
        svg = sample_plots()["ar"]
        assert "square: always whole frame" in svg
        assert "triangle: never moves" in svg
        assert "diamond: fails every other frame" in svg
        assert "cross: perfect center, fixed size" in svg
        refs = [
            el for el in ET.fromstring(svg).iter()
            if el.get("class") == "ref"
        ]
        assert len(refs) == 4

    def test_reference_points_optional(self):
        svg = ar_plot({"a": (0.8, 0.9)})
        assert "class=\"ref\"" not in svg

    def test_empty_input_rejected(self):
        with pytest.raises(EmptySeriesError):
            ar_plot({})

    def test_points_with_an_undefined_coordinate_are_noted_not_drawn(self):
        svg = ar_plot({"a": (math.nan, 0.5), "b": (0.5, 0.5)},
                      {"tta": (math.nan, 1.0), "ttf": (1.0, 0.2)})
        assert "<!-- a: accuracy nan, reliability 0.5: point not drawn -->" in svg
        assert "<!-- tta: accuracy nan, reliability 1.0: point not drawn -->" in svg
        elements = list(ET.fromstring(svg).iter())
        assert not [v for el in elements for v in el.attrib.values() if "nan" in v]
        assert len([el for el in elements if el.get("class") == "ref"]) == 1
        assert len([el for el in elements if el.tag.endswith("circle")]) == 1
        assert "square: always whole frame" in svg


class TestFragmentationTimeline:
    def test_scores_and_undefined_marker(self):
        svg = fragmentation_timeline({"a": [50, 60], "b": [10]}, 100)
        assert "a (0.47)" in svg
        assert "b (n/a)" in svg

    def test_marker_per_failure(self):
        svg = fragmentation_timeline({"a": [10, 20, 30]}, 100)
        dots = [e for e in elements(svg, "circle") if e.get("class") == "data"]
        assert len(dots) == 3

    def test_empty_input_rejected(self):
        with pytest.raises(EmptySeriesError):
            fragmentation_timeline({}, 100)


class TestSurvivalCurve:
    def test_scores_sorted_best_first(self):
        svg = survival_curve({"a": [0.2, 0.9, 0.5]})
        (line,) = data_polylines(svg)
        pts = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
        ys = [y for _, y in pts]
        assert ys == sorted(ys)  # svg y grows downward: descending scores

    def test_empty_input_rejected(self):
        with pytest.raises(EmptySeriesError):
            survival_curve({})
        with pytest.raises(EmptySeriesError):
            survival_curve({"a": []})
