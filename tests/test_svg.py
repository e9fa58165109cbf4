"""SVG rendering: determinism, structure, escaping. Charts must parse as XML."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, strategies as st

from sleeplog.svg import _escape, _fmt, render_grouped_bars, render_heatmap, render_histogram

SVG_NS = "{http://www.w3.org/2000/svg}"


def rects(svg: str):
    return ET.fromstring(svg).iter(f"{SVG_NS}rect")


class TestFloatFormat:
    def test_two_decimals_always(self):
        assert _fmt(1.0) == "1.00"
        assert _fmt(2.345) == "2.35"  # round-half-even is fine, but stable
        assert _fmt(100) == "100.00"

    def test_negative_zero_normalized(self):
        assert _fmt(-0.0001) == "0.00"
        assert _fmt(-0.0) == "0.00"


@given(st.text(st.one_of(st.sampled_from("&<>\"'"), st.characters())))
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)


class TestHistogram:
    def test_deterministic(self):
        args = ([1.0, 4.0, 2.0], ["a", "b", "c"], "counts")
        assert render_histogram(*args) == render_histogram(*args)

    def test_parses_and_has_one_bar_per_value(self):
        svg = render_histogram([1.0, 4.0, 2.0], ["a", "b", "c"], "counts")
        # background + 3 bars
        assert len(list(rects(svg))) == 4

    def test_bar_heights_scale_with_values(self):
        svg = render_histogram([1.0, 2.0], ["a", "b"], "t")
        bars = [r for r in rects(svg) if r.get("fill") != "#ffffff"]
        heights = [float(r.get("height")) for r in bars]
        assert heights[1] == pytest.approx(2 * heights[0], abs=0.02)

    def test_title_escaped(self):
        svg = render_histogram([1.0], ["a"], "a < b & c")
        assert "a &lt; b &amp; c" in svg
        ET.fromstring(svg)

    def test_misaligned_lengths_raise(self):
        with pytest.raises(ValueError):
            render_histogram([1.0, 2.0], ["only-one"], "t")

    def test_empty_is_valid_svg(self):
        ET.fromstring(render_histogram([], [], "empty"))

    def test_all_zero_values(self):
        svg = render_histogram([0.0, 0.0], ["a", "b"], "zeros")
        ET.fromstring(svg)
        assert "NaN" not in svg and "inf" not in svg


class TestHeatmap:
    def matrix(self):
        return [[float(r * c) for c in range(24)] for r in range(7)]

    def test_cell_count(self):
        svg = render_heatmap(self.matrix(), [f"r{i}" for i in range(7)],
                             [f"c{i}" for i in range(24)], "week")
        cells = [r for r in rects(svg) if r.get("fill-opacity") is not None]
        assert len(cells) == 7 * 24

    def test_opacity_spans_zero_to_one(self):
        svg = render_heatmap([[0.0, 5.0], [2.5, 5.0]], ["a", "b"], ["x", "y"], "t")
        opacities = sorted(float(r.get("fill-opacity")) for r in rects(svg)
                           if r.get("fill-opacity") is not None)
        assert opacities[0] == 0.0
        assert opacities[-1] == 1.0
        assert 0.5 in opacities

    def test_deterministic(self):
        args = (self.matrix(), [f"r{i}" for i in range(7)],
                [f"c{i}" for i in range(24)], "week")
        assert render_heatmap(*args) == render_heatmap(*args)

    def test_row_label_mismatch_raises(self):
        with pytest.raises(ValueError):
            render_heatmap([[1.0]], ["a", "b"], ["x"], "t")

    def test_col_label_mismatch_raises(self):
        with pytest.raises(ValueError):
            render_heatmap([[1.0, 2.0]], ["a"], ["x"], "t")

    def test_all_zero_matrix(self):
        svg = render_heatmap([[0.0, 0.0]], ["a"], ["x", "y"], "t")
        ET.fromstring(svg)
        assert "NaN" not in svg


class TestGroupedBars:
    def series(self):
        return {"fall asleep": [3.0, 1.0], "wake up": [0.5, 4.0]}

    def test_bar_count_and_legend(self):
        svg = render_grouped_bars(["22h", "06h"], self.series(), "clock")
        bars = [r for r in rects(svg) if r.get("fill") != "#ffffff"]
        # 2 groups x 2 series + 2 legend swatches
        assert len(bars) == 6
        assert "fall asleep" in svg and "wake up" in svg

    def test_series_colors_differ(self):
        svg = render_grouped_bars(["a"], {"s1": [1.0], "s2": [2.0]}, "t")
        bars = [r for r in rects(svg) if r.get("fill") != "#ffffff"]
        fills = {r.get("fill") for r in bars}
        assert len(fills) == 2

    def test_deterministic(self):
        a = render_grouped_bars(["x", "y"], self.series(), "t")
        b = render_grouped_bars(["x", "y"], self.series(), "t")
        assert a == b

    def test_misaligned_series_raises(self):
        with pytest.raises(ValueError):
            render_grouped_bars(["a", "b"], {"s": [1.0]}, "t")

    def test_parses_as_xml(self):
        ET.fromstring(render_grouped_bars(["a", "b"], self.series(), "t"))


class TestStability:
    def test_no_floats_beyond_two_decimals(self):
        svg = render_histogram([1 / 3, 2 / 7, 5 / 11], ["a", "b", "c"], "fractions")
        import re
        for num in re.findall(r"\d+\.\d+", svg):
            assert len(num.split(".")[1]) == 2, num
