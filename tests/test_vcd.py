"""Tests for the text figure helpers of the report (bar charts and the
Fig. 3 / Fig. 7 style figures)."""

from repro.eval import bar_chart, composition_figure, histogram_figure


class TestFigureHelpers:
    def test_bar_chart_scales_to_peak(self):
        text = bar_chart({"a": 0.9, "b": 0.45}, width=20)
        lines = text.split("\n")
        assert lines[0].count("#") == 20
        assert 8 <= lines[1].count("#") <= 12

    def test_bar_chart_empty(self):
        assert bar_chart({}, title="t") == "t"

    def test_composition_figure(self):
        text = composition_figure(
            {"pass": 0.3, "syntax": 0.4, "sim": 0.3},
            {"pass": 0.6, "syntax": 0.05, "sim": 0.35},
            "human",
        )
        assert "before fixing" in text and "after fixing" in text

    def test_histogram_figure(self):
        text = histogram_figure({1: 90, 2: 10})
        assert "1 iter" in text and "90.0%" in text
