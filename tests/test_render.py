"""Arc-diagram tests. The text renderer is checked against the character
grid it replaced, kept here as the reference: a pairwise "below" relation
between arcs, heights taken in an order where every arc below another comes
first, and a grid of one-character cells painted arc by arc.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from matchbij import (
    all_matchings,
    edges,
    from_pairs,
    render,
    render_svg,
    render_text,
)
from test_classifier import matchings
from test_swap_walk import ladder


def reference_render_text(m, labels=False):
    es = edges(m)
    # An arc sits above every arc nested in it and every arc crossing it
    # from the left. All of those close before it, so visiting arcs by
    # right endpoint sees each one after everything below it.
    heights = {}
    for e in sorted(es, key=lambda e: e.right):
        heights[e] = 1 + max((heights[f] for f in es if f is not e and (
            e.left < f.left and f.right < e.right
            or f.left < e.left < f.right < e.right)), default=0)
    top = max(heights.values())
    width = 2 * (2 * m.n - 1) + 1
    grid = [[" "] * width for _ in range(top + 1)]  # row 0 is the baseline
    for v in range(2 * m.n):
        grid[0][2 * v] = "*"
    for e in sorted(es, key=lambda e: heights[e]):
        h = heights[e]
        lc, rc = 2 * e.left, 2 * e.right
        grid[h][lc] = grid[h][rc] = "."
        for c in range(lc + 1, rc):
            grid[h][c] = "-"
        for row in range(1, h):
            grid[row][lc] = grid[row][rc] = "|"
    if labels:
        for e in es:
            text = str(e.label)
            mid = e.left + e.right - (len(text) - 1) // 2
            row = grid[heights[e]]
            row.extend(" " * (mid + len(text) - len(row)))  # runs past the last column
            row[mid:mid + len(text)] = text
    return "".join("".join(row).rstrip() + "\n" for row in reversed(grid))


class TestTextRender:
    def test_hairpin_golden(self, hairpin):
        assert render_text(hairpin) == (
            "  .---.\n"
            ".-|-. |\n"
            "* * * *\n"
        )

    def test_hairpin_with_labels(self, hairpin):
        assert render_text(hairpin, labels=True) == (
            "  .-2-.\n"
            ".-1-. |\n"
            "* * * *\n"
        )

    def test_single_edge(self):
        assert render_text(from_pairs([(0, 1)], 1)) == ".-.\n* *\n"

    def test_nested_stack_heights(self):
        art = render_text(from_pairs([(0, 3), (1, 2)], 2))
        assert art == (
            ".-----.\n"
            "| .-. |\n"
            "* * * *\n"
        )

    def test_vertex_count(self, lp_example):
        baseline = render_text(lp_example).splitlines()[-1]
        assert baseline.count("*") == 14

    def test_deterministic_and_total(self):
        for m in all_matchings(4):
            once, twice = render_text(m), render_text(m)
            assert once == twice
            assert once.splitlines()[-1].count("*") == 8


class TestSvgRender:
    def test_element_counts(self, lp_example):
        svg = render_svg(lp_example)
        assert svg.count("<circle") == 14
        assert svg.count("<path") == 7
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_labels_add_text_elements(self, lp_example):
        assert render_svg(lp_example, labels=True).count("<text") == 7
        assert render_svg(lp_example).count("<text") == 0

    def test_deterministic(self, lp_example):
        assert render_svg(lp_example) == render_svg(lp_example)

    def test_width_hint_scales(self, hairpin):
        svg = render_svg(hairpin, width=700)
        assert 'width="700"' in svg

    @pytest.mark.parametrize("setting,value", [
        ("width", -50), ("width", 0), ("height", 0), ("height", -1)])
    def test_size_below_one_rejected(self, hairpin, setting, value):
        with pytest.raises(ValueError,
                           match=f"^{setting} must be a positive integer, got {value}$"):
            render_svg(hairpin, **{setting: value})

    def test_label_coordinate_past_float_range_rejected(self, hairpin):
        width = 17 * 10 ** 307
        with pytest.raises(ValueError, match="^width is too large to draw with labels"):
            render_svg(hairpin, labels=True, width=width)
        assert "inf" not in render_svg(hairpin, width=width)


class TestAgainstGridReference:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive(self, n):
        for m in all_matchings(n):
            assert render_text(m) == reference_render_text(m)
            assert render_text(m, labels=True) == reference_render_text(m, labels=True)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(matchings(max_edges=200), st.booleans())
    def test_random_matchings(self, m, labels):
        assert render_text(m, labels) == reference_render_text(m, labels)

    def test_ladder_deeper_than_the_recursion_limit(self):
        m = ladder(1200)
        art = render_text(m)
        assert art.count("\n") == 1201
        assert art == reference_render_text(m)

    def test_all_crossing(self):
        # Arc i crosses every arc to its left, so it stands at height i + 1.
        n = 1200
        m = from_pairs([(i, n + i) for i in range(n)], n)
        art = render_text(m)
        assert art.count("\n") == n + 1
        assert art == reference_render_text(m)

    @pytest.mark.parametrize("labels", [False, True])
    @pytest.mark.parametrize("m", [
        ladder(300), from_pairs([(i, 300 + i) for i in range(300)], 300)],
        ids=["ladder", "all-crossing"])
    def test_long_runs_over_many_legs(self, m, labels):
        assert render_text(m, labels) == reference_render_text(m, labels)

    def test_wide_last_label_runs_past_the_last_column(self):
        # Label 1000 sits on the last two positions and needs 4 columns.
        n = 1000
        m = from_pairs([(2 * i, 2 * i + 1) for i in range(n)], n)
        art = render_text(m, labels=True)
        assert art == reference_render_text(m, labels=True)
        label_row, baseline = art.splitlines()
        assert label_row.endswith(" 999 1000") and len(label_row) == len(baseline) + 1
        assert render_text(m) == reference_render_text(m)


class TestRenderDispatch:
    def test_spec_routes_formats(self, hairpin):
        assert "".join(render(hairpin, format="text")) == render_text(hairpin)
        assert "".join(render(hairpin, format="svg")) == render_svg(hairpin)

    def test_text_comes_line_by_line(self, lp_example):
        assert list(render(lp_example, labels=True)) == render_text(
            lp_example, labels=True).splitlines(keepends=True)

    def test_unknown_format(self, hairpin):
        with pytest.raises(ValueError, match="unknown render format"):
            "".join(render(hairpin, format="png"))

    def test_default_is_text(self, hairpin):
        assert "".join(render(hairpin)) == render_text(hairpin)
