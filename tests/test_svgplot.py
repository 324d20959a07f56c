import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casnuc.errors import DomainError, NumericalError
from casnuc.svgplot import _tick_positions, render_line_chart

from _oracles import polylines_per_vertex

XS = [1.0, 2.0, 3.0]
SERIES = [
    ("alpha", XS, [-3.4, -1.1, -0.4]),
    ("beta", XS, [-0.4, -0.2, -0.1]),
]
# a 40k-vertex grid over a range that does not start at zero
BIG_XS = [0.1 + i * (100.0 - 0.1) / 39_999 for i in range(40_000)]
BIG_YS = [-math.exp(-x) / x for x in BIG_XS]
# 544 x 8 + 1 and 352 x 8 + 1 evenly spaced values put vertices on eighths of
# a pixel in the 544 x 352 plot area: exact ties of the 2-decimal format, where
# a pixel map evaluated in another operation order prints differently
TIE_XS = [i * 1.1 for i in range(4353)]
TIE_YS = [(i % 2817) * 0.04 for i in range(4353)]


def test_deterministic_output():
    a = render_line_chart(SERIES, "L [fm]", "F [MeV]")
    b = render_line_chart(SERIES, "L [fm]", "F [MeV]")
    assert a == b
    assert a.startswith("<svg")
    assert a.endswith("</svg>\n")


def test_one_polyline_per_series():
    doc = render_line_chart(SERIES, "x", "y")
    assert doc.count("<polyline") == len(SERIES)


def test_legend_labels_escaped():
    doc = render_line_chart([("a<&>b", XS, [1.0, 2.0, 3.0])], "x", "y")
    assert "a&lt;&amp;&gt;b" in doc
    assert "a<&>b" not in doc


def test_axis_labels_and_title_present():
    doc = render_line_chart(SERIES, "sep [fm]", "energy [MeV]", title="per pair")
    assert "sep [fm]" in doc
    assert "energy [MeV]" in doc
    assert "per pair" in doc


def test_constant_series_renders_flat_line():
    # a degenerate y-range must expand rather than divide by zero
    doc = render_line_chart([("flat", XS, [2.0, 2.0, 2.0])], "x", "y")
    start = doc.index("<polyline")
    points_attr = doc[start:].split('points="', 1)[1].split('"', 1)[0]
    ys = {pair.split(",")[1] for pair in points_attr.split()}
    assert len(ys) == 1


def test_constant_abscissa_renders():
    # a degenerate x-range expands like a degenerate y-range
    doc = render_line_chart([("point", [2.0, 2.0], [1.0, 3.0])], "x", "y")
    start = doc.index("<polyline")
    points_attr = doc[start:].split('points="', 1)[1].split('"', 1)[0]
    xs = {pair.split(",")[0] for pair in points_attr.split()}
    assert len(xs) == 1
    assert doc.endswith("</svg>\n")


def test_validation_errors():
    with pytest.raises(DomainError):
        render_line_chart([], "x", "y")
    with pytest.raises(DomainError):
        render_line_chart([("s", [1.0], [2.0])], "x", "y")
    with pytest.raises(DomainError):
        render_line_chart([("s", [1.0, 2.0], [3.0])], "x", "y")


@pytest.mark.parametrize(
    "series",
    [
        [("one", XS, [-3.4, -1.1, -0.4])],
        SERIES,
        SERIES + [("gamma", [0.5, 1.7, 2.9, 3.3], [0.25, -7.0, 1e-3, 2.0])],
        [("flat", XS, [2.0, 2.0, 2.0])],
        [("point", [2.0, 2.0], [1.0, 3.0])],
        [("s", [1.0, 1.0000000000000002], [-3.3, -3.3000000000000003])],
        [("big", BIG_XS, BIG_YS), ("half", BIG_XS, [0.5 * y for y in BIG_YS])],
        [("ties", TIE_XS, TIE_YS)],
        # equal abscissae in lists of their own, and one list shared by two of three
        [("big", BIG_XS, BIG_YS), ("copy", list(BIG_XS), [0.5 * y for y in BIG_YS])],
        [("ties", TIE_XS, TIE_YS), ("own", TIE_XS[::-1], TIE_YS),
         ("shared", TIE_XS, TIE_YS[::-1])],
    ],
    ids=["1-series", "2-series", "3-series", "constant", "constant-x", "sub-ulp", "40k",
         "ties", "40k-own-lists", "ties-shared-and-own"],
)
def test_matches_the_per_vertex_writer(series):
    doc = render_line_chart(series, "x", "y", title="t")
    assert doc == polylines_per_vertex(doc, series)


finite = st.floats(min_value=-1e6, max_value=1e6)


@given(data=st.data(), n_series=st.integers(1, 6), points=st.integers(2, 40))
def test_shared_and_own_abscissae_match_the_per_vertex_writer(data, n_series, points):
    # each series takes an earlier series' xs list itself, or a list of its own
    series = []
    for i in range(n_series):
        ys = data.draw(st.lists(finite, min_size=points, max_size=points))
        if series and data.draw(st.booleans()):
            xs = series[data.draw(st.integers(0, len(series) - 1))][1]
        else:
            xs = data.draw(st.lists(finite, min_size=points, max_size=points))
        series.append((f"s{i}", xs, ys))
    doc = render_line_chart(series, "x", "y")
    assert doc == polylines_per_vertex(doc, series)


def test_non_finite_rejected():
    # the message names the first non-finite value: series in order, and in
    # each series its x values before its y values
    cases = [
        ([("s", XS, [1.0, math.nan, 2.0])], "nan", "s"),
        ([("s", XS, [1.0, math.inf, 2.0])], "inf", "s"),
        ([("s", XS, [-math.inf, math.nan, 2.0])], "-inf", "s"),
        ([("s", [1.0, math.nan, 3.0], [math.inf, 1.0, 2.0])], "nan", "s"),
        ([("clean", XS, [1.0, 2.0, 3.0]), ("bad", XS, [1.0, -math.inf, math.nan]),
          ("worse", [math.nan, 2.0, 3.0], XS)], "-inf", "bad"),
    ]
    for series, value, label in cases:
        with pytest.raises(NumericalError) as info:
            render_line_chart(series, "x", "y")
        assert str(info.value) == f"series {label!r}: non-finite value {value}"


def test_sub_ulp_span_terminates():
    # the tick step is below one ulp of 1.0, so stepping cannot advance
    ticks = _tick_positions(1.0, 1.0000000000000002)
    assert len(ticks) <= 2
    assert all(1.0 <= t <= 1.0000000000000002 for t in ticks)
    doc = render_line_chart([("s", [1.0, 1.0000000000000002], [-3.3, -3.3000000000000003])],
                            "x", "y")
    assert doc.endswith("</svg>\n")


def test_exact_decade_span():
    # span/5 is a power of ten, so the step is that power itself
    assert _tick_positions(0.0, 5.0) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    ticks = _tick_positions(-0.005, 0.0)
    assert len(ticks) == 6
    assert ticks[0] == -0.005 and ticks[-1] == 0.0
    assert ticks == pytest.approx([-0.005, -0.004, -0.003, -0.002, -0.001, 0.0], abs=1e-15)
