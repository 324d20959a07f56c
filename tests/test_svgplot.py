import math

import pytest

from casnuc.errors import DomainError, NumericalError
from casnuc.svgplot import _tick_positions, render_line_chart

XS = [1.0, 2.0, 3.0]
SERIES = [
    ("alpha", XS, [-3.4, -1.1, -0.4]),
    ("beta", XS, [-0.4, -0.2, -0.1]),
]


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


def test_non_finite_rejected():
    with pytest.raises(NumericalError):
        render_line_chart([("s", XS, [1.0, math.nan, 2.0])], "x", "y")
    with pytest.raises(NumericalError):
        render_line_chart([("s", XS, [1.0, math.inf, 2.0])], "x", "y")


def test_sub_ulp_span_terminates():
    # the tick step is below one ulp of 1.0, so stepping cannot advance
    ticks = _tick_positions(1.0, 1.0000000000000002)
    assert len(ticks) <= 2
    assert all(1.0 <= t <= 1.0000000000000002 for t in ticks)
    doc = render_line_chart([("s", [1.0, 1.0000000000000002], [-3.3, -3.3000000000000003])],
                            "x", "y")
    assert doc.endswith("</svg>\n")
