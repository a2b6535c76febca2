import math

import pytest

from qlink.search import golden_section_maximize, illinois_maximize, illinois_root


def _root(f, slope, lo, hi, xatol):
    """``illinois_root``'s iterate, called as ``illinois_maximize``: it lies inside
    the bracket it returns, which lies inside [lo, hi]."""
    x, a, b = illinois_root(slope, lo, hi, xatol)
    assert lo <= a <= x <= b <= hi
    return x, None


# The Illinois cases run on the root search alone and on the maximizer around it.
ILLINOIS = pytest.mark.parametrize("illinois", [illinois_maximize, _root],
                                   ids=["maximize", "root"])


def test_finds_the_peak_of_a_parabola():
    x, fx = golden_section_maximize(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 1e-9)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)


def test_stops_when_the_tolerance_is_below_the_spacing_of_doubles():
    # Doubles near 1e12 are 1.2e-4 apart, so the bracket never narrows to
    # 1e-6; the search used to loop forever.
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        assert calls <= 100, "the search did not stop"
        return -(x - 1e12 - 0.3) ** 2

    x, _ = golden_section_maximize(f, 1e12, 1e12 + 1.0, 1e-6)
    assert x == pytest.approx(1e12 + 0.3, abs=1e-3)


@pytest.mark.parametrize("f, slope, lo, hi, peak", [
    (lambda x: -(x - 0.3) ** 2, lambda x: -2.0 * (x - 0.3), 0.0, 1.0, 0.3),
    (math.sin, math.cos, 0.0, 3.0, 0.5 * math.pi),
    (lambda x: -math.cosh(x - 2.5), lambda x: -math.sinh(x - 2.5), -3.0, 3.0, 2.5),
    # regula falsi without the Illinois halving keeps the far end for dozens of steps
    (lambda x: x * math.exp(-x), lambda x: (1.0 - x) * math.exp(-x), 0.0, 40.0, 1.0),
])
def test_illinois_finds_the_peak_in_few_calls(f, slope, lo, hi, peak):
    calls, slopes = [], []

    def counted(x):
        calls.append(x)
        return f(x)

    x, fx = illinois_maximize(counted, lambda x: slopes.append(x) or slope(x), lo, hi, 1e-10)
    assert x == pytest.approx(peak, abs=1e-7)
    assert fx == f(x)
    assert len(slopes) <= 15 and len(calls) == 3
    assert all(lo < c < hi for c in slopes)
    # the best of the root search's iterate and bracket ends
    assert x in illinois_root(slope, lo, hi, 1e-10)


@ILLINOIS
def test_illinois_walks_to_the_end_of_a_monotone_objective(illinois):
    x, _ = illinois(lambda x: x, lambda x: 1.0, -2.0, 2.0, 1e-10)
    assert 2.0 - 1e-7 < x <= 2.0


@ILLINOIS
def test_illinois_tolerance_is_relative_far_from_zero(illinois):
    # sqrt(eps)*|x| is 1.5e4 near 1e12, wider than the interval, so the
    # first slope already meets it
    slopes = []
    x, _ = illinois(lambda x: -(x - 1e12 - 0.3) ** 2,
                    lambda x: slopes.append(x) or -2.0 * (x - 1e12 - 0.3),
                    1e12, 1e12 + 1.0, 1e-12)
    assert 1e12 <= x <= 1e12 + 1.0
    assert len(slopes) == 1


@ILLINOIS
def test_illinois_refuses_an_empty_interval(illinois):
    with pytest.raises(ValueError, match="empty search interval"):
        illinois(lambda x: x, lambda x: 1.0, 1.0, 0.0, 1e-10)


@pytest.mark.parametrize("xatol", [0.0, -1e-10, math.nan])
@ILLINOIS
def test_illinois_refuses_a_tolerance_that_never_stops(illinois, xatol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        illinois(lambda x: x, lambda x: 1.0, 0.0, 1.0, xatol)


@pytest.mark.parametrize("slope_value", [0.0, math.nan])
@ILLINOIS
def test_illinois_stops_at_a_zero_or_nan_slope(illinois, slope_value):
    slopes = []
    x, _ = illinois(lambda x: -x * x, lambda x: slopes.append(x) or slope_value,
                    -1.0, 1.0, 1e-10)
    assert x == 0.0 and slopes == [0.0]


@ILLINOIS
def test_illinois_steps_from_the_end_of_smaller_slope(illinois):
    # The slope at the first iterate, 0, is 1e-20 of that at the next: a chord
    # stepped from the far end rounds back onto 0, which leaves the root to
    # bisection, 35 calls.
    slopes = []
    x, _ = illinois(lambda x: 1e-30 * x - 0.5e-10 * x * x,
                    lambda x: slopes.append(x) or 1e-30 - 1e-10 * x, -1.0, 1.0, 1e-10)
    assert abs(x - 1e-20) < 1e-10
    assert len(slopes) <= 4
