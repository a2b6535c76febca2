import math

import pytest

from qlink.search import golden_section_maximize, illinois_root


def _root(f, slope, lo, hi, xatol):
    """``illinois_root``'s iterate, called with an objective ``f`` that it never
    scores: it lies inside the bracket it returns, which lies inside [lo, hi]."""
    x, a, b = illinois_root(slope, lo, hi, xatol)
    assert lo <= a <= x <= b <= hi
    return x, None


# The Illinois cases run on the root search; the Gordon-Holevo search's scoring
# of its iterate and bracket ends is tested in test_capacity.py
# (TestGhCurveSearch::test_curve_optimum_is_the_first_best_of_three_scorings).
ILLINOIS = pytest.mark.parametrize("illinois", [_root], ids=["root"])


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


def _counted(f):
    """``f`` with the points it is called at appended to the returned list."""
    calls = []
    return (lambda x: calls.append(x) or f(x)), calls


def test_an_incumbent_that_no_neighbour_beats_is_returned_after_two_calls():
    f, calls = _counted(lambda x: -(x - 0.3) ** 2)
    assert golden_section_maximize(f, 0.0, 1.0, 1e-3, (0.3, 0.0)) == (0.3, 0.0)
    assert calls == [0.3 - 1e-3, 0.3 + 1e-3]


@pytest.mark.parametrize("x0, probe", [
    (0.1, [0.1 - 1e-3, 0.1 + 1e-3]),  # the right neighbour beats it
    (0.295, [0.295 - 1e-3, 0.295 + 1e-3]),
    (0.31, [0.31 - 1e-3]),  # the left one does, and the right one is not scored
    (0.9, [0.9 - 1e-3]),
])
def test_an_incumbent_that_a_neighbour_beats_gives_the_full_search(x0, probe):
    # after the probe, the search runs as without an incumbent, bit for bit
    f, calls = _counted(lambda x: -(x - 0.3) ** 2)
    g, plain_calls = _counted(lambda x: -(x - 0.3) ** 2)
    plain = golden_section_maximize(g, 0.0, 1.0, 1e-3)
    assert golden_section_maximize(f, 0.0, 1.0, 1e-3, (x0, -(x0 - 0.3) ** 2)) == plain
    assert calls == probe + plain_calls


def test_the_neighbours_of_an_incumbent_on_an_end_are_clipped_to_the_bracket():
    # a rising objective peaks on hi, as a gain on its ceiling does
    f, calls = _counted(lambda x: x)
    assert golden_section_maximize(f, 1.0, 2.0, 1e-3, (2.0, 2.0)) == (2.0, 2.0)
    assert calls == [2.0 - 1e-3, 2.0]
    f, calls = _counted(lambda x: -x)
    assert golden_section_maximize(f, 1.0, 2.0, 1e-3, (1.0, -1.0)) == (1.0, -1.0)
    assert calls == [1.0, 1.0 + 1e-3]
    # a bracket narrower than tol: both neighbours are its ends
    f, calls = _counted(lambda x: -(x - 1.5) ** 2)
    assert golden_section_maximize(f, 1.4999, 1.5001, 1e-3, (1.5, 0.0)) == (1.5, 0.0)
    assert calls == [1.4999, 1.5001]


@pytest.mark.parametrize("x0", [-0.5, 1.5, math.nan])
def test_an_incumbent_outside_the_bracket_is_ignored(x0):
    # its neighbours say nothing about the peak in [lo, hi]: no probe, and the
    # search runs as without an incumbent, even one scored above every point
    f, calls = _counted(lambda x: -(x - 0.3) ** 2)
    g, plain_calls = _counted(lambda x: -(x - 0.3) ** 2)
    plain = golden_section_maximize(g, 0.0, 1.0, 1e-3)
    assert golden_section_maximize(f, 0.0, 1.0, 1e-3, (x0, 1.0)) == plain
    assert calls == plain_calls


def test_a_nan_neighbour_gives_the_full_search():
    def nan_left(x):
        return math.nan if x < 0.3 else -(x - 0.3) ** 2

    f, calls = _counted(nan_left)
    g, plain_calls = _counted(nan_left)
    plain = golden_section_maximize(g, 0.0, 1.0, 1e-3)
    assert golden_section_maximize(f, 0.0, 1.0, 1e-3, (0.3, 0.0)) == plain
    assert calls == [0.3 - 1e-3] + plain_calls


@pytest.mark.parametrize("f, slope, lo, hi, peak", [
    (lambda x: -(x - 0.3) ** 2, lambda x: -2.0 * (x - 0.3), 0.0, 1.0, 0.3),
    (math.sin, math.cos, 0.0, 3.0, 0.5 * math.pi),
    (lambda x: -math.cosh(x - 2.5), lambda x: -math.sinh(x - 2.5), -3.0, 3.0, 2.5),
    # regula falsi without the Illinois halving keeps the far end for dozens of steps
    (lambda x: x * math.exp(-x), lambda x: (1.0 - x) * math.exp(-x), 0.0, 40.0, 1.0),
])
def test_illinois_finds_the_peak_in_few_calls(f, slope, lo, hi, peak):
    slopes = []
    x, a, b = illinois_root(lambda x: slopes.append(x) or slope(x), lo, hi, 1e-10)
    # the peak lies in the bracket, and the iterate within the tolerance of it
    assert a <= peak <= b and x == pytest.approx(peak, abs=1e-7)
    assert max(f(x), f(a), f(b)) == pytest.approx(f(peak), abs=1e-12)
    assert len(slopes) <= 15
    assert all(lo < c < hi for c in slopes)


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
