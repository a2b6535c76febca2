import math

import pytest

from qlink.search import brent_maximize, golden_section_maximize


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


@pytest.mark.parametrize("f, lo, hi, peak", [
    (lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 0.3),
    (lambda x: math.sin(x), 0.0, 3.0, 0.5 * math.pi),
    (lambda x: -math.cosh(x - 2.5), -3.0, 3.0, 2.5),
    (lambda x: x * math.exp(-x), 0.0, 40.0, 1.0),
])
def test_brent_finds_the_peak_in_few_calls(f, lo, hi, peak):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    x, fx = brent_maximize(counted, lo, hi, 1e-10)
    assert x == pytest.approx(peak, abs=1e-7)
    assert fx == f(x)
    assert len(calls) <= 30
    assert all(lo < c < hi for c in calls)


def test_brent_walks_to_the_end_of_a_monotone_objective():
    x, _ = brent_maximize(lambda x: x, -2.0, 2.0, 1e-10)
    assert 2.0 - 1e-7 < x < 2.0


def test_brent_tolerance_is_relative_far_from_zero():
    # sqrt(eps)*|x| is 1.5e4 near 1e12, wider than the interval, so the
    # first point already meets it
    calls = []
    x, _ = brent_maximize(lambda x: calls.append(x) or -(x - 1e12 - 0.3) ** 2,
                          1e12, 1e12 + 1.0, 1e-12)
    assert 1e12 < x < 1e12 + 1.0
    assert len(calls) == 1


def test_brent_refuses_an_empty_interval():
    with pytest.raises(ValueError, match="empty search interval"):
        brent_maximize(lambda x: x, 1.0, 0.0, 1e-10)
