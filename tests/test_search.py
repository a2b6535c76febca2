import pytest

from qlink.search import golden_section_maximize


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

