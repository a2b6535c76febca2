import pytest
from hypothesis import given
import hypothesis.strategies as st

from qlink import (
    QuadState,
    conventional_input,
    symmetric_coherent_input,
)
from qlink.quadmodel import HEISENBERG_LIMIT, HEISENBERG_TOL

from conftest import quad_states
from stage_reference import mean_photon_number, vacuum_state


def test_vacuum_state():
    state = vacuum_state()
    assert state == QuadState(0.0, 0.0, 0.5, 0.5)
    assert mean_photon_number(state) == 0.0


def test_conventional_input_examples():
    assert conventional_input(0.0) == vacuum_state()
    assert conventional_input(100.0) == QuadState(200.0, 0.0, 0.5, 0.5)
    assert conventional_input(50.0) == QuadState(100.0, 0.0, 0.5, 0.5)


def test_conventional_input_rejects_negative():
    with pytest.raises(ValueError):
        conventional_input(-1.0)


def test_symmetric_coherent_input():
    state = symmetric_coherent_input(100.0)
    assert state == QuadState(100.0, 100.0, 0.5, 0.5)
    assert mean_photon_number(state) == pytest.approx(100.0)


def test_squeezed_state_at_heisenberg_boundary():
    # product exactly 1/4: minimum-uncertainty squeezed vacuum
    state = QuadState(0.0, 0.0, 0.25, 1.0)
    assert state.noise_i * state.noise_q == pytest.approx(0.25)


def test_state_below_heisenberg_is_refused():
    with pytest.raises(ValueError, match="Heisenberg"):
        QuadState(0.0, 0.0, 0.25, 0.9)


def test_negative_signal_power_is_refused():
    with pytest.raises(ValueError, match="signal"):
        QuadState(-1.0, 0.0, 0.5, 0.5)


def test_mean_photon_number_examples():
    assert mean_photon_number(QuadState(10.0, 5.0, 0.5, 0.5)) == pytest.approx(7.5)
    assert mean_photon_number(QuadState(200.0, 0.0, 0.5, 0.5)) == pytest.approx(100.0)
    # thermal occupation comes straight out
    for n in (0.5, 3.0, 42.0):
        assert mean_photon_number(QuadState(0.0, 0.0, n + 0.5, n + 0.5)) == pytest.approx(n)


@given(st.floats(0.0, 1e6))
def test_conventional_roundtrip_identity(nbar):
    assert mean_photon_number(conventional_input(nbar)) == pytest.approx(nbar, abs=1e-9)


@given(quad_states())
def test_constructed_states_satisfy_invariants(state):
    assert state.noise_i * state.noise_q >= HEISENBERG_LIMIT - HEISENBERG_TOL
    assert mean_photon_number(state) >= -HEISENBERG_TOL


@given(quad_states(), st.floats(0.0, 100.0))
def test_photon_number_affine_with_half_slope(state, delta):
    base = mean_photon_number(state)
    bumped = QuadState(state.sig_i + delta, state.sig_q, state.noise_i, state.noise_q)
    assert mean_photon_number(bumped) - base == pytest.approx(delta / 2.0, abs=1e-9)
