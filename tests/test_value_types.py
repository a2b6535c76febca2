"""The value types' contract: pickling, immutability, equality and hashing,
validation messages, the CLI's configuration echo and the package's names."""

import math
import pickle

import pytest

import qlink
from qlink import capacity, distributed, linkchain, quadmodel
from qlink import (
    AmpKind,
    CapacityResult,
    LinkPlan,
    PlanCandidate,
    PropagationTrace,
    QuadState,
    SweepRow,
    SweepTable,
    conventional_input,
    equidistant_saturating_plan,
    gh_capacity,
    propagate,
    sweep_distance,
)
from qlink.cli import RunConfig, parse_config

import rk4_oracle
from rk4_oracle import OdeProfile, integrate_pia

PLAN = LinkPlan(0.2, 100.0, 100.0, [40.0], [2.0], AmpKind.PIA)


def _values():
    """One value of every type, built as the library builds it."""
    table = sweep_distance([50.0, 100.0], 1, 100.0, 0.2)
    return {
        QuadState: QuadState(1.0, 0.0, 0.5, 0.5),
        LinkPlan: PLAN,
        PropagationTrace: propagate(PLAN, conventional_input(100.0))[1],
        CapacityResult: gh_capacity(PLAN),
        PlanCandidate: equidistant_saturating_plan(100.0, 1, 100.0, 0.2),
        SweepRow: table.rows[0],
        SweepTable: table,
        RunConfig: RunConfig("sweep", amps=3, kind=AmpKind.PIA),
        OdeProfile: integrate_pia(1.0, 100.0, step_km=0.5, track_channel=True),
    }


VALUES = _values()
# The record types: immutable named tuples.
FROZEN = [QuadState, LinkPlan, PropagationTrace, CapacityResult, PlanCandidate, SweepRow,
          RunConfig, SweepTable]


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_pickle_round_trip_gives_an_equal_value(cls):
    value = VALUES[cls]
    assert type(value) is cls
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls
    assert copy == value
    assert not copy != value


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_fields_of_frozen_types_cannot_be_assigned(cls):
    value = VALUES[cls]
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)


def test_tuple_types_unpack_and_equal_same_valued_tuples():
    sig_i, sig_q, noise_i, noise_q = VALUES[QuadState]
    assert (sig_i, sig_q, noise_i, noise_q) == VALUES[QuadState] == (1.0, 0.0, 0.5, 0.5)
    assert PLAN == (0.2, 100.0, 100.0, (40.0,), (2.0,), AmpKind.PIA)


def test_link_plan_hash_and_equality():
    same = LinkPlan(0.2, 100.0, 100.0, (40.0,), (2.0,), AmpKind.PIA)
    assert same == PLAN and hash(same) == hash(PLAN)
    # the hash of the field values, as a frozen dataclass's
    assert hash(PLAN) == hash((0.2, 100.0, 100.0, (40.0,), (2.0,), AmpKind.PIA))
    assert PLAN.positions == (40.0,) and PLAN.gains == (2.0,)
    assert PLAN != LinkPlan(0.2, 100.0, 100.0, [40.0], [2.0], AmpKind.PSA)
    assert PLAN != LinkPlan(0.2, 100.0, 100.0, [40.0], [2.5], AmpKind.PIA)
    assert len({PLAN, same, LinkPlan(0.2, 100.0, 100.0)}) == 2


def test_record_types_compare_by_field_values():
    trace = VALUES[PropagationTrace]
    again = propagate(PLAN, conventional_input(100.0))[1]
    assert again == trace and hash(again) == hash(trace)
    assert trace != PropagationTrace(trace.positions[:-1], trace.states[:-1])
    positions, states = trace
    assert isinstance(trace, tuple) and len(states) == len(positions) == 4
    profile = integrate_pia(1.0, 100.0, step_km=0.5, track_channel=True)
    assert profile == VALUES[OdeProfile] and len(profile) == 3
    assert profile != integrate_pia(1.0, 100.0, step_km=0.5)
    profile.nbar = 1.0  # OdeProfile stays a mutable record
    assert profile != VALUES[OdeProfile]


# What left the library for the RK4 oracle, tests/rk4_oracle.py.
RK4_ORACLE_NAMES = [
    "DEFAULT_STEP_KM", "GRID_TOL_KM", "IntegrationError", "OdeProfile", "_drift",
    "_feedback_gain", "_integrate", "_rhs", "_rk4_step", "bisect", "checkpoint_positions",
    "closed_form_psa", "feedback_gain_pia", "feedback_gain_psa", "gh_capacity_at",
    "integrate_pia", "integrate_psa", "state_at_position",
]


# What left the library for the tests' helper and reference modules
# (tests/chain_stages.py, stage_reference.py and gh_reference.py).
TEST_HELPER_NAMES = [
    "_ceiling", "apply_loss", "apply_pia", "apply_psa", "check_power_constraint", "entropy_g",
    "gaussian_state_entropy", "holevo_chi", "max_feasible_pia_gain", "max_feasible_psa_gain",
    "mean_photon_number", "plan_capacity", "vacuum_state",
]


def test_every_exported_name_resolves_once():
    assert len(set(qlink.__all__)) == len(qlink.__all__)
    assert [name for name in qlink.__all__ if not hasattr(qlink, name)] == []


def test_rk4_oracle_names_left_the_library():
    assert [name for name in RK4_ORACLE_NAMES if not hasattr(rk4_oracle, name)] == []
    assert [name for name in RK4_ORACLE_NAMES
            if hasattr(qlink, name) or hasattr(distributed, name)] == []


def test_test_helper_names_left_the_library():
    modules = (qlink, capacity, linkchain, quadmodel)
    assert [name for name in TEST_HELPER_NAMES
            if any(hasattr(module, name) for module in modules)] == []


@pytest.mark.parametrize("moments, message", [
    ((-1.0, 0.0, 0.5, 0.5), "signal powers must be non-negative, got sig_i=-1.0, sig_q=0.0"),
    ((0.0, math.nan, 0.5, 0.5), "signal powers must be non-negative, got sig_i=0.0, sig_q=nan"),
    ((1.0, 0.0, 0.0, 0.5), "noise variances must be positive, got noise_i=0.0, noise_q=0.5"),
    ((1.0, 0.0, 0.4, 0.5),
     "uncertainty product noise_i*noise_q = 0.2 is below the Heisenberg limit 0.25"),
    # the first failing check speaks
    ((-1.0, 0.0, 0.0, 0.1), "signal powers must be non-negative, got sig_i=-1.0, sig_q=0.0"),
])
def test_quad_state_validation_messages(moments, message):
    with pytest.raises(ValueError) as err:
        QuadState(*moments)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        QuadState(1.0, 0.0, 0.5, 0.5)._replace(**dict(zip(QuadState._fields, moments)))
    assert str(err.value) == message


@pytest.mark.parametrize("args, message", [
    ((0.2, -1.0, 100.0), "total length must be non-negative, got -1.0"),
    ((0.2, 100.0, -1.0), "photon budget must be non-negative and finite, got -1.0"),
    ((0.2, 100.0, math.inf), "photon budget must be non-negative and finite, got inf"),
    ((0.0, 100.0, 100.0), "attenuation must be positive and finite, got 0.0"),
    ((math.nan, 100.0, 100.0), "attenuation must be positive and finite, got nan"),
    ((0.2, 100.0, 100.0, [10.0], []), "positions and gains must have equal length"),
    ((0.2, 100.0, 100.0, [60.0, 40.0], [2.0, 2.0]),
     "amplifier positions must be strictly increasing inside (0, 100.0), got (60.0, 40.0)"),
    ((0.2, 100.0, 100.0, [100.0], [2.0]),
     "amplifier positions must be strictly increasing inside (0, 100.0), got (100.0,)"),
    ((0.2, 100.0, 100.0, [40.0], [0.5]), "amplifier gains must be >= 1 and finite, got (0.5,)"),
    ((0.2, 100.0, 100.0, [40.0], [math.inf]),
     "amplifier gains must be >= 1 and finite, got (inf,)"),
    # the first failing check speaks
    ((-1.0, -1.0, -1.0, [1.0], []), "total length must be non-negative, got -1.0"),
])
def test_link_plan_validation_messages(args, message):
    with pytest.raises(ValueError) as err:
        LinkPlan(*args)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        LinkPlan(0.2, 100.0, 100.0)._replace(**dict(zip(LinkPlan._fields, args)))
    assert str(err.value) == message


@pytest.mark.parametrize("positions, states", [((0.0, 1.0), (QuadState(1.0, 0.0, 0.5, 0.5),)),
                                                ((0.0,), ())])
def test_trace_of_unequal_lengths_is_refused(positions, states):
    # len() counted the positions alone and the power audit indexed past the states
    message = (f"a trace needs one state per position, got {len(positions)} positions and "
               f"{len(states)} states")
    with pytest.raises(ValueError) as err:
        PropagationTrace(positions, states)
    assert str(err.value) == message
    trace = PropagationTrace((0.0,), (QuadState(1.0, 0.0, 0.5, 0.5),))
    with pytest.raises(ValueError) as err:
        trace._replace(positions=positions, states=states)
    assert str(err.value) == message


def _echo(command, amps="0", l_min="10.0", l_max="5000.0", l_step="10.0",
          scenario="conventional-snl"):
    return "".join(f"# {key}={value}\n" for key, value in [
        ("command", command), ("nbar", "100.0"), ("alpha_db_km", "0.2"), ("l_min_km", l_min),
        ("l_max_km", l_max), ("l_step_km", l_step), ("amps", amps), ("kind", "psa"),
        ("scenario", scenario), ("seed", "0"), ("out", "qlink.csv")])


@pytest.mark.parametrize("argv, echo", [
    # the four benchmark workloads, as perfbench/run.py passes them
    (["sweep", "--amps", "8", "--l-step-km", "50"], _echo("sweep", "8", l_step="50.0")),
    (["sweep", "--amps", "2", "--scenario", "gordon-holevo", "--l-min-km", "50",
      "--l-max-km", "500", "--l-step-km", "50"],
     _echo("sweep", "2", "50.0", "500.0", "50.0", "gordon-holevo")),
    (["sweep", "--amps", "inf", "--scenario", "gordon-holevo", "--l-min-km", "100",
      "--l-max-km", "3000", "--l-step-km", "100"],
     _echo("sweep", "inf", "100.0", "3000.0", "100.0", "gordon-holevo")),
    (["crossover"], _echo("crossover")),
    # the distributed command echoes amps=inf whatever --amps says
    (["distributed", "--amps", "5"], _echo("distributed", "inf")),
], ids=["sweep-conv", "sweep-gh", "sweep-gh-inf", "crossover", "distributed"])
def test_config_echo_is_pinned(argv, echo, capsys):
    parse_config([*argv, "--seed", "0"])
    captured = capsys.readouterr()
    assert captured.err == echo
    assert captured.out == ""
