"""Capacity of multispan optical links with quantum-limited amplification."""

from .quadmodel import (
    InputError,
    QuadState,
    conventional_input,
    symmetric_coherent_input,
)
from .linkchain import (
    AmpKind,
    LinkPlan,
    PropagationTrace,
    attenuation_to_natural,
    channel_checkpoints,
    propagate,
)
from .capacity import (
    CapacityResult,
    GHSearchError,
    Scenario,
    gh_capacity,
    scenario_input,
    shannon_capacity,
)
from .optimizer import (
    PlanCandidate,
    SweepRow,
    SweepTable,
    distance_grid,
    equidistant_saturating_plan,
    optimize_plan,
    sweep_distance,
)
from .distributed import (
    approx_capacity_pia,
    approx_capacity_psa,
    channel_maps,
    continuum_states,
    distributed_rows,
    psa_pia_crossover,
)

__all__ = [
    "AmpKind",
    "CapacityResult",
    "GHSearchError",
    "InputError",
    "LinkPlan",
    "PlanCandidate",
    "PropagationTrace",
    "QuadState",
    "Scenario",
    "SweepRow",
    "SweepTable",
    "approx_capacity_pia",
    "approx_capacity_psa",
    "attenuation_to_natural",
    "channel_checkpoints",
    "channel_maps",
    "continuum_states",
    "conventional_input",
    "distance_grid",
    "distributed_rows",
    "equidistant_saturating_plan",
    "gh_capacity",
    "optimize_plan",
    "propagate",
    "psa_pia_crossover",
    "scenario_input",
    "shannon_capacity",
    "sweep_distance",
    "symmetric_coherent_input",
]

__version__ = "0.1.0"
