"""Liability allocation and equilibrium analysis for cascading cancellations.

A shock at the source of a DAG triggers a cascade of contract
cancellations that traces out a source-to-sink path. This package models
those networks, computes liability allocations for the realized path under
a family of rules, solves the induced sequential game for its exact
subgame-perfect outcome set, property-checks the axioms the rules are
built on, and ships a Monte-Carlo comparison on layered supply networks.

The simulation is the only part that needs numpy and a process pool.
`liabnet.sim` and its exports (`run_simulation`, `SimConfig`, ...) load on
first access, so importing the package or its CLI loads neither.
"""

import importlib

from .axioms import (
    AXIOMS,
    PROPERTIES,
    AxiomError,
    CheckReport,
    check_axiom,
    check_property,
    impossibility_scenario,
)
from .game import (
    GameError,
    ProfileCapExceeded,
    RobustnessResult,
    SpeSolution,
    check_robust_efficiency,
    history_count,
    profile_count,
    spe_bruteforce,
    spe_outcomes,
    spe_solve,
)
from .graph import (
    Dag,
    EfficiencyResult,
    GraphError,
    GraphValidationError,
    Path,
    PathCapExceeded,
    ValidationReport,
    build_dag,
    continuation_costs,
    count_paths,
    efficient_paths,
    enumerate_paths,
    path_loss,
    reachable_subgraph,
    validate,
)
from .rules import (
    LiabilityVector,
    Rule,
    RuleSpecError,
    apply_rule,
    fixed_rule,
    irreducible_extension,
    make_rule,
)
from .weights import (
    PathCountTables,
    WeightVector,
    WeightsError,
    core_check,
    path_count_tables,
    path_counting_value,
    shapley_bruteforce,
    wstar_dp,
    wstar_enumerate,
)

__version__ = "0.1.0"

_SIM_EXPORTS = frozenset({
    "HourglassGraph",
    "LayeredGraphSpec",
    "SimConfig",
    "SimError",
    "SimStats",
    "generate_hourglass",
    "gini",
    "run_simulation",
})


def __getattr__(name):
    # PEP 562: reached only for names not yet in the module's globals
    if name != "sim" and name not in _SIM_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    sim = importlib.import_module(".sim", __name__)
    value = sim if name == "sim" else getattr(sim, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SIM_EXPORTS, "sim"})
