"""Liability allocation and equilibrium analysis for cascading cancellations.

A shock at the source of a DAG triggers a cascade of contract
cancellations that traces out a source-to-sink path. This package models
those networks, computes liability allocations for the realized path under
a family of rules, solves the induced sequential game for its exact
subgame-perfect outcome set, property-checks the axioms the rules are
built on, and ships a Monte-Carlo comparison on layered supply networks.

`import liabnet` loads no submodule. Each public name below loads its
submodule on first access (PEP 562), so `from liabnet import wstar_dp`
loads `graph` and `weights` only, and numpy and the process pool load only
with `liabnet.sim`. Defined here, since every submodule shares them: the
audit ids `AXIOMS` and `PROPERTIES`, and `LiabnetError`, the base of every
error the package raises on bad input or a broken cap.
"""

import importlib

__version__ = "0.1.0"

AXIOMS = ("EI", "RLD", "PCP", "SI")
PROPERTIES = (
    "DOWNSTREAM_MONO",
    "EFF_PATH_INV",
    "REDISTRIBUTION_INV",
    "PATH_INDEP",
    "TOTAL_LOSS_DEP",
)


class LiabnetError(Exception):
    """Base of the package's errors: malformed input, a refused rule or
    check, an exceeded cap. The CLI reports one as a one-line `error:` and
    exit code 2."""


# submodule -> the public names it defines
_EXPORTS = {
    "axioms": (
        "AxiomError", "CheckReport", "check_axiom", "check_property",
        "impossibility_scenario"),
    "game": (
        "GameError", "ProfileCapExceeded", "RobustnessResult", "SpeSolution",
        "check_robust_efficiency", "history_count", "profile_count",
        "spe_bruteforce", "spe_outcomes", "spe_solve"),
    "graph": (
        "Dag", "EfficiencyResult", "GraphError", "GraphValidationError",
        "Path", "PathCapExceeded", "ValidationReport", "build_dag",
        "continuation_costs", "count_paths", "efficient_paths",
        "enumerate_paths", "path_loss", "reachable_subgraph", "validate"),
    "rules": (
        "LiabilityVector", "Rule", "RuleSpecError", "apply_rule", "fixed_rule",
        "irreducible_extension", "make_rule"),
    "weights": (
        "PathCountTables", "WeightVector", "WeightsError", "core_check",
        "path_count_tables", "path_counting_value", "shapley_bruteforce",
        "wstar_dp", "wstar_enumerate"),
    "sim": (
        "HourglassGraph", "LayeredGraphSpec", "SimConfig", "SimError",
        "SimStats", "generate_hourglass", "gini", "run_simulation"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "generators", "io"})

# `from liabnet import *` binds every public name but the simulation's,
# which need numpy, and the modules those names load, as it did when the
# package imported them eagerly
__all__ = [
    "AXIOMS", "PROPERTIES", "LiabnetError",
    "axioms", "game", "generators", "graph", "rules", "weights",
    *(name for name, module in _HOME.items() if module != "sim"),
]


def __getattr__(name):
    # PEP 562: reached only for names not yet in the module's globals
    if name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
