"""Randomized falsification checkers for rule axioms and derived properties.

Each checker runs seeded trials and reports the first counterexample, if
any. A pass means no counterexample was found in the requested number of
trials, not a proof. Per-trial RNG streams are derived from the master
seed by counter, so reports replay byte-for-byte.

Axioms:
  EI   equilibrium outcomes coincide with the efficient path set
  RLD  liabilities depend only on losses along the realized path
  PCP  no unilateral deviation from an efficient equilibrium strictly
       lowers any agent pair's joint liability
  SI   scaling all losses scales all liabilities by the same factor

Properties:
  DOWNSTREAM_MONO     a mover with positive stake prefers the branch with
                      the cheaper efficient continuation (iff both ways)
  EFF_PATH_INV        all efficient paths yield identical liabilities
  REDISTRIBUTION_INV  permuting losses along the realized path changes
                      nothing
  PATH_INDEP          equal-total paths under one loss function tie
  TOTAL_LOSS_DEP      equal totals across instances yield equal vectors

All nine run on one driver, `_run_check`. A trial is called as
`trial(rng, dag, losses, rule, paths)` on one drawn instance and returns
only its finding: None on a pass, a counterexample dict on a failure
(the driver adds the trial number and the failing draw as `graph`), or
`_NO_PREMISE` when this draw cannot supply the trial's premise (say, no
two efficient paths). The driver then redraws, up to `_DRAWS` times, and
counts a trial that never finds its premise as a vacuous pass. A fixed
graph with fixed losses gets one draw, unless the trial draws part of
its premise itself. `rule` is a zero-argument callable that builds the
rule for the drawn graph; a trial calls it at most once, where its RNG
sequence needs it, so draws that lack the premise build none. The report
names the first rule built. `paths(dag)` gives the source-to-sink paths
as a tuple; a fixed graph is enumerated once per check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Mapping, NamedTuple, Optional, Union

from . import AXIOMS, PROPERTIES, LiabnetError
from .game import spe_outcomes, spe_solve
from .generators import randbelow, random_dag, random_losses
from .graph import (
    Dag,
    Edge,
    Num,
    Path,
    build_dag,
    check_losses,
    efficient_paths,
    enumerate_paths,
    path_loss,
    validate,
    widen,
)
from .rules import (
    OnPathAlphaRule,
    Rule,
    SqrtSourceRule,
    apply_rule,
    make_rule,
)

RuleLike = Union[str, Rule, Callable[[Dag, random.Random], Rule]]


class AxiomError(LiabnetError):
    pass


class CheckReport(NamedTuple):
    """One audit's verdict. Its dicts are read, never changed: the default
    `detail` is one dict shared by every report that takes it."""

    id: str
    rule: str
    trials: int
    passes: int
    seed: int
    applicable: bool = True
    counterexample: Optional[dict] = None
    detail: dict = {}

    @property
    def passed(self) -> bool:
        return self.applicable and self.counterexample is None

    def to_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed}


# ---------------------------------------------------------------------------
# shared plumbing


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(f"{seed}:{trial}")


def _as_factory(rule: RuleLike):
    if isinstance(rule, Rule):
        fixed = rule

        def factory(dag: Dag, rng: random.Random) -> Rule:
            if dag is not fixed.dag:
                raise AxiomError("a bound Rule can only be checked on its own graph")
            return fixed

        return factory
    if isinstance(rule, str):
        return lambda dag, rng: make_rule(rule, dag)
    if callable(rule):
        return rule
    raise AxiomError(f"cannot interpret rule {rule!r}")


def _num_repr(x: Num):
    if isinstance(x, Fraction):
        return str(x)
    return x


def _graph_dict(dag: Dag, losses: Mapping[Edge, Num]) -> dict:
    return {
        "nodes": list(dag.labels),
        "edges": [
            {"from": dag.labels[i], "to": dag.labels[j], "loss": _num_repr(losses[(i, j)])}
            for (i, j) in dag.edges
        ],
    }


def _path_labels(dag: Dag, nodes) -> list[str]:
    return [dag.labels[i] for i in nodes]


def _vec_dict(dag: Dag, vec) -> dict:
    return {dag.labels[i]: _num_repr(v) for i, v in enumerate(vec)}


def _vec_close(a, b) -> bool:
    # losses are finite, so equal vectors are close under either test,
    # and unequal vectors of exact values are not close
    if a == b:
        return True
    inexact = any(
        isinstance(v, float) and not v.is_integer() for v in (*a, *b)
    )
    return inexact and all(abs(float(x) - float(y)) <= 1e-9 for x, y in zip(a, b))


# a trial's return when this draw cannot supply its premise
_NO_PREMISE = object()
_DRAWS = 60  # draws per trial before it counts as vacuous


# ---------------------------------------------------------------------------
# axioms


def _trial_ei(rng, dag, losses, rule, paths):
    sol = spe_solve(dag, losses, rule())
    if sol.coincides():
        return None
    # only a counterexample lists the two sets
    spe = {p.nodes for p in sol.outcomes()}
    efficient = efficient_paths(dag, losses)
    eff = efficient.path_set()
    return {
        "spe": sorted(_path_labels(dag, p) for p in spe),
        "efficient": sorted(_path_labels(dag, p) for p in eff),
        "spe_totals": sorted(
            float(path_loss(losses, Path(p))) for p in spe
        ),
        "efficient_total": float(efficient.min_cost),
    }


def _trial_rld(rng, dag, losses, rule, paths):
    rule = rule()
    path = rng.choice(paths(dag))
    onpath = set(path.edges)
    off = [e for e in losses if e not in onpath]
    second = dict(losses)
    second.update(zip(off, randbelow(rng, 10, len(off))))
    base = apply_rule(rule, path, losses).values
    other = apply_rule(rule, path, second).values
    if _vec_close(base, other):
        return None
    return {
        "path": _path_labels(dag, path.nodes),
        "off_path_losses": _graph_dict(dag, second)["edges"],
        "liabilities": _vec_dict(dag, base),
        "liabilities_after_off_path_change": _vec_dict(dag, other),
    }


def _trial_si(rng, dag, losses, rule, paths):
    rule = rule()
    path = rng.choice(paths(dag))
    alpha = rng.choice([Fraction(1, 2), 2, 10])
    scaled = {e: alpha * v for e, v in losses.items()}
    base = apply_rule(rule, path, losses).values
    got = apply_rule(rule, path, scaled).values
    want = tuple(alpha * x for x in base)
    if _vec_close(got, want):
        return None
    return {
        "path": _path_labels(dag, path.nodes),
        "alpha": _num_repr(alpha),
        "scaled_liabilities": _vec_dict(dag, got),
        "alpha_times_base": _vec_dict(dag, want),
    }


def _trial_pcp(rng, dag, losses, rule, paths):
    rule = rule().bind(losses)
    sol = spe_solve(dag, losses, rule)
    spe = sol.outcomes()
    eff = efficient_paths(dag, losses).path_set()
    pay = cache(lambda nodes: tuple(rule.vector(Path(nodes))))
    tol = rule.ties.tol
    equilibria = sorted((p.nodes for p in spe if p.nodes in eff))
    # A deviation's verdict depends only on its history and the split it
    # deviates from, so equilibria sharing a prefix and a split check each
    # deviation once. Only passes are remembered: the first counterexample
    # is the one a full scan finds.
    splits: dict[tuple[Num, ...], int] = {}
    passed: set[tuple[tuple[int, ...], int]] = set()
    for p_nodes in equilibria:
        base = pay(p_nodes)
        split = splits.setdefault(base, len(splits))
        for pos in range(len(p_nodes) - 1):
            i = p_nodes[pos]
            if len(dag.succ[i]) < 2:
                continue
            prefix = p_nodes[: pos + 1]
            for alt in dag.succ[i]:
                if alt == p_nodes[pos + 1]:
                    continue
                hist = prefix + (alt,)
                if (hist, split) in passed:
                    continue
                for dev in sorted(c.nodes for c in sol.continuations(hist)):
                    moved = pay(dev)
                    # only continuations the mover tolerates can arise in
                    # an equilibrium that actually realizes p; a pay is
                    # below another when it is by more than the tolerance
                    if widen(moved[i], tol) < base[i]:
                        continue
                    for j in range(dag.n):
                        if j == i:
                            continue
                        if widen(moved[i] + moved[j], tol) < base[i] + base[j]:
                            return {
                                "equilibrium_path": _path_labels(dag, p_nodes),
                                "deviator": dag.labels[i],
                                "partner": dag.labels[j],
                                "deviation_path": _path_labels(dag, dev),
                                "pair_sum_before": _num_repr(base[i] + base[j]),
                                "pair_sum_after": _num_repr(moved[i] + moved[j]),
                            }
                passed.add((hist, split))
    return None


# ---------------------------------------------------------------------------
# derived structural properties


def _mono_eligible(rule: Rule) -> Optional[list[int]]:
    """Movers where the strict preference biconditional is claimed.

    Only rules whose payments depend on losses solely through the realized
    total and strictly increase in it qualify; for the fixed family that
    means nodes with positive weight."""
    dag = rule.dag
    if rule.weights is not None:  # a fixed-weight rule cares where its weight is positive
        return [i for i in dag.deciders() if rule.cares[i]]
    if isinstance(rule, (OnPathAlphaRule, SqrtSourceRule)):
        return list(dag.deciders())
    return None


def _random_history(rng, dag: Dag, target: int) -> tuple[int, ...]:
    rev = [target]
    x = target
    while x != dag.source:
        x = rng.choice(dag.pred[x])
        rev.append(x)
    return tuple(reversed(rev))


def _efficient_suffix(dag: Dag, losses, cont, start: int) -> tuple[int, ...]:
    # cheapest continuation, smallest node index on ties
    nodes = [start]
    x = start
    while dag.succ[x]:
        x = min(y for y in dag.succ[x] if losses[(x, y)] + cont[y] == cont[x])
        nodes.append(x)
    return tuple(nodes)


def _mono_applicable(probe: Rule, dag: Optional[Dag]) -> Optional[str]:
    """Why DOWNSTREAM_MONO cannot apply to this rule, or None."""
    eligible = _mono_eligible(probe)
    if eligible is None:
        return "mover payments are not strictly increasing in the total"
    if dag is not None and not eligible:
        return "no mover with a positive stake and several options in this graph"
    return None


def _trial_downstream_mono(rng, dag, losses, rule, paths):
    rule = rule()
    eligible = _mono_eligible(rule)
    if not eligible:
        return _NO_PREMISE
    bound = rule.bind(losses)
    cont = bound.ties.cont
    i = rng.choice(eligible)
    history = _random_history(rng, dag, i)
    j, k = rng.sample(dag.succ[i], 2)
    cost = [losses[(i, x)] + cont[x] for x in (j, k)]
    pay = [
        bound.vector(Path(history + _efficient_suffix(dag, losses, cont, x)))[i]
        for x in (j, k)
    ]
    if (cost[0] < cost[1]) == (pay[0] < pay[1]) and (cost[1] < cost[0]) == (pay[1] < pay[0]):
        return None
    return {
        "mover": dag.labels[i],
        "history": _path_labels(dag, history),
        "branches": [dag.labels[j], dag.labels[k]],
        "continuation_costs": [_num_repr(c) for c in cost],
        "mover_liabilities": [_num_repr(x) for x in pay],
    }


def _same_split(dag, losses, rule, p1: Path, p2: Path, key: str, **extra):
    """None if p1 and p2 split the losses alike, else a counterexample
    that names the two paths under `key`."""
    bound = rule.bind(losses)
    a, b = tuple(bound.vector(p1)), tuple(bound.vector(p2))
    if _vec_close(a, b):
        return None
    return {
        key: [_path_labels(dag, p1.nodes), _path_labels(dag, p2.nodes)],
        "liabilities": [_vec_dict(dag, a), _vec_dict(dag, b)],
        **extra,
    }


def _trial_eff_path_inv(rng, dag, losses, rule, paths):
    eff = efficient_paths(dag, losses).paths
    if len(eff) < 2:
        return _NO_PREMISE
    rule = rule()
    p1, p2 = rng.sample(list(eff), 2)
    return _same_split(dag, losses, rule, p1, p2, "paths")


def _trial_redistribution_inv(rng, dag, losses, rule, paths):
    rule = rule()
    path = rng.choice(paths(dag))
    vals = [losses[e] for e in path.edges]
    shuffled = vals[:]
    for _ in range(10):
        rng.shuffle(shuffled)
        if shuffled != vals:
            break
    second = dict(losses)
    for e, v in zip(path.edges, shuffled):
        second[e] = v
    base = apply_rule(rule, path, losses).values
    other = apply_rule(rule, path, second).values
    if _vec_close(base, other):
        return None
    return {
        "path": _path_labels(dag, path.nodes),
        "losses_along_path": [_num_repr(v) for v in vals],
        "permuted": [_num_repr(v) for v in shuffled],
        "liabilities": _vec_dict(dag, base),
        "liabilities_after_permutation": _vec_dict(dag, other),
    }


def _trial_path_indep(rng, dag, losses, rule, paths):
    groups: dict = {}
    for p in paths(dag):
        groups.setdefault(path_loss(losses, p), []).append(p)
    tied = [ps for ps in groups.values() if len(ps) >= 2]
    if not tied:
        return _NO_PREMISE
    rule = rule()
    p1, p2 = rng.sample(rng.choice(tied), 2)
    return _same_split(
        dag, losses, rule, p1, p2, "equal_total_paths",
        total=_num_repr(path_loss(losses, p1)),
    )


def _trial_total_loss_dep(rng, dag, losses, rule, paths):
    paths = paths(dag)
    p1 = rng.choice(paths)
    target = path_loss(losses, p1)
    if all(isinstance(x, int) for x in losses.values()):
        second = random_losses(rng, dag)
    else:  # float and Fraction totals meet only when drawn from the same values
        values = [losses[e] for e in dag.edges]
        second = dict(zip(dag.edges, [values[k] for k in randbelow(rng, len(values), len(values))]))
    matches = [p for p in paths if path_loss(second, p) == target]
    if not matches:
        return _NO_PREMISE
    others = [p for p in matches if p.nodes != p1.nodes]
    p2 = rng.choice(others) if others else matches[0]
    rule = rule()
    base = apply_rule(rule, p1, losses).values
    other = apply_rule(rule, p2, second).values
    if _vec_close(base, other):
        return None
    return {
        "path": _path_labels(dag, p1.nodes),
        "second_losses": _graph_dict(dag, second)["edges"],
        "second_path": _path_labels(dag, p2.nodes),
        "total": _num_repr(target),
        "liabilities": [_vec_dict(dag, base), _vec_dict(dag, other)],
    }


# ---------------------------------------------------------------------------
# the driver


class _Check(NamedTuple):
    trial: Callable
    # why the check cannot apply to the probe rule, or None
    precondition: Optional[Callable[[Rule, Optional[Dag]], Optional[str]]] = None
    # the trial draws part of its premise, so a fixed instance is redrawn too
    redraw_fixed: bool = False


_CHECKS = {
    "EI": _Check(_trial_ei),
    "RLD": _Check(_trial_rld),
    "PCP": _Check(_trial_pcp),
    "SI": _Check(_trial_si),
    "DOWNSTREAM_MONO": _Check(_trial_downstream_mono, precondition=_mono_applicable),
    "EFF_PATH_INV": _Check(_trial_eff_path_inv),
    "REDISTRIBUTION_INV": _Check(_trial_redistribution_inv),
    "PATH_INDEP": _Check(_trial_path_indep),
    "TOTAL_LOSS_DEP": _Check(_trial_total_loss_dep, redraw_fixed=True),
}


def _all_paths(dag: Dag) -> tuple[Path, ...]:
    return tuple(enumerate_paths(dag))


def _probe_rule(factory, dag: Optional[Dag], seed: int) -> Rule:
    """The rule on the fixed graph, or on trial 0's first random graph."""
    rng = _trial_rng(seed, 0)
    return factory(dag if dag is not None else random_dag(rng), rng)


def _run_check(
    check_id: str,
    rule: RuleLike,
    dag: Optional[Dag],
    trials: int,
    seed: int,
    losses: Optional[Mapping[Edge, Num]],
) -> CheckReport:
    if trials < 1:
        raise AxiomError(f"trials must be at least 1, got {trials}")
    if losses is not None:
        if dag is None:
            raise AxiomError("fixed losses require a fixed graph")
        check_losses(dag, losses)
    check = _CHECKS[check_id]
    factory = _as_factory(rule)
    if check.precondition is not None:
        probe = _probe_rule(factory, dag, seed)
        reason = check.precondition(probe, dag)
        if reason is not None:
            return CheckReport(
                id=check_id,
                rule=probe.spec_string,
                trials=0,
                passes=0,
                seed=seed,
                applicable=False,
                detail={"reason": reason},
            )

    names: list[str] = []  # spec string of the first rule built

    def build(g: Dag, rng: random.Random) -> Rule:
        r = factory(g, rng)
        if not names:
            names.append(r.spec_string)
        return r

    # a fixed graph is enumerated on first use and dropped with the check
    paths_of = cache(_all_paths) if dag is not None else _all_paths
    fixed = dag is not None and losses is not None and not check.redraw_fixed
    draws = 1 if fixed else _DRAWS
    passes = vacuous = 0
    counterexample = None
    for t in range(trials):
        rng = _trial_rng(seed, t)
        for _ in range(draws):
            g = dag if dag is not None else random_dag(rng)
            lo = losses if losses is not None else random_losses(rng, g)
            cex = check.trial(rng, g, lo, partial(build, g, rng), paths_of)
            if cex is not _NO_PREMISE:
                break
        else:
            vacuous += 1
            cex = None
        if cex is not None:
            cex.update(trial=t, graph=_graph_dict(g, lo))
            counterexample = cex
            break
        passes += 1
    return CheckReport(
        id=check_id,
        rule=names[0] if names else _probe_rule(factory, dag, seed).spec_string,
        trials=passes + (counterexample is not None),
        passes=passes,
        seed=seed,
        counterexample=counterexample,
        detail={"vacuous": vacuous} if vacuous else {},
    )


def check_axiom(
    axiom_id: str,
    rule: RuleLike,
    dag: Optional[Dag] = None,
    trials: int = 100,
    seed: int = 0,
    losses: Optional[Mapping[Edge, Num]] = None,
) -> CheckReport:
    """Search for a counterexample to an axiom over seeded random trials.

    With `dag` given, only losses are redrawn each trial (or held fixed if
    `losses` is also given); otherwise each trial draws a fresh graph.
    Stops at the first counterexample.
    """
    if axiom_id not in AXIOMS:
        raise AxiomError(f"unknown axiom {axiom_id!r}; expected one of {AXIOMS}")
    return _run_check(axiom_id, rule, dag, trials, seed, losses)


def check_property(
    property_id: str,
    rule: RuleLike,
    dag: Optional[Dag] = None,
    trials: int = 100,
    seed: int = 0,
    losses: Optional[Mapping[Edge, Num]] = None,
) -> CheckReport:
    """Check a structural property on seeded random instances.

    DOWNSTREAM_MONO applies only to rules whose payments strictly increase
    in the realized total at the sampled mover; other rules report
    applicable=False. Trials whose premise cannot be instantiated (for
    example, no pair of efficient paths exists) count as vacuous passes
    and are tallied in the detail field.
    """
    if property_id not in PROPERTIES:
        raise AxiomError(
            f"unknown property {property_id!r}; expected one of {PROPERTIES}"
        )
    return _run_check(property_id, rule, dag, trials, seed, losses)


# ---------------------------------------------------------------------------
# the no-rule-works scenario


def impossibility_scenario() -> CheckReport:
    """Replay the two-loss-function scenario showing no single liability
    rule that ignores off-path losses can always implement efficiency.

    On the bypass graph (s->t, s->i, i->j, i->t, j->t) the local rule
    picks only efficient paths under the base losses, but after zeroing
    the one loss on edge (i, t) - off every path the base play realizes -
    its equilibria include an inefficient path. The canonical fixed-weight
    rule matches the efficient set exactly under both loss functions.
    """
    dag = build_dag(
        ["s", "i", "j", "t"],
        [("s", "t"), ("s", "i"), ("i", "j"), ("i", "t"), ("j", "t")],
    )
    s, i, j, t = (dag.index(x) for x in "sijt")
    base = {(s, t): 1, (s, i): 0, (i, j): 0, (i, t): 1, (j, t): 1}
    prime = dict(base)
    prime[(i, t)] = 0

    report = validate(dag.labels, dag.edge_labels())
    local = make_rule("local", dag)
    wstar = make_rule("fixed:wstar", dag)

    def spe_labels(losses, rule):
        return sorted(_path_labels(dag, p.nodes) for p in spe_outcomes(dag, losses, rule))

    def eff_labels(losses):
        return sorted(_path_labels(dag, p) for p in efficient_paths(dag, losses).path_set())

    base_spe, base_eff = spe_labels(base, local), eff_labels(base)
    prime_spe, prime_eff = spe_labels(prime, local), eff_labels(prime)
    base_bad = [p for p in base_spe if p not in base_eff]
    prime_bad = [p for p in prime_spe if p not in prime_eff]
    wstar_base_ok = spe_labels(base, wstar) == base_eff
    wstar_prime_ok = spe_labels(prime, wstar) == prime_eff

    ok = (
        report.valid
        and not report.warnings
        and not base_bad
        and bool(prime_bad)
        and prime_eff == [["s", "i", "t"]]
        and wstar_base_ok
        and wstar_prime_ok
    )
    detail = {
        "graph": _graph_dict(dag, base),
        "changed_edge": "i->t",
        "base": {"efficient": base_eff, "local_spe": base_spe},
        "prime": {"efficient": prime_eff, "local_spe": prime_spe},
        "local_inefficient_spe_at_prime": prime_bad,
        "wstar_matches_efficient": {"base": wstar_base_ok, "prime": wstar_prime_ok},
    }
    counterexample = None if ok else {"detail": "scenario did not reproduce"}
    return CheckReport(
        id="IMPOSSIBILITY",
        rule="local vs fixed:wstar",
        trials=1,
        passes=1 if ok else 0,
        seed=0,
        counterexample=counterexample,
        detail=detail,
    )
