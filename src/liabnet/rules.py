"""Liability rules: who pays how much when a cancellation path is realized.

A rule maps (path, losses) to a balanced, non-negative payment vector over
all agents. The central family is fixed-weight: agent i always pays
w_i * total loss of the realized path. Several named benchmark rules are
included, plus the loss-extension constructor that completes a loss
function off a given path so that every path becomes efficient.

Each rule kind is one `Rule` subclass, used in three steps::

    rule = make_rule("fixed:wstar", dag)  # graph-dependent parameters
    bound = rule.bind(losses)             # checks the losses once
    bound.vector(path)                    # unchecked split of one path

`make_rule` looks the spec text up in one table of constructors and
computes what depends on the graph only (canonical weights, phi3's
on-path share); the text becomes the rule's `spec_string`. `bind`
checks the loss function once and computes what depends on it (phi2's
weights, punish-first's foreclosing steps). Each rule kind implements
one method, `split(path, total)`, given the path's `path_loss` total,
which a split that does not read it (`local`) ignores: `vector` sums the
path's losses once.
`check_path` rejects a path that is not source-to-sink; a bound rule's
`checked_split(path, total)` is `split` plus the split test, which
rejects a negative or unbalanced split, in integers over one common
denominator for an int or `Fraction` split and within float tolerances
for any other. `apply_rule(rule, path, losses)`, the checked single-path
call, is `check_path`, `bind` and `checked_split` of the path's
`path_loss`; the `spe` report, whose outcomes are checked per link
(`game.SpeSolution.sorted_outcomes`), calls `checked_split` alone.
A fixed-weight split depends on the realized total alone, so a bound
fixed-weight rule splits each distinct total once, and punish-first's
equal split does too, both through the bound rule's one memo,
`_by_total`. `checked_split` tests a split once per total: the bound
rule keeps the last split tuple that passed for each total, and the sign
and balance tests read only the split's values and the total, so that
same tuple would pass again. Each class declares its solver `mode` and
`cares` (see `Rule`); neither depends on the losses.

Rule-spec string grammar, surrounding whitespace ignored::

    fixed:wstar | fixed:equal | fixed:file=<path.json>
    | local | phi1 | phi2 | phi3 | phi5 | punish-first

`fixed:file=` is the one prefix form. `fixed_rule(dag, weights)` builds
a fixed-weight rule from explicit weights, spec string "fixed:custom".

phi1 assigns everything to the source; phi2 weights agents by their
largest outgoing loss (offset so weights stay positive and scale with the
losses); phi3 gives every on-path agent an equal share of 1/max-path-length
and splits the remainder off-path; phi5 shrinks the source's weight as the
total loss grows; punish-first splits equally on efficient paths and
otherwise charges everything to the first agent whose choice foreclosed
efficiency; local charges each on-path agent exactly the edge they cancel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise
from typing import Callable, Mapping

from . import LiabnetError
from .graph import (
    Dag,
    Edge,
    Frozen,
    GraphError,
    Num,
    Path,
    Ties,
    check_losses,
    path_loss,
)
from .weights import WeightVector, wstar_dp

# solver interaction modes, see `Rule`
MODE_TOTALS = "totals"
MODE_OWN_EDGE = "own_edge"
MODE_PUNISH_FIRST = "punish_first"


class RuleSpecError(LiabnetError):
    """Raised on malformed rule-spec strings or parameters, and on a rule
    whose split of a path is negative or unbalanced."""


class LiabilityVector(Frozen):
    """Per-agent payments for one realized path; balanced by construction.
    Equality and hashing go by `values`."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[Num, ...]):
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if other.__class__ is LiabilityVector:
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __getitem__(self, i: int) -> Num:
        return self.values[i]

    @property
    def total(self) -> Num:
        return sum(self.values)

    def as_dict(self, dag: Dag) -> dict[str, float]:
        return dict(zip(dag.labels, map(float, self.values)))


class Rule:
    """A liability rule on one graph, one class per rule kind.

    `make_rule` builds it with its graph-dependent parameters frozen;
    `bind(losses)` returns a copy evaluating under one loss function, whose
    `vector(path)` is the unchecked per-path split. A subclass defines
    `split(path, total)`, the split of a path whose `path_loss` is
    `total`; the base `split` raises NotImplementedError.

    `mode` tells the equilibrium solver how the mover at a node ranks
    outcomes; it is fixed per rule kind:
      - MODE_TOTALS: by the continuation's total loss, strictly increasing
        wherever cares[node] is True, constant otherwise;
      - MODE_OWN_EDGE: by the loss of the mover's own chosen edge only;
      - MODE_PUNISH_FIRST: on track, while no step has foreclosed
        efficiency, by whether the mover's step is tight; off track, not
        at all (see `PunishFirstRule`).

    `weights` is the per-graph weight vector of a rule that pays w_i times
    the realized total under every loss function, and None for every other
    rule; the simulator and the DOWNSTREAM_MONO checker read it.

    `ties`, made on first read, is the bound rule's `graph.Ties` at the
    default tolerance, which the solver, audits and `spe` share.
    """

    mode: str = MODE_TOTALS
    weights: WeightVector | None = None
    losses: Mapping[Edge, Num] | None = None
    _ties: Ties | None = None

    def __init__(self, dag: Dag, spec_string: str):
        self.dag = dag
        self.spec_string = spec_string
        # read in MODE_TOTALS only: whose payment grows with the total
        self.cares = tuple([i not in dag.sinks for i in range(dag.n)])

    def bind(self, losses: Mapping[Edge, Num]) -> "Rule":
        """This rule evaluating under `losses`, which are checked once.

        The mapping is held, not copied, so it must not change while bound.
        Binding to the mapping the rule already holds returns the rule
        itself, so a bound rule can be passed on to `spe_solve` and
        `apply_rule` without checking the losses again, and
        `checked_split` keeps what it has tested on the bound copy: per
        `(type(total), total)`, the last split tuple that passed, one entry
        per distinct total. Every `bind` to another mapping starts it, and
        the memo of `_by_total`, empty, and builds its `ties` anew.
        """
        if losses is self.losses:
            return self
        check_losses(self.dag, losses)
        bound = object.__new__(type(self))
        bound.__dict__.update(self.__dict__)
        bound.losses = losses
        bound._passed = {}  # (type(total), total) -> split, read by checked_split
        bound._splits = {}  # (type(total), total) -> split, read by _by_total
        bound._ties = None
        bound._derive()
        return bound

    @property
    def ties(self) -> Ties:
        if self._ties is None:
            self._ties = Ties(self.dag, self.losses)
        return self._ties

    def _derive(self) -> None:
        """Compute the state that depends on `self.losses`; none by default."""

    def vector(self, path: Path) -> tuple[Num, ...]:
        return self.split(path, path_loss(self.losses, path))

    def split(self, path: Path, total: Num) -> tuple[Num, ...]:
        """The unchecked split of `path`, whose `path_loss` is `total`."""
        raise NotImplementedError(f"{type(self).__name__} defines no split")

    def checked_split(self, path: Path, total: Num) -> tuple[Num, ...]:
        """`split(path, total)` of a bound rule, tested for sign and balance.

        The split is tested once per distinct split: the bound rule keeps,
        per `(type(total), total)`, the last split tuple that passed, and a
        split that is that same tuple returns at once. That is not a weaker
        check, because the tests below read only the split's values and
        the total, and a tuple of numbers cannot change; a split that fails
        is not kept, so it raises on every call, and a fresh tuple of equal
        total is tested in full. Rules that return one tuple per total (the
        fixed-weight rules, punish-first on efficient paths) are thus
        tested once per total, however many paths share it.

        A split of ints and `Fraction`s, with an int or `Fraction` total, is
        tested in integers first: over the common denominator of the values
        and the total, it passes when no numerator is negative and the
        numerators sum to the total's exactly. Every other split (a float, a
        NaN, a tiny negative `Fraction`, an imbalance inside the slack) goes
        to the float test, which admits values down to -1e-12 and an
        imbalance of up to 1e-9 * max(1, |total|). A split the integer test
        passes passes the float test too, so the two accept what the float
        test alone accepts; the one exception is a total beyond the float
        range, on which the float test raises OverflowError.

        The path is not checked; raises RuleSpecError when the split is
        negative or unbalanced, and GraphError when a float total overflowed
        to infinity, which no split can balance.
        """
        values = self.split(path, total)
        key = (type(total), total)
        if self._passed.get(key) is values:
            return values
        if type(total) is float or not _exactly_balanced(values, total):
            if not math.isfinite(total):
                raise GraphError(f"the total loss of path {'->'.join(path.labels(self.dag))} "
                                 "overflows the float range")
            slack = 1e-9 * max(1.0, abs(float(total)))
            # `x >= 0` is exact and cheap for int and Fraction values; only a
            # negative value (or NaN) pays for the float comparison, whose
            # threshold alone decides the outcome
            if not all(x >= 0 or x >= -1e-12 for x in values):
                raise RuleSpecError(f"negative liability from {self.spec_string}")
            if not abs(float(sum(values) - total)) <= slack:
                raise RuleSpecError(
                    f"unbalanced liabilities from {self.spec_string}: "
                    f"{float(sum(values))} vs {float(total)}"
                )
        if type(values) is tuple:
            self._passed[key] = values
        return values

    def _by_total(
        self, total: Num, make: Callable[[Num], tuple[Num, ...]]
    ) -> tuple[Num, ...]:
        """`make(total)`, made once per distinct total while bound, so that
        every path of that total gets the same tuple. The memo is keyed by
        the total's type as well, since `3`, `3.0` and `Fraction(3)` are
        equal but split to different types."""
        key = (type(total), total)
        split = self._splits.get(key)
        if split is None:
            split = self._splits[key] = make(total)
        return split

    def __repr__(self) -> str:
        return f"<Rule {self.spec_string} on {self.dag.n} nodes>"


class FixedWeightRule(Rule):
    """Pay w_i * total realized loss; weights fixed per graph.

    The split depends on the realized total alone, so a bound rule splits
    each distinct total once (`_by_total`) and returns the same tuple for
    every path with that total.

    Weights that carry integer numerators over one denominator (the
    canonical weights of `wstar_dp`) split an int or `Fraction` total in
    integers, one reduced `Fraction` per agent; every other weight vector,
    and a float total, is split as `w_i * total`.
    """

    _nums: tuple[int, ...] | None = None

    def __init__(self, dag: Dag, weights: WeightVector, spec_string: str):
        super().__init__(dag, spec_string)
        weights.check_simplex()
        nums, den = weights.nums, weights.den
        exact = weights.values if nums is None else nums
        if len(exact) != dag.n:
            raise RuleSpecError("weight vector length does not match graph")
        self.weights = weights
        # a Fraction times a float is float(Fraction) times it, and a / den
        # is float(Fraction(a, den)): so no Fraction is made for the shares
        self._shares = exact if nums is None else tuple([a / den for a in nums])
        self._nums, self._den = nums, den
        self.cares = tuple([w > 0 for w in exact])

    def split(self, path: Path, total: Num) -> tuple[Num, ...]:
        return self._by_total(total, self._split)

    def _split(self, total: Num) -> tuple[Num, ...]:
        nums = self._nums
        if nums is not None and isinstance(total, (int, Fraction)):
            num, den = total.as_integer_ratio()
            den *= self._den
            return tuple([Fraction(a * num, den) for a in nums])
        return tuple([w * total for w in self._shares])


class MaxOutWeightsRule(FixedWeightRule):
    """Weights proportional to each agent's largest outgoing loss.

    An offset equal to the overall largest edge loss keeps every non-sink
    weight strictly positive and the weights invariant under rescaling the
    loss function. The weights depend on losses off the realized path by
    design (that is the property this rule is a counterexample for), so
    they are set at bind time and `weights` stays None: the rule splits
    like a fixed-weight rule but is not one.
    """

    def __init__(self, dag: Dag, spec_string: str):
        Rule.__init__(self, dag, spec_string)

    def _derive(self) -> None:
        dag, losses = self.dag, self.losses
        scale = max(losses[e] for e in dag.edges)
        # with every loss 0 each non-sink gets the mark 1: equal shares
        marks = [
            0 if i in dag.sinks
            else scale + max(losses[(i, j)] for j in dag.succ[i]) if scale else 1
            for i in range(dag.n)
        ]
        denom = sum(marks)
        if isinstance(denom, (int, Fraction)):
            self._shares = tuple(Fraction(m) / denom for m in marks)
        else:
            self._shares = tuple(m / denom for m in marks)


class OnPathAlphaRule(Rule):
    """Every on-path agent pays an equal share alpha = 1/(longest path node
    count) of the total; off-path agents split the remainder equally."""

    def __init__(self, dag: Dag, spec_string: str):
        super().__init__(dag, spec_string)
        longest = [0] * dag.n  # edges from node to a sink
        for i in range(dag.n - 1, -1, -1):
            if dag.succ[i]:
                longest[i] = 1 + max(longest[j] for j in dag.succ[i])
        self.alpha = Fraction(1, longest[dag.source] + 1)

    def split(self, path: Path, total: Num) -> tuple[Num, ...]:
        onpath = set(path.nodes)
        k = len(path.nodes)
        rest = self.dag.n - k
        # a path through all n nodes is a longest one, so alpha = 1/n leaves no remainder
        off_share = (1 - k * self.alpha) / rest if rest else Fraction(0)
        return tuple(
            (self.alpha if i in onpath else off_share) * total
            for i in range(self.dag.n)
        )


class SqrtSourceRule(Rule):
    """Source weight 1/sqrt(total+1), everyone else splits the rest.

    The source's payment still grows with the total, so equilibria stay
    efficient, but the split is not invariant under scaling the losses."""

    def split(self, path: Path, total: Num) -> tuple[Num, ...]:
        total = float(total)
        w_source = 1.0 / math.sqrt(total + 1.0)
        other = (1.0 - w_source) * total / (self.dag.n - 1)
        return tuple(
            w_source * total if i == self.dag.source else other
            for i in range(self.dag.n)
        )


class LocalRule(Rule):
    """Each on-path agent pays exactly the loss of the edge they cancel."""

    mode = MODE_OWN_EDGE

    def split(self, path: Path, total: Num) -> tuple[Num, ...]:
        values = [0] * self.dag.n
        losses = self.losses
        for e in pairwise(path.nodes):
            values[e[0]] = losses[e]
        return tuple(values)


class PunishFirstRule(Rule):
    """Equal split on efficient paths; otherwise the first agent to choose
    a step that foreclosed efficiency pays the whole loss.

    `foreclosing`, set at bind, holds the steps that leave only
    inefficient continuations: those the bound rule's `ties` do not find
    tight, under the default tolerance `efficient_paths` uses too. The
    equal split divides the path's total summed from the sink back,
    `l1 + (l2 + (... + 0))`, the association `continuation_costs` uses, so
    float paths that tie in `efficient_paths` split alike. The blamed
    agent pays the `path_loss` total.
    """

    mode = MODE_PUNISH_FIRST

    def _derive(self) -> None:
        tight = self.ties.tight
        self.foreclosing = frozenset(e for e in self.dag.edges if not tight(*e))

    def split(self, path: Path, total: Num) -> tuple[Num, ...]:
        nodes = path.nodes
        foreclosing = self.foreclosing
        if foreclosing.isdisjoint(pairwise(nodes)):
            back = 0
            losses = self.losses
            for j, i in pairwise(reversed(nodes)):
                back = losses[(i, j)] + back
            return self._by_total(back, self._equal_split)
        values = [0] * self.dag.n
        values[next(e[0] for e in pairwise(nodes) if e in foreclosing)] = total
        return tuple(values)

    def _equal_split(self, total: Num) -> tuple[Num, ...]:
        n = self.dag.n
        return (Fraction(1, n) * total,) * n


# ---------------------------------------------------------------------------


def _fixed(weights_of):
    """Constructor of the fixed-weight rule with weights `weights_of(dag)`."""
    return lambda dag, text: FixedWeightRule(dag, weights_of(dag), text)


def _source_weights(dag: Dag) -> WeightVector:
    return WeightVector(tuple(Fraction(int(i == dag.source)) for i in range(dag.n)))


# spec text -> constructor called as (dag, text)
_RULES = {
    "fixed:wstar": _fixed(wstar_dp),
    "fixed:equal": _fixed(lambda dag: WeightVector((Fraction(1, dag.n),) * dag.n)),
    "local": LocalRule,
    "phi1": _fixed(_source_weights),
    "phi2": MaxOutWeightsRule,
    "phi3": OnPathAlphaRule,
    "phi5": SqrtSourceRule,
    "punish-first": PunishFirstRule,
}


def make_rule(spec: str, dag: Dag) -> Rule:
    """Resolve a rule-spec string against a graph.

    Graph-dependent parameters (canonical weights, the on-path share of
    phi3) are computed once here, so the returned rule is a deterministic
    pure evaluator.
    """
    text = spec.strip()
    make = _RULES.get(text)
    if make is not None:
        return make(dag, text)
    if text.startswith("fixed:file="):
        path = text[len("fixed:file="):]
        if not path:
            raise RuleSpecError("fixed:file= needs a path")
        from .io import load_weights_file

        w = WeightVector.from_mapping(dag, load_weights_file(path, dag))
        return FixedWeightRule(dag, w, text)
    raise RuleSpecError(
        f"unknown rule spec {text!r}; expected one of "
        "fixed:wstar, fixed:equal, fixed:file=<path.json>, local, "
        "phi1, phi2, phi3, phi5, punish-first"
    )


def fixed_rule(dag: Dag, weights: WeightVector) -> FixedWeightRule:
    """Fixed-weight rule from an explicit weight vector."""
    return FixedWeightRule(dag, weights, "fixed:custom")


def _node_name(dag: Dag, i: int) -> str | int:
    """The label of node i, or i itself when it is out of range."""
    return dag.labels[i] if 0 <= i < dag.n else i


def check_path(dag: Dag, path: Path) -> None:
    nodes = path.nodes
    if len(nodes) < 2 or nodes[0] != dag.source or nodes[-1] not in dag.sinks:
        names = tuple([_node_name(dag, i) for i in nodes])
        raise GraphError(f"not a source-to-sink path: {names}")
    if len(set(nodes)) != len(nodes):
        raise GraphError("path repeats a node")
    for u, v in zip(nodes, nodes[1:]):
        if not dag.has_edge(u, v):
            u, v = _node_name(dag, u), _node_name(dag, v)
            raise GraphError(f"path uses missing edge ({u!r}, {v!r})")


def apply_rule(
    rule: Rule, path: Path, losses: Mapping[Edge, Num]
) -> LiabilityVector:
    """Evaluate a rule on one path and enforce balance and non-negativity.

    This is the checked single-path call: `check_path`, then the rule
    bound to `losses` and its `checked_split` of the path's `path_loss`.
    A rule already bound to `losses` is not bound again, so a caller
    evaluating many paths under one loss function binds once and passes
    the bound rule, and the bound rule's memo tests each distinct split
    once (see `Rule.checked_split`).

    Raises GraphError when the path is not a source-to-sink path of the
    rule's graph or losses are not total, and RuleSpecError when the rule
    yields a negative or unbalanced split.
    """
    check_path(rule.dag, path)
    return LiabilityVector(rule.bind(losses).checked_split(path, path_loss(losses, path)))


# the value types `_exactly_balanced` tests in integers
_INTS = frozenset((int,))
_EXACT = frozenset((int, Fraction))


def _exactly_balanced(values: tuple[Num, ...], total: Num) -> bool:
    """True when `values` and `total` are ints and `Fraction`s, no value is
    negative and the values sum to `total` exactly; False otherwise."""
    kinds = set(map(type, values))
    kinds.add(type(total))
    if kinds == _INTS:
        return sum(values) == total and (not values or min(values) >= 0)
    if not kinds <= _EXACT:
        return False
    ratios = [x.as_integer_ratio() for x in values]
    num, den = total.as_integer_ratio()
    common = math.lcm(den, *{d for _, d in ratios})
    nums = [a * (common // d) for a, d in ratios]
    return sum(nums) == num * (common // den) and (not nums or min(nums) >= 0)


def irreducible_extension(
    dag: Dag, path: Path, losses: Mapping[Edge, Num]
) -> dict[Edge, Num]:
    """Extend the losses on `path` to the whole graph so every path ties.

    Builds node potentials: 0 at the source, the prefix cost along the
    path, the full path loss at every sink, and for off-path non-sinks the
    maximum potential among predecessors (in topological order). The loss
    of edge (i, j) becomes potential(j) - potential(i), which reproduces
    `losses` on the path's own edges and makes every source-to-sink path
    cost exactly the path's total.
    """
    check_path(dag, path)
    check_losses(dag, losses)
    total = path_loss(losses, path)
    potential: list[Num | None] = [None] * dag.n
    potential[dag.source] = 0
    acc: Num = 0
    for (i, j) in path.edges:
        acc = acc + losses[(i, j)]
        if j not in dag.sinks:
            potential[j] = acc
    for t in dag.sinks:
        potential[t] = total
    for j in range(dag.n):
        if potential[j] is None:
            potential[j] = max(potential[i] for i in dag.pred[j])
    extended: dict[Edge, Num] = {}
    for (i, j) in dag.edges:
        value = potential[j] - potential[i]
        if value < -1e-12:
            raise GraphError(
                f"extension produced negative loss {value} on edge "
                f"({dag.labels[i]!r}, {dag.labels[j]!r})"
            )
        extended[(i, j)] = max(0, value)
    return extended
