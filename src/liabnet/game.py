"""Sequential cancellation game and its exact equilibrium outcome sets.

Play starts at the source; whoever holds the order picks one outgoing
edge, realizing its loss, until a sink is reached. The liability rule then
splits the realized path's total loss. Every agent minimizes their own
payment, so the solution concept is pure-strategy subgame-perfect
equilibrium (SPE), and the object of interest is the full set of paths
some SPE realizes.

`spe_outcomes` computes that set by set-valued backward induction:
an outcome surviving at a node must be no worse for the mover than the
worst credible continuation of every alternative edge (the continuations
of the alternative act as threats). The solver builds per-node outcome
states instead of path lists, each keeping the links to child states that
survive, and which state a history's subgame starts in depends on the
rule's `mode`: one state per distinct suffix total for rules that
rank continuations by their total, one per node for own-edge rules, and
for punish-first an on-track and an off-track state per node, told apart
by whether the history took a foreclosing step. The outcome set is the
set of paths through those states, so its size, and how many of its
paths are efficient, are backward counts over the table
(`SpeSolution.efficiency_counts`); that decides whether the outcomes are
exactly the efficient paths without listing either set. Outcome paths
are listed only when asked for (`SpeSolution.continuations`, `outcomes`,
`sorted_outcomes`, `spe_outcomes`), by one stack walk over the links, and
no suffix list is kept; `sorted_outcomes` checks each link it can follow
once, not each path. `spe_bruteforce` is the definitional oracle:
enumerate every pure strategy profile over all histories and keep the
ones with no profitable one-shot deviation anywhere, on or off the
realized path.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from . import LiabnetError
from .graph import (
    Dag,
    Edge,
    Num,
    Path,
    Ties,
    _forward_ways,
    list_paths,
    path_ways,
    widen,
)
from .rules import MODE_OWN_EDGE, MODE_PUNISH_FIRST, MODE_TOTALS, Rule


class GameError(LiabnetError):
    """Raised when a game computation exceeds its stated caps, or has no
    solver for the rule's mode."""


class ProfileCapExceeded(GameError):
    pass


def history_count(dag: Dag, start: Optional[int] = None) -> int:
    """Number of subpaths starting at `start`, the source by default: the
    histories of the game, or of the subgame after any history ending at
    `start`."""
    return sum(_forward_ways(dag, start))


def profile_count(dag: Dag) -> int:
    """Number of pure strategy profiles: every history ending at a node
    with outgoing edges picks one of them independently."""
    return math.prod(
        len(succ) ** ways
        for succ, ways in zip(dag.succ, _forward_ways(dag))
        if succ
    )


# ---------------------------------------------------------------------------
# set-valued backward induction


def _node_states(dag: Dag, losses, bound: Rule) -> tuple[list, list, list]:
    """Backward induction over per-node outcome states: (at_node, node,
    links), per node its states, first to last, and per state its node and
    the child states it keeps, a link table for `graph.path_ways`.

    A state holds a set of suffixes from its node: a kept link to a child
    state at a successor j extends each of the child's suffixes by the
    step to j; a sink's one state holds the sink alone. States are built
    children first, and the one built b-th is named ~b (that is, -1 - b):
    once `node` and `links` are reversed, ~b indexes them from the end, so
    every state's children come after it, as a node's successors do,
    without a renumbering pass.

    In MODE_TOTALS a node has one state per distinct suffix total, summed
    from the sink back as `step + total`: the mover's payment is monotone
    in the final total and the prefix cost is a constant inside each
    subgame, so suffix totals rank continuations identically at every
    history, and a suffix survives iff its total is within `bound.ties.tol`
    of the least worst case over the mover's actions. A suffix's total and
    its type are fixed by its edges, so it lies in one state at its node,
    and the states at a node list no suffix twice.

    In MODE_OWN_EDGE the mover pays only for the edge they cancel, so a
    node has one state, which keeps its cheapest outgoing edges and
    everything downstream of them.

    In MODE_PUNISH_FIRST a node has an on-track state, first, which keeps
    the steps that do not foreclose efficiency into the children's
    on-track states, and an off-track state, last, which keeps every step
    into the children's off-track states; where the two would keep the
    same links, the node has one state for both. Off track an earlier
    agent is blamed, so every suffix pays the mover 0 and all are kept.
    On track, a step that forecloses costs the mover the path's total,
    above the cheapest total by more than the tolerance, while a tight
    step costs them an equal share of an efficient total or 0, so only
    tight steps survive. With float losses within a few tolerances of 0
    that margin can vanish, and the profile oracle may keep a foreclosing
    step there.
    """
    at_node: list[list[int]] = [[] for _ in range(dag.n)]
    node: list[int] = []
    links: list[list[int]] = []
    totals: list[Num] = []  # per state in build order (state c at ~c), MODE_TOTALS only
    mode, tol = bound.mode, bound.ties.tol
    for i in range(dag.n - 1, -1, -1):
        succ = dag.succ[i]
        state_totals = None
        if not succ:
            groups = [[]]
        elif mode == MODE_OWN_EDGE:
            steps = [losses[(i, j)] for j in succ]
            cheapest = widen(min(steps), tol)
            groups = [[at_node[j][0] for j, step in zip(succ, steps) if step <= cheapest]]
        elif mode == MODE_PUNISH_FIRST:
            foreclosing = bound.foreclosing
            on = [at_node[j][0] for j in succ if (i, j) not in foreclosing]
            off = [at_node[j][-1] for j in succ]
            groups = [off] if on == off else [on, off]
        else:
            per_action = [[(losses[(i, j)] + totals[~c], c) for c in at_node[j]] for j in succ]
            limit = None
            if bound.cares[i]:
                limit = widen(min([max(opts)[0] for opts in per_action]), tol)
            # one state per (total, type): equal totals of different types
            # stay apart, as 1/3 + 1 and 1/3 + 1.0 differ
            by_total: dict = {}
            for opts in per_action:
                for total, c in opts:
                    if limit is None or total <= limit:
                        by_total.setdefault((total, type(total)), []).append(c)
            groups = list(by_total.values())
            state_totals = [total for total, _ in by_total]
        at_node[i] = list(range(~len(links), ~len(links) - len(groups), -1))
        node.extend([i] * len(groups))
        links.extend(groups)
        totals.extend(state_totals or [0] * len(groups))
    node.reverse()
    links.reverse()
    return at_node, node, links


_MODES = (MODE_TOTALS, MODE_OWN_EDGE, MODE_PUNISH_FIRST)


class SpeSolution:
    """Solved game: SPE outcome sets for the whole game and every subgame.

    The rule is solved into a link table of per-node outcome states (see
    `_node_states`): every state lists the child states it keeps, so the
    suffixes a subgame holds are the paths through its start states.
    `continuations` lists them with one stack walk over those links
    (`graph.list_paths`); no suffix list is kept between queries.

    `efficiency_counts` and `coincides` compare the outcome set with the
    efficient paths by counting (`graph.path_ways`): over the state table,
    and over the tight edges for the efficient set. Only `continuations`,
    `outcomes` and `sorted_outcomes` list paths.
    """

    def __init__(self, dag: Dag, losses: Mapping[Edge, Num], rule: Rule):
        self.dag = dag
        self.losses = losses
        self.bound = rule.bind(losses)
        if self.bound.mode not in _MODES:
            raise GameError(
                f"no solver for mode {self.bound.mode!r} of rule {rule.spec_string}"
            )
        self._at_node, self._node, self._links = _node_states(dag, losses, self.bound)

    def _check_history(self, history: tuple[int, ...]) -> None:
        if not history or history[0] != self.dag.source:
            raise GameError(f"history must start at the source: {history}")
        for u, v in zip(history, history[1:]):
            if not self.dag.has_edge(u, v):
                raise GameError(f"history uses missing edge ({u}, {v})")

    def _start_states(self, history: tuple[int, ...]) -> list[int]:
        """The states whose suffixes are the subgame's SPE outcomes after
        `history`: every state at its node, or under punish-first the
        on-track or the off-track one. They hold no suffix twice."""
        states = self._at_node[history[-1]]
        if self.bound.mode != MODE_PUNISH_FIRST:
            return states
        on_track = self.bound.foreclosing.isdisjoint(zip(history, history[1:]))
        return states[:1] if on_track else states[-1:]

    def continuations(self, history: tuple[int, ...]) -> set[Path]:
        """SPE outcomes of the subgame after `history`, as full paths."""
        self._check_history(history)
        return set(list_paths(self._links, self._start_states(history),
                              node=self._node, prefix=history[:-1]))

    def outcomes(self) -> set[Path]:
        return self.continuations((self.dag.source,))

    def sorted_outcomes(self) -> list[Path]:
        """The paths of `outcomes` in a list sorted by nodes, checked as
        source-to-sink paths of the graph by one pass over the states the
        roots reach: the roots sit at the source, every kept link follows
        an edge, and every state without links sits at a sink (a path along
        a DAG's edges repeats no node); any other table raises GameError.

        The walk's order is not always the order by nodes: with float
        losses `step + total` can round two child states' totals at one
        node to one parent total (a step of 1e16 onto 0.0 and 1.0), and
        that parent state links both. So the list is sorted, in place.
        """
        dag, node, links = self.dag, self._node, self._links
        labels = dag.labels
        roots = self._start_states((dag.source,))
        for r in roots:
            if node[r] != dag.source:
                raise GameError(f"an outcome state at {labels[node[r]]!r} is a root")
        seen, stack = set(roots), list(roots)
        while stack:
            e = stack.pop()
            u = node[e]
            if not links[e] and u not in dag.sinks:
                raise GameError(f"an outcome state at non-sink {labels[u]!r} keeps no link")
            for c in links[e]:
                if not dag.has_edge(u, node[c]):
                    raise GameError(f"an outcome state links {labels[u]!r} to "
                                    f"{labels[node[c]]!r}, which is not an edge")
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        paths = list_paths(links, roots, node=node)
        paths.sort(key=operator.attrgetter("nodes"))
        return paths

    def efficiency_counts(
        self, tie_tolerance: Optional[float] = None
    ) -> tuple[int, int, int]:
        """(|SPE|, |EFF|, |SPE & EFF|) for the whole game, without listing
        either set.

        EFF is the set `efficient_paths` returns under `tie_tolerance`:
        the paths whose every step is tight under `graph.Ties`, the bound
        rule's own `ties` when None, else a second one under that
        tolerance. Its size is a backward count over the tight edges. The
        intersection counts the outcomes whose every step is tight. A
        tolerance `efficient_paths` refuses (negative, infinite, NaN)
        raises the same GraphError here.
        """
        dag = self.dag
        ties = self.bound.ties if tie_tolerance is None else Ties(dag, self.losses, tie_tolerance)
        tight = ties.tight
        node, links = self._node, self._links
        every = path_ways(links)
        on_tight = path_ways(links, lambda e, c: tight(node[e], node[c]))
        roots = self._start_states((dag.source,))
        return (sum([every[c] for c in roots]), path_ways(dag.succ, tight)[dag.source],
                sum([on_tight[c] for c in roots]))

    def coincides(self, tie_tolerance: Optional[float] = None) -> bool:
        """Whether the SPE outcomes are exactly the efficient paths under
        `tie_tolerance`: both sets and their intersection are equally large."""
        spe, eff, both = self.efficiency_counts(tie_tolerance)
        return spe == eff == both


def spe_solve(dag: Dag, losses: Mapping[Edge, Num], rule: Rule) -> SpeSolution:
    return SpeSolution(dag, losses, rule)


def spe_outcomes(dag: Dag, losses: Mapping[Edge, Num], rule: Rule) -> set[Path]:
    """Exact set of SPE outcome paths, minimizing each agent's liability.

    Comparisons are exact when losses are exact-valued, else use a 1e-9
    tolerance. The returned set lists every outcome;
    `SpeSolution.efficiency_counts` counts them instead.
    """
    return SpeSolution(dag, losses, rule).outcomes()


# ---------------------------------------------------------------------------
# brute-force oracle


class _GameTables(NamedTuple):
    histories: list[tuple[int, ...]]  # breadth-first, parents before children
    children: list[list[int] | None]  # per history: child history indices
    decisions: list[int]  # history indices where a choice exists
    terminal_pid: dict[int, int]  # terminal history index -> path id
    paths: list[tuple[int, ...]]
    pay: list[tuple[Num, ...]]  # path id -> liability vector


def _build_tables(dag: Dag, bound: Rule) -> _GameTables:
    histories: list[tuple[int, ...]] = [(dag.source,)]
    children: list[list[int] | None] = []
    decisions: list[int] = []
    terminal_pid: dict[int, int] = {}
    paths: list[tuple[int, ...]] = []
    pay: list[tuple[Num, ...]] = []
    idx = 0
    while idx < len(histories):
        hist = histories[idx]
        mover = hist[-1]
        if dag.succ[mover]:
            kids = []
            for j in dag.succ[mover]:
                kids.append(len(histories))
                histories.append(hist + (j,))
            children.append(kids)
            decisions.append(idx)
        else:
            children.append(None)
            terminal_pid[idx] = len(paths)
            paths.append(hist)
            pay.append(tuple(bound.vector(Path(hist))))
        idx += 1
    return _GameTables(histories, children, decisions, terminal_pid, paths, pay)


def _spe_profiles(dag: Dag, losses, rule: Rule, profile_cap: int):
    """Yield (tables, choices, play) for every SPE profile.

    `choices[k]` is the successor position chosen at decision history
    `tables.decisions[k]`; `play[h]` is the path id each history leads to
    under the profile.
    """
    bound = rule.bind(losses)
    total = profile_count(dag)
    if total > profile_cap:
        raise ProfileCapExceeded(
            f"{total} strategy profiles exceed the cap of {profile_cap}"
        )
    tables = _build_tables(dag, bound)
    pay_exact = bound.ties.tol == 0 and all(
        isinstance(v, (int, Fraction)) for vec in tables.pay for v in vec
    )
    tol = 0.0 if pay_exact else 1e-9
    n_hist = len(tables.histories)
    decisions = tables.decisions
    children = tables.children
    pay = tables.pay
    movers = [tables.histories[d][-1] for d in decisions]
    option_counts = [len(children[d]) for d in decisions]
    choice_of_hist = {d: k for k, d in enumerate(decisions)}
    for choices in itertools.product(*(range(c) for c in option_counts)):
        play: list[int] = [0] * n_hist
        for h in range(n_hist - 1, -1, -1):
            kids = children[h]
            if kids is None:
                play[h] = tables.terminal_pid[h]
            else:
                play[h] = play[kids[choices[choice_of_hist[h]]]]
        ok = True
        for k, d in enumerate(decisions):
            mover = movers[k]
            current = pay[play[d]][mover]
            # an int pay beyond 2**53 minus a float can round up
            floor = current if tol == 0 else min(current, current - tol)
            kids = children[d]
            chosen = choices[k]
            for alt in range(len(kids)):
                if alt == chosen:
                    continue
                if pay[play[kids[alt]]][mover] < floor:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield tables, choices, play


def spe_bruteforce(
    dag: Dag,
    losses: Mapping[Edge, Num],
    rule: Rule,
    profile_cap: int = 1_000_000,
) -> set[Path]:
    """Definitional oracle: enumerate pure profiles, keep those with no
    profitable one-shot deviation at any history, return their outcomes."""
    outcomes: set[Path] = set()
    for tables, _choices, play in _spe_profiles(dag, losses, rule, profile_cap):
        outcomes.add(Path(tables.paths[play[0]]))
    return outcomes


class RobustnessResult(NamedTuple):
    robust: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.robust


def check_robust_efficiency(
    dag: Dag,
    losses: Mapping[Edge, Num],
    rule: Rule,
    profile_cap: int = 1_000_000,
) -> RobustnessResult:
    """True iff every SPE profile plays a cheapest continuation at every
    history, including histories off the realized path.

    The witness names the first SPE profile and history where the chosen
    edge is not on a cheapest continuation.
    """
    bound = rule.bind(losses)
    tight = bound.ties.tight
    for tables, choices, _play in _spe_profiles(dag, losses, bound, profile_cap):
        for k, d in enumerate(tables.decisions):
            hist = tables.histories[d]
            mover = hist[-1]
            chosen = dag.succ[mover][choices[k]]
            if not tight(mover, chosen):
                optimal = [dag.labels[j] for j in dag.succ[mover] if tight(mover, j)]
                profile = {
                    "->".join(dag.labels[x] for x in tables.histories[dd]): dag.labels[
                        dag.succ[tables.histories[dd][-1]][choices[kk]]
                    ]
                    for kk, dd in enumerate(tables.decisions)
                }
                witness = {
                    "history": [dag.labels[x] for x in hist],
                    "chosen": dag.labels[chosen],
                    "optimal": optimal,
                    "profile": profile,
                }
                return RobustnessResult(False, witness)
    return RobustnessResult(True)
