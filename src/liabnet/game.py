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
of the alternative act as threats). It solves each subgame state once.
For rules that rank continuations by their total or by the mover's own
edge, the subgame state is the node, and the solver builds per-node
outcome states instead of path lists: one per distinct suffix total, or
one per node for own-edge rules, each keeping the (successor, child state)
links that survive. The outcome set is the set of paths through those
states, so its size, and how many of its paths are efficient, are
backward counts over the table (`SpeSolution.efficiency_counts`); that
decides whether the outcomes are exactly the efficient paths without
listing either set. For other rules the state is the rule's `subgame_key`
of the history: the history itself by default, or a coarser key
(punish-first uses the node and whether play is still on an efficient
path), and the solver memoizes the list of SPE suffixes, the paths from
the state's node on. The rule prices those suffixes for the mover
(`Rule.mover_pays`) as labels with one pay each, so the solver compares
each distinct pay once; punish-first prices by class without calling
`vector`. Outcome paths are enumerated only when asked for
(`SpeSolution.continuations`, `outcomes`, `spe_outcomes`).
`spe_bruteforce` is the definitional oracle: enumerate
every pure strategy profile over all histories and keep the ones with no
profitable one-shot deviation anywhere, on or off the realized path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Optional

from .graph import (
    Dag,
    Edge,
    Num,
    Path,
    _backward_ways,
    _forward_ways,
    continuation_costs,
    default_tolerance,
    exact_valued,
    resolve_tolerance,
    tight_step,
    widen,
)
from .rules import MODE_OWN_EDGE, MODE_TOTALS, Rule


class GameError(Exception):
    """Raised when a game computation exceeds its stated caps."""


class HistoryCapExceeded(GameError):
    pass


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


@dataclass
class _StateTable:
    """Outcome states of the node-keyed solver modes, numbered in the
    order they are built: backward by node, so every state's children have
    smaller numbers than it."""

    at_node: list[list[int]]  # per node: its states, in number order
    kept: list[list[tuple[int, int]]]  # per state: (successor, child state) links


def _node_states(dag: Dag, losses, bound: Rule, tol) -> _StateTable:
    """Backward induction over per-node outcome states.

    A state holds a set of suffixes from its node: a kept link to a child
    state at a successor j extends each of the child's suffixes by the
    step to j; a sink's one state holds the sink alone. In MODE_TOTALS a
    node has one state per distinct suffix total, summed from the sink
    back as `step + total`: the mover's payment is monotone in the final
    total and the prefix cost is a constant inside each subgame, so suffix
    totals rank continuations identically at every history, and a suffix
    survives iff its total is within `tol` of the least worst case over
    the mover's actions. In MODE_OWN_EDGE the mover pays only for the edge
    they cancel, so a node has one state, which keeps its cheapest
    outgoing edges and everything downstream of them.
    """
    at_node: list[list[int]] = [[] for _ in range(dag.n)]
    kept: list = []
    totals: list[Num] = []  # per state, read in MODE_TOTALS only
    own_edge = bound.mode == MODE_OWN_EDGE
    for i in range(dag.n - 1, -1, -1):
        succ = dag.succ[i]
        if not succ or own_edge:
            links = []
            if succ:
                steps = [losses[(i, j)] for j in succ]
                cheapest = widen(min(steps), tol)
                links = [(j, at_node[j][0]) for j, step in zip(succ, steps) if step <= cheapest]
            at_node[i] = [len(kept)]
            kept.append(links)
            totals.append(0)
            continue
        per_action = [[(losses[(i, j)] + totals[c], j, c) for c in at_node[j]] for j in succ]
        limit = None
        if bound.cares[i]:
            limit = widen(min([max(opts)[0] for opts in per_action]), tol)
        # one state per (total, type): equal totals of different types stay
        # apart, as 1/3 + 1 and 1/3 + 1.0 differ
        by_total: dict = {}
        for opts in per_action:
            for total, j, c in opts:
                if limit is None or total <= limit:
                    key = (total, type(total))
                    if key in by_total:
                        by_total[key].append((j, c))
                    else:
                        by_total[key] = [(j, c)]
        at_node[i] = list(range(len(kept), len(kept) + len(by_total)))
        kept.extend(by_total.values())
        totals.extend([total for total, _ in by_total])
    return _StateTable(at_node, kept)


class SpeSolution:
    """Solved game: SPE outcome sets for the whole game and every subgame.

    Total-monotone and own-edge rules are solved into a table of per-node
    outcome states (see `_node_states`): every state lists the (successor,
    child state) links it keeps, so the suffixes a node holds are the
    paths through its states. `continuations` lists them from the table,
    building each state's suffix list once. Other rules memoize, per the
    rule's `subgame_key` of a history (the history itself unless the rule
    says otherwise), the list of SPE suffixes that start at its node. The
    rule's `mover_pays` prices the suffixes of each action, and the mover
    keeps a suffix when its pay is at most the least, over the actions, of
    each action's largest pay, widened by the tie tolerance. Those are
    solved only for a subgame of at most `history_cap` histories, however
    few states it has.

    `efficiency_counts` and `coincides` compare the outcome set with the
    efficient paths by counting: backward over the state table for the
    node-keyed modes, over the memoized suffix list otherwise, and over
    the tight edges for the efficient set. Only `continuations` and
    `outcomes` list paths.
    """

    def __init__(
        self,
        dag: Dag,
        losses: Mapping[Edge, Num],
        rule: Rule,
        history_cap: int = 1_000_000,
    ):
        self.dag = dag
        self.losses = losses
        self.bound = rule.bind(losses)
        self.tol = default_tolerance(losses)
        self._history_cap = history_cap
        self._states = None
        if self.bound.mode in (MODE_TOTALS, MODE_OWN_EDGE):
            self._states = _node_states(dag, losses, self.bound, self.tol)
            # per state, in state order: its suffixes, listed on demand
            self._suffix_lists: list[list[tuple[int, ...]]] = []
            self._listed_from = dag.n
        else:
            self._state_memo: dict[Hashable, list[tuple[int, ...]]] = {}

    def _solve_state(
        self, hist: tuple[int, ...], key: Hashable
    ) -> list[tuple[int, ...]]:
        # Depth-first over subgame states with an explicit stack, children
        # in successor order, so depth is not bounded by the recursion
        # limit. `path` is the history being solved; by the subgame_key
        # contract any history with the same key would price alike.
        memo = self._state_memo
        if key in memo:
            return memo[key]
        # the cap bounds the subgame, not the memo: a coarse key memoizes
        # few states, but their outcome sets still grow with the subgame
        histories = history_count(self.dag, hist[-1])
        if histories > self._history_cap:
            raise HistoryCapExceeded(
                f"{histories} histories exceed the cap of {self._history_cap}; "
                "raise history_cap"
            )
        succ = self.dag.succ
        subgame_key = self.bound.subgame_key
        path = list(hist)
        stack = [(key, iter(succ[hist[-1]]))]
        while stack:
            k, untried = stack[-1]
            mover = path[-1]
            for j in untried:
                child = subgame_key(k, mover, j)
                if child not in memo:
                    path.append(j)
                    stack.append((child, iter(succ[j])))
                    break
            else:
                stack.pop()
                memo[k] = self._keep(k, path) if succ[mover] else [(mover,)]
                path.pop()
        return memo[key]

    def _keep(self, key: Hashable, path: list[int]) -> list[tuple[int, ...]]:
        """SPE suffixes at the mover ending history `path` (state `key`)
        from its children's: each costs the mover no more than the
        costliest outcome of every action would."""
        mover = path[-1]
        per_action = [
            self._state_memo[self.bound.subgame_key(key, mover, j)]
            for j in self.dag.succ[mover]
        ]
        if len(per_action) == 1:
            # a lone action is kept whole: its costliest outcome bounds itself
            return [(mover,) + s for s in per_action[0]]
        priced = self.bound.mover_pays(key, tuple(path), per_action)
        limit = widen(min([max(pays) for _, pays in priced]), self.tol)
        kept = []
        for outs, (labels, pays) in zip(per_action, priced):
            ok = [pay <= limit for pay in pays]
            kept += [(mover,) + s for s, label in zip(outs, labels) if ok[label]]
        return kept

    def _check_history(self, history: tuple[int, ...]) -> None:
        if not history or history[0] != self.dag.source:
            raise GameError(f"history must start at the source: {history}")
        for u, v in zip(history, history[1:]):
            if not self.dag.has_edge(u, v):
                raise GameError(f"history uses missing edge ({u}, {v})")

    def _node_suffixes(self, node: int) -> list[tuple[int, ...]]:
        """Every suffix the states at `node` hold. The suffix lists of the
        states at `node` and every later node are built once, backward,
        and kept for later queries."""
        table, lists = self._states, self._suffix_lists
        for i in range(self._listed_from - 1, node - 1, -1):
            for state in table.at_node[i]:
                links = table.kept[state]
                lists.append([(i,) + s for _, c in links for s in lists[c]] or [(i,)])
        self._listed_from = min(self._listed_from, node)
        return [s for state in table.at_node[node] for s in lists[state]]

    def _history_key(self, history: tuple[int, ...]) -> Hashable:
        key = self.bound.subgame_key(None, None, history[0])
        for i, j in zip(history, history[1:]):
            key = self.bound.subgame_key(key, i, j)
        return key

    def continuations(self, history: tuple[int, ...]) -> set[Path]:
        """SPE outcomes of the subgame after `history`, as full paths."""
        self._check_history(history)
        prefix = history[:-1]
        if self._states is not None:
            suffixes = self._node_suffixes(history[-1])
        else:
            suffixes = self._solve_state(history, self._history_key(history))
        return {Path(prefix + sfx) for sfx in suffixes}

    def outcomes(self) -> set[Path]:
        return self.continuations((self.dag.source,))

    def efficiency_counts(
        self, tie_tolerance: Optional[float] = None
    ) -> tuple[int, int, int]:
        """(|SPE|, |EFF|, |SPE & EFF|) for the whole game, without listing
        either set.

        EFF is the set `efficient_paths` returns under `tie_tolerance`
        (the solver's own tolerance when None): the paths whose every step
        is tight (`graph.tight_step`). Its size is a backward count over
        the tight edges. The intersection counts the outcomes whose every
        step is tight. A tolerance `efficient_paths` refuses (negative,
        infinite, NaN) raises the same GraphError here.
        """
        dag, losses = self.dag, self.losses
        tol = resolve_tolerance(losses, tie_tolerance)
        tight = tight_step(losses, continuation_costs(dag, losses), tol)
        eff = _backward_ways(dag, tight)[dag.source]
        if self._states is None:
            source = (dag.source,)
            suffixes = self._solve_state(source, self._history_key(source))
            loose = {e for e in dag.edges if not tight(*e)}
            both = sum(loose.isdisjoint(zip(s, s[1:])) for s in suffixes)
            return len(suffixes), eff, both
        # per state: the suffixes it holds, and those using only tight edges
        table = self._states
        every: list[int] = []
        on_tight: list[int] = []
        for i in range(dag.n - 1, -1, -1):
            for state in table.at_node[i]:
                links = table.kept[state]
                n_all = n_tight = 0 if links else 1  # a sink ends one suffix
                for j, c in links:
                    n_all += every[c]
                    if tight(i, j):
                        n_tight += on_tight[c]
                every.append(n_all)
                on_tight.append(n_tight)
        at_source = table.at_node[dag.source]
        return (
            sum(every[c] for c in at_source),
            eff,
            sum(on_tight[c] for c in at_source),
        )

    def coincides(self, tie_tolerance: Optional[float] = None) -> bool:
        """Whether the SPE outcomes are exactly the efficient paths under
        `tie_tolerance`: both sets and their intersection are equally large."""
        spe, eff, both = self.efficiency_counts(tie_tolerance)
        return spe == eff == both


def spe_solve(
    dag: Dag,
    losses: Mapping[Edge, Num],
    rule: Rule,
    history_cap: int = 1_000_000,
) -> SpeSolution:
    return SpeSolution(dag, losses, rule, history_cap)


def spe_outcomes(
    dag: Dag,
    losses: Mapping[Edge, Num],
    rule: Rule,
    history_cap: int = 1_000_000,
) -> set[Path]:
    """Exact set of SPE outcome paths, minimizing each agent's liability.

    Comparisons are exact when losses are exact-valued, else use a 1e-9
    tolerance. Rules whose payments are monotone in the realized total or
    depend on the mover's own edge only are solved into per-node outcome
    states; other rules with one suffix list per subgame state (see
    `Rule.subgame_key`), and raise HistoryCapExceeded on a game of more
    than `history_cap` histories. Either way the returned set lists every
    outcome; `SpeSolution.efficiency_counts` counts them instead.
    """
    return SpeSolution(dag, losses, rule, history_cap).outcomes()


# ---------------------------------------------------------------------------
# brute-force oracle


@dataclass
class _GameTables:
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
    pay_exact = exact_valued(losses) and all(
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
            floor = current if tol == 0 else current - tol
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


@dataclass(frozen=True)
class RobustnessResult:
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
    cont = continuation_costs(dag, losses)
    tight = tight_step(losses, cont, default_tolerance(losses))
    for tables, choices, _play in _spe_profiles(dag, losses, rule, profile_cap):
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
