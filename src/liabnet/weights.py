"""Importance weights for the fixed-weight liability rule.

The canonical weights split 1/|paths| equally among each path's non-sink
nodes and sum over paths. They equal the Shapley value of the cooperative
game in which a coalition's worth is the fraction of source-to-sink paths
whose non-sink nodes it contains. Three independent computations are
provided so they can cross-check each other:

- `wstar_enumerate`: direct sum over enumerated paths.
- `shapley_bruteforce`: exact Shapley value over all coalitions, read
  from one table of covered paths per coalition (`_coverage_counts`),
  which `core_check` reads too.
- `wstar_dp`: one forward and one backward pass that give every node its
  subpath counts by length, packed into one integer (`_packed_counts`),
  then a per-node product of the two integers, which counts the paths
  through the node by length, weighted in integers; it scales to graphs
  far beyond enumeration (thousands of nodes, 1e17 paths).

All three give exact rationals; `wstar_dp` gives them as integer
numerators over one common denominator, which `check_simplex`, `as_dict`
and the fixed-weight rule read, and builds the `Fraction`s only when
`values` is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

from . import LiabnetError
from .graph import Dag, Frozen, Num, count_paths, enumerate_paths, path_ways


class WeightsError(LiabnetError):
    """Raised on coalition or size-cap violations."""


# the most non-sink players whose coalitions are tabled, 2^20 of them
_PLAYER_CAP = 20


class WeightVector(Frozen):
    """Point of the simplex over all nodes, aligned with dag indices.

    `nums` and `den`, when set, are the same weights as integer numerators
    over one common denominator: Fraction(nums[i], den) == values[i]. With
    `nums` set, `values` may be given as None; it is then made on its first
    read. Equality and hashing go by `values` only.
    """

    __slots__ = ("_values", "nums", "den")

    def __init__(
        self, values: tuple[Num, ...] | None, nums: tuple[int, ...] | None = None, den: int = 1
    ):
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def values(self) -> tuple[Num, ...]:
        values = self._values
        if values is None:
            den = self.den
            values = tuple([Fraction(a, den) for a in self.nums])
            object.__setattr__(self, "_values", values)
        return values

    def __eq__(self, other):
        if other.__class__ is WeightVector:
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def as_dict(self, dag: Dag) -> dict[str, float]:
        if self.nums is None:
            return {dag.labels[i]: float(x) for i, x in enumerate(self.values)}
        # int true division is correctly rounded, as float(Fraction) is
        den = self.den
        return {x: a / den for x, a in zip(dag.labels, self.nums)}

    def check_simplex(self) -> None:
        """Raise unless the weights are non-negative and sum to 1: exactly
        when `nums` are set, else within 1e-12."""
        if self.nums is not None:
            negative = min(self.nums) < 0
            total, one = sum(self.nums), self.den
            off = total != one
        else:  # written so that a NaN weight fails both tests
            negative = not all(x >= 0 for x in self.values)
            total, one = sum(self.values), 1
            off = not abs(total - 1) <= 1e-12
        if negative:
            raise WeightsError("weights must be non-negative")
        if off:
            raise WeightsError(f"weights must sum to 1 (got {float(total / one)})")

    def in_delta_star(self, dag: Dag) -> bool:
        """True iff every node with two or more outgoing edges has positive
        weight (the sufficiency condition for efficient equilibria)."""
        return all(self.values[i] > 0 for i in dag.deciders())

    @classmethod
    def from_mapping(cls, dag: Dag, mapping: Mapping[int, Num]) -> "WeightVector":
        return cls(tuple(mapping.get(i, 0) for i in range(dag.n)))


class PathCountTables(NamedTuple):
    """Subpath-count tables.

    forward[x][i]: subpaths from the source to i with exactly x edges.
    backward[y][i]: subpaths from i to any sink with exactly y edges.
    through[i][y]: full source-to-sink paths through i with y edges total.
    """

    forward: tuple[tuple[int, ...], ...]
    backward: tuple[tuple[int, ...], ...]
    through: tuple[tuple[int, ...], ...]
    total_paths: int


def _packed_counts(dag: Dag) -> tuple[int, int, list[int], list[int], list[int], list[int]]:
    """Subpath counts by length, as one integer per node.

    Returns (total, W, flo, fwd, blo, bwd), total being the path count.
    Bits [W*k, W*(k+1)) of fwd[i], its slot k, count the subpaths with
    flo[i] + k edges from the source to i; bwd[i] and blo[i] count those
    from i to any sink. flo[i] and blo[i] are the shortest such lengths,
    so a node whose subpaths all have one length has one slot. One pass in
    topological order (reverse order for backward): a node with one
    neighbour copies its integer, and one with several sums their
    integers, each shifted up one slot per edge its shortest length
    exceeds the least of them. W is one bit more than the total needs,
    and no count, nor any slot of fwd[i] * bwd[i] (paths through i by
    length), exceeds the total, so no slot carries into the next.
    """
    n = dag.n
    total = count_paths(dag)
    width = total.bit_length() + 1
    out: list = [total, width]
    for order, links in ((range(n), dag.pred), (range(n - 1, -1, -1), dag.succ)):
        lo = [0] * n
        packed = [1] * n  # the source (forward), the sinks (backward)
        for i in order:
            nbrs = links[i]
            if len(nbrs) == 1:
                j = nbrs[0]
                packed[i], lo[i] = packed[j], lo[j] + 1
            elif nbrs:
                first = min(map(lo.__getitem__, nbrs))
                acc = 0
                for j in nbrs:
                    k = lo[j] - first  # a zero shift would still copy the integer
                    acc += packed[j] << width * k if k else packed[j]
                packed[i], lo[i] = acc, first + 1
        out += (lo, packed)
    return tuple(out)


def _slots(x: int, width: int) -> list[int]:
    """The `width`-bit slots of x, lowest first, up to its highest nonzero one."""
    mask = (1 << width) - 1
    return [x >> k & mask for k in range(0, x.bit_length(), width)]


def path_count_tables(dag: Dag) -> PathCountTables:
    """The dense tables, laid out from the slots of `_packed_counts`."""
    n = dag.n
    total, width, flo, fwd, blo, bwd = _packed_counts(dag)

    def dense(lo: list[int], packed: list[int]) -> tuple[tuple[int, ...], ...]:
        runs = [_slots(x, width) for x in packed]
        rows = [[0] * n for _ in range(max(l + len(r) for l, r in zip(lo, runs)))]
        for i in range(n):
            for k, c in enumerate(runs[i], lo[i]):
                rows[k][i] = c
        return tuple(map(tuple, rows))

    forward, backward = dense(flo, fwd), dense(blo, bwd)
    max_len = len(forward) + len(backward) - 2
    through: list[tuple[int, ...]] = []
    for i in range(n):
        conv = [0] * (max_len + 1)
        for y, c in enumerate(_slots(fwd[i] * bwd[i], width), flo[i] + blo[i]):
            conv[y] = c
        through.append(tuple(conv))
    return PathCountTables(
        forward=forward,
        backward=backward,
        through=tuple(through),
        total_paths=total,
    )


def wstar_dp(dag: Dag) -> WeightVector:
    """Canonical weights from per-node packed length counts; scales to large
    graphs.

    For every non-sink i the weight is (1/|paths|) * sum_y through_i(y) / y,
    where through_i(y) counts the paths through i with y edges (= y non-sink
    nodes): slot y - flo[i] - blo[i] of fwd[i] * bwd[i] (`_packed_counts`),
    read off one slot at a time. With D the lcm of the path lengths that
    occur (the nonzero slots of bwd[source]), every weight is an integer
    numerator over the one denominator D * |paths|;
    the result carries both (`nums`, `den`), and its exact rationals are
    made from them only when read.
    """
    total, width, flo, fwd, blo, bwd = _packed_counts(dag)
    lo, counts = blo[dag.source], _slots(bwd[dag.source], width)  # paths by length
    denom = math.lcm(*[y for y, c in enumerate(counts, lo) if c])
    per_len = [0] * lo + [denom // y if c else 0 for y, c in enumerate(counts, lo)]
    mask = (1 << width) - 1
    nums = [0] * dag.n
    for i, vs in enumerate(dag.succ):
        if vs:
            # slot k counts the paths through i with y = flo + blo + k edges
            through, y, acc = fwd[i] * bwd[i], flo[i] + blo[i], 0
            while through:
                acc += (through & mask) * per_len[y]
                through >>= width
                y += 1
            nums[i] = acc
    den = denom * total
    return WeightVector(None, tuple(nums), den)


def wstar_enumerate(dag: Dag, cap: int | None = None) -> WeightVector:
    """Canonical weights by direct summation over enumerated paths."""
    paths = enumerate_paths(dag, cap=cap)
    total = len(paths)
    acc = [Fraction(0)] * dag.n
    for p in paths:
        share = Fraction(1, len(p.movers) * total)
        for i in p.movers:
            acc[i] += share
    return WeightVector(tuple(acc))


def path_counting_value(dag: Dag, coalition: Iterable[int]) -> Fraction:
    """Worth of a coalition: the fraction of paths it covers.

    A path is covered when all of its non-sink nodes belong to the
    coalition: one backward count of paths over the edges that leave a
    member, no enumeration. Sinks are exempt and may not be members.
    """
    members = frozenset(coalition)
    bad = members & dag.sinks
    if bad:
        raise WeightsError(
            f"coalition contains sink(s): {sorted(dag.labels[i] for i in bad)}"
        )
    covered = path_ways(dag.succ, lambda i, j: i in members)[dag.source]
    return Fraction(covered, count_paths(dag))


def _coverage_counts(dag: Dag, advice: str = "") -> tuple[list[int], list[int]]:
    """The path-counting game as a table over coalitions.

    Returns (players, counts): the non-sink nodes, and counts[mask] = the
    number of paths whose non-sink nodes all lie in the coalition whose
    p-th bit stands for players[p]. One forward pass in topological order
    carries, per node, the paths that reach it grouped by the mask of their
    earlier non-sink nodes; each edge adds its tail's groups into its head
    with the tail's bit set, and each sink adds its groups into counts. A
    subset-sum transform then turns "exactly mask" into "within mask". No
    path is listed. Refuses above `_PLAYER_CAP` players, adding `advice` to
    the message.
    """
    players = [i for i in range(dag.n) if i not in dag.sinks]
    k = len(players)
    if k > _PLAYER_CAP:
        raise WeightsError(f"{k} non-sink players exceeds cap {_PLAYER_CAP}{advice}")
    bit = {node: 1 << p for p, node in enumerate(players)}
    counts = [0] * (1 << k)
    reach: list[dict[int, int]] = [{} for _ in range(dag.n)]
    reach[dag.source][0] = 1
    for i in range(dag.n):
        here, reach[i] = reach[i], {}
        if i in dag.sinks:
            for mask, c in here.items():
                counts[mask] += c
            continue
        b = bit[i]
        for j in dag.succ[i]:
            there = reach[j]
            for mask, c in here.items():
                mask |= b
                there[mask] = there.get(mask, 0) + c
    for p in range(k):
        step = 1 << p
        for mask in range(1 << k):
            if mask & step:
                counts[mask] += counts[mask ^ step]
    return players, counts


def shapley_bruteforce(dag: Dag) -> WeightVector:
    """Exact Shapley value of the path-counting game, in rationals.

    Exponential in the number of non-sink nodes; refuses above
    `_PLAYER_CAP` players.
    """
    players, counts = _coverage_counts(dag)
    k = len(players)
    total = counts[-1]
    fact = [math.factorial(x) for x in range(k + 1)]
    popcount = [0] * (1 << k)
    for m in range(1, 1 << k):
        popcount[m] = popcount[m >> 1] + (m & 1)
    values: list[Num] = [Fraction(0)] * dag.n
    for p, node in enumerate(players):
        b = 1 << p
        acc = 0
        for mask in range(1 << k):
            if mask & b:
                continue
            size = popcount[mask]
            acc += fact[size] * fact[k - 1 - size] * (counts[mask | b] - counts[mask])
        values[node] = Fraction(acc, fact[k] * total)
    return WeightVector(tuple(values))


def core_check(
    dag: Dag,
    weights: Union[WeightVector, Mapping[int, Num]],
    coalitions: Iterable[Iterable[int]] | None = None,
) -> list[dict]:
    """Coalitions whose members' total weight falls short of their worth by
    more than 1e-12.

    With `coalitions` unset, every subset of non-sink nodes is checked
    (exponential; capped at `_PLAYER_CAP` players). Returns one record per
    violation: members, weight sum, coalition worth, deficit.
    """
    if isinstance(weights, WeightVector):
        wv = weights.values
    else:
        wv = tuple(weights.get(i, 0) for i in range(dag.n))

    def record(nodes: tuple[int, ...], value: Fraction) -> dict | None:
        wsum = sum(wv[i] for i in nodes)
        if value - wsum > 1e-12:
            return {
                "coalition": tuple(dag.labels[i] for i in nodes),
                "weight_sum": float(wsum),
                "value": float(value),
                "deficit": float(value - wsum),
            }
        return None

    violations: list[dict] = []
    if coalitions is not None:
        for coalition in coalitions:
            nodes = tuple(sorted(set(coalition)))
            hit = record(nodes, path_counting_value(dag, nodes))
            if hit:
                violations.append(hit)
        return violations

    players, counts = _coverage_counts(dag, "; pass explicit coalitions")
    k = len(players)
    total = counts[-1]
    for mask in range(1 << k):
        nodes = tuple(players[p] for p in range(k) if mask & (1 << p))
        hit = record(nodes, Fraction(counts[mask], total))
        if hit:
            violations.append(hit)
    return violations
