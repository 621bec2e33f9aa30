"""Directed acyclic cancellation networks: construction, validation, paths.

A network is a DAG with a unique source (the node first hit by a shock),
one or more sinks, and a non-negative loss attached to every edge. Nodes
are exposed as string labels but handled internally as dense integer
indices that respect a topological order, so index(i) < index(j) whenever
there is an edge i -> j.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
import math
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from . import LiabnetError

Num = Union[int, float, Fraction]
Edge = tuple[int, int]
LabelEdge = tuple[str, str]


class GraphError(LiabnetError):
    """Base error for graph construction and queries."""


class GraphValidationError(GraphError):
    """Raised when raw node/edge data does not form a valid network."""


class PathCapExceeded(GraphError):
    """Raised when an enumeration would produce more paths than allowed."""


class Frozen:
    """Base of the immutable value classes. A subclass lists its fields in
    `__slots__`, and its `__init__` takes them in that order and sets each
    once through `object.__setattr__`; assigning or deleting a field later
    raises AttributeError. Pickle's own restore of slots would assign them,
    so an instance pickles as a call of its class on its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self) -> str:
        fields = (f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class ValidationReport(NamedTuple):
    """Outcome of validating raw node/edge lists.

    `checks` are hard requirements; `warnings` flag structural features
    (currently: a bottleneck node that lies on every path) that do not
    prevent construction.
    """

    checks: tuple[CheckResult, ...]
    warnings: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "warnings": list(self.warnings),
        }


class Dag(Frozen):
    """Immutable DAG with a unique source and topologically sorted indices.
    It equals and hashes as itself only.

    Fields:
        labels: node labels; position in the tuple is the node index.
        edges: sorted (u, v) index pairs, u < v.
        succ / pred: per-node sorted neighbor indices; `has_edge` bisects
            `succ`, so it costs the log of its first node's out-degree.
        source: index of the unique in-degree-0 node (always 0).
        sinks: indices of out-degree-0 nodes.
    """

    __slots__ = ("labels", "edges", "succ", "pred", "source", "sinks", "_index")

    def __init__(
        self,
        labels: tuple[str, ...],
        edges: tuple[Edge, ...],
        succ: tuple[tuple[int, ...], ...],
        pred: tuple[tuple[int, ...], ...],
        source: int,
        sinks: frozenset[int],
        _index: dict[str, int],
    ):
        for k, x in zip(self.__slots__, (labels, edges, succ, pred, source, sinks, _index)):
            object.__setattr__(self, k, x)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"unknown node label: {label!r}") from None

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < len(self.succ):  # a negative u would read from the end
            return False
        vs = self.succ[u]
        k = bisect_left(vs, v)
        return k < len(vs) and vs[k] == v

    def deciders(self) -> tuple[int, ...]:
        """Nodes with two or more outgoing edges (real choices to make)."""
        return tuple(i for i in range(self.n) if len(self.succ[i]) >= 2)

    def edge_labels(self) -> tuple[LabelEdge, ...]:
        return tuple((self.labels[u], self.labels[v]) for u, v in self.edges)


class Path(Frozen):
    """Source-to-sink node sequence; equal, hashed and sized by its nodes,
    so paths can live in sets."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: tuple[int, ...]):
        object.__setattr__(self, "nodes", nodes)

    def __eq__(self, other):
        if other.__class__ is Path:
            return self.nodes == other.nodes
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.nodes)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.nodes, self.nodes[1:]))

    @property
    def movers(self) -> tuple[int, ...]:
        """Non-sink nodes of the path (each chose the next edge)."""
        return self.nodes[:-1]

    @property
    def sink(self) -> int:
        return self.nodes[-1]

    def labels(self, dag: Dag) -> tuple[str, ...]:
        return tuple(map(dag.labels.__getitem__, self.nodes))

    def __len__(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------------
# construction and validation


def _structural_checks(
    nodes: Sequence[str], edges: Sequence[LabelEdge], source: str | None
) -> tuple[list[CheckResult], Dag | None]:
    """Run the hard validation checks on raw data and, if all pass, build
    the Dag; (checks, dag), with dag None whenever any check failed.

    Works on input positions: each label maps to its first position, each
    accepted edge to a pair of positions, deduplicated on the int key
    `a * n + b`, and Kahn's algorithm takes the smallest ready position
    first. The Dag gets each node's successors renumbered by rank and
    sorted, node by node in rank order, with no global sort of the edges.
    """
    n = len(nodes)
    first: dict[str, int] = {}
    dup = sorted({x for k, x in enumerate(nodes) if first.setdefault(x, k) != k})
    bad = [f"duplicate node labels: {dup}"] if dup else []
    succ: list[list[int]] = [[] for _ in nodes]
    indeg = [0] * n
    seen: set[int] = set()
    for u, v in edges:
        a, b = first.get(u), first.get(v)
        if a is None or b is None:
            bad.append(f"edge ({u!r}, {v!r}) references an unknown node")
        elif a == b:
            bad.append(f"self-loop at {u!r}")
        elif (key := a * n + b) in seen:
            bad.append(f"duplicate edge ({u!r}, {v!r})")
        else:
            seen.add(key)
            succ[a].append(b)
            indeg[b] += 1
    checks = [
        CheckResult("labels", not bad, "; ".join(bad) if bad else "labels and edges well formed"),
        CheckResult("min_size", n >= 3, f"{n} nodes (need at least 3)"),
    ]
    if bad:
        return checks, None

    roots = [k for k, d in enumerate(indeg) if not d]
    heap = roots.copy()  # ascending, so already a heap
    order: list[int] = []
    while heap:
        k = heapq.heappop(heap)
        order.append(k)
        for j in succ[k]:
            indeg[j] -= 1
            if not indeg[j]:
                heapq.heappush(heap, j)
    acyclic = len(order) == n
    checks.append(
        CheckResult("acyclic", acyclic, "topological order exists" if acyclic else "cycle detected")
    )

    unique = False
    if source is not None and source not in first:
        detail = f"declared source {source!r} unknown"
    elif not roots:
        detail = "zero nodes with in-degree 0"
    elif len(roots) > 1:
        detail = f"multiple in-degree-0 nodes: {[nodes[k] for k in roots]}"
    elif source is not None and nodes[roots[0]] != source:
        detail = f"declared source {source!r} but in-degree-0 node is {nodes[roots[0]]!r}"
    else:
        unique, detail = True, f"source is {nodes[roots[0]]!r}"
    checks.append(CheckResult("unique_source", unique, detail))

    if acyclic and len(roots) == 1:
        # Both always pass here. In an acyclic graph every node has an
        # in-degree-0 ancestor, and there is only one, so it reaches every
        # node; and the last node in topological order has no successor.
        checks.append(CheckResult("connected", True, "every node reachable from the source"))
        checks.append(
            CheckResult("sinks", True, f"sinks: {[x for x, s in zip(nodes, succ) if not s]}")
        )
    if not all(c.passed for c in checks):
        return checks, None
    rank = [0] * n
    for r, k in enumerate(order):
        rank[k] = r
    labels = [nodes[k] for k in order]
    ranked = [sorted(map(rank.__getitem__, succ[k])) for k in order]
    return checks, _index_dag(labels, dict(zip(labels, range(n))), ranked)


def build_dag(
    nodes: Sequence[str], edges: Sequence[LabelEdge], source: str | None = None
) -> Dag:
    """Construct a Dag from raw label data, raising on invalid input.

    Node indices follow the least topological order by input position:
    each next index goes to the earliest-listed node whose predecessors
    all have indices already.

    Args:
        nodes: node labels (unique).
        edges: (from, to) label pairs.
        source: optional declared source label; checked against the unique
            in-degree-0 node if given.

    Raises:
        GraphValidationError: listing every failed structural check.
    """
    checks, dag = _structural_checks(nodes, edges, source)
    if dag is None:
        msgs = "; ".join(f"{c.name}: {c.detail}" for c in checks if not c.passed)
        raise GraphValidationError(msgs)
    return dag


def _index_dag(
    labels: Sequence[str], index: dict[str, int], succ: Sequence[list[int]]
) -> Dag:
    """The assembly step shared by `_structural_checks` and
    `generators.random_dag`, whose input is checked or valid by
    construction. `succ[u]` lists u's successors in `labels`, ascending
    and each after u; `index` maps each label to its position. The edges
    come out sorted, and one pass over them fills `pred`, sorted too."""
    edges = [(u, v) for u, vs in enumerate(succ) for v in vs]
    pred: list[list[int]] = [[] for _ in labels]
    for u, v in edges:
        pred[v].append(u)
    return Dag(
        labels=tuple(labels),
        edges=tuple(edges),
        succ=tuple(map(tuple, succ)),
        pred=tuple(map(tuple, pred)),
        source=0,
        sinks=frozenset([u for u, vs in enumerate(succ) if not vs]),
        _index=index,
    )


def validate(
    nodes: Sequence[str], edges: Sequence[LabelEdge], source: str | None = None
) -> ValidationReport:
    """Validate raw node/edge lists without raising.

    Hard checks: well-formed labels, at least 3 nodes, acyclicity, a unique
    in-degree-0 source; reachability of every node and existence of a sink
    follow from the last two and are reported with them.
    Soft check (warning only): a bottleneck, i.e. an interior node lying on
    every source-to-sink path. With fwd[i] source-to-i paths and bwd[i]
    i-to-sink paths, fwd[i] * bwd[i] paths pass through i, so i is a
    bottleneck iff fwd[i] * bwd[i] == total: one O(n + m) pass each way.
    Weights and equilibria stay computable with a bottleneck; only the
    characterization-style tests exclude it.
    """
    checks, dag = _structural_checks(nodes, edges, source)
    warnings: list[str] = []
    if dag is not None:
        fwd, bwd = _forward_ways(dag), path_ways(dag.succ)
        for i in range(dag.n):
            if i != dag.source and i not in dag.sinks and fwd[i] * bwd[i] == bwd[dag.source]:
                warnings.append(
                    f"bottleneck: node {dag.labels[i]!r} lies on every source-sink path"
                )
    return ValidationReport(checks=tuple(checks), warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# paths


def path_ways(links: Sequence[Sequence[int]], keep: Callable | None = None) -> list[int]:
    """ways[e] = number of paths from entry e of a link table, by one
    backward pass.

    A link table is a path set: entry e links to the entries `links[e]`,
    each after e, and a path runs along links to an entry without any. For
    the whole graph entry i is node i and `links` is `dag.succ` itself;
    `SpeSolution` builds one of outcome states. Only links e -> c with
    keep(e, c) are followed, all when keep is None, so an entry whose links
    all fail it ends no path.
    """
    ways = [1] * len(links)  # an entry without links ends one path
    for e in range(len(links) - 1, -1, -1):
        kids = links[e]
        if kids:
            w = 0
            for c in kids:
                if keep is None or keep(e, c):
                    w += ways[c]
            ways[e] = w
    return ways


def list_paths(links: Sequence[Sequence[int]], roots: Sequence[int], keep: Callable | None = None,
               node: Sequence[int] | None = None, prefix: tuple[int, ...] = ()) -> list[Path]:
    """The paths `path_ways` counts from each entry of `roots` in turn, in
    lexicographic order of entries. Each is a Path of its entries when
    `node` is None, as for the whole graph, else of `prefix` and its
    entries' nodes, `node[e]`.

    Depth-first with an explicit stack, so path length is not bounded by
    the interpreter's recursion limit, and nothing is kept between paths
    but the entries of the current one and their nodes. An entry without
    links ends its path where it is reached and is never stacked.
    """
    out: list[Path] = []
    for root in roots:
        stack = [root]
        # the stacked entries' nodes after `prefix`; the stack itself when
        # entries are nodes
        nodes = stack if node is None else [*prefix, node[root]]
        if not links[root]:
            out.append(Path(tuple(nodes)))
            continue
        pending = [iter(links[root])]  # untried links per stacked entry
        while pending:
            for c in pending[-1]:
                if keep is None or keep(stack[-1], c):
                    if not links[c]:
                        out.append(Path((*nodes, c if node is None else node[c])))
                        continue
                    stack.append(c)
                    if node is not None:
                        nodes.append(node[c])
                    pending.append(iter(links[c]))
                    break
            else:
                stack.pop()
                if node is not None:
                    nodes.pop()
                pending.pop()
    return out


def count_paths(dag: Dag) -> int:
    """Exact number of source-to-sink paths (arbitrary precision)."""
    return path_ways(dag.succ)[dag.source]


def _forward_ways(dag: Dag, start: int | None = None) -> list[int]:
    """ways[i] = number of start-to-i paths, from the source by default."""
    start = dag.source if start is None else start
    ways = [0] * dag.n
    ways[start] = 1
    for i in range(start, dag.n):
        w = ways[i]
        if w:
            for j in dag.succ[i]:
                ways[j] += w
    return ways


def enumerate_paths(dag: Dag, cap: int | None = None) -> list[Path]:
    """All source-to-sink paths in lexicographic order of node indices.

    Args:
        cap: optional non-negative upper bound; a graph with more paths
            raises PathCapExceeded, decided by `count_paths` before any
            path is built, instead of blowing up memory.
    """
    if cap is not None:
        if cap < 0:
            raise GraphError(f"path cap must be non-negative, got {cap}")
        if count_paths(dag) > cap:
            raise PathCapExceeded(f"more than {cap} paths")
    return list_paths(dag.succ, (dag.source,))


def check_losses(dag: Dag, losses: Mapping[Edge, Num]) -> None:
    """Verify that `losses` is total, finite and non-negative on dag edges."""
    for e in dag.edges:
        x = losses.get(e)
        if x is None:
            fault = "losses missing edge {}"
        elif isinstance(x, float) and x != x:
            fault = "loss on edge {} is NaN"
        elif x < 0 or (isinstance(x, float) and x == math.inf):
            fault = f"loss on edge {{}} must be finite and >= 0, got {x}"
        else:
            continue
        u, v = e
        raise GraphError(fault.format(f"({dag.labels[u]!r}, {dag.labels[v]!r})"))


def path_loss(losses: Mapping[Edge, Num], path: Path) -> Num:
    """The path's total loss, its edges' losses added left to right."""
    nodes = path.nodes
    return sum(map(losses.__getitem__, zip(nodes, nodes[1:])))


def widen(bound: Num, tol: float) -> Num:
    """`bound` plus the tie tolerance `tol`, never below `bound`, as an int
    or `Fraction` plus a float can round (2**53 + 1 + 1e-9 gives 2**53); a
    zero `tol` leaves it exact, where adding 0.0 would make it a float."""
    return bound if tol == 0 else max(bound, bound + tol)


class EfficiencyResult(NamedTuple):
    """Cheapest total loss, the set of paths achieving it, and per-node
    cheapest continuation costs."""

    min_cost: Num
    paths: tuple[Path, ...]
    continuation: tuple[Num, ...]

    def path_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(p.nodes for p in self.paths)

    def to_dict(self, dag: Dag) -> dict:
        return {
            "min_cost": float(self.min_cost),
            "paths": [list(p.labels(dag)) for p in self.paths],
            "continuation": {
                dag.labels[i]: float(c) for i, c in enumerate(self.continuation)
            },
        }


def continuation_costs(dag: Dag, losses: Mapping[Edge, Num]) -> list[Num]:
    """Cheapest node-to-sink cost for every node, by backward DP."""
    L: list[Num] = [0] * dag.n
    for i in range(dag.n - 1, -1, -1):
        if dag.succ[i]:
            L[i] = min([losses[(i, j)] + L[j] for j in dag.succ[i]])
    return L


class Ties:
    """The tie decision under one loss function. `tol` is the caller's
    tolerance, finite and non-negative (GraphError otherwise), or by
    default exact (the int 0, which keeps `Fraction` sums exact) when no
    loss is a float, else 1e-9 absolute: one float loss, even 2.0, turns
    sums and rule splits into rounded floats. `cont` holds the continuation
    costs and `tight(i, j)` tests loss(i,j) + cont[j] <= `widen(cont[i],
    tol)`; both are made on first read, so reading `tol` alone costs no DP.
    """

    _cont = _tight = None

    def __init__(self, dag: Dag, losses: Mapping[Edge, Num], tol: float | None = None):
        if tol is None:
            tol = 0
            for x in losses.values():
                if isinstance(x, float):
                    tol = 1e-9
                    break
        elif not 0 <= tol < math.inf:
            raise GraphError(f"tie tolerance must be a finite non-negative number, got {tol}")
        self.dag, self.losses, self.tol = dag, losses, tol

    def __reduce__(self):  # `tight` is a closure, which pickle refuses
        return Ties, (self.dag, self.losses, self.tol)

    @property
    def cont(self) -> list[Num]:
        if self._cont is None:
            self._cont = continuation_costs(self.dag, self.losses)
        return self._cont

    @property
    def tight(self) -> Callable[[int, int], bool]:
        if self._tight is None:
            losses, cont, tol = self.losses, self.cont, self.tol
            limit = [widen(c, tol) for c in cont]
            self._tight = lambda i, j: losses[(i, j)] + cont[j] <= limit[i]
        return self._tight

    def efficient(self) -> EfficiencyResult:
        """The cheapest paths, those whose every step is tight, and the
        continuation costs."""
        dag, cont = self.dag, self.cont
        paths = list_paths(dag.succ, (dag.source,), self.tight)
        return EfficiencyResult(cont[dag.source], tuple(paths), tuple(cont))


def efficient_paths(
    dag: Dag,
    losses: Mapping[Edge, Num],
    tie_tolerance: float | None = None,
) -> EfficiencyResult:
    """`Ties(dag, losses, tie_tolerance).efficient()`, the losses checked."""
    check_losses(dag, losses)
    return Ties(dag, losses, tie_tolerance).efficient()


# ---------------------------------------------------------------------------
# subgraphs


def reachable_subgraph(
    graph: Dag | tuple[Sequence[str], Sequence[LabelEdge]], root: str
) -> Dag:
    """Induced subgraph on nodes reachable from `root`, as a fresh Dag.

    Accepts either a built Dag or raw (labels, edge-label-pairs), so it also
    applies to multi-source graphs that cannot be built directly. Labels are
    preserved; `root` becomes the unique source. An edge naming an unknown
    node raises GraphValidationError; a duplicate label is kept, so that
    `build_dag` refuses it.
    """
    if isinstance(graph, Dag):
        labels: Sequence[str] = graph.labels
        edges: Sequence[LabelEdge] = graph.edge_labels()
    else:
        labels, edges = graph
    first: dict[str, int] = {}
    for k, x in enumerate(labels):
        first.setdefault(x, k)
    if root not in first:
        raise GraphError(f"root {root!r} not present in graph")
    succ: list[list[int]] = [[] for _ in labels]
    for u, v in edges:
        if u not in first or v not in first:
            raise GraphValidationError(f"edge ({u!r}, {v!r}) references an unknown node")
        succ[first[u]].append(first[v])
    reached = [False] * len(labels)
    reached[first[root]] = True
    stack = [first[root]]
    while stack:
        for j in succ[stack.pop()]:
            if not reached[j]:
                reached[j] = True
                stack.append(j)
    sub_nodes = [x for x in labels if reached[first[x]]]
    sub_edges = [(u, v) for u, v in edges if reached[first[u]]]
    return build_dag(sub_nodes, sub_edges, source=root)
