"""Seeded random instance generators: `randbelow`, `random_dag` and
`random_losses` draw the axiom checkers' trials. All take a
`random.Random` so callers control determinism; the axiom checkers derive
one per trial from a master seed. Random graphs are drawn in topological
index order, valid by construction, and assembled from their successor lists
(`graph._index_dag`) without the label-based checks of `build_dag`.

Integer draws here and in the RLD audit go through `randbelow`, which
calls `rng.getrandbits` directly, skipping the argument handling of
`randint`/`randrange` (about half the cost of a draw), and draws a
graph's losses in one call. It must draw exactly what they draw: the
identity sweep (`tools/identity.py`) hashes outputs made from these
draws, and a reported counterexample is replayed from its seed.
`tests/test_graph.py::TestDrawStream` pins the stream: a hash of 5,000
seeded draws, and `randbelow(rng, n, count)` against `count` calls of
`rng.randrange(n)`, with the same state after, so a change of CPython's
`_randbelow` fails there instead of silently changing the audits.
"""

from __future__ import annotations

import random
from functools import cache

from .graph import Dag, Edge, GraphValidationError, _index_dag


def randbelow(rng: random.Random, n: int, count: int = 1) -> list[int]:
    """The next `count` values of `rng.randrange(n)`, drawn as CPython
    3.10-3.12 draws them: k = n.bit_length() bits, redrawn while the result
    is n or more. Raises ValueError for n < 1, as `randrange` does (the
    loop would not end)."""
    if n < 1:
        raise ValueError(f"randbelow needs n >= 1, got {n}")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


@cache
def _labels(n: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The labels of an n-node draw and their index, shared by every Dag
    drawn with n nodes; neither is ever mutated."""
    labels = ("s", *(f"n{i}" for i in range(1, n)))
    return labels, {x: k for k, x in enumerate(labels)}


def random_dag(
    rng: random.Random,
    min_nodes: int = 4,
    max_nodes: int = 8,
    density: float = 0.4,
) -> Dag:
    """Random DAG with node 0 as the unique source.

    Nodes are created in index order; each candidate edge (i, j), i < j, is
    kept with probability `density`, and every node after the first gets a
    fallback incoming edge so the source is unique and everything is
    reachable. Node n-1 never has outgoing edges, so a sink always exists.
    The indices are therefore already topological and every structural
    check of `build_dag` holds, but for its minimum of 3 nodes, which a
    draw of fewer raises as GraphValidationError. The Dag equals
    `build_dag`'s on the same labels and label edges.
    """
    n = min_nodes + randbelow(rng, max_nodes - min_nodes + 1)[0]  # randint
    if n < 3:
        raise GraphValidationError(f"min_size: {n} nodes (need at least 3)")
    random_ = rng.random
    succ: list[list[int]] = [[] for _ in range(n)]
    for j in range(1, n):
        # each list gets its heads in ascending order, as _index_dag needs
        for i in [i for i in range(j) if random_() < density] or randbelow(rng, j):
            succ[i].append(j)
    return _index_dag(*_labels(n), succ)


def random_losses(rng: random.Random, dag: Dag) -> dict[Edge, int]:
    """Integer edge losses drawn uniformly from [0, 9]."""
    return dict(zip(dag.edges, randbelow(rng, 10, len(dag.edges))))
