"""Seeded inputs, written as files the `liabnet` commands read.

The generators here are the benchmark's own, so the inputs stay fixed for a
given seed whatever a later change does to the program. `layered_graph`
follows the published construction of `liabnet simulate` step for step
(one `random.Random(seed)` stream, next-layer draws, skip draws, then the
out- and in-edge repairs), so a config with the same seed describes the
same graph; the simulation checks rely on that.
"""

from __future__ import annotations

import json
import random
from collections import deque

SIM_SEED = 20240817      # fixtures/hourglass_default.json
LAYERED_SEED = 20240403  # acceptance criterion 2
AUDIT_SEED = 202408      # acceptance criterion 5
LADDER_SEED = 0          # node and edge listing order of the ladders


def layered_graph(sizes, p_next, p_skip, seed):
    """(labels, edges, layer_of) of a random layered graph; edges are
    sorted index pairs."""
    rng = random.Random(seed)
    labels, layer_of, layers = [], [], []
    for layer, size in enumerate(sizes):
        layers.append(list(range(len(labels), len(labels) + size)))
        for k in range(size):
            labels.append(f"n{layer}_{k}")
            layer_of.append(layer)
    edges = set()
    for gap, p in ((1, p_next), (2, p_skip)):
        for l in range(len(sizes) - gap):
            for a in layers[l]:
                for b in layers[l + gap]:
                    if rng.random() < p:
                        edges.add((a, b))
    for l in range(len(sizes) - 1):
        reach = layers[l + 1] + (layers[l + 2] if l + 2 < len(sizes) else [])
        for a in layers[l]:
            if not any((a, b) in edges for b in reach):
                edges.add((a, rng.choice(layers[l + 1])))
    for l in range(1, len(sizes)):
        back = layers[l - 1] + (layers[l - 2] if l >= 2 else [])
        for b in layers[l]:
            if not any((a, b) in edges for a in back):
                edges.add((rng.choice(layers[l - 1]), b))
    return labels, sorted(edges), layer_of


def hop_distance_to_last_layer(n, edges, layer_of, start):
    """Fewest edges from `start` to any node of the last layer (BFS)."""
    succ = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
    last = max(layer_of)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        if layer_of[x] == last:
            return dist[x]
        for y in succ[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    raise ValueError(f"node {start} does not reach the last layer")


def ladder(stages):
    """All-ties ladder: s, two nodes per stage, t; complete links between
    consecutive stages; unit loss on every edge."""
    nodes = ["s"] + [f"{c}{k}" for k in range(1, stages + 1) for c in "ab"] + ["t"]
    edges = [("s", "a1"), ("s", "b1")]
    for k in range(1, stages):
        edges += [(f"{c}{k}", f"{d}{k + 1}") for c in "ab" for d in "ab"]
    edges += [(f"a{stages}", "t"), (f"b{stages}", "t")]
    return nodes, [(u, v, 1) for u, v in edges]


def chain_with_bypass(length):
    """s = c0 -> c1 -> ... -> t = c(length-1) with unit losses, plus the
    bypass s -> t with loss 1.5."""
    nodes = ["s"] + [f"c{i}" for i in range(1, length - 1)] + ["t"]
    edges = [(nodes[i], nodes[i + 1], 1) for i in range(length - 1)]
    edges.append(("s", "t", 1.5))
    return nodes, edges


def write_graph(path, nodes, edges, source, seed=None):
    """Graph file; with `seed`, nodes and edges are listed in a shuffled
    order (the graph is the same, its topological numbering is not)."""
    nodes, edges = list(nodes), list(edges)
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(nodes)
        rng.shuffle(edges)
    data = {
        "nodes": nodes,
        "edges": [
            {"from": e[0], "to": e[1], **({"loss": e[2]} if len(e) > 2 else {})}
            for e in edges
        ],
        "source": source,
    }
    with open(path, "w") as fh:
        json.dump(data, fh)


def write_sim_config(path, sizes, draws, seed, loss_low=0, loss_high=100):
    with open(path, "w") as fh:
        json.dump(
            {
                "layers": list(sizes),
                "p_next": 0.4,
                "p_skip": 0.1,
                "draws": draws,
                "loss_low": loss_low,
                "loss_high": loss_high,
                "rules": ["fixed:wstar", "local"],
                "seed": seed,
            },
            fh,
        )
