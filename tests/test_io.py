from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liabnet.generators import random_dag
from liabnet.graph import validate
from liabnet.io import (
    dump_json,
    finite_number,
    load_graph_file,
    load_losses_file,
    load_raw_graph_file,
)

from conftest import DAG_FIELDS

# what a graph file can hold: non-negative ints and finite floats
file_losses = st.integers(0, 10**6) | st.floats(0, 1e9, allow_nan=False, allow_infinity=False)


def graph_file_data(dag, losses, edge_order) -> dict:
    """`dag` and `losses` in the graph-file shape, edges listed in
    `edge_order` (positions into `dag.edges`)."""
    edges = []
    for k in edge_order:
        u, v = dag.edges[k]
        edges.append({"from": dag.labels[u], "to": dag.labels[v], "loss": losses[(u, v)]})
    return {"nodes": list(dag.labels), "edges": edges, "source": dag.labels[dag.source]}


@st.composite
def dags_with_losses(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dag = random_dag(rng, 3, 10, draw(st.sampled_from([0.15, 0.3, 0.5])))
    losses = {e: draw(file_losses) for e in dag.edges}
    return dag, losses, draw(st.permutations(range(len(dag.edges))))


class TestGraphFileRoundTrip:
    @given(dags_with_losses())
    def test_dag_losses_and_validate_survive(self, tmp_path_factory, drawn):
        dag, losses, order = drawn
        path = tmp_path_factory.mktemp("roundtrip") / "graph.json"
        path.write_text(dump_json(graph_file_data(dag, losses, order)))
        loaded, loaded_losses = load_graph_file(path)
        for name in DAG_FIELDS:
            assert getattr(loaded, name) == getattr(dag, name), name
        assert loaded_losses == losses
        assert all(type(loaded_losses[e]) is type(x) for e, x in losses.items())
        nodes, edges, source = load_raw_graph_file(path)
        listed = [dag.edge_labels()[k] for k in order]
        assert validate(nodes, edges, source=source).to_dict() == validate(
            list(dag.labels), listed, source=dag.labels[dag.source]
        ).to_dict()


class TestFiniteNumber:
    @pytest.mark.parametrize("x", [0, 1.5, -2, 10**400, -(10**400), 1.7e308])
    def test_accepts(self, x):
        assert finite_number(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, True, False, "1", None])
    def test_refuses(self, x):
        assert not finite_number(x)

    def test_400_digit_integer_loss_loads_exactly(self, tmp_path, fork):
        big = 10**400 - 1
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"nodes": ["s", "a", "t"], "edges": [
            {"from": "s", "to": "a", "loss": big}, {"from": "a", "to": "t"}]}))
        assert load_graph_file(graph)[1] == {(0, 1): big}
        losses = tmp_path / "losses.json"
        losses.write_text(json.dumps({"s->i": big}))
        assert load_losses_file(losses, fork) == {(fork.index("s"), fork.index("i")): big}
