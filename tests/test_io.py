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
    dump_liability_report,
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


# any text, with the characters that JSON escapes or %-formatting reads
# drawn often, lone surrogates included
report_text = st.text(
    st.sampled_from('"\\%\x00\n\x7f\u00e9\u2028\ud800') | st.characters(exclude_categories=()),
    max_size=4,
)
# a split value of each kind a rule returns, before the report's float()
split_values = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(10**20, 10**300),
    st.fractions(),
    st.floats(),
    st.sampled_from([-0.0, 1e300]),
)


@st.composite
def liability_reports(draw):
    """(report, labels, splits, liabilities) as `dump_liability_report`
    takes them, with splits that keys share and splits that no two share."""
    labels = sorted(draw(st.lists(report_text, min_size=1, max_size=5, unique=True)))
    row = st.lists(split_values, min_size=len(labels), max_size=len(labels))
    splits = [[float(x) for x in values] for values in draw(st.lists(row, min_size=1, max_size=4))]
    keys = draw(st.lists(report_text, min_size=1, max_size=8))
    liabilities = {k: draw(st.integers(0, len(splits) - 1)) for k in keys}
    outcomes = draw(st.lists(st.lists(report_text, max_size=3), max_size=3))
    report = {
        "rule": draw(report_text),
        "outcomes": outcomes,
        # the same object as the outcomes, as `spe` passes it when they
        # coincide, or an equal or other list
        "efficient": draw(st.sampled_from([outcomes, list(outcomes)]) | st.lists(
            st.lists(report_text, max_size=3), max_size=3)),
        "min_cost": draw(st.floats()),
        "coincide": draw(st.booleans()),
    }
    return report, labels, splits, liabilities


class TestDumpLiabilityReport:
    @given(liability_reports())
    def test_text_is_dump_json_of_the_full_report(self, drawn):
        report, labels, splits, liabilities = drawn
        full = {**report, "liabilities": {
            k: dict(zip(labels, splits[i])) for k, i in liabilities.items()
        }}
        for pretty in (False, True):
            text = dump_liability_report(report, labels, splits, liabilities, pretty)
            assert text == json.dumps(full, sort_keys=True, indent=2 if pretty else None)
