from __future__ import annotations

import hashlib
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import liabnet.graph
from liabnet.axioms import CheckReport
from liabnet.game import _GameTables
from liabnet.graph import (
    GraphError,
    GraphValidationError,
    Path,
    PathCapExceeded,
    build_dag,
    check_losses,
    count_paths,
    efficient_paths,
    enumerate_paths,
    path_loss,
    reachable_subgraph,
    validate,
    widen,
)
from liabnet.generators import randbelow, random_dag, random_losses
from liabnet.rules import LiabilityVector
from liabnet.weights import PathCountTables, WeightVector, wstar_dp

from conftest import (
    DAG_FIELDS, FIXTURES, load_fixture, random_dag_with_paths, random_simplex_weights,
)


def names(dag, path):
    return list(path.labels(dag))


class TestValidate:
    def test_triangle_valid_no_warnings(self):
        rep = validate(["s", "i", "t"], [("s", "i"), ("i", "t"), ("s", "t")])
        assert rep.valid
        assert rep.warnings == ()

    def test_line_flags_bottleneck(self):
        rep = validate(["s", "i", "t"], [("s", "i"), ("i", "t")])
        assert rep.valid
        assert any("bottleneck" in w and "'i'" in w for w in rep.warnings)

    def test_cycle_detected(self):
        rep = validate(["s", "i", "t"], [("s", "i"), ("i", "s"), ("i", "t")])
        assert not rep.valid
        failed = {c.name for c in rep.failures()}
        assert "acyclic" in failed

    def test_no_root(self):
        # every node has an incoming edge
        rep = validate(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        assert not rep.valid
        assert any(c.name == "unique_source" for c in rep.failures())

    def test_multiple_roots(self):
        rep = validate(["a", "b", "t"], [("a", "t"), ("b", "t")])
        assert not rep.valid
        assert any("multiple" in c.detail for c in rep.failures())

    def test_unreachable_node(self):
        rep = validate(
            ["s", "a", "b", "t"], [("s", "a"), ("a", "t"), ("a", "b"), ("b", "t")]
        )
        assert rep.valid
        rep2 = validate(["s", "a", "t"], [("s", "t"), ("a", "t"), ("s", "a")])
        assert rep2.valid

    def test_too_small(self):
        rep = validate(["s", "t"], [("s", "t")])
        assert not rep.valid
        assert any(c.name == "min_size" for c in rep.failures())

    def test_duplicate_edge_rejected(self):
        rep = validate(["s", "i", "t"], [("s", "i"), ("s", "i"), ("i", "t")])
        assert not rep.valid

    @pytest.mark.parametrize(
        "nodes, edges, source, check, detail",
        [
            (["s", "a", "a", "t"], [("s", "a"), ("a", "t")], None, "labels",
             "duplicate node labels: ['a']"),
            (["s", "a", "t"], [("s", "a"), ("a", "x")], None, "labels",
             "edge ('a', 'x') references an unknown node"),
            (["s", "a", "t"], [("s", "a"), ("a", "a"), ("a", "t")], None, "labels",
             "self-loop at 'a'"),
            (["s", "a", "t"], [("s", "a"), ("s", "a"), ("a", "t")], None, "labels",
             "duplicate edge ('s', 'a')"),
            (["s", "a", "t"], [("s", "a"), ("a", "t")], "x", "unique_source",
             "declared source 'x' unknown"),
        ],
        ids=["duplicate-label", "unknown-node", "self-loop", "duplicate-edge", "unknown-source"],
    )
    def test_failure_details(self, nodes, edges, source, check, detail):
        # every accepted edge runs to a later position, as in an ordered file
        rep = validate(nodes, edges, source=source)
        assert [(c.name, c.detail) for c in rep.failures()] == [(check, detail)]
        with pytest.raises(GraphValidationError) as exc:
            build_dag(nodes, edges, source)
        assert str(exc.value) == f"{check}: {detail}"

    def test_build_raises_with_details(self):
        with pytest.raises(GraphValidationError, match="cycle"):
            build_dag(["s", "i", "t"], [("s", "i"), ("i", "s"), ("i", "t")])

    def test_declared_source_mismatch(self):
        rep = validate(["s", "i", "t"], [("s", "i"), ("i", "t")], source="i")
        assert not rep.valid

    def test_structural_checks_run_once(self, monkeypatch):
        calls = []
        real = liabnet.graph._structural_checks

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(liabnet.graph, "_structural_checks", spy)
        assert validate(["s", "i", "t"], [("s", "i"), ("i", "t")]).valid
        assert len(calls) == 1

    @pytest.mark.parametrize("nodes", [["s", "a", "b", "t"], ["s", "b", "a", "t"]],
                             ids=["forward", "backward"])
    def test_validate_assembles_no_dag(self, monkeypatch, nodes):
        calls = []
        real = liabnet.graph._index_dag

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(liabnet.graph, "_index_dag", spy)
        edges = [("s", "a"), ("a", "b"), ("b", "t")]
        rep = validate(nodes, edges)
        assert rep.valid and len(rep.warnings) == 2
        assert calls == []
        build_dag(nodes, edges)
        assert len(calls) == 1


@st.composite
def listed_dags(draw):
    """A `random_dag` from a drawn seed, as (nodes, edges) label lists in a
    drawn order, so its topological numbering differs from the generator's."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dag = random_dag(rng, 3, 10, draw(st.sampled_from([0.05, 0.15, 0.3, 0.5])))
    return draw(st.permutations(dag.labels)), draw(st.permutations(dag.edge_labels()))


@st.composite
def topologically_listed_dags(draw):
    """A `random_dag` from a drawn seed, its nodes listed in a drawn
    topological order, so every edge runs to a later position, and its
    edges in a drawn order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dag = random_dag(rng, 3, 10, draw(st.sampled_from([0.05, 0.15, 0.3, 0.5])))
    indeg = [len(p) for p in dag.pred]
    ready, nodes = [dag.source], []
    while ready:
        i = ready.pop(draw(st.integers(0, len(ready) - 1)))
        nodes.append(dag.labels[i])
        for j in dag.succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                ready.append(j)
    return nodes, draw(st.permutations(dag.edge_labels()))


def either_listing():
    """A graph listed in topological order, or in an arbitrary one."""
    return st.one_of(topologically_listed_dags(), listed_dags())


MUTATIONS = (
    "duplicate label", "unknown endpoint", "self-loop", "repeated edge", "back edge",
    "second root", "unknown source", "wrong source", "right source",
)


@st.composite
def mutated_graphs(draw):
    """(nodes, edges, source) from `listed_dags`, with up to three drawn
    mutations, most of which break one structural check."""
    nodes, edges = draw(listed_dags())
    nodes, edges, source = list(nodes), list(edges), None
    root = build_dag(nodes, edges).labels[0]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        at = draw(st.integers(0, len(nodes)))
        x = draw(st.sampled_from(nodes))
        if kind == "duplicate label":
            nodes.insert(at, x)
        elif kind == "unknown endpoint":
            edges.insert(at, draw(st.sampled_from([(x, "zz"), ("zz", x)])))
        elif kind == "self-loop":
            edges.insert(at, (x, x))
        elif kind == "repeated edge":
            edges.append(draw(st.sampled_from(edges)))
        elif kind == "back edge":
            u, v = draw(st.sampled_from(edges))
            edges.insert(at, (v, u))
        elif kind == "second root":
            nodes.insert(at, "r2")
            edges.append(("r2", x))
        else:
            source = {"unknown source": "zz", "wrong source": x, "right source": root}[kind]
    return nodes, edges, source


def least_topological_labels(nodes, edges):
    """The order that repeatedly places the smallest input position whose
    predecessors are all placed."""
    placed: list[str] = []
    while len(placed) < len(nodes):
        placed.append(next(
            x for x in nodes
            if x not in placed and all(u in placed for u, v in edges if v == x)
        ))
    return placed


class TestBuildMatchesValidate:
    @given(mutated_graphs())
    def test_build_raises_iff_validate_fails(self, graph):
        nodes, edges, source = graph
        report = validate(nodes, edges, source)
        try:
            dag = build_dag(nodes, edges, source)
        except GraphValidationError as exc:
            assert not report.valid
            assert str(exc) == "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        else:
            assert report.valid
            assert list(dag.labels) == least_topological_labels(nodes, edges)
            assert set(dag.edge_labels()) == set(edges)
            assert len(dag.edges) == len(edges)


class TestLeastTopologicalOrder:
    """`build_dag` against a construction from the edge list alone: the
    least topological order by input position, then each field of the Dag
    read off it."""

    @given(either_listing())
    def test_build_dag_equals_an_independent_construction(self, listed):
        nodes, edges = listed
        labels = least_topological_labels(nodes, edges)
        index = {x: k for k, x in enumerate(labels)}
        pairs = sorted((index[u], index[v]) for u, v in edges)
        dag = build_dag(nodes, edges)
        assert dag.labels == tuple(labels)
        assert dag._index == index
        assert dag.edges == tuple(pairs)
        assert dag.succ == tuple(tuple(v for u, v in pairs if u == k) for k in range(len(labels)))
        assert dag.pred == tuple(tuple(u for u, v in pairs if v == k) for k in range(len(labels)))
        assert dag.source == 0
        assert dag.sinks == set(range(len(labels))) - {u for u, _ in pairs}


class TestPathCountProperties:
    """Path counting checked against enumerate_paths as the oracle."""

    @given(either_listing())
    def test_bottleneck_warnings_name_nodes_on_every_path(self, listed):
        nodes, edges = listed
        dag = build_dag(nodes, edges)
        on_every = set.intersection(*(set(p.nodes) for p in enumerate_paths(dag)))
        expected = tuple(
            f"bottleneck: node {dag.labels[i]!r} lies on every source-sink path"
            for i in sorted(on_every - {dag.source} - dag.sinks)
        )
        assert validate(nodes, edges).warnings == expected

    @given(listed_dags())
    def test_count_matches_enumeration(self, listed):
        dag = build_dag(*listed)
        assert count_paths(dag) == len(enumerate_paths(dag))


class TestDagFromIndices:
    """`random_dag` assembles its Dags from successor lists, without the
    label checks of `build_dag`."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 12),
        st.integers(0, 9),
        st.floats(0.0, 1.0),
    )
    def test_random_dag_equals_build_dag(self, seed, lo, extra, density):
        dag = random_dag(random.Random(seed), lo, min(lo + extra, 12), density)
        built = build_dag(list(dag.labels), list(dag.edge_labels()))
        for name in DAG_FIELDS:
            assert getattr(dag, name) == getattr(built, name), name

    def test_too_small_draw_raises(self):
        # the one check random_dag makes; the others hold by construction
        with pytest.raises(GraphValidationError, match="min_size"):
            random_dag(random.Random(0), 2, 2)

    def test_path_bounds_no_draw_meets_raise(self):
        # every DAG has a path, so none of the 1,000 draws has at most 0
        with pytest.raises(RuntimeError, match="within bounds"):
            random_dag_with_paths(random.Random(0), 2, 4, max_paths=0)

    def test_all_zero_simplex_draw_puts_the_weight_on_the_source(self):
        # seed 3082 draws 0 for all three nodes of the line
        dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t")])
        w = random_simplex_weights(random.Random(3082), dag, positive_deciders=False)
        assert w == {0: 1, 1: 0, 2: 0}


# every fixture that is a graph file
GRAPH_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json") if "nodes" in json.loads(p.read_text())
)


class TestHasEdge:
    """`has_edge` bisects `succ`: on every pair of indices from -n to n it
    answers as membership in `edges` does. Without its range guard, a
    negative u would ask about a node counted from the end and u = n would
    raise IndexError."""

    @pytest.mark.parametrize("name", GRAPH_FIXTURES)
    def test_every_pair_matches_edges(self, name):
        dag = load_fixture(name)[0]
        edges = set(dag.edges)
        span = range(-dag.n, dag.n + 1)
        assert [dag.has_edge(u, v) for u in span for v in span] == [
            (u, v) in edges for u in span for v in span
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_input_matches_ranked_input(self, seed):
        # a shuffled listing renumbers each node's successors by rank; the
        # same graph listed in its rank order gives an equal Dag
        dag = load_fixture("tiers_1_3_2_3.json")[0]
        rng = random.Random(seed)
        nodes, edges = list(dag.labels), list(dag.edge_labels())
        rng.shuffle(nodes)
        rng.shuffle(edges)
        shuffled = build_dag(nodes, edges)
        assert list(shuffled.labels) != nodes
        ranked = build_dag(list(shuffled.labels), edges)
        for name in DAG_FIELDS:
            assert getattr(shuffled, name) == getattr(ranked, name), name
        assert set(shuffled.edge_labels()) == set(edges)


# made by `draw_stream_sha256()` on the generators that drew through
# `randint`/`randrange`, before `randbelow`
DRAW_STREAM_SHA256 = "58d6b1993715d508b8afc4d88ed94d99b195c8e1c5fc4eff23fc9a7fbfb03c3b"


def draw_stream_sha256(seeds: int = 5000) -> str:
    """A hash of seeded draws as the audits make them: a graph (the audits'
    4-8 nodes, or 3-20 sparse ones whose fallback predecessors draw wider
    ranges), its losses, simplex weights, and the rng's next `random()`."""
    h = hashlib.sha256()
    for t in range(seeds):
        rng = random.Random(f"202408:{t}")
        dag = random_dag(rng) if t % 2 == 0 else random_dag(rng, 3, 20, 0.2)
        losses = random_losses(rng, dag)
        weights = random_simplex_weights(rng, dag, positive_deciders=t % 3 == 0)
        h.update(repr((dag.labels, dag.edges, sorted(losses.items()),
                       sorted(weights.items()), rng.random())).encode())
    return h.hexdigest()


class TestDrawStream:
    """`randbelow` draws exactly what `randrange` draws, so the audits'
    instances, the identity sweep and replayed counterexamples do not
    depend on which of the two drew them."""

    def test_draws_unchanged(self):
        assert draw_stream_sha256() == DRAW_STREAM_SHA256

    def test_randbelow_is_randrange(self):
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            for n in range(1, 41):
                want = [theirs.randrange(n) for _ in range(n % 3)]
                assert randbelow(ours, n, n % 3) == want, (seed, n)
                assert randbelow(ours, n) == [theirs.randrange(n)], (seed, n)
            assert ours.getstate() == theirs.getstate(), seed

    @pytest.mark.parametrize("n", [0, -1])
    def test_randbelow_refuses_empty_range(self, n):
        with pytest.raises(ValueError):
            randbelow(random.Random(0), n)

    def test_empty_node_range_raises(self):
        with pytest.raises(ValueError):
            random_dag(random.Random(0), 5, 4)


class TestTopology:
    def test_indices_respect_topo_order(self, fork):
        for u, v in fork.edges:
            assert u < v

    def test_rebuild_is_stable(self, fork):
        again = build_dag(list(fork.labels), list(fork.edge_labels()))
        assert again.labels == fork.labels
        assert again.edges == fork.edges

    def test_source_and_sinks(self, fork):
        assert fork.labels[fork.source] == "s"
        assert {fork.labels[t] for t in fork.sinks} == {"t"}


class TestEnumerate:
    def test_fork_paths(self, fork):
        paths = enumerate_paths(fork)
        got = [names(fork, p) for p in paths]
        assert got == [["s", "i", "t"], ["s", "j", "k", "t"], ["s", "j", "t"]]

    def test_lexicographic_by_index(self, fork):
        paths = [p.nodes for p in enumerate_paths(fork)]
        assert paths == sorted(paths)

    def test_grid3_has_8(self, grid3):
        assert len(enumerate_paths(grid3)) == 8

    def test_line_single_path(self):
        dag = build_dag(["s", "i", "t"], [("s", "i"), ("i", "t")])
        assert [names(dag, p) for p in enumerate_paths(dag)] == [["s", "i", "t"]]

    def test_cap_enforced(self, grid3):
        with pytest.raises(PathCapExceeded):
            enumerate_paths(grid3, cap=7)
        assert len(enumerate_paths(grid3, cap=8)) == 8


class TestCount:
    def test_grid20(self, grid20):
        assert count_paths(grid20) == 1_048_576

    def test_fork(self, fork):
        assert count_paths(fork) == 3

    def test_shortcut(self, shortcut):
        assert count_paths(shortcut) == 2

    def test_count_matches_enumeration_on_randoms(self):
        rng = random.Random(1234)
        for _ in range(60):
            dag = random_dag(rng, 4, 9, 0.4)
            assert count_paths(dag) == len(enumerate_paths(dag))


class TestCheckLosses:
    @pytest.mark.parametrize(
        "loss, message",
        [
            (float("nan"), "is NaN"),
            (-1, "must be finite and >= 0, got -1"),
            (float("inf"), "must be finite and >= 0, got inf"),
        ],
        ids=["nan", "negative", "inf"],
    )
    def test_bad_loss_refused(self, fork, loss, message):
        losses = {e: 1 for e in fork.edges}
        losses[fork.edges[0]] = loss
        with pytest.raises(GraphError, match=message):
            check_losses(fork, losses)

    @pytest.mark.parametrize(
        "loss, fault",
        [
            (float("nan"), "is NaN"),
            (-1, "must be finite and >= 0, got -1"),
            (float("inf"), "must be finite and >= 0, got inf"),
        ],
        ids=["nan", "negative", "inf"],
    )
    def test_message_names_edge_by_labels(self, loss, fault):
        # the message names the graph's labels, not the internal indices (0, 1)
        dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t"), ("s", "t")])
        losses = {e: 1 for e in dag.edges}
        losses[(dag.index("s"), dag.index("a"))] = loss
        with pytest.raises(GraphError) as exc:
            check_losses(dag, losses)
        assert str(exc.value) == f"loss on edge ('s', 'a') {fault}"


class TestEfficient:
    def test_chain_bypass(self, chain3):
        dag, losses = chain3
        res = efficient_paths(dag, losses)
        assert res.min_cost == 1.5
        assert [names(dag, p) for p in res.paths] == [["s", "t"]]
        assert res.continuation[dag.source] == 1.5

    def test_all_zero_losses_everything_efficient(self, fork):
        losses = {e: 0 for e in fork.edges}
        res = efficient_paths(fork, losses)
        assert res.min_cost == 0
        assert len(res.paths) == count_paths(fork)

    def test_fork_with_given_losses(self, fork):
        lab = {
            ("s", "i"): 1, ("i", "t"): 1, ("s", "j"): 3,
            ("j", "t"): 0, ("j", "k"): 0, ("k", "t"): 0,
        }
        losses = {(fork.index(u), fork.index(v)): x for (u, v), x in lab.items()}
        res = efficient_paths(fork, losses)
        assert res.min_cost == 2
        assert [names(fork, p) for p in res.paths] == [["s", "i", "t"]]

    def test_matches_bruteforce_argmin_on_randoms(self):
        rng = random.Random(77)
        for _ in range(80):
            dag = random_dag(rng, 4, 8, 0.45)
            losses = random_losses(rng, dag)
            res = efficient_paths(dag, losses)
            all_paths = enumerate_paths(dag)
            best = min(path_loss(losses, p) for p in all_paths)
            expect = {p.nodes for p in all_paths if path_loss(losses, p) == best}
            assert res.min_cost == best
            assert res.path_set() == expect

    def test_dynamic_consistency(self):
        # every suffix of a path costs at least the continuation bound,
        # with equality on every suffix exactly for efficient paths
        rng = random.Random(99)
        for _ in range(40):
            dag = random_dag(rng, 4, 8, 0.45)
            losses = random_losses(rng, dag)
            res = efficient_paths(dag, losses)
            eff = res.path_set()
            for p in enumerate_paths(dag):
                tight = True
                for k, i in enumerate(p.nodes[:-1]):
                    suffix = sum(losses[e] for e in p.edges[k:])
                    assert suffix >= res.continuation[i]
                    if suffix != res.continuation[i]:
                        tight = False
                assert tight == (p.nodes in eff)

    def test_tolerance_admits_near_ties(self, chain3):
        dag, losses = chain3
        res = efficient_paths(dag, losses, tie_tolerance=1.5)
        assert len(res.paths) == 2

    def test_zero_float_tolerance_keeps_exact_ties(self):
        # L + 0.0 used to turn an exact bound into a float: 1/3 + 1/3 and 2/3
        # each failed their own tie, and 2**60 + 1 rounded down to 2**60
        dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t"), ("s", "t")])
        s, a, t = (dag.index(x) for x in "sat")
        third = Fraction(1, 3)
        ties = {(s, a): third, (a, t): third, (s, t): 2 * third}
        big = {(s, a): 2**60, (a, t): 1, (s, t): 2**61}
        for tol in (0, 0.0):
            res = efficient_paths(dag, ties, tie_tolerance=tol)
            assert res.path_set() == {(s, a, t), (s, t)}
            res = efficient_paths(dag, big, tie_tolerance=tol)
            assert res.path_set() == {(s, a, t)}

    @given(
        st.integers(0, 2**90) | st.fractions(0, 2**90) | st.floats(0, 1e300),
        st.sampled_from([0, 5e-324, 1e-9, 0.25]),
    )
    @example(2**53 + 1, 1e-9)
    def test_widened_bound_never_below_bound(self, bound, tol):
        # an int or Fraction plus a float rounds, and 2**53 + 1 + 1e-9
        # rounds down to 2**53, below the cheapest cost it widens
        assert bound <= widen(bound, tol)

    @pytest.mark.parametrize("tol", [-1, -1e-12, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, chain3, tol):
        # a negative or NaN tolerance used to give an empty efficient set
        dag, losses = chain3
        with pytest.raises(GraphError, match="tie tolerance"):
            efficient_paths(dag, losses, tie_tolerance=tol)


class TestReachable:
    def test_fork_from_j(self, fork):
        sub = reachable_subgraph((fork.labels, fork.edge_labels()), "j")
        assert set(sub.labels) == {"j", "k", "t"}
        assert set(sub.edge_labels()) == {("j", "k"), ("j", "t"), ("k", "t")}
        assert sub.labels[sub.source] == "j"

    def test_identity_from_source(self, fork):
        sub = reachable_subgraph((fork.labels, fork.edge_labels()), "s")
        assert sub.labels == fork.labels
        assert sub.edges == fork.edges

    def test_missing_root(self, fork):
        with pytest.raises(GraphError, match="not present"):
            reachable_subgraph((fork.labels, fork.edge_labels()), "zz")

    def test_multisource_raw_input(self):
        labels = ["a", "b", "m", "t"]
        edges = [("a", "m"), ("b", "m"), ("m", "t"), ("b", "t")]
        sub = reachable_subgraph((labels, edges), "b")
        assert set(sub.labels) == {"b", "m", "t"}
        assert ("a", "m") not in sub.edge_labels()

    @pytest.mark.parametrize(
        "bad", [("zz", "t"), ("b", "zz")], ids=["unknown-tail", "unknown-head"]
    )
    def test_unknown_endpoint_refused(self, bad):
        # both used to leak a KeyError from the raw-input walk
        edges = [("a", "b"), bad, ("b", "t")]
        with pytest.raises(GraphValidationError) as exc:
            reachable_subgraph((["a", "b", "t"], edges), "a")
        assert str(exc.value) == f"edge {bad} references an unknown node"

    def test_duplicate_label_still_refused(self):
        labels = ["a", "b", "b", "t"]
        with pytest.raises(GraphValidationError, match=r"duplicate node labels: \['b'\]"):
            reachable_subgraph((labels, [("a", "b"), ("b", "t")]), "a")

    def test_every_subgraph_node_reachable(self):
        rng = random.Random(5)
        for _ in range(20):
            dag = random_dag(rng, 5, 9, 0.4)
            root = dag.labels[rng.randrange(dag.n)]
            if root in {dag.labels[t] for t in dag.sinks}:
                continue
            try:
                sub = reachable_subgraph((dag.labels, dag.edge_labels()), root)
            except GraphValidationError:
                continue  # fewer than 3 reachable nodes
            # BFS oracle on the original graph
            adj = {u: [] for u in dag.labels}
            for u, v in dag.edge_labels():
                adj[u].append(v)
            seen = {root}
            queue = [root]
            while queue:
                x = queue.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            assert set(sub.labels) == seen


class TestPathType:
    def test_edges_and_movers(self):
        p = Path((0, 2, 5))
        assert p.edges == ((0, 2), (2, 5))
        assert p.movers == (0, 2)
        assert p.sink == 5
        assert len(p) == 3

    def test_equal_hashed_and_sized_by_nodes(self):
        a, b = Path((0, 2, 5)), Path((0, 2, 5))
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, Path((0, 5))}) == 2
        assert a != Path((0, 2)) and a != (0, 2, 5)
        assert len(a) == 3
        assert repr(a) == "Path(nodes=(0, 2, 5))"


def _value_objects():
    """One instance of each immutable value type of the package, with one
    of its fields."""
    dag = load_fixture("fork.json")[0]
    losses = {e: 1 for e in dag.edges}
    return [
        (Path((0, 1)), "nodes"),
        (dag, "labels"),
        (dag, "_index"),
        (LiabilityVector((1, 0)), "values"),
        (wstar_dp(dag), "values"),
        (wstar_dp(dag), "nums"),
        (validate(dag.labels, dag.edge_labels()), "checks"),
        (validate(dag.labels, dag.edge_labels()).checks[0], "passed"),
        (efficient_paths(dag, losses), "paths"),
        (PathCountTables((), (), (), 0), "total_paths"),
        (_GameTables([], [], [], {}, [], []), "pay"),
        (CheckReport("EI", "local", 1, 1, 0), "detail"),
    ]


class TestValueTypes:
    @pytest.mark.parametrize("obj, field", _value_objects(),
                             ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
    def test_fields_cannot_be_assigned(self, obj, field):
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before

    def test_vectors_equal_and_hash_by_values(self):
        for cls in (LiabilityVector, WeightVector):
            a, b = cls((1, 0)), cls((1, 0))
            assert a == b and hash(a) == hash(b)
            assert a != cls((0, 1)) and a != (1, 0)

    def test_dag_equals_and_hashes_as_itself(self, fork):
        twin = build_dag(fork.labels, fork.edge_labels())
        assert fork == fork and fork != twin
        assert hash(fork) == object.__hash__(fork)
        assert len({fork, twin}) == 2

    def test_dag_and_path_pickle(self, fork):
        copy = pickle.loads(pickle.dumps(fork))
        assert copy is not fork
        for name in DAG_FIELDS:
            assert getattr(copy, name) == getattr(fork, name), name
        with pytest.raises(AttributeError):
            copy.source = 1
        path = enumerate_paths(fork)[0]
        assert pickle.loads(pickle.dumps(path)) == path
