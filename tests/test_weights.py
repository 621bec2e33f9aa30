from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from liabnet.generators import random_dag, random_losses
from liabnet.graph import (
    build_dag,
    count_paths,
    enumerate_paths,
    path_loss,
)
from liabnet.rules import make_rule
from liabnet.sim import LayeredGraphSpec, generate_hourglass
from liabnet.weights import (
    PathCountTables,
    WeightVector,
    WeightsError,
    core_check,
    path_count_tables,
    path_counting_value,
    shapley_bruteforce,
    wstar_dp,
    wstar_enumerate,
)

from conftest import ladder, load_fixture, random_dag_with_paths

F = Fraction


# a `random_dag` of 3 to 9 nodes from a drawn seed and density
drawn_dags = st.builds(
    random_dag,
    st.integers(0, 2**32 - 1).map(random.Random),
    st.just(3),
    st.just(9),
    st.sampled_from([0.2, 0.4, 0.6]),
)


def by_label(dag, wv):
    return {dag.labels[i]: wv.values[i] for i in range(dag.n)}


FORK_EXPECT = {"s": F(4, 9), "i": F(1, 6), "j": F(5, 18), "k": F(1, 9), "t": F(0)}


class TestEnumerateWeights:
    def test_fork_exact(self, fork):
        assert by_label(fork, wstar_enumerate(fork)) == FORK_EXPECT

    def test_grid3(self, grid3):
        got = by_label(grid3, wstar_enumerate(grid3))
        assert got["s"] == F(1, 4)
        assert got["t"] == 0
        interior = [v for k, v in got.items() if k not in ("s", "t")]
        assert interior == [F(1, 8)] * 6

    def test_shortcut(self, shortcut):
        got = by_label(shortcut, wstar_enumerate(shortcut))
        assert got == {"s": F(3, 4), "i": F(1, 4), "t": F(0)}

    def test_simplex_and_positivity(self):
        rng = random.Random(42)
        for _ in range(30):
            dag = random_dag(rng, 4, 8, 0.4)
            wv = wstar_enumerate(dag)
            assert sum(wv.values) == 1
            for i, x in enumerate(wv.values):
                if i in dag.sinks:
                    assert x == 0
                else:
                    assert x > 0
            assert wv.in_delta_star(dag)


class TestPathCountingValue:
    def test_fork_s_i(self, fork):
        s, i = fork.index("s"), fork.index("i")
        assert path_counting_value(fork, {s, i}) == F(1, 3)

    def test_grand_coalition(self, fork):
        players = [i for i in range(fork.n) if i not in fork.sinks]
        assert path_counting_value(fork, players) == 1

    def test_without_source_zero(self, fork):
        nodes = [fork.index("i"), fork.index("j"), fork.index("k")]
        assert path_counting_value(fork, nodes) == 0

    def test_sink_rejected(self, fork):
        with pytest.raises(WeightsError, match="sink"):
            path_counting_value(fork, [fork.index("s"), fork.index("t")])

    def test_monotone_and_convex_sampled(self):
        rng = random.Random(7)
        for _ in range(25):
            dag = random_dag(rng, 4, 8, 0.45)
            players = [i for i in range(dag.n) if i not in dag.sinks]
            for _ in range(20):
                rest = list(players)
                rng.shuffle(rest)
                i = rest.pop()
                cut1, cut2 = sorted((rng.randrange(len(rest) + 1),
                                     rng.randrange(len(rest) + 1)))
                S = frozenset(rest[:cut1])
                T = frozenset(rest[:cut2])  # S subset of T, i outside both
                vS = path_counting_value(dag, S)
                vT = path_counting_value(dag, T)
                vSi = path_counting_value(dag, S | {i})
                vTi = path_counting_value(dag, T | {i})
                assert vT >= vS  # monotone
                assert vSi - vS <= vTi - vT  # convex


class TestShapley:
    def test_fork(self, fork):
        assert by_label(fork, shapley_bruteforce(fork)) == FORK_EXPECT

    def test_grid3(self, grid3):
        got = by_label(grid3, shapley_bruteforce(grid3))
        assert got["s"] == F(1, 4)
        assert all(got[k] == F(1, 8) for k in got if k not in ("s", "t"))

    def test_shortcut(self, shortcut):
        got = by_label(shortcut, shapley_bruteforce(shortcut))
        assert got == {"s": F(3, 4), "i": F(1, 4), "t": F(0)}

    def test_player_cap(self, grid20):
        with pytest.raises(WeightsError, match="cap"):
            shapley_bruteforce(grid20)

    def test_complete_dag_every_path_its_own_coalition(self):
        # 18 nodes, every edge forward: 2^16 = 65,536 paths, each with its
        # own set of non-sink nodes, over 17 players
        labels = [f"v{i}" for i in range(18)]
        dag = build_dag(labels, [(u, v) for k, u in enumerate(labels) for v in labels[k + 1:]])
        assert count_paths(dag) == 65_536
        assert shapley_bruteforce(dag).values == wstar_dp(dag).values


class TestTables:
    def test_fork_tables(self, fork):
        t = path_count_tables(fork)
        s = fork.source
        assert t.forward[0][s] == 1
        assert sum(t.forward[0]) == 1
        assert t.total_paths == 3
        for y, row in enumerate(t.backward):
            for i in range(fork.n):
                if y == 0:
                    assert (row[i] == 1) == (i in fork.sinks)
        # paths through each node, by length
        through = {fork.labels[i]: t.through[i] for i in range(fork.n)}
        assert sum(through["s"]) == 3
        assert sum(through["i"]) == 1
        assert sum(through["j"]) == 2
        assert sum(through["k"]) == 1
        assert sum(through["t"]) == 3

    def test_through_matches_enumeration(self):
        rng = random.Random(11)
        for _ in range(25):
            dag = random_dag(rng, 4, 9, 0.4)
            t = path_count_tables(dag)
            paths = enumerate_paths(dag)
            assert t.total_paths == len(paths)
            for i in range(dag.n):
                onpath = sum(1 for p in paths if i in p.nodes)
                assert sum(t.through[i]) == onpath
                for y, cnt in enumerate(t.through[i]):
                    exact = sum(
                        1 for p in paths if i in p.nodes and len(p.edges) == y
                    )
                    assert cnt == exact


def layer_sweep_tables(dag):
    """The tables as first built: dense rows, one sweep over every node and
    edge per path length, and a dense convolution per node (skipping the
    lengths at which no subpath reaches the node)."""
    n = dag.n
    forward, row = [], [int(i == dag.source) for i in range(n)]
    while any(row):
        forward.append(row)
        row = [sum(map(row.__getitem__, dag.pred[j])) for j in range(n)]
    backward, row = [], [int(i in dag.sinks) for i in range(n)]
    while any(row):
        backward.append(row)
        row = [sum(map(row.__getitem__, dag.succ[i])) for i in range(n)]
    max_len = len(forward) + len(backward) - 2
    through = []
    for i in range(n):
        conv = [0] * (max_len + 1)
        column = [row[i] for row in backward]
        for x in range(len(forward)):
            f = forward[x][i]
            if f:
                for y, b in enumerate(column, x):
                    conv[y] += f * b
        through.append(tuple(conv))
    return PathCountTables(
        forward=tuple(map(tuple, forward)),
        backward=tuple(map(tuple, backward)),
        through=tuple(through),
        total_paths=sum(r[dag.source] for r in backward),
    )


@st.composite
def spread_dags(draw):
    """Graphs whose path lengths spread: `random_dag`s, and single-source
    layered graphs from `sim.generate_hourglass` with skip edges."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return random_dag(random.Random(seed), 3, 10, draw(st.sampled_from([0.15, 0.3, 0.5])))
    sizes = (1,) + tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=6)))
    spec = LayeredGraphSpec(
        sizes=sizes,
        p_next=draw(st.sampled_from([0.3, 0.6])),
        p_skip=draw(st.sampled_from([0.2, 0.5])),
        seed=seed,
    )
    hg = generate_hourglass(spec)
    return build_dag(hg.labels, hg.edge_labels())


class TestLengthRuns:
    @given(spread_dags())
    def test_tables_equal_layer_sweep(self, dag):
        assert path_count_tables(dag) == layer_sweep_tables(dag)

    @given(spread_dags())
    def test_numerators_over_one_denominator(self, dag):
        wv = wstar_dp(dag)
        assert len(wv.nums) == dag.n
        assert sum(wv.nums) == wv.den
        assert all(Fraction(a, wv.den) == x for a, x in zip(wv.nums, wv.values))


def chain_with_bypass(n: int):
    """s, n1 .. n(n-2), t in a line, and the edge s -> t: every interior
    node has one predecessor and one successor."""
    labels = ["s", *(f"n{i}" for i in range(1, n - 1)), "t"]
    return build_dag(labels, [*zip(labels, labels[1:]), ("s", "t")])


def enumerated_nums(dag):
    """(nums, den) of the canonical weights summed over enumerated paths:
    den = lcm(path lengths that occur) * |paths|, and each path of y edges
    adds lcm // y to each of its movers' numerators."""
    paths = enumerate_paths(dag)
    lcm = math.lcm(*{len(p.movers) for p in paths})
    nums = [0] * dag.n
    for p in paths:
        for i in p.movers:
            nums[i] += lcm // len(p.movers)
    return nums, lcm * len(paths)


# s -> a -> x and s -> b -> c -> d -> x: x's predecessors a and d sit at
# lengths 1 and 3, so the forward pass shifts a's count two slots up
UNEVEN_PREDS = build_dag(
    ["s", "a", "b", "c", "d", "x", "t"],
    [("s", "a"), ("a", "x"), ("s", "b"), ("b", "c"), ("c", "d"), ("d", "x"), ("x", "t"),
     ("b", "t")],
)


class TestPackedCounts:
    """The packed length counts of `wstar_dp` against enumeration, and the
    size of what they keep per node."""

    @given(st.builds(
        random_dag,
        st.integers(0, 2**32 - 1).map(random.Random),
        st.just(3),
        st.just(10),
        st.floats(0.2, 0.8),
    ))
    @example(UNEVEN_PREDS)
    def test_dp_equals_enumeration(self, dag):
        wv = wstar_dp(dag)
        assert wv == wstar_enumerate(dag)
        assert (list(wv.nums), wv.den) == enumerated_nums(dag)

    def test_long_ladder_memory(self):
        # every node of a 1,000-stage all-ties ladder has one slot of about
        # 1,000 bits; counts packed from length 0 would hold up to 1,000
        # slots each, about 250 MB in all
        dag, _ = ladder(1000)
        tracemalloc.start()
        try:
            wstar_dp(dag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_long_chain_memory(self):
        # the paths have 1 and 19,999 edges; a denominator of lcm(1..19,999)
        # with one multiple of it per length up to 19,999 peaked at 157 MB
        dag = chain_with_bypass(20_000)
        tracemalloc.start()
        try:
            wv = wstar_dp(dag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        assert wv.den == 19_999 * 2


class TestSharedRuns:
    """Chains of nodes with one neighbour each: the tables and weights
    agree with the layer sweep and with closed forms."""

    @pytest.fixture(scope="class")
    def long_chain(self):
        return chain_with_bypass(1500)

    def test_chain10_tables_equal_layer_sweep(self, chain10):
        assert path_count_tables(chain10[0]) == layer_sweep_tables(chain10[0])

    def test_long_chain_tables_equal_layer_sweep(self, long_chain):
        assert path_count_tables(long_chain) == layer_sweep_tables(long_chain)

    def test_chain10_dp_equals_enumeration(self, chain10):
        assert wstar_dp(chain10[0]).values == wstar_enumerate(chain10[0]).values

    def test_long_chain_closed_form(self, long_chain):
        # two paths: the chain, whose n - 1 movers take 1/(2(n-1)) each, and s -> t
        n = long_chain.n
        got = wstar_dp(long_chain).values
        assert got[0] == F(1, 2) + F(1, 2 * (n - 1))
        assert got[1:-1] == (F(1, 2 * (n - 1)),) * (n - 2)
        assert got[-1] == 0

    def test_runs_unchanged_by_readers(self, chain10):
        dag = chain10[0]
        wstar_dp(dag)
        first = path_count_tables(dag)
        assert path_count_tables(dag) == first == layer_sweep_tables(dag)


class TestDpWeights:
    def test_fork(self, fork):
        assert by_label(fork, wstar_dp(fork)) == FORK_EXPECT

    def test_shortcut(self, shortcut):
        got = by_label(shortcut, wstar_dp(shortcut))
        assert got == {"s": F(3, 4), "i": F(1, 4), "t": F(0)}

    def test_grid20_closed_form(self, grid20):
        got = by_label(grid20, wstar_dp(grid20))
        assert got["s"] == F(1, 21)
        assert got["t"] == 0
        interior = [v for k, v in got.items() if k not in ("s", "t")]
        assert interior == [F(1, 42)] * 40

    def test_tiers_equal_division_twice(self, tiers):
        got = by_label(tiers, wstar_dp(tiers))
        assert got["s"] == F(1, 3)
        assert got["a1"] == got["a2"] == got["a3"] == F(1, 9)
        assert got["b1"] == got["b2"] == F(1, 6)
        assert got["t1"] == got["t2"] == got["t3"] == 0


class TestThreeWayAgreement:
    def test_small_randoms(self):
        rng = random.Random(2024)
        for _ in range(40):
            dag = random_dag_with_paths(rng, 3, 9, 2000)
            a = wstar_enumerate(dag)
            b = shapley_bruteforce(dag)
            c = wstar_dp(dag)
            assert a.values == b.values == c.values  # exact rationals

    @given(st.integers(0, 2**32 - 1))
    def test_drawn_graphs(self, seed):
        dag = random_dag_with_paths(random.Random(seed), 3, 9, 2000)
        dp = wstar_dp(dag).values
        assert dp == wstar_enumerate(dag).values == shapley_bruteforce(dag).values


class TestCoreCheck:
    def test_wstar_in_core_fork(self, fork):
        assert core_check(fork, wstar_dp(fork)) == []

    def test_constructed_violation(self, fork):
        w = {fork.index("j"): F(1, 2), fork.index("k"): F(1, 2)}
        violations = core_check(fork, w)
        assert any(v["coalition"] == ("s", "i") for v in violations)

    @given(drawn_dags)
    @example(load_fixture("grid3.json")[0])
    def test_matches_direct_loop(self, dag):
        players = [i for i in range(dag.n) if i not in dag.sinks]
        w = {i: F(1, len(players)) for i in players}
        fast = core_check(dag, w)
        slow = []
        for mask in range(1 << len(players)):
            nodes = tuple(players[p] for p in range(len(players)) if mask & (1 << p))
            value = path_counting_value(dag, nodes)
            wsum = sum(w.get(i, 0) for i in nodes)
            if value - wsum > 1e-12:
                slow.append(tuple(dag.labels[i] for i in nodes))
        assert [v["coalition"] for v in fast] == slow

    def test_explicit_coalitions(self, fork):
        w = wstar_dp(fork)
        subset = [[fork.index("s")], [fork.index("s"), fork.index("i")]]
        assert core_check(fork, w, coalitions=subset) == []

    def test_explicit_coalition_violation(self, fork):
        w = {fork.index("j"): F(1, 2), fork.index("k"): F(1, 2)}
        s_i = (fork.index("s"), fork.index("i"))
        value = path_counting_value(fork, s_i)
        assert core_check(fork, w, coalitions=[[fork.index("j")], s_i]) == [{
            "coalition": ("s", "i"),
            "weight_sum": 0.0,
            "value": float(value),
            "deficit": float(value),
        }]


class TestWeightVector:
    def test_check_simplex(self):
        WeightVector((F(1, 2), F(1, 2), F(0))).check_simplex()
        with pytest.raises(WeightsError):
            WeightVector((F(1, 2), F(1, 2), F(1, 2))).check_simplex()
        with pytest.raises(WeightsError):
            WeightVector((F(3, 2), F(-1, 2), F(0))).check_simplex()

    @pytest.mark.parametrize("values", [(0.5, 0.5, math.nan), (math.nan, 0.0, 0.0)])
    def test_check_simplex_rejects_nan(self, values):
        # NaN compares false both ways, so only a test it must pass catches it
        with pytest.raises(WeightsError):
            WeightVector(values).check_simplex()

    def test_check_simplex_integer(self, grid20):
        wv = wstar_dp(grid20)
        wv.check_simplex()
        nums = list(wv.nums)
        nums[0] += 1  # off by 1/den: inside the float tolerance, still not 1
        with pytest.raises(WeightsError, match="sum to 1"):
            WeightVector(wv.values, tuple(nums), wv.den).check_simplex()
        nums[0] -= 2
        with pytest.raises(WeightsError, match="sum to 1"):
            WeightVector(wv.values, tuple(nums), wv.den).check_simplex()
        negative = (-1, wv.nums[1] + wv.nums[0] + 1) + wv.nums[2:]
        with pytest.raises(WeightsError, match="non-negative"):
            WeightVector(wv.values, negative, wv.den).check_simplex()

    def test_numerators_not_compared(self, fork):
        wv = wstar_dp(fork)
        assert wv == WeightVector(wv.values)
        assert hash(wv) == hash(WeightVector(wv.values))

    def test_in_delta_star(self, fork):
        assert wstar_dp(fork).in_delta_star(fork)
        w = WeightVector.from_mapping(fork, {fork.index("i"): 1})
        assert not w.in_delta_star(fork)  # s and j decide but have weight 0

    def test_as_dict(self, shortcut):
        d = wstar_dp(shortcut).as_dict(shortcut)
        assert d == {"s": 0.75, "i": 0.25, "t": 0.0}


class TestFixedWeightSplit:
    """`FixedWeightRule.vector` with integer numerators gives what
    `w * total` gives, value and type, for every kind of total."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["int", "fraction", "float"]))
    def test_equals_w_times_total(self, seed, kind):
        rng = random.Random(seed)
        dag = random_dag(rng, 3, 8, 0.4)
        losses = random_losses(rng, dag)
        if kind == "fraction":
            losses = {e: F(x, rng.randint(1, 7)) for e, x in losses.items()}
        elif kind == "float":
            losses = {e: x / 7 for e, x in losses.items()}
        rule = make_rule("fixed:wstar", dag).bind(losses)
        assert rule.weights.nums is not None
        assert rule.cares == tuple(w > 0 for w in rule.weights.values)
        for p in enumerate_paths(dag):
            total = path_loss(losses, p)
            got = rule.vector(p)
            want = tuple(w * total for w in rule.weights.values)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]
