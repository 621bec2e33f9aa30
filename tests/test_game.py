from __future__ import annotations

import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import liabnet.game
import liabnet.graph
from liabnet.game import (
    GameError,
    ProfileCapExceeded,
    _spe_profiles,
    check_robust_efficiency,
    history_count,
    profile_count,
    spe_bruteforce,
    spe_outcomes,
    spe_solve,
)
from liabnet.generators import random_dag, random_losses, random_simplex_weights
from liabnet.graph import (
    GraphError,
    Path,
    build_dag,
    efficient_paths,
    enumerate_paths,
    list_paths,
    path_loss,
    path_ways,
)
from liabnet.rules import (
    PunishFirstRule,
    apply_rule,
    check_path,
    fixed_rule,
    irreducible_extension,
    make_rule,
)
from liabnet.weights import WeightVector

from conftest import (
    ALL_RULE_SPECS, ROUNDED_MERGE, SPLIT_ROOTS, game_of, ladder, near_tie_game, small_games,
)

ORACLE_RULES = ["fixed:equal", "fixed:wstar", "local", "punish-first"]


def nodeset(paths) -> set[tuple[int, ...]]:
    return {p.nodes for p in paths}


def sample_game(rng: random.Random, max_profiles: int = 3000):
    while True:
        dag = random_dag(rng)
        if profile_count(dag) <= max_profiles:
            return dag, random_losses(rng, dag)


def all_histories(dag) -> list[tuple[int, ...]]:
    histories, stack = [], [(dag.source,)]
    while stack:
        hist = stack.pop()
        histories.append(hist)
        stack.extend(hist + (j,) for j in dag.succ[hist[-1]])
    return histories


class TestCounts:
    def test_history_count_fork(self, fork):
        assert history_count(fork) == 7

    def test_profile_count_fork(self, fork):
        assert profile_count(fork) == 4

    def test_profile_count_matches_history_product(self):
        rng = random.Random(99)
        for _ in range(20):
            dag = random_dag(rng)
            # enumerate histories directly and multiply out-degrees
            stack = [(dag.source,)]
            expect = 1
            while stack:
                hist = stack.pop()
                succ = dag.succ[hist[-1]]
                if succ:
                    expect *= len(succ)
                    stack.extend(hist + (j,) for j in succ)
            assert profile_count(dag) == expect

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.2, 0.4, 0.6]))
    def test_counts_match_enumerated_histories(self, seed, density):
        dag = random_dag(random.Random(seed), 3, 9, density)

        def histories(start):
            out, stack = [], [(start,)]
            while stack:
                hist = stack.pop()
                out.append(hist)
                stack.extend(hist + (j,) for j in dag.succ[hist[-1]])
            return out

        for k in range(dag.n):
            assert history_count(dag, k) == len(histories(k))
        expect = 1
        for hist in histories(dag.source):
            expect *= len(dag.succ[hist[-1]]) or 1
        assert profile_count(dag) == expect

    def test_counts_on_chain(self, chain3):
        dag, _ = chain3
        # histories: s, s-n1, s-t, s-n1-n2, s-n1-n2-t
        assert history_count(dag) == 5
        assert profile_count(dag) == 2


class TestKnownOutcomes:
    def test_single_mover_picks_cheaper_sink(self):
        dag = build_dag(["s", "t1", "t2"], [("s", "t1"), ("s", "t2")])
        losses = {
            (dag.index("s"), dag.index("t1")): 2,
            (dag.index("s"), dag.index("t2")): 5,
        }
        rule = make_rule("fixed:equal", dag)
        got = spe_outcomes(dag, losses, rule)
        assert nodeset(got) == {(0, dag.index("t1"))}
        assert nodeset(spe_bruteforce(dag, losses, rule)) == nodeset(got)

    def test_local_rule_walks_into_inefficiency(self, chain3):
        dag, losses = chain3
        got = spe_outcomes(dag, losses, make_rule("local", dag))
        want = {tuple(dag.index(x) for x in ("s", "n1", "n2", "t"))}
        assert nodeset(got) == want

    def test_wstar_restores_efficiency(self, chain3):
        dag, losses = chain3
        got = spe_outcomes(dag, losses, make_rule("fixed:wstar", dag))
        assert nodeset(got) == {(dag.index("s"), dag.index("t"))}

    def test_punish_first_two_decisions(self):
        dag = build_dag(
            ["s", "a", "t1", "t2", "t3"],
            [("s", "a"), ("s", "t1"), ("a", "t2"), ("a", "t3")],
        )
        losses = {
            (dag.index("s"), dag.index("a")): 1,
            (dag.index("s"), dag.index("t1")): 3,
            (dag.index("a"), dag.index("t2")): 0,
            (dag.index("a"), dag.index("t3")): 5,
        }
        rule = make_rule("punish-first", dag)
        want = {tuple(dag.index(x) for x in ("s", "a", "t2"))}
        assert nodeset(spe_outcomes(dag, losses, rule)) == want
        assert nodeset(spe_bruteforce(dag, losses, rule)) == want

    def test_universal_indifference_keeps_every_path(self, fork):
        losses = {e: 0 for e in fork.edges}
        rule = make_rule("fixed:equal", fork)
        allp = nodeset(enumerate_paths(fork))
        assert nodeset(spe_outcomes(fork, losses, rule)) == allp
        assert nodeset(spe_bruteforce(fork, losses, rule)) == allp

    def test_equal_totals_keep_every_path(self, fork):
        base = {e: 1 for e in fork.edges}
        ext = irreducible_extension(fork, Path(tuple(fork.index(x) for x in ("s", "i", "t"))), base)
        rule = make_rule("fixed:equal", fork)
        assert nodeset(spe_outcomes(fork, ext, rule)) == nodeset(enumerate_paths(fork))

    def test_zero_weight_decider_admits_inefficiency(self):
        dag = build_dag(["s", "a", "t1", "t2"], [("s", "a"), ("a", "t1"), ("a", "t2")])
        losses = {
            (dag.index("s"), dag.index("a")): 0,
            (dag.index("a"), dag.index("t1")): 5,
            (dag.index("a"), dag.index("t2")): 0,
        }
        w = WeightVector((Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
        rule = fixed_rule(dag, w)
        got = nodeset(spe_outcomes(dag, losses, rule))
        eff = efficient_paths(dag, losses).path_set()
        assert got > eff
        assert got == nodeset(spe_bruteforce(dag, losses, rule))


class TestSolverAgainstOracle:
    def test_agreement_on_randoms(self):
        rng = random.Random(20240311)
        for _ in range(60):
            dag, losses = sample_game(rng)
            for spec in ORACLE_RULES:
                rule = make_rule(spec, dag)
                fast = nodeset(spe_outcomes(dag, losses, rule))
                slow = nodeset(spe_bruteforce(dag, losses, rule))
                assert fast == slow, (spec, dag.labels, losses)
                assert fast, "SPE set must not be empty"

    def test_agreement_with_zero_weight_rules(self):
        rng = random.Random(7177)
        for _ in range(25):
            dag, losses = sample_game(rng)
            w = random_simplex_weights(rng, dag, positive_deciders=False)
            rule = fixed_rule(dag, WeightVector.from_mapping(dag, w))
            fast = nodeset(spe_outcomes(dag, losses, rule))
            assert fast == nodeset(spe_bruteforce(dag, losses, rule))

    def test_int_pay_beyond_2_53_keeps_its_tie(self):
        # local pays s its own edge; 2**53 + 3 - 1e-9 rounds up to 2**53 + 4,
        # and a floor above the pay made the equal alternative profitable
        dag = build_dag(["s", "a", "b", "t"], [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        losses = {e: 2**53 + 3 if e[0] == dag.source else 0.5 for e in dag.edges}
        rule = make_rule("local", dag)
        both = {p.nodes for p in enumerate_paths(dag)}
        assert nodeset(spe_bruteforce(dag, losses, rule)) == both
        assert nodeset(spe_outcomes(dag, losses, rule)) == both

    def test_fast_modes_match_oracle_at_every_history(self):
        rng = random.Random(3333)
        for _ in range(25):
            dag, losses = sample_game(rng, max_profiles=1000)
            for spec in ("fixed:wstar", "local", "phi3"):
                rule = make_rule(spec, dag)
                assert_every_history_matches_oracle(dag, losses, rule)


class TestSolverProperties:
    @given(small_games())
    def test_every_rule_kind_matches_bruteforce(self, game):
        dag, losses = game
        for spec in ALL_RULE_SPECS:
            rule = make_rule(spec, dag)
            got = nodeset(spe_outcomes(dag, losses, rule))
            assert got == nodeset(spe_bruteforce(dag, losses, rule)), spec

    @given(small_games(), st.integers(0, 2**32 - 1))
    def test_fixed_custom_weights_match_bruteforce(self, game, seed):
        dag, losses = game
        w = random_simplex_weights(random.Random(seed), dag, positive_deciders=False)
        rule = fixed_rule(dag, WeightVector.from_mapping(dag, w))
        got = nodeset(spe_outcomes(dag, losses, rule))
        assert got == nodeset(spe_bruteforce(dag, losses, rule))


# integer-valued floats mixed with ints and fractions: 2.0 is exact by
# value, but sums and splits with it round
MIXED_LOSSES = [0, 1, 2, Fraction(1, 3), Fraction(2, 3), Fraction(4, 3), 0.0, 1.0, 2.0]

# s->a at the int 2, s->b at the float 2.0: punish-first's float equal split
# once lost the tie under an exact comparison
_TIE = build_dag(["s", "a", "b"], [("s", "a"), ("s", "b")])
MIXED_TIE = (_TIE, dict(zip(_TIE.edges, (2, 2.0))))


@st.composite
def mixed_games(draw):
    """A `small_games`-sized `random_dag` with losses drawn per edge from
    `MIXED_LOSSES`."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dag = random_dag(rng, 3, 6, draw(st.sampled_from([0.2, 0.4, 0.6])))
    assume(profile_count(dag) <= 300)
    return dag, {e: draw(st.sampled_from(MIXED_LOSSES)) for e in dag.edges}


class TestMixedLossTypes:
    """Any float loss switches the tie tolerance to 1e-9, integer-valued
    ones included, so a tie across an int and a float survives."""

    def test_int_and_float_tie_kept(self):
        dag, losses = MIXED_TIE
        sol = spe_solve(dag, losses, make_rule("punish-first", dag))
        assert {p.labels(dag) for p in sol.outcomes()} == {("s", "a"), ("s", "b")}
        assert sol.coincides()

    @given(mixed_games())
    @example(MIXED_TIE)
    def test_every_rule_kind_matches_bruteforce(self, game):
        dag, losses = game
        for spec in ALL_RULE_SPECS:
            rule = make_rule(spec, dag)
            got = nodeset(spe_outcomes(dag, losses, rule))
            assert got == nodeset(spe_bruteforce(dag, losses, rule)), spec


def bruteforce_continuations(dag, losses, rule) -> dict:
    """Per history, the outcomes some SPE profile of the whole game plays
    after it."""
    out: dict = {}
    for tables, _choices, play in _spe_profiles(dag, losses, rule, 10_000):
        for h, hist in enumerate(tables.histories):
            out.setdefault(hist, set()).add(Path(tables.paths[play[h]]))
    return out


def assert_every_history_matches_oracle(dag, losses, rule):
    """Assert that the solver's continuations equal the oracle's at every
    history of the game; return the solution."""
    sol = spe_solve(dag, losses, rule)
    oracle = bruteforce_continuations(dag, losses, rule)
    for hist in all_histories(dag):
        assert sol.continuations(hist) == oracle[hist], (hist, losses)
    return sol


# s-a-b-t at 0.1 per edge; the sinks x, y and z each sit 0.9e-9 below the
# cheapest cost via the path, so every step of s-a-b-t is tight within the
# tolerance while its total lies 2.7e-9 above the cheapest cost: an equal
# split of the cheapest cost would not balance on it
SLACK_PATH = game_of(["s", "a", "b", "t", "x", "y", "z"], {
    ("s", "a"): 0.1, ("a", "b"): 0.1, ("b", "t"): 0.1,
    ("s", "x"): 0.3 - 2.7e-9, ("a", "y"): 0.2 - 1.8e-9, ("b", "z"): 0.1 - 0.9e-9,
})

# cheapest cost 0 via s-a-t, with a-b and b-c tight within the tolerance;
# s-d forecloses, yet its total 1.1e-9 is within 1e-9 of s's worst case via
# a, s-a-b-c-t's equal share 3e-10
NEAR_ZERO = game_of(["s", "a", "b", "c", "d", "t"], {
    ("s", "a"): 0.0, ("s", "d"): 1.1e-9, ("a", "t"): 0.0, ("a", "b"): 0.9e-9,
    ("b", "t"): 0.0, ("b", "c"): 0.9e-9, ("c", "t"): 0.0, ("d", "t"): 0.0,
})

# per kind, a strategy for one edge's loss; near ties come from
# `near_tie_game`. Sub-tolerance losses jitter positive 0.1-0.3 bases by
# less than 1e-9: near 0 the tolerance itself decides (see NEAR_ZERO)
PUNISH_FIRST_LOSSES = {
    "int": st.integers(0, 4),
    "fraction": st.fractions(0, 4, max_denominator=3),
    "float": st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    "sub-tolerance": st.builds(
        lambda base, k: base + k * 1e-10,
        st.sampled_from([0.1, 0.2, 0.3]), st.integers(-9, 9),
    ),
}


@st.composite
def punish_first_games(draw):
    """A small `random_dag` with int, Fraction, tied-float or sub-tolerance
    losses, or a `near_tie_game` at 1e6 to 1e12."""
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from([*PUNISH_FIRST_LOSSES, "near-tie"]))
    if kind == "near-tie":
        return near_tie_game(random.Random(seed), draw(st.sampled_from([1e6, 1e8, 1e10, 1e12])))
    dag = random_dag(random.Random(seed), 3, 7, draw(st.sampled_from([0.2, 0.4, 0.6])))
    assume(profile_count(dag) <= 300)
    return dag, {e: draw(PUNISH_FIRST_LOSSES[kind]) for e in dag.edges}


class TestSubgameKeys:
    """punish-first is solved in (node, on_track) states: at most two per
    node, one where both would keep the same links."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "tied-float"])
    def test_punish_first_every_history_matches_oracle(self, kind):
        draw = {
            "int": lambda rng: rng.randint(0, 4),
            "fraction": lambda rng: Fraction(rng.randint(0, 6), rng.randint(1, 3)),
            "tied-float": lambda rng: rng.choice((0.1, 0.2, 0.3)),
        }[kind]
        rng = random.Random(404)
        for _ in range(100):
            dag = random_dag(rng, 4, 9, rng.choice((0.3, 0.5)))
            if profile_count(dag) > 1000:
                continue
            losses = {e: draw(rng) for e in dag.edges}
            assert_every_history_matches_oracle(dag, losses, make_rule("punish-first", dag))

    @given(punish_first_games())
    @example(near_tie_game(random.Random(0), 1e8))  # near_tie_1e8.json
    @example(SLACK_PATH)
    def test_punish_first_matches_oracle_and_balances(self, game):
        dag, losses = game
        rule = make_rule("punish-first", dag).bind(losses)
        sol = assert_every_history_matches_oracle(dag, losses, rule)
        for path in enumerate_paths(dag):
            apply_rule(rule, path, losses)
        assert sol.coincides()

    @pytest.mark.xfail(strict=True, reason="the oracle's 1e-9 pay tolerance keeps a "
                       "foreclosing step when the cheapest cost is within a few "
                       "tolerances of 0; the on-track state keeps tight steps only")
    def test_punish_first_near_zero_costs_match_oracle(self):
        assert_every_history_matches_oracle(*NEAR_ZERO, make_rule("punish-first", NEAR_ZERO[0]))

    def test_punish_first_memo_holds_at_most_two_states_per_node(self):
        # every ladder step is tight, so on and off track share each state
        dag, losses = ladder(16)
        sol = spe_solve(dag, losses, make_rule("punish-first", dag))
        assert len(sol.outcomes()) == 2**16
        assert [len(s) for s in sol._at_node] == [1] * dag.n
        # the near-tie game's cross edges a1-b2 and b1-a2 foreclose: r, s,
        # a1 and b1 keep two states, the nodes past the cross edges one
        dag, losses = near_tie_game(random.Random(3), 1e8)
        sol = spe_solve(dag, losses, make_rule("punish-first", dag))
        assert [len(s) for s in sol._at_node] == [2, 2, 2, 2, 1, 1, 1, 1, 1]

    def test_punish_first_prices_without_vector(self, monkeypatch):
        # `vector` splits through `split`, so this spy sees either call
        calls = []
        split = PunishFirstRule.split

        def spy(self, path, total):
            calls.append(path)
            return split(self, path, total)

        monkeypatch.setattr(PunishFirstRule, "split", spy)
        dag, losses = ladder(10)
        rule = make_rule("punish-first", dag)
        sol = spe_solve(dag, losses, rule)
        assert sol.coincides()
        assert len(sol.outcomes()) == 2**10
        # and with foreclosing steps, on and off track
        near_tie = near_tie_game(random.Random(3), 1e8)
        sol = spe_solve(*near_tie, make_rule("punish-first", near_tie[0]))
        for hist in all_histories(near_tie[0]):
            sol.continuations(hist)
        assert calls == []

    def test_unknown_mode_raises(self, fork):
        rule = make_rule("punish-first", fork)
        rule.mode = "bogus"
        with pytest.raises(GameError, match="no solver for mode 'bogus' of rule punish-first"):
            spe_solve(fork, {e: 1 for e in fork.edges}, rule)


class TestFloatNearTies:
    """Float sums of the same losses in another order can miss a tie, so
    the solver, `efficient_paths` and the oracle must break it alike."""

    @pytest.mark.parametrize("magnitude", [1e6, 1e8, 1e10])
    def test_punish_first_solvers_agree_on_every_history(self, magnitude):
        rng = random.Random(f"near-tie {magnitude}")
        untied = 0
        for _ in range(60):
            dag, losses = near_tie_game(rng, magnitude)
            assert_every_history_matches_oracle(dag, losses, make_rule("punish-first", dag))
            untied += len(efficient_paths(dag, losses).paths) == 1
        if magnitude >= 1e8:
            assert untied  # some draws lose the tie, as the float sums differ


class TestPositiveWeightEfficiency:
    def test_positive_decider_weights_give_exactly_efficient_set(self):
        rng = random.Random(515151)
        for _ in range(40):
            dag = random_dag(rng)
            losses = random_losses(rng, dag)
            w = random_simplex_weights(rng, dag, positive_deciders=True)
            rule = fixed_rule(dag, WeightVector.from_mapping(dag, w))
            got = nodeset(spe_outcomes(dag, losses, rule))
            assert got == efficient_paths(dag, losses).path_set()


class TestRobustEfficiency:
    # rules that depend only on realized totals and implement efficiency
    # must play a cheapest continuation at every history, on-path or off
    @pytest.mark.parametrize("spec", ["fixed:wstar", "fixed:equal"])
    def test_total_dependent_rules_robust_on_randoms(self, spec):
        rng = random.Random(606)
        for _ in range(25):
            dag, losses = sample_game(rng)
            res = check_robust_efficiency(dag, losses, make_rule(spec, dag))
            assert res.robust and res.witness is None
            assert bool(res) is res.robust

    def test_punish_first_fails_off_path(self):
        dag = build_dag(
            ["s", "a", "t1", "t2", "t3"],
            [("s", "t1"), ("s", "a"), ("a", "t2"), ("a", "t3")],
        )
        losses = {
            (dag.index("s"), dag.index("t1")): 0,
            (dag.index("s"), dag.index("a")): 1,
            (dag.index("a"), dag.index("t2")): 0,
            (dag.index("a"), dag.index("t3")): 5,
        }
        res = check_robust_efficiency(dag, losses, make_rule("punish-first", dag))
        assert not res.robust
        # the result reads as its verdict in a condition
        assert bool(res) is res.robust
        assert res.witness["history"] == ["s", "a"]
        assert res.witness["chosen"] == "t3"
        assert res.witness["optimal"] == ["t2"]

    def test_single_decision_trivially_robust(self):
        dag = build_dag(["s", "t1", "t2"], [("s", "t1"), ("s", "t2")])
        losses = {e: v for e, v in zip(dag.edges, (1, 4))}
        for spec in ORACLE_RULES:
            assert check_robust_efficiency(dag, losses, make_rule(spec, dag)).robust


# one loss kind per drawn game, few distinct values so ties are common; the
# float values sum with rounding error, which the 1e-9 tolerance absorbs
LOSS_KINDS = {
    "int": st.integers(0, 4),
    "fraction": st.fractions(0, 4, max_denominator=3),
    "float": st.sampled_from([0.1, 0.2, 0.3, 0.5]),
}


@st.composite
def counted_games(draw):
    """A `random_dag` of 3-8 nodes with int, Fraction or float losses, and
    a tie tolerance to count the efficient set under (None: the default)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dag = random_dag(rng, 3, 8, draw(st.sampled_from([0.2, 0.4, 0.6])))
    kind = draw(st.sampled_from(sorted(LOSS_KINDS)))
    losses = {e: draw(LOSS_KINDS[kind]) for e in dag.edges}
    return dag, losses, draw(st.sampled_from([None, 0, 0.25]))


class TestEfficiencyCounts:
    """`efficiency_counts` counts what enumeration lists, in every solver
    mode."""

    @given(counted_games())
    def test_counts_match_enumerated_sets(self, game):
        dag, losses, tol = game
        eff = efficient_paths(dag, losses, tie_tolerance=tol).path_set()
        rules = [make_rule(spec, dag) for spec in ALL_RULE_SPECS]
        oracle = profile_count(dag) <= 300
        for rule in rules:
            sol = spe_solve(dag, losses, rule)
            spe = nodeset(sol.outcomes())
            assert sol.efficiency_counts(tol) == (len(spe), len(eff), len(spe & eff))
            assert sol.coincides(tol) == (spe == eff)
            if oracle:
                assert spe == nodeset(spe_bruteforce(dag, losses, rule)), rule.spec_string

    @pytest.mark.parametrize("tol", [-1, math.inf, math.nan], ids=["negative", "inf", "nan"])
    def test_refuses_what_efficient_paths_refuses(self, chain3, tol):
        dag, losses = chain3
        sol = spe_solve(dag, losses, make_rule("local", dag))
        for call in (sol.efficiency_counts, sol.coincides,
                     lambda t: efficient_paths(dag, losses, tie_tolerance=t)):
            with pytest.raises(GraphError, match=f"finite non-negative number, got {tol}"):
                call(tol)

    def test_ladder_counts_without_listing(self, monkeypatch):
        listed = []
        for module in (liabnet.game, liabnet.graph):
            monkeypatch.setattr(module, "list_paths", lambda *args, **kw: listed.append(args))
        dag, losses = ladder(40)
        for spec in ("fixed:wstar", "local"):
            sol = spe_solve(dag, losses, make_rule(spec, dag))
            assert sol.efficiency_counts() == (2**40, 2**40, 2**40)
            assert sol.coincides()
            assert not listed

    def test_equal_totals_of_different_types_stay_apart(self):
        # at n1 the suffixes via n3 (total 0.0) and via n4 (total 0) tie;
        # 4/3 + 0.0 is the float 1.333..., below 4/3, so one merged state
        # would make s's worst case via n1 cheaper than s -> n4 and drop it
        dag = build_dag(
            ["s", "n1", "n2", "n3", "n4"],
            [("s", "n1"), ("s", "n4"), ("n1", "n2"), ("n1", "n3"), ("n1", "n4"),
             ("n2", "n4")],
        )
        loss = {("s", "n1"): Fraction(4, 3), ("s", "n4"): Fraction(4, 3),
                ("n1", "n2"): 0.0, ("n1", "n3"): 0.0, ("n1", "n4"): 0,
                ("n2", "n4"): Fraction(2, 3)}
        losses = {(dag.index(u), dag.index(v)): x for (u, v), x in loss.items()}
        got = spe_outcomes(dag, losses, make_rule("fixed:equal", dag))
        assert {p.labels(dag) for p in got} == {
            ("s", "n1", "n3"), ("s", "n1", "n4"), ("s", "n4"),
        }

    def test_states_share_totals(self):
        # every ladder suffix from a node has the same total: one state each
        dag, losses = ladder(16)
        sol = spe_solve(dag, losses, make_rule("fixed:wstar", dag))
        assert [len(s) for s in sol._at_node] == [1] * dag.n


class TestPathSet:
    """`graph.path_ways` counts what `graph.list_paths` lists, over the
    whole graph and over the solver's table of outcome states."""

    @given(counted_games(), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 0.8, 1.0]))
    def test_whole_graph_count_matches_listing(self, game, seed, share):
        dag, _, _ = game
        rng = random.Random(seed)
        kept = {e for e in dag.edges if rng.random() < share}
        for keep in (None, lambda i, j: (i, j) in kept):
            ways = path_ways(dag.succ, keep)
            for i in range(dag.n):
                assert ways[i] == len(list_paths(dag.succ, (i,), keep))
            # from the source: the enumerated paths on kept edges, in order
            assert list_paths(dag.succ, (dag.source,), keep) == [
                p for p in enumerate_paths(dag) if keep is None or kept.issuperset(p.edges)
            ]

    @given(counted_games())
    def test_start_states_list_no_suffix_twice(self, game):
        # under totals mode a suffix's (total, type) is fixed by its own
        # edges, so it lies in one state at its node (see `_node_states`)
        dag, losses, _ = game
        histories = all_histories(dag)
        for spec in ALL_RULE_SPECS:
            sol = spe_solve(dag, losses, make_rule(spec, dag))
            ways = path_ways(sol._links)
            for history in histories:
                roots = sol._start_states(history)
                listed = list_paths(sol._links, roots, node=sol._node, prefix=history[:-1])
                assert len(set(listed)) == len(listed), (spec, history)
                assert all(p.nodes[:len(history)] == history for p in listed)
                assert sum(ways[c] for c in roots) == len(listed), (spec, history)


class TestContinuations:
    def test_subgame_sets_fork(self, fork):
        from liabnet.game import GameError, spe_solve

        losses = {e: 1 for e in fork.edges}
        sol = spe_solve(fork, losses, make_rule("fixed:wstar", fork))
        s, i, j, k, t = (fork.index(x) for x in "sijkt")
        assert nodeset(sol.continuations((s, j))) == {(s, j, t)}
        assert nodeset(sol.continuations((s, j, k))) == {(s, j, k, t)}
        assert sol.outcomes() == sol.continuations((s,))
        with pytest.raises(GameError):
            sol.continuations((j,))
        with pytest.raises(GameError):
            sol.continuations((s, k))

    @pytest.mark.parametrize("history", [(0, 5), (0, -1), (0, 2, 99), (0, 2, -1)])
    def test_out_of_range_history_raises_game_error(self, fork, history):
        # `has_edge` reads `succ`, guarded: no IndexError, no wrap to the end
        from liabnet.game import GameError, spe_solve

        sol = spe_solve(fork, {e: 1 for e in fork.edges}, make_rule("local", fork))
        with pytest.raises(GameError, match="missing edge"):
            sol.continuations(history)

    def test_general_mode_subgames_match_fresh_solve(self, fork):
        from liabnet.game import spe_solve
        from liabnet.graph import reachable_subgraph

        losses = {e: v for e, v in zip(fork.edges, (2, 1, 0, 3, 1, 2))}
        rule = make_rule("punish-first", fork)
        sol = spe_solve(fork, losses, rule)
        s, j = fork.index("s"), fork.index("j")
        conts = nodeset(sol.continuations((s, j)))
        assert conts and all(p[:2] == (s, j) for p in conts)


class TestCaps:
    def test_profile_cap(self, fork):
        losses = {e: 1 for e in fork.edges}
        with pytest.raises(ProfileCapExceeded):
            spe_bruteforce(fork, losses, make_rule("fixed:equal", fork), profile_cap=3)


class TestDeepChain:
    """A 1,500-node chain with an s -> t bypass is deeper than the
    interpreter's recursion limit; path walks and the solver must not
    recurse per node."""

    def chain(self):
        labels = ["s"] + [f"n{k}" for k in range(1, 1499)] + ["t"]
        edges = list(zip(labels, labels[1:])) + [("s", "t")]
        dag = build_dag(labels, edges)
        s, t = dag.index("s"), dag.index("t")
        long_path = tuple(range(dag.n))
        return dag, (s, t), long_path

    def test_enumerate_and_efficient_paths(self):
        dag, bypass, long_path = self.chain()
        assert [p.nodes for p in enumerate_paths(dag)] == [long_path, bypass]
        losses = {e: 1 for e in dag.edges}
        losses[bypass] = 2000
        res = efficient_paths(dag, losses)
        assert res.min_cost == 1499
        assert [p.nodes for p in res.paths] == [long_path]

    def test_outcomes_in_linear_memory(self):
        # the walk holds one path's entries at a time; a suffix list kept
        # per state took 9.8 MB here, quadratic in the chain's length
        dag, bypass, long_path = self.chain()
        losses = {e: 1 for e in dag.edges}
        losses[bypass] = 2000
        rule = make_rule("local", dag)
        tracemalloc.start()
        try:
            outcomes = spe_solve(dag, losses, rule).outcomes()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nodeset(outcomes) == {long_path}
        assert peak < 1_000_000

    def test_punish_first_spe(self):
        dag, bypass, _ = self.chain()
        losses = {e: 1 for e in dag.edges}
        losses[bypass] = Fraction(3, 2)
        outcomes = spe_outcomes(dag, losses, make_rule("punish-first", dag))
        assert nodeset(outcomes) == {bypass}


@st.composite
def priced_games(draw):
    """A `random_dag` of 3-8 nodes with int or float losses, to price
    under every built-in rule spec; the third item, None here, is the
    label -> weight mapping of a `fixed:file=` rule to price under
    instead."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dag = random_dag(rng, 3, 8, draw(st.sampled_from([0.2, 0.4, 0.6])))
    kind = draw(st.sampled_from(["int", "float"]))
    return dag, {e: draw(LOSS_KINDS[kind]) for e in dag.edges}, None


class TestSortedOutcomes:
    """`sorted_outcomes` lists the outcomes sorted, each a source-to-sink
    path checked once per link, and the `spe` report prices them with
    `checked_split` alone."""

    @given(priced_games())
    @example((*ROUNDED_MERGE, None))
    @example((*SPLIT_ROOTS, {"b": 1}))
    def test_priced_as_apply_rule_prices(self, tmp_path_factory, game):
        dag, losses, weights = game
        specs = ALL_RULE_SPECS
        if weights is not None:
            file = tmp_path_factory.mktemp("weights") / "w.json"
            file.write_text(json.dumps(weights))
            specs = [f"fixed:file={file}"]
        for spec in specs:
            rule = make_rule(spec, dag).bind(losses)
            sol = spe_solve(dag, losses, rule)
            ordered = sol.sorted_outcomes()
            assert ordered == sorted(sol.outcomes(), key=lambda p: p.nodes), spec
            for path in ordered:
                check_path(dag, path)
                got = rule.checked_split(path, path_loss(losses, path))
                assert got == apply_rule(rule, path, losses).values, (spec, path)

    def test_walk_out_of_order_is_sorted(self):
        dag, losses = ROUNDED_MERGE
        sol = spe_solve(dag, losses, make_rule("phi1", dag))
        roots = sol._start_states((dag.source,))
        walk = [p.labels(dag) for p in list_paths(sol._links, roots, node=sol._node)]
        assert walk == [("s", "a", "b", "t1"), ("s", "a", "c", "t1"), ("s", "a", "b", "t2")]
        assert [p.labels(dag) for p in sol.sorted_outcomes()] == sorted(walk)

    def test_source_weight_zero_gives_one_root_per_total(self):
        dag, losses = SPLIT_ROOTS
        rule = fixed_rule(dag, WeightVector.from_mapping(dag, {dag.index("b"): 1}))
        sol = spe_solve(dag, losses, rule)
        assert len(sol._start_states((dag.source,))) == 3
        assert [p.labels(dag) for p in sol.sorted_outcomes()] == [
            ("s", "a", "b", "t"), ("s", "a", "t"), ("s", "b", "t")]
        assert sol.bound.checked_split(sol.sorted_outcomes()[0], 5) == (0, 0, 5, 0)


class TestLinkCheck:
    """A state table that does not hold source-to-sink paths of the graph
    is refused with one GameError line; the solver builds none, so these
    tables are tampered with."""

    @staticmethod
    def solved():
        # local keeps one state per node, numbered as the nodes s, a1, b1,
        # a2, b2, t
        dag, losses = ladder(2)
        sol = spe_solve(dag, losses, make_rule("local", dag))
        assert sol._node == list(range(dag.n))
        return sol

    @pytest.mark.parametrize("tamper, message", [
        (lambda sol: sol._node.__setitem__(0, 1), "an outcome state at 'a1' is a root"),
        (lambda sol: sol._links.__setitem__(0, [1, 4]),
         "an outcome state links 's' to 'b2', which is not an edge"),
        (lambda sol: sol._links.__setitem__(3, []),
         "an outcome state at non-sink 'a2' keeps no link"),
    ], ids=["root-off-source", "link-off-edge", "linkless-non-sink"])
    def test_refused(self, tamper, message):
        sol = self.solved()
        tamper(sol)
        with pytest.raises(GameError) as info:
            sol.sorted_outcomes()
        assert str(info.value) == message
