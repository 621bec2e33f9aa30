from __future__ import annotations

import random
from fractions import Fraction

import pytest

from liabnet.game import (
    HistoryCapExceeded,
    ProfileCapExceeded,
    check_robust_efficiency,
    history_count,
    profile_count,
    spe_bruteforce,
    spe_outcomes,
)
from liabnet.generators import random_dag, random_losses, random_simplex_weights
from liabnet.graph import Path, build_dag, efficient_paths, enumerate_paths
from liabnet.rules import (
    MODE_GENERAL,
    Rule,
    fixed_rule,
    irreducible_extension,
    make_rule,
)
from liabnet.weights import WeightVector

ORACLE_RULES = ["fixed:equal", "fixed:wstar", "local", "punish-first"]


def nodeset(paths) -> set[tuple[int, ...]]:
    return {p.nodes for p in paths}


def sample_game(rng: random.Random, max_profiles: int = 3000):
    while True:
        dag = random_dag(rng)
        if profile_count(dag) <= max_profiles:
            return dag, random_losses(rng, dag)


class _GeneralView(Rule):
    """Wraps a rule but forces the per-history solver."""

    def __init__(self, inner: Rule):
        super().__init__(inner.dag, inner.spec_string + "|general")
        self.inner = inner

    def bind(self, losses):
        bound = self.inner.bind(losses)

        class _View:
            mode = MODE_GENERAL
            cares = None

            def vector(self, path):
                return bound.vector(path)

        return _View()


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

    def test_general_solver_matches_fast_modes(self):
        rng = random.Random(3333)
        for _ in range(25):
            dag, losses = sample_game(rng)
            for spec in ("fixed:wstar", "local", "phi3"):
                rule = make_rule(spec, dag)
                fast = nodeset(spe_outcomes(dag, losses, rule))
                general = nodeset(spe_outcomes(dag, losses, _GeneralView(rule)))
                assert fast == general, spec


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
        assert res.witness["history"] == ["s", "a"]
        assert res.witness["chosen"] == "t3"
        assert res.witness["optimal"] == ["t2"]

    def test_single_decision_trivially_robust(self):
        dag = build_dag(["s", "t1", "t2"], [("s", "t1"), ("s", "t2")])
        losses = {e: v for e, v in zip(dag.edges, (1, 4))}
        for spec in ORACLE_RULES:
            assert check_robust_efficiency(dag, losses, make_rule(spec, dag)).robust


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

    def test_history_cap(self, fork):
        losses = {e: 1 for e in fork.edges}
        with pytest.raises(HistoryCapExceeded):
            spe_outcomes(fork, losses, make_rule("punish-first", fork), history_cap=2)


class TestDeepChain:
    """A 1,500-node chain with an s -> t bypass is deeper than the
    interpreter's recursion limit; path walks and the per-history solver
    must not recurse per node."""

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

    def test_punish_first_spe(self):
        dag, bypass, _ = self.chain()
        losses = {e: 1 for e in dag.edges}
        losses[bypass] = Fraction(3, 2)
        outcomes = spe_outcomes(dag, losses, make_rule("punish-first", dag))
        assert nodeset(outcomes) == {bypass}
