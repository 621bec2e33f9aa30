from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import liabnet.axioms
from liabnet.axioms import (
    AXIOMS,
    PROPERTIES,
    AxiomError,
    check_axiom,
    check_property,
    impossibility_scenario,
)
from liabnet.game import SpeSolution
from liabnet.generators import random_simplex_weights
from liabnet.graph import GraphError, Path, build_dag, efficient_paths
from liabnet.rules import FixedWeightRule, fixed_rule, make_rule
from liabnet.weights import WeightVector, wstar_dp

from conftest import ladder


def delta_star_factory(dag, rng):
    w = random_simplex_weights(rng, dag, positive_deciders=True)
    return fixed_rule(dag, WeightVector.from_mapping(dag, w))


class TestEfficientImplementation:
    def test_wstar_passes_on_randoms(self):
        rep = check_axiom("EI", "fixed:wstar", trials=100, seed=11)
        assert rep.passed and rep.passes == 100

    def test_local_fails_on_bypass_chain(self, chain3):
        dag, losses = chain3
        rep = check_axiom("EI", "local", dag=dag, trials=1, seed=0, losses=losses)
        assert not rep.passed
        cex = rep.counterexample
        assert cex["spe"] == [["s", "n1", "n2", "t"]]
        assert cex["spe_totals"] == [3.0]
        assert cex["efficient_total"] == 1.5

    def test_counterexample_finds_efficient_paths_once(self, chain3, monkeypatch):
        calls = []
        real = liabnet.axioms.efficient_paths

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(liabnet.axioms, "efficient_paths", spy)
        dag, losses = chain3
        rep = check_axiom("EI", "local", dag=dag, trials=1, seed=0, losses=losses)
        assert rep.counterexample["efficient_total"] == 1.5
        assert len(calls) == 1

    def test_wstar_passes_on_bypass_chain(self, chain3):
        dag, losses = chain3
        rep = check_axiom("EI", "fixed:wstar", dag=dag, trials=1, seed=0, losses=losses)
        assert rep.passed

    def test_punish_first_keeps_float_tie(self):
        # 0.1 + 0.2 exceeds 0.3 in floats; within the default tie tolerance
        # both paths are efficient, so punish-first blames nobody on either
        dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t"), ("s", "t")])
        s, a, t = (dag.index(x) for x in "sat")
        losses = {(s, a): 0.1, (a, t): 0.2, (s, t): 0.3}
        rep = check_axiom("EI", "punish-first", dag=dag, trials=1, losses=losses)
        assert rep.passed, rep.counterexample

    def test_source_all_fails_somewhere(self):
        rep = check_axiom("EI", "phi1", trials=400, seed=21)
        assert not rep.passed
        assert rep.counterexample["spe"] != rep.counterexample["efficient"]


class TestRealizedLossDependence:
    def test_maxout_weights_fail(self):
        rep = check_axiom("RLD", "phi2", trials=300, seed=5)
        assert not rep.passed

    @pytest.mark.parametrize("spec", ["fixed:wstar", "fixed:equal", "phi1", "phi3", "phi5", "local", "punish-first"][:5])
    def test_total_only_rules_pass(self, spec):
        rep = check_axiom("RLD", spec, trials=120, seed=6)
        assert rep.passed, rep.counterexample

    def test_local_passes_rld(self):
        # own-edge payments never look off the path
        rep = check_axiom("RLD", "local", trials=120, seed=7)
        assert rep.passed


class TestScaleInvariance:
    def test_sqrt_source_fails(self):
        rep = check_axiom("SI", "phi5", trials=50, seed=3)
        assert not rep.passed

    @pytest.mark.parametrize("spec", ["fixed:wstar", "fixed:equal", "phi1", "phi2", "phi3", "local"])
    def test_homogeneous_rules_pass(self, spec):
        rep = check_axiom("SI", spec, trials=120, seed=4)
        assert rep.passed, rep.counterexample


class TestPairwiseCollusion:
    def test_onpath_alpha_fails(self):
        rep = check_axiom("PCP", "phi3", trials=600, seed=12)
        assert not rep.passed
        cex = rep.counterexample
        assert cex["pair_sum_after"] < cex["pair_sum_before"] or True
        assert {"deviator", "partner", "deviation_path"} <= set(cex)

    @pytest.mark.parametrize("spec", ["fixed:wstar", "fixed:equal", "phi1", "phi2", "phi5"])
    def test_others_pass(self, spec):
        rep = check_axiom("PCP", spec, trials=150, seed=13)
        assert rep.passed, rep.counterexample

    def test_float_losses_compare_within_the_tolerance(self, fork):
        # float losses switch the pair comparisons to the 1e-9 tolerance
        losses = dict(zip(fork.edges, (0.1, 0.2, 0.3, 0.1, 0.2, 0.3)))
        rep = check_axiom("PCP", "fixed:wstar", dag=fork, losses=losses, trials=1)
        assert rep.passed, rep.counterexample

    def test_checks_each_deviation_once_per_split(self, monkeypatch):
        # all 256 paths of the 8-stage all-ties ladder are equilibria with
        # one split, each deviating at 8 deciders: 2,048 deviations, but
        # only 2 + 4 + ... + 256 = 510 distinct deviation histories, plus
        # the root's continuations that list the equilibria
        calls = []
        real = SpeSolution.continuations

        def spy(self, hist):
            calls.append(hist)
            return real(self, hist)

        monkeypatch.setattr(SpeSolution, "continuations", spy)
        dag, losses = ladder(8)
        rep = check_axiom("PCP", "fixed:wstar", dag=dag, trials=1, losses=losses)
        assert rep.passed, rep.counterexample
        assert len(calls) <= 511


class TestPositiveWeightSufficiency:
    def test_random_positive_weights_pass_all_axioms(self):
        for axiom in AXIOMS:
            rep = check_axiom(axiom, delta_star_factory, trials=40, seed=77)
            assert rep.passed, (axiom, rep.counterexample)


class TestReplayDeterminism:
    def test_reports_replay_byte_for_byte(self):
        a = check_axiom("PCP", "phi3", trials=600, seed=12)
        b = check_axiom("PCP", "phi3", trials=600, seed=12)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
        assert not a.passed

    def test_property_reports_replay(self):
        a = check_property("PATH_INDEP", "fixed:wstar", trials=40, seed=9)
        b = check_property("PATH_INDEP", "fixed:wstar", trials=40, seed=9)
        assert a.to_dict() == b.to_dict()


class TestDownstreamMono:
    def test_wstar_passes(self):
        rep = check_property("DOWNSTREAM_MONO", "fixed:wstar", trials=120, seed=1)
        assert rep.applicable and rep.passed

    @pytest.mark.parametrize("spec", ["phi3", "phi5"])
    def test_increasing_rules_pass(self, spec):
        rep = check_property("DOWNSTREAM_MONO", spec, trials=100, seed=2)
        assert rep.applicable and rep.passed, rep.counterexample

    @pytest.mark.parametrize("spec", ["local", "phi2", "punish-first"])
    def test_not_applicable_rules(self, spec):
        rep = check_property("DOWNSTREAM_MONO", spec, trials=10, seed=3)
        assert not rep.applicable
        assert not rep.passed

    def test_decreasing_payment_gives_a_counterexample(self):
        # positive weights, so the check applies, but each mover pays less
        # the more the path loses, against the cost order
        class Decreasing(FixedWeightRule):
            def split(self, path, total):
                return tuple(w * (100 - total) for w in self._shares)

        rep = check_property(
            "DOWNSTREAM_MONO", lambda dag, rng: Decreasing(dag, wstar_dp(dag), "decreasing"),
            trials=50, seed=0,
        )
        assert rep.applicable and not rep.passed
        cex = rep.counterexample
        costs, pays = cex["continuation_costs"], cex["mover_liabilities"]
        assert costs[0] != costs[1]
        assert (costs[0] < costs[1]) == (pays[0] > pays[1])
        assert cex["history"][-1] == cex["mover"]
        assert len(cex["branches"]) == 2

    def test_fixed_graph_without_eligible_mover(self):
        dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t")])
        rep = check_property("DOWNSTREAM_MONO", "fixed:wstar", dag=dag, trials=5, seed=0)
        assert not rep.applicable


class TestOtherProperties:
    def test_efficient_path_invariance(self):
        assert check_property("EFF_PATH_INV", "fixed:equal", trials=60, seed=8).passed
        rep = check_property("EFF_PATH_INV", "local", trials=200, seed=8)
        assert not rep.passed

    def test_redistribution_invariance(self):
        assert check_property(
            "REDISTRIBUTION_INV", "fixed:wstar", trials=80, seed=15
        ).passed
        assert not check_property(
            "REDISTRIBUTION_INV", "local", trials=200, seed=15
        ).passed

    def test_path_independence_constructed_local_failure(self):
        dag = build_dag(["s", "a", "t"], [("s", "t"), ("s", "a"), ("a", "t")])
        losses = {
            (dag.index("s"), dag.index("t")): 2,
            (dag.index("s"), dag.index("a")): 1,
            (dag.index("a"), dag.index("t")): 1,
        }
        rep = check_property(
            "PATH_INDEP", "local", dag=dag, trials=1, seed=0, losses=losses
        )
        assert not rep.passed
        assert rep.counterexample["total"] == 2

    def test_path_independence_keeps_exact_float_ties(self):
        # s-a-t sums 0.5 + 0.25, exactly s-t's 0.75: every trial finds the
        # tie, which fixed:wstar splits alike and local does not
        dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t"), ("s", "t")])
        losses = {(0, 1): 0.5, (1, 2): 0.25, (0, 2): 0.75}
        rep = check_property(
            "PATH_INDEP", "fixed:wstar", dag=dag, trials=5, seed=0, losses=losses
        )
        assert rep.passed and "vacuous" not in rep.detail
        rep = check_property("PATH_INDEP", "local", dag=dag, trials=1, seed=0, losses=losses)
        assert rep.counterexample["total"] == 0.75
        # 0.1 + 0.2 is not 0.3 in floats: no tie, so every trial is vacuous
        losses = {(0, 1): 0.1, (1, 2): 0.2, (0, 2): 0.3}
        rep = check_property("PATH_INDEP", "local", dag=dag, trials=3, seed=0, losses=losses)
        assert rep.passed and rep.detail == {"vacuous": 3}

    def test_path_independence_fixed_passes(self):
        assert check_property("PATH_INDEP", "fixed:wstar", trials=60, seed=16).passed

    def test_total_loss_dependence(self):
        assert check_property("TOTAL_LOSS_DEP", "fixed:equal", trials=60, seed=17).passed
        assert not check_property("TOTAL_LOSS_DEP", "local", trials=200, seed=17).passed


def _spy(monkeypatch, name):
    """Count the calls `liabnet.axioms` makes to one of its imports."""
    calls = []
    real = getattr(liabnet.axioms, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(liabnet.axioms, name, spy)
    return calls


def _instance(losses):
    """A graph on s, a, b, t with the given labelled edge losses."""
    dag = build_dag(["s", "a", "b", "t"], list(losses))
    return dag, {(dag.index(u), dag.index(v)): x for (u, v), x in losses.items()}


class TestVecClose:
    def test_identical_tuple(self):
        vec = (Fraction(1, 3), 0.1, 2)
        assert liabnet.axioms._vec_close(vec, vec)
        assert liabnet.axioms._vec_close(vec, tuple(vec))

    def test_mixed_pair_not_equal(self):
        close = liabnet.axioms._vec_close
        # 0.1 is not the Fraction 1/10, but within the float slack of it
        assert (0.1, Fraction(1, 3)) != (Fraction(1, 10), Fraction(1, 3))
        assert close((0.1, Fraction(1, 3)), (Fraction(1, 10), Fraction(1, 3)))
        assert not close((0.1, Fraction(1, 3)), (Fraction(1, 10), Fraction(1, 2)))
        assert not close((0.1, Fraction(1, 3)), (Fraction(1, 10) + 1e-8, Fraction(1, 3)))


class TestTrialDriver:
    """How the one trial driver draws instances, builds rules and tallies
    vacuous trials."""

    @pytest.mark.parametrize("prop", ["EFF_PATH_INV", "PATH_INDEP", "TOTAL_LOSS_DEP"])
    def test_one_rule_per_non_vacuous_trial(self, monkeypatch, prop):
        draws = _spy(monkeypatch, "random_dag")
        built = []

        def factory(dag, rng):
            built.append(dag)
            return make_rule("fixed:wstar", dag)

        rep = check_property(prop, factory, trials=100, seed=202408)
        assert rep.passed and rep.trials == 100 and rep.rule == "fixed:wstar"
        ran = rep.trials - rep.detail.get("vacuous", 0)
        # draws that lack the premise build no rule; at most one more build
        # may name the rule
        assert ran <= len(built) <= ran + 1
        assert len(draws) > 2 * len(built)

    def test_fixed_instance_without_premise_draws_once(self, monkeypatch):
        # one efficient path, s->a->t, so no pair to compare
        dag, losses = _instance({("s", "a"): 1, ("s", "b"): 2, ("a", "t"): 1, ("b", "t"): 1})
        calls = _spy(monkeypatch, "efficient_paths")
        rep = check_property("EFF_PATH_INV", "local", dag=dag, trials=5, seed=0, losses=losses)
        assert len(calls) == 5
        assert rep.passed and rep.passes == rep.trials == 5
        assert rep.detail == {"vacuous": 5}

    def test_total_loss_dep_on_fixed_instance(self):
        dag, losses = _instance(
            {("s", "a"): 1, ("s", "b"): 2, ("a", "b"): 1, ("a", "t"): 2, ("b", "t"): 1}
        )
        rep = check_property("TOTAL_LOSS_DEP", "local", dag=dag, trials=20, seed=1, losses=losses)
        cex = rep.counterexample
        assert (rep.rule, rep.trials, rep.passes, rep.detail) == ("local", 2, 1, {})
        assert cex["trial"] == 1 and cex["total"] == 3
        assert cex["path"] == cex["second_path"] == ["s", "a", "b", "t"]
        assert [e["loss"] for e in cex["second_losses"]] == [0, 2, 3, 7, 0]
        assert cex["liabilities"] == [
            {"s": 1, "a": 1, "b": 1, "t": 0},
            {"s": 0, "a": 3, "b": 0, "t": 0},
        ]

    def test_total_loss_dep_redraws_a_fixed_instance(self, monkeypatch):
        # no second loss function of 0-9 per edge reaches a total of 100
        dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t")])
        redraws = _spy(monkeypatch, "random_losses")
        rep = check_property(
            "TOTAL_LOSS_DEP", "local", dag=dag, trials=4, seed=0, losses={(0, 1): 50, (1, 2): 50}
        )
        assert rep.passed and rep.detail == {"vacuous": 4}
        assert len(redraws) == 4 * 60

    def test_total_loss_dep_redraws_float_losses_from_their_values(self, monkeypatch):
        # no 0-9 integers sum to a float total such as 0.1 + 0.2, so the
        # second loss function draws each edge's loss from the first's values
        dag, losses = _instance(
            {("s", "a"): 0.1, ("s", "b"): 0.2, ("a", "b"): 0.3, ("a", "t"): 0.2, ("b", "t"): 0.1}
        )
        redraws = _spy(monkeypatch, "random_losses")
        rep = check_property(
            "TOTAL_LOSS_DEP", "fixed:wstar", dag=dag, trials=20, seed=0, losses=losses
        )
        assert rep.passed and rep.passes == rep.trials == 20
        assert rep.detail == {}
        assert redraws == []
        rep = check_property("TOTAL_LOSS_DEP", "local", dag=dag, trials=20, seed=0, losses=losses)
        cex = rep.counterexample
        assert not rep.passed
        assert {e["loss"] for e in cex["second_losses"]} <= {0.1, 0.2, 0.3}

    def test_total_loss_dep_redraws_fraction_losses_from_their_values(self, monkeypatch, fork):
        # no 0-9 integers sum to a total in tenths such as 3/10, so, as for
        # floats, the second loss function draws from the first's values
        rng = random.Random(0)
        losses = {e: Fraction(rng.randint(1, 3), 10) for e in fork.edges}
        redraws = _spy(monkeypatch, "random_losses")
        rep = check_property(
            "TOTAL_LOSS_DEP", "fixed:wstar", dag=fork, trials=50, seed=0, losses=losses
        )
        assert rep.passed and rep.passes == rep.trials == 50
        assert rep.detail == {}
        assert redraws == []

    @pytest.mark.parametrize(
        "check, check_id",
        [
            (check_axiom, "RLD"),
            (check_axiom, "SI"),
            (check_property, "REDISTRIBUTION_INV"),
            (check_property, "PATH_INDEP"),
            (check_property, "TOTAL_LOSS_DEP"),
        ],
    )
    def test_fixed_graph_enumerated_once(self, monkeypatch, fork, check, check_id):
        calls = _spy(monkeypatch, "enumerate_paths")
        rep = check(check_id, "fixed:wstar", dag=fork, trials=30, seed=5)
        assert rep.passed and rep.trials == 30
        assert calls == [(fork,)]

    def test_random_graphs_enumerated_per_draw(self, monkeypatch):
        calls = _spy(monkeypatch, "enumerate_paths")
        draws = _spy(monkeypatch, "random_dag")
        check_axiom("RLD", "local", trials=30, seed=5)
        # RLD never lacks its premise: one graph drawn and enumerated per trial
        assert len(calls) == len(draws) == 30


    def test_recorded_instance_is_the_failing_draw(self, monkeypatch):
        drawn = []  # (rng, dag) per graph drawn
        real = liabnet.axioms.random_dag

        def recording(rng):
            drawn.append((rng, real(rng)))
            return drawn[-1][1]

        monkeypatch.setattr(liabnet.axioms, "random_dag", recording)
        rep = check_property("EFF_PATH_INV", "phi3", trials=100, seed=0)
        cex = rep.counterexample
        assert cex is not None
        # the failing trial drew more than once; the last draw is the record
        rng, last = drawn[-1]
        assert sum(r is rng for r, _ in drawn) > 1
        graph = cex["graph"]
        dag = build_dag(graph["nodes"], [(e["from"], e["to"]) for e in graph["edges"]])
        assert (dag.labels, dag.edges) == (last.labels, last.edges)
        losses = {(dag.index(e["from"]), dag.index(e["to"])): e["loss"] for e in graph["edges"]}
        efficient = efficient_paths(dag, losses).path_set()
        bound = make_rule("phi3", dag).bind(losses)
        splits = []
        for labels, split in zip(cex["paths"], cex["liabilities"]):
            nodes = tuple(map(dag.index, labels))
            assert nodes in efficient
            vec = bound.vector(Path(nodes))
            assert {x: Fraction(v) for x, v in split.items()} == dict(zip(dag.labels, vec))
            splits.append(tuple(vec))
        assert len(splits) == 2 and splits[0] != splits[1]


class TestScenario:
    def test_impossibility_reproduces(self):
        rep = impossibility_scenario()
        assert rep.passed
        assert rep.detail["prime"]["efficient"] == [["s", "i", "t"]]
        assert rep.detail["local_inefficient_spe_at_prime"] == [["s", "i", "j", "t"]]
        assert rep.detail["wstar_matches_efficient"] == {"base": True, "prime": True}
        assert rep.detail["base"]["local_spe"] == [["s", "i", "j", "t"]]
        assert len(rep.detail["base"]["efficient"]) == 3

    def test_scenario_is_deterministic(self):
        assert impossibility_scenario().to_dict() == impossibility_scenario().to_dict()


class TestValidation:
    def test_unknown_ids_rejected(self):
        with pytest.raises(AxiomError):
            check_axiom("EFFICIENCY", "fixed:wstar", trials=1)
        with pytest.raises(AxiomError):
            check_property("MONOTONE", "fixed:wstar", trials=1)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_must_be_positive(self, trials):
        # zero trials used to report a vacuous pass
        with pytest.raises(AxiomError, match="trials must be at least 1"):
            check_axiom("EI", "fixed:wstar", trials=trials)
        with pytest.raises(AxiomError, match="trials must be at least 1"):
            check_property("PATH_INDEP", "fixed:wstar", trials=trials)

    def test_losses_require_graph(self):
        with pytest.raises(AxiomError):
            check_axiom("EI", "fixed:wstar", losses={(0, 1): 1}, trials=1)

    @pytest.mark.parametrize("check_id", [*AXIOMS, *PROPERTIES])
    @pytest.mark.parametrize("fault, message", [
        ("partial", r"losses missing edge \('s', 'i'\)"),
        ("negative", r"loss on edge \('s', 'i'\) must be finite and >= 0, got -1"),
    ], ids=["partial", "negative"])
    def test_fixed_losses_checked_before_any_trial(self, fork, check_id, fault, message):
        # PATH_INDEP and TOTAL_LOSS_DEP read no loss through a rule, and
        # raised a KeyError on the partial losses, and PATH_INDEP passed
        # on the negative ones
        losses = {e: 1 for e in fork.edges}
        if fault == "partial":
            del losses[fork.edges[0]]
        else:
            losses[fork.edges[0]] = -1
        check = check_axiom if check_id in AXIOMS else check_property
        with pytest.raises(GraphError, match=message):
            check(check_id, "fixed:wstar", dag=fork, trials=3, losses=losses)

    def test_bound_rule_on_its_own_graph(self, fork):
        rule = make_rule("fixed:wstar", fork)
        rep = check_axiom("SI", rule, dag=fork, trials=3)
        assert rep.passed and rep.rule == "fixed:wstar"

    def test_uninterpretable_rule_rejected(self):
        with pytest.raises(AxiomError, match="cannot interpret rule 3"):
            check_axiom("EI", 3, trials=1)

    def test_bound_rule_on_foreign_graph_rejected(self, fork, diamond):
        rule = fixed_rule(
            fork,
            WeightVector.from_mapping(
                fork, {i: 0 for i in range(fork.n)} | {fork.index("s"): 1}
            ),
        )
        with pytest.raises(AxiomError):
            check_axiom("EI", rule, dag=diamond, trials=1)
