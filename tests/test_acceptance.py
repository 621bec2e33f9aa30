"""Acceptance gate: eleven end-to-end criteria, one test (and one verbose
pass/fail line) each.

Every test pins its own seeds, states its numeric tolerances inline, and
exercises the public API only, so this file doubles as a behavioral
contract for the package.
"""

import random
import time
from fractions import Fraction
from pathlib import Path as FsPath

import pytest

from liabnet.axioms import check_axiom, impossibility_scenario
from liabnet.game import profile_count, spe_bruteforce, spe_outcomes
from liabnet.generators import (
    random_dag,
    random_dag_with_paths,
    random_losses,
    random_simplex_weights,
)
from liabnet.graph import (
    build_dag,
    count_paths,
    efficient_paths,
    enumerate_paths,
    path_loss,
    validate,
)
from liabnet.io import load_graph_file
from liabnet.rules import fixed_rule, irreducible_extension, make_rule
from liabnet.sim import LayeredGraphSpec, SimConfig, generate_hourglass, run_simulation
from liabnet.weights import (
    WeightVector,
    core_check,
    path_counting_value,
    shapley_bruteforce,
    wstar_dp,
    wstar_enumerate,
)

FIXTURES = FsPath(__file__).resolve().parent.parent / "fixtures"
GRAPH_FIXTURES = sorted(
    p for p in FIXTURES.glob("*.json") if p.name != "hourglass_default.json"
)


def test_criterion_01_three_way_weight_agreement():
    # 200 random DAGs, 4..14 non-sink nodes, <= 1e4 paths; the enumeration,
    # Shapley, and table formulas must agree entrywise within 1e-12, < 60 s.
    rng = random.Random(20250101)
    t0 = time.perf_counter()
    for _ in range(200):
        dag = random_dag_with_paths(rng, 4, 14, 10_000, density=0.4)
        a = wstar_enumerate(dag, cap=10_000)
        b = shapley_bruteforce(dag)
        c = wstar_dp(dag)
        for x, y, z in zip(a.values, b.values, c.values):
            assert abs(float(x - y)) <= 1e-12
            assert abs(float(x - z)) <= 1e-12
    assert time.perf_counter() - t0 < 60.0


def test_criterion_02_closed_form_fixtures_and_large_graph_speed():
    fork, _ = load_graph_file(FIXTURES / "fork.json")
    assert wstar_dp(fork).values == (
        Fraction(4, 9),
        Fraction(1, 6),
        Fraction(5, 18),
        Fraction(1, 9),
        Fraction(0),
    )

    grid3, _ = load_graph_file(FIXTURES / "grid3.json")
    w3 = wstar_dp(grid3)
    for i, w in enumerate(w3.values):
        if i == grid3.source:
            assert w == Fraction(1, 4)
        elif grid3.succ[i]:
            assert w == Fraction(1, 8)
        else:
            assert w == 0

    grid20, _ = load_graph_file(FIXTURES / "grid20.json")
    assert count_paths(grid20) == 1_048_576

    # 1001-node layered graph with an astronomically large path count
    spec = LayeredGraphSpec(sizes=(1,) + (20,) * 50, p_next=0.4, p_skip=0.0, seed=20240403)
    hg = generate_hourglass(spec)
    big_edges = [(hg.labels[u], hg.labels[v]) for u, v in hg.edges]
    big = build_dag(list(hg.labels), big_edges)
    assert big.n == 1001
    report = validate(list(hg.labels), big_edges)
    assert report.valid
    assert report.warnings == ()  # no node lies on every path of this graph
    assert count_paths(big) >= 10**15
    t0 = time.perf_counter()
    wv = wstar_dp(big)
    assert time.perf_counter() - t0 < 10.0
    assert sum(wv.values) == 1


def test_criterion_03_solver_matches_bruteforce():
    # 200 random instances, <= 8 nodes, integer losses 0..9, four rule
    # families; the fast solver must equal profile enumeration exactly.
    rng = random.Random(20250302)
    rules = ("fixed:equal", "fixed:wstar", "local", "punish-first")
    for _ in range(200):
        while True:
            dag = random_dag(rng, 4, 8)
            if profile_count(dag) <= 20_000:
                break
        losses = random_losses(rng, dag)
        for spec in rules:
            rule = make_rule(spec, dag)
            assert spe_outcomes(dag, losses, rule) == spe_bruteforce(dag, losses, rule)


def test_criterion_04_positive_decider_weights_are_efficient():
    # any fixed rule whose multi-option movers all hold positive weight
    # implements exactly the efficient set; a zero-weight decider breaks it
    rng = random.Random(20250304)
    for _ in range(50):
        dag = random_dag(rng, 4, 8)
        mapping = random_simplex_weights(rng, dag, positive_deciders=True)
        rule = fixed_rule(dag, WeightVector.from_mapping(dag, mapping))
        losses = random_losses(rng, dag)
        spe = spe_outcomes(dag, losses, rule)
        eff = set(efficient_paths(dag, losses).paths)
        assert spe == eff

    dag = build_dag(["s", "a", "t1", "t2"], [("s", "a"), ("a", "t1"), ("a", "t2")])
    rule = fixed_rule(dag, WeightVector((Fraction(1), Fraction(0), Fraction(0), Fraction(0))))
    losses = {(0, 1): 0, (1, 2): 5, (1, 3): 0}
    spe = spe_outcomes(dag, losses, rule)
    eff = set(efficient_paths(dag, losses).paths)
    assert any(p not in eff for p in spe), "indifferent zero-weight mover must admit an inefficient outcome"


def test_criterion_05_axiom_independence_matrix():
    # each named rule fails exactly its designated axiom at 1000 trials/cell
    designated = {"phi1": "EI", "phi2": "RLD", "phi3": "PCP", "phi5": "SI"}
    axioms = ("EI", "RLD", "PCP", "SI")
    for rule, target in designated.items():
        for axiom in axioms:
            report = check_axiom(axiom, rule, trials=1000, seed=202408)
            if axiom == target:
                assert report.counterexample is not None, f"{rule} should fail {axiom}"
            else:
                assert report.passed and report.passes == 1000, f"{rule} should pass {axiom}"


def test_criterion_06_local_rule_ratio_grows_with_chain_length():
    for name, expect in (("chain_bypass_3.json", 3.0 / 1.5), ("chain_bypass_10.json", 10.0 / 1.5)):
        dag, losses = load_graph_file(FIXTURES / name)
        outcomes = spe_outcomes(dag, losses, make_rule("local", dag))
        assert len(outcomes) == 1
        realized = path_loss(losses, next(iter(outcomes)))
        ratio = realized / efficient_paths(dag, losses).min_cost
        assert ratio == pytest.approx(expect, abs=1e-12)


def test_criterion_07_impossibility_scenario():
    report = impossibility_scenario()
    assert report.passed
    detail = report.detail
    base_eff = {tuple(p) for p in detail["base"]["efficient"]}
    assert {tuple(p) for p in detail["base"]["local_spe"]} <= base_eff
    assert detail["prime"]["efficient"] == [["s", "i", "t"]]
    assert detail["local_inefficient_spe_at_prime"]
    assert detail["wstar_matches_efficient"]["base"]
    assert detail["wstar_matches_efficient"]["prime"]


def test_criterion_08_loss_extension_levels_all_paths():
    # the extension agrees with the base losses on the path and makes every
    # path cost the same total, exactly, on 500 integer-loss instances
    rng = random.Random(20250308)
    built = 0
    attempts = 0
    while built < 500:
        attempts += 1
        assert attempts < 5000
        dag = random_dag(rng, 4, 8)
        losses = random_losses(rng, dag)
        paths = enumerate_paths(dag)
        path = paths[rng.randrange(len(paths))]
        ext = irreducible_extension(dag, path, losses)
        built += 1
        for e in path.edges:
            assert ext[e] == losses[e]
        totals = {path_loss(ext, p) for p in paths}
        assert len(totals) == 1
        assert totals == {path_loss(losses, path)}


def test_criterion_09_core_membership_and_convexity():
    checked_graphs = 0
    for fixture in GRAPH_FIXTURES:
        dag, _ = load_graph_file(fixture)
        if dag.n - len(dag.sinks) > 16:
            continue
        assert core_check(dag, wstar_dp(dag)) == [], fixture.name
        checked_graphs += 1
    assert checked_graphs >= 5

    # convexity of the path-counting game on 10^4 random (S, T, i) triples
    rng = random.Random(20250309)
    checked = 0
    while checked < 10_000:
        dag = random_dag(rng, 4, 8)
        players = [i for i in range(dag.n) if dag.succ[i]]
        if len(players) < 2:
            continue
        cache = {}

        def value(coalition):
            key = frozenset(coalition)
            if key not in cache:
                cache[key] = path_counting_value(dag, key)
            return cache[key]

        for _ in range(250):
            if checked >= 10_000:
                break
            i = rng.choice(players)
            others = [p for p in players if p != i]
            bigger = {p for p in others if rng.random() < 0.6}
            smaller = {p for p in bigger if rng.random() < 0.6}
            gain_small = value(smaller | {i}) - value(smaller)
            gain_big = value(bigger | {i}) - value(bigger)
            assert gain_small <= gain_big
            checked += 1


@pytest.fixture(scope="module")
def default_simulation(tmp_path_factory):
    config = SimConfig.from_file(FIXTURES / "hourglass_default.json")
    out_dir = tmp_path_factory.mktemp("sim_first_run")
    t0 = time.perf_counter()
    stats = run_simulation(config, workers=4, out_dir=out_dir)
    elapsed = time.perf_counter() - t0
    return config, stats, out_dir, elapsed


def test_criterion_10_simulation_qualitative_pattern(default_simulation):
    _, stats, _, elapsed = default_simulation
    wstar, local = "fixed:wstar", "local"
    ratio = stats.mean_realized[local] / stats.mean_efficient
    assert 1.2 <= ratio <= 1.9
    excess = (stats.mean_length[local] - stats.mean_length[wstar]) / stats.mean_length[wstar]
    assert 0.03 <= excess <= 0.20
    assert stats.gini_mean[wstar] < stats.gini_mean[local]
    n_nonsink = len(stats.nonsink)
    assert n_nonsink == 90
    assert stats.better_mean_sq >= 0.95 * n_nonsink
    assert stats.better_mean >= 0.70 * n_nonsink
    assert elapsed < 600.0


def test_criterion_11_simulation_csvs_byte_identical(default_simulation, tmp_path):
    config, _, first_dir, _ = default_simulation
    # second run with a different worker count must reproduce every byte
    run_simulation(config, workers=2, out_dir=tmp_path)
    for name in ("per_agent.csv", "per_layer.csv", "density.csv", "summary.json"):
        assert (first_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name
