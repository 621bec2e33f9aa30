import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import liabnet.sim
from liabnet.graph import build_dag, continuation_costs, efficient_paths, reachable_subgraph
from liabnet.game import spe_outcomes
from liabnet.rules import make_rule
from liabnet.sim import (
    DENSITY_BINS,
    DENSITY_RANGE,
    HourglassGraph,
    LayeredGraphSpec,
    SimConfig,
    SimError,
    SimStats,
    _density,
    _simulate_source,
    _weighted_gini,
    generate_hourglass,
    gini,
    plan_sources,
    run_simulation,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestGini:
    def test_equal_values(self):
        assert gini([1, 1, 1, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_single_holder(self):
        assert gini([1, 0, 0, 0]) == pytest.approx(0.75)

    def test_all_zero(self):
        assert gini([0, 0]) == 0.0
        assert gini([]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(SimError):
            gini([1.0, -0.5])

    def test_scale_invariant(self):
        vals = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert gini(vals) == pytest.approx(gini([10 * v for v in vals]))

    def test_weighted_all_zero(self):
        # no positive weight, and positive weight on zero values only
        assert _weighted_gini(np.array([1.0, 2.0]), np.array([0, 0])) == 0.0
        assert _weighted_gini(np.array([0.0, 2.0]), np.array([3, 0])) == 0.0

    def test_weighted_matches_expanded(self):
        vals = np.array([0.0, 2.0, 5.0, 9.0])
        weights = np.array([3, 1, 4, 2])
        expanded = np.repeat(vals, weights)
        assert _weighted_gini(vals, weights) == pytest.approx(gini(expanded))


class TestDensity:
    def test_bincount_matches_histogram(self):
        # the bin edges are multiples of 0.25, so v * 4 truncates to v's bin
        edges = np.linspace(*DENSITY_RANGE, DENSITY_BINS + 1)
        near = [np.nextafter(x, to) for x in (0.25, 37.5) for to in (0.0, np.inf)]
        draws = np.random.default_rng(20240403).uniform(*DENSITY_RANGE, size=200_000)
        vals = np.concatenate(([0.0, 0.25, 37.5, 149.75, 150.0 - 1e-9], near, draws))
        want = np.histogram(vals, bins=edges)[0]
        got = np.bincount((vals * 4).astype(np.int64), minlength=DENSITY_BINS)
        assert np.array_equal(got, want)
        assert np.array_equal(_density(vals), want)

    def test_out_of_range_values_land_in_the_last_bin(self):
        got = _density(np.array([[150.0, 1e6], [149.9, 0.1]]))
        assert got.shape == (DENSITY_BINS,)
        assert (got[0], got[-1], got.sum()) == (1, 3, 4)


class TestHourglass:
    def test_default_shape(self):
        hg = generate_hourglass(LayeredGraphSpec(seed=5))
        assert hg.n == 110
        assert len(hg.sources) == 30
        assert hg.layer_of.count(len(hg.sizes) - 1) == 20
        assert hg.labels[0] == "n0_0"
        assert hg.labels[-1] == "n5_19"
        for i, lab in enumerate(hg.labels):
            assert lab.startswith(f"n{hg.layer_of[i]}_")

    def test_edges_respect_layers(self):
        hg = generate_hourglass(LayeredGraphSpec(seed=5))
        for u, v in hg.edges:
            gap = hg.layer_of[v] - hg.layer_of[u]
            assert gap in (1, 2)
            assert u < v

    def test_degree_repairs(self):
        # even with no random edges the repairs give a connected flow
        hg = generate_hourglass(
            LayeredGraphSpec(sizes=(3, 2, 4), p_next=0.0, p_skip=0.0, seed=1)
        )
        out = {i: 0 for i in range(hg.n)}
        inc = {i: 0 for i in range(hg.n)}
        for u, v in hg.edges:
            out[u] += 1
            inc[v] += 1
        for i in range(hg.n):
            if hg.layer_of[i] < len(hg.sizes) - 1:
                assert out[i] >= 1
            if hg.layer_of[i] > 0:
                assert inc[i] >= 1

    def test_every_node_reachable_from_some_source(self):
        hg = generate_hourglass(LayeredGraphSpec(seed=11))
        seen = set(hg.sources)
        for u, v in hg.edges:  # edges sorted; u < v, so one pass suffices
            if u in seen:
                seen.add(v)
        assert seen == set(range(hg.n))

    def test_line_graph(self):
        hg = generate_hourglass(
            LayeredGraphSpec(sizes=(1, 1, 1), p_next=1.0, p_skip=0.0, seed=0)
        )
        assert hg.labels == ("n0_0", "n1_0", "n2_0")
        assert hg.edges == ((0, 1), (1, 2))

    def test_deterministic(self):
        a = generate_hourglass(LayeredGraphSpec(seed=77))
        b = generate_hourglass(LayeredGraphSpec(seed=77))
        assert a == b
        c = generate_hourglass(LayeredGraphSpec(seed=78))
        assert a != c

    def test_edge_count_near_expectation(self):
        spec = LayeredGraphSpec(seed=3)
        hg = generate_hourglass(spec)
        pairs_next = sum(
            spec.sizes[i] * spec.sizes[i + 1] for i in range(len(spec.sizes) - 1)
        )
        pairs_skip = sum(
            spec.sizes[i] * spec.sizes[i + 2] for i in range(len(spec.sizes) - 2)
        )
        expected = spec.p_next * pairs_next + spec.p_skip * pairs_skip
        std = math.sqrt(
            spec.p_next * (1 - spec.p_next) * pairs_next
            + spec.p_skip * (1 - spec.p_skip) * pairs_skip
        )
        # repairs only ever add edges, and rarely
        assert expected - 5 * std <= len(hg.edges) <= expected + 5 * std + 110

    def test_bad_specs(self):
        with pytest.raises(SimError):
            LayeredGraphSpec(sizes=(3,))
        with pytest.raises(SimError):
            LayeredGraphSpec(sizes=(3, 0, 2))
        with pytest.raises(SimError):
            LayeredGraphSpec(p_next=1.5)
        with pytest.raises(SimError):
            LayeredGraphSpec(p_skip=-0.1)


class TestConfig:
    def test_from_file_fixture(self):
        cfg = SimConfig.from_file(FIXTURES / "hourglass_default.json")
        assert cfg.graph.sizes == (30, 20, 15, 10, 15, 20)
        assert cfg.graph.p_next == 0.4
        assert cfg.graph.p_skip == 0.1
        assert cfg.draws == 10_000
        assert cfg.loss_low == 0.0
        assert cfg.loss_high == 100.0
        assert cfg.rules == ("fixed:wstar", "local")
        assert cfg.graph.seed == 20240817

    def test_numbers_parse_to_floats(self):
        cfg = SimConfig.from_dict({"p_next": 1, "p_skip": 0, "loss_low": 0, "loss_high": 7})
        values = (cfg.graph.p_next, cfg.graph.p_skip, cfg.loss_low, cfg.loss_high)
        assert values == (1.0, 0.0, 0.0, 7.0)
        assert all(type(x) is float for x in values)

    @pytest.mark.parametrize(
        "data",
        [
            [],
            "config",
            {"draws": "x"},
            {"draws": 2.5},
            {"seed": True},
            {"seed": -3},
            {"layers": 5},
            {"layers": [3, "a"]},
            {"p_next": None},
            {"loss_high": "100"},
            {"loss_high": math.inf},
            {"p_next": math.nan},
            {"rules": "local"},
            {"rules": ["local", 3]},
            {"layers": [3, 3, 3], "draw": 10},
            {"chunk": 0},
        ],
    )
    def test_shape_errors_raise(self, data):
        with pytest.raises(SimError):
            SimConfig.from_dict(data)

    def test_one_seed_fixes_network_and_draws(self):
        assert "seed" not in {f.name for f in dataclasses.fields(SimConfig)}
        assert SimConfig.from_dict({"seed": 5}).graph.seed == 5
        with pytest.raises(SimError, match=r"^seed must be non-negative, got -1$"):
            LayeredGraphSpec(seed=-1)

    def test_defaults(self):
        cfg = SimConfig.from_dict({})
        assert cfg.graph.sizes == (30, 20, 15, 10, 15, 20)
        assert cfg.draws == 10_000

    def test_validation(self):
        with pytest.raises(SimError):
            SimConfig(draws=0)
        with pytest.raises(SimError):
            SimConfig(loss_low=-1.0)
        with pytest.raises(SimError):
            SimConfig(loss_low=5.0, loss_high=4.0)
        with pytest.raises(SimError):
            SimConfig(rules=())
        with pytest.raises(SimError, match="rules must be distinct"):
            SimConfig(rules=("local", "fixed:wstar", "local"))

    def test_degenerate_distribution_allowed(self):
        SimConfig(loss_low=5.0, loss_high=5.0)

    @pytest.mark.parametrize(
        "low, high", [(0.0, 1e308), (0.0, 1.7e308), (1e308, 1e308), (1e308, 1.7e308)]
    )
    def test_refuses_loss_bounds_whose_sums_overflow(self, low, high):
        graph = LayeredGraphSpec(sizes=(2, 2, 2))
        with pytest.raises(SimError, match="too large"):
            SimConfig(graph=graph, draws=5, loss_low=low, loss_high=high)

    def test_refuses_draws_beyond_the_float_range(self):
        with pytest.raises(SimError, match="too large"):
            SimConfig(draws=10**400)

    def test_largest_bounds_run_without_overflow(self):
        # 2 edges * 1e153 squared, over 5 draws from each of 2 sources: 4e307
        config = SimConfig(
            graph=LayeredGraphSpec(sizes=(2, 2, 2)), draws=5, loss_low=1e153, loss_high=1e153
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = run_simulation(config)
        assert all(np.isfinite(m).all() for m in stats.mean_sq.values())


SMALL = LayeredGraphSpec(sizes=(4, 3, 3), p_next=0.7, p_skip=0.2, seed=7)


def small_config(**kw):
    base = dict(graph=SMALL, draws=40, rules=("fixed:wstar", "local"))
    base.update(kw)
    return SimConfig(**base)


class TestEngineAgainstSolver:
    def rebuild_losses(self, sub, seed_seq, low, high):
        rng = np.random.default_rng(seed_seq)
        row = rng.uniform(low, high, size=(1, len(sub.edges)))[0]
        return {e: float(x) for e, x in zip(sub.edges, row)}

    def test_single_draw_matches_spe(self):
        hg = generate_hourglass(SMALL)
        plans = plan_sources(hg, ("fixed:wstar", "local"))
        for k, plan in enumerate(plans[:3]):
            seed_seq = np.random.SeedSequence(99).spawn(len(hg.sources))[k]
            eff_sum, out = _simulate_source((plan, hg.n, 1, 0.0, 100.0, seed_seq))
            sub = reachable_subgraph((hg.labels, hg.edge_labels()), hg.labels[hg.sources[k]])
            losses = self.rebuild_losses(sub, seed_seq, 0.0, 100.0)
            caps = continuation_costs(sub, losses)
            assert eff_sum == pytest.approx(caps[sub.source], abs=1e-9)
            assert out["fixed:wstar"]["real"] == pytest.approx(caps[sub.source], abs=1e-9)
            (eff,) = efficient_paths(sub, losses).paths
            assert out["fixed:wstar"]["len"] == len(eff) - 1
            spe_local = spe_outcomes(sub, losses, make_rule("local", sub))
            assert len(spe_local) == 1
            path = next(iter(spe_local))
            total = sum(losses[e] for e in path.edges)
            assert out["local"]["real"] == pytest.approx(total, abs=1e-9)
            assert out["local"]["len"] == len(path) - 1

    def test_fixed_liabilities_scale_with_weights(self):
        hg = generate_hourglass(SMALL)
        plan = plan_sources(hg, ("fixed:wstar",))[0]
        seed_seq = np.random.SeedSequence(5).spawn(1)[0]
        _, out = _simulate_source((plan, hg.n, 1, 0.0, 100.0, seed_seq))
        sub = reachable_subgraph((list(hg.labels), hg.edge_labels()), hg.labels[hg.sources[0]])
        rule = make_rule("fixed:wstar", sub)
        total = out["fixed:wstar"]["real"]
        for i, lab in enumerate(sub.labels):
            g = hg.labels.index(lab)
            want = float(rule.weights.values[i]) * total
            assert out["fixed:wstar"]["liab"][g] == pytest.approx(want, abs=1e-9)


def source_tallies(hg, k, specs, draws, low, high):
    """`_simulate_source`'s tallies for `draws` draws from the `k`-th source."""
    plan = plan_sources(hg, specs)[k]
    return _simulate_source((plan, hg.n, draws, low, high, np.random.SeedSequence(3)))[1]


class TestGreedyWalk:
    """The one forward walk: where every step ties, the smallest successor
    index decides each rule kind's realized path, and each rule walks alone."""

    @pytest.mark.parametrize(
        "spec, loss", [(LayeredGraphSpec(seed=5), 3.0), (SMALL, 0.0)], ids=["constant", "zero"]
    )
    def test_ties_go_to_the_smallest_successor(self, spec, loss):
        hg = generate_hourglass(spec)
        for k, src in enumerate(hg.sources[:6]):
            out = source_tallies(hg, k, ("fixed:wstar", "local"), 3, loss, loss)
            sub = reachable_subgraph((list(hg.labels), hg.edge_labels()), hg.labels[src])
            first = efficient_paths(sub, dict.fromkeys(sub.edges, loss)).paths[0]
            assert out["fixed:wstar"]["len"] == 3 * (len(first) - 1)
            steps, i = 0, sub.source
            while sub.succ[i]:
                steps, i = steps + 1, sub.succ[i][0]
            assert out["local"]["len"] == 3 * steps

    @pytest.mark.parametrize("low, high", [(0.0, 100.0), (3.0, 3.0)])
    def test_each_rule_tallies_as_if_run_alone(self, low, high):
        specs = ("fixed:wstar", "fixed:equal", "local")
        together = run_simulation(small_config(rules=specs, loss_low=low, loss_high=high))
        for r in specs:
            alone = run_simulation(small_config(rules=(r,), loss_low=low, loss_high=high))
            assert np.array_equal(together.mean_liab[r], alone.mean_liab[r]), r
            assert np.array_equal(together.mean_sq[r], alone.mean_sq[r]), r
            assert np.array_equal(together.density[r], alone.density[r]), r
            assert together.mean_realized[r] == alone.mean_realized[r], r
            assert together.mean_length[r] == alone.mean_length[r], r
            assert together.zero_counts[r] == alone.zero_counts[r], r


class TestRunSimulation:
    def test_balance_and_ordering(self):
        stats = run_simulation(small_config())
        for r in stats.rules:
            assert float(stats.mean_liab[r].sum()) == pytest.approx(
                stats.mean_realized[r], rel=1e-9
            )
        assert stats.mean_realized["fixed:wstar"] == pytest.approx(stats.mean_efficient)
        assert stats.mean_realized["local"] >= stats.mean_efficient - 1e-9
        assert stats.total_draws == 40 * 4

    def test_per_layer_aggregates_mean_of_members(self):
        stats = run_simulation(small_config())
        for r in stats.rules:
            assert len(stats.per_layer[r]) == len(stats.sizes)
            for layer in range(len(stats.sizes)):
                idx = [i for i, l in enumerate(stats.layer_of) if l == layer]
                want = float(np.mean(stats.mean_liab[r][idx]))
                assert stats.per_layer[r][layer][0] == pytest.approx(want, abs=1e-12)

    def test_histogram_accounting(self):
        # each (draw, agent) cell lands either in a bin or in the zero count
        stats = run_simulation(small_config())
        n = len(stats.labels)
        for r in stats.rules:
            assert int(stats.density[r].sum()) + stats.zero_counts[r] == 40 * 4 * n

    def test_degenerate_losses_make_rules_coincide(self):
        cfg = SimConfig(
            graph=LayeredGraphSpec(sizes=(3, 2, 2), p_next=0.8, p_skip=0.0, seed=3),
            draws=5,
            loss_low=4.0,
            loss_high=4.0,
            rules=("fixed:wstar", "local"),
        )
        stats = run_simulation(cfg)
        assert stats.mean_realized["local"] == pytest.approx(stats.mean_efficient)
        assert stats.mean_realized["fixed:wstar"] == pytest.approx(stats.mean_efficient)
        assert stats.mean_length["local"] == pytest.approx(2.0)

    def test_unsupported_rule_rejected(self):
        with pytest.raises(SimError):
            run_simulation(small_config(rules=("phi2",), draws=1))

    def test_zero_weight_fixed_rule_rejected(self):
        # the source-pays-all rule leaves later movers with zero weight
        with pytest.raises(SimError):
            run_simulation(small_config(rules=("phi1",), draws=1))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(SimError, match="workers must be at least 1"):
            run_simulation(small_config(draws=1), workers=workers)

    @pytest.mark.parametrize("workers, started", [(2, 2), (100_000, 4)])
    def test_pool_has_at_most_one_worker_per_source(self, monkeypatch, workers, started):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(liabnet.sim, "ProcessPoolExecutor", SerialPool)
        stats = run_simulation(small_config(draws=2), workers=workers)
        assert pools == [started]
        assert stats.total_draws == 2 * 4

    @pytest.mark.parametrize(
        "config, message",
        [
            # n0_0 and n0_1 reach 3 nodes or more; n0_2 has one edge, to the last layer
            ({"layers": [3, 3], "draws": 2_000_000, "seed": 4}, "from source 'n0_2': min_size"),
            ({"layers": [4, 3, 3], "p_next": 0.7, "p_skip": 0.2, "draws": 1, "rules": ["phi2"],
              "seed": 7}, "'phi2' is not supported"),
        ],
        ids=["source-reaches-two-nodes", "unsupported-rule"],
    )
    def test_refused_before_any_draw(self, monkeypatch, config, message):
        calls = []

        def counted(job):
            calls.append(job)
            return _simulate_source(job)

        monkeypatch.setattr(liabnet.sim, "_simulate_source", counted)
        with pytest.raises(SimError, match=message):
            run_simulation(SimConfig.from_dict(config))
        assert calls == []

    def test_source_reaching_two_nodes_is_named(self):
        config = SimConfig(graph=LayeredGraphSpec(sizes=(3, 3)), draws=5)
        with pytest.raises(SimError, match="cannot simulate from source 'n0_0': min_size"):
            run_simulation(config)

    def test_worker_independence_and_artifacts(self, tmp_path):
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        cfg = small_config()
        s1 = run_simulation(cfg, workers=1, out_dir=out1)
        s2 = run_simulation(cfg, workers=3, out_dir=out2)
        for name in ("per_agent.csv", "per_layer.csv", "density.csv", "summary.json"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, name
        assert s1.gini_mean == s2.gini_mean
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["total_draws"] == s1.total_draws
        assert set(summary["per_rule"]) == {"fixed:wstar", "local"}
        assert "better_off" in summary
        per_agent = (out1 / "per_agent.csv").read_text().strip().splitlines()
        assert per_agent[0] == "agent,layer,rule,mean_liability,mean_sq_liability"
        assert len(per_agent) == 1 + 2 * len(s1.labels)
        density = (out1 / "density.csv").read_text().strip().splitlines()
        assert len(density) == 1 + 2 * DENSITY_BINS

    def test_better_off_counts_none_for_single_rule(self):
        stats = run_simulation(small_config(rules=("local",), draws=5))
        assert stats.better_mean is None
        assert stats.better_mean_sq is None
