import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liabnet.graph
import liabnet.rules
from liabnet.cli import build_parser, main
from liabnet.game import spe_solve
from liabnet.generators import random_dag
from liabnet.graph import efficient_paths
from liabnet.io import load_graph_file, load_losses_file
from liabnet.rules import make_rule

from conftest import ALL_RULE_SPECS, ROUNDED_MERGE, SPLIT_ROOTS, ladder, near_tie_game

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FORK = str(FIXTURES / "fork.json")
CHAIN3 = str(FIXTURES / "chain_bypass_3.json")
DIAMOND = str(FIXTURES / "bypass_diamond.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    data = json.loads(out.out) if out.out.strip() else None
    return code, data, out.err


# every fixture graph but grid20, whose 2^20 paths are too many to list
REPORT_GRAPHS = sorted(
    p for p in FIXTURES.glob("*.json")
    if p.name != "grid20.json" and "nodes" in json.loads(p.read_text())
)


def _loss_variants(dag, embedded, graph, tmp_path):
    """Extra argv per loss function: the graph's own losses where it has
    them on every edge, then a seeded integer and a seeded float file."""
    variants = [[]] if all(e in embedded for e in dag.edges) else []
    rng = random.Random(graph.name)
    for kind, draw in (("int", lambda: rng.randint(0, 3)),
                       ("float", lambda: rng.choice([0.1, 0.2, 0.3]))):
        path = tmp_path / f"{graph.stem}.{kind}.json"
        path.write_text(json.dumps({f"{dag.labels[u]}->{dag.labels[v]}": draw()
                                    for u, v in dag.edges}))
        variants.append(["--losses", str(path)])
    return variants


def ladder_file(tmp_path, stages: int) -> str:
    """The all-ties ladder of `conftest.ladder` as a graph file."""
    dag, _ = ladder(stages)
    path = tmp_path / f"ladder{stages}.json"
    path.write_text(json.dumps({
        "nodes": list(dag.labels),
        "edges": [{"from": dag.labels[u], "to": dag.labels[v], "loss": 1} for u, v in dag.edges],
    }))
    return str(path)


class TestValidate:
    def test_valid_graph(self, capsys):
        code, data, _ = run(capsys, "validate", FORK)
        assert code == 0
        assert data["valid"] is True
        assert all(c["passed"] for c in data["checks"])

    def test_invalid_graph_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "cycle.json"
        bad.write_text(json.dumps({
            "nodes": ["a", "b"],
            "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "a"}],
        }))
        code, data, _ = run(capsys, "validate", str(bad))
        assert code == 2
        assert data["valid"] is False
        assert any(not c["passed"] for c in data["checks"])

    def test_missing_file_exits_2(self, capsys):
        code, data, err = run(capsys, "validate", "/nonexistent/graph.json")
        assert code == 2
        assert data is None
        assert "error:" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "error:" in err


class TestPaths:
    def test_fork_paths_lexicographic(self, capsys):
        code, data, _ = run(capsys, "paths", FORK)
        assert code == 0
        assert data["count"] == "3"
        assert data["paths"] == [["s", "i", "t"], ["s", "j", "k", "t"], ["s", "j", "t"]]

    def test_cap_exceeded_exits_2(self, capsys):
        code, data, err = run(capsys, "paths", FORK, "--cap-paths", "2")
        assert code == 2
        assert data is None
        assert "cap" in err or "paths" in err

    def test_zero_cap_is_a_cap(self, capsys):
        code, data, err = run(capsys, "paths", FORK, "--cap-paths", "0")
        assert code == 2
        assert data is None
        assert err == "error: more than 0 paths\n"


@pytest.mark.parametrize(
    "argv, cap",
    [(("paths",), 10_000), (("weights", "--method", "enumerate"), 100_000)],
    ids=["paths", "weights-enumerate"],
)
def test_over_cap_refused_before_listing(capsys, monkeypatch, argv, cap):
    # grid20 has 2^20 paths: the count alone refuses it, no path is built
    def listing(*args):
        raise AssertionError("paths listed")

    monkeypatch.setattr(liabnet.graph, "list_paths", listing)
    code, data, err = run(capsys, argv[0], str(FIXTURES / "grid20.json"), *argv[1:])
    assert code == 2
    assert data is None
    assert err == f"error: more than {cap} paths\n"


class TestWeights:
    def test_dp_on_fork(self, capsys):
        code, data, _ = run(capsys, "weights", FORK, "--method", "dp")
        assert code == 0
        w = data["weights"]
        assert w["s"] == pytest.approx(4 / 9, abs=1e-12)
        assert w["i"] == pytest.approx(1 / 6, abs=1e-12)
        assert w["j"] == pytest.approx(5 / 18, abs=1e-12)
        assert w["k"] == pytest.approx(1 / 9, abs=1e-12)
        assert w["t"] == 0.0
        meta = data["metadata"]
        assert meta["method"] == "dp"
        assert meta["path_count"] == "3"
        assert isinstance(meta["runtime_ms"], (int, float))

    def test_methods_agree(self, capsys):
        results = {}
        for method in ("dp", "enumerate", "shapley"):
            code, data, _ = run(capsys, "weights", FORK, "--method", method)
            assert code == 0
            results[method] = data["weights"]
        for label in results["dp"]:
            vals = {results[m][label] for m in results}
            assert max(vals) - min(vals) <= 1e-12


class TestEfficient:
    def test_chain_bypass(self, capsys):
        code, data, _ = run(capsys, "efficient", CHAIN3)
        assert code == 0
        assert data["min_cost"] == 1.5
        assert data["paths"] == [["s", "t"]]
        assert data["continuation"]["s"] == 1.5
        assert data["continuation"]["t"] == 0.0

    def test_losses_not_total_exits_2(self, capsys):
        code, _, err = run(capsys, "efficient", FORK)
        assert code == 2
        assert "loss" in err


class TestLiability:
    def test_local_rule_on_chain(self, capsys):
        code, data, _ = run(
            capsys, "liability", CHAIN3, "--rule", "local", "--path", "s,n1,n2,t"
        )
        assert code == 0
        assert data["rule"] == "local"
        assert data["total"] == 3.0
        assert data["liabilities"] == {"s": 1.0, "n1": 1.0, "n2": 1.0, "t": 0.0}

    def test_unknown_label_exits_2(self, capsys):
        code, _, err = run(
            capsys, "liability", CHAIN3, "--rule", "local", "--path", "s,zz,t"
        )
        assert code == 2
        assert "zz" in err

    def test_bad_rule_spec_exits_2(self, capsys):
        code, _, err = run(
            capsys, "liability", CHAIN3, "--rule", "nope", "--path", "s,t"
        )
        assert code == 2

    def test_path_without_labels_exits_2(self, capsys):
        code, data, err = run(
            capsys, "liability", CHAIN3, "--rule", "local", "--path", " , "
        )
        assert (code, data) == (2, None)
        assert err == "error: --path must list node labels separated by commas\n"

    @pytest.mark.parametrize(
        "path, names",
        [("s", "('s',)"), ("n1,n2,t", "('n1', 'n2', 't')"), ("s,n1", "('s', 'n1')")],
    )
    def test_not_a_path_names_labels(self, capsys, path, names):
        code, data, err = run(
            capsys, "liability", CHAIN3, "--rule", "fixed:wstar", "--path", path
        )
        assert code == 2
        assert data is None
        assert err == f"error: not a source-to-sink path: {names}\n"


class TestSpe:
    def test_local_rule_inefficient(self, capsys):
        code, data, _ = run(capsys, "spe", CHAIN3, "--rule", "local")
        assert code == 0
        assert data["outcomes"] == [["s", "n1", "n2", "t"]]
        assert data["efficient"] == [["s", "t"]]
        assert data["coincide"] is False
        liab = data["liabilities"]["s->n1->n2->t"]
        assert liab == {"s": 1.0, "n1": 1.0, "n2": 1.0, "t": 0.0}

    def test_wstar_rule_efficient(self, capsys):
        code, data, _ = run(capsys, "spe", CHAIN3, "--rule", "fixed:wstar")
        assert code == 0
        assert data["outcomes"] == [["s", "t"]]
        assert data["coincide"] is True

    def test_losses_checked_once_for_all_outcomes(self, capsys, tmp_path, monkeypatch):
        calls = []
        check = liabnet.rules.check_losses

        def counting_check(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(liabnet.rules, "check_losses", counting_check)
        zeros = tmp_path / "zeros.json"
        zeros.write_text(json.dumps(
            {k: 0 for k in ("s->i", "s->j", "j->k", "i->t", "j->t", "k->t")}
        ))
        code, data, _ = run(capsys, "spe", FORK, "--rule", "fixed:wstar", "--losses", str(zeros))
        assert code == 0
        assert len(data["liabilities"]) == 3
        assert len(calls) == 1


    @pytest.mark.parametrize("rule", ["fixed:wstar", "punish-first"])
    def test_one_balance_test_per_distinct_split(self, capsys, tmp_path, monkeypatch, rule):
        # all 256 ladder paths tie, so both rules give every outcome one split
        calls = []
        balanced = liabnet.rules._exactly_balanced

        def counting(*args):
            calls.append(args)
            return balanced(*args)

        monkeypatch.setattr(liabnet.rules, "_exactly_balanced", counting)
        code, data, _ = run(capsys, "spe", ladder_file(tmp_path, 8), "--rule", rule)
        assert code == 0
        assert len(data["liabilities"]) == 256
        assert len(calls) == 1

    def test_outcomes_checked_per_link_not_per_path(self, capsys, tmp_path, monkeypatch):
        # `spe` checks its outcomes once per link of the solver's table;
        # `liability`'s one path goes through `check_path`
        calls = []
        check = liabnet.rules.check_path

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(liabnet.rules, "check_path", counting)
        for rule in ("fixed:wstar", "local", "punish-first"):
            code, data, _ = run(capsys, "spe", ladder_file(tmp_path, 8), "--rule", rule)
            assert code == 0
            assert len(data["liabilities"]) == 256
        assert calls == []
        code, _, _ = run(capsys, "liability", CHAIN3, "--rule", "local", "--path", "s,t")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("game, weights", [(ROUNDED_MERGE, {"s": 1}), (SPLIT_ROOTS, {"b": 1})],
                             ids=["rounded-merge", "split-roots"])
    def test_outcomes_sorted_by_nodes(self, capsys, tmp_path, game, weights):
        # the solver's walk lists the first graph's outcomes out of order;
        # the second has three roots
        dag, losses = game
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"nodes": list(dag.labels), "edges": [
            {"from": dag.labels[u], "to": dag.labels[v], "loss": x} for (u, v), x in losses.items()]}))
        file = tmp_path / "weights.json"
        file.write_text(json.dumps(weights))
        rule = f"fixed:file={file}"
        code, data, _ = run(capsys, "spe", str(graph), "--rule", rule)
        assert code == 0
        sol = spe_solve(dag, losses, make_rule(rule, dag))
        want = [list(p.labels(dag)) for p in sorted(sol.outcomes(), key=lambda p: p.nodes)]
        assert data["outcomes"] == want
        assert list(data["liabilities"]) == sorted("->".join(p) for p in want)

    def test_efficient_paths_as_efficient_reports_them(self, capsys, tmp_path):
        # whether or not the outcomes coincide with the efficient paths,
        # the report lists the paths and cost that `efficient` does
        seen = set()
        for graph in REPORT_GRAPHS:
            dag, embedded = load_graph_file(graph)
            for extra in _loss_variants(dag, embedded, graph, tmp_path):
                losses = {**embedded, **(load_losses_file(extra[1], dag) if extra else {})}
                for tol in (None, "0", "0.25"):
                    want = efficient_paths(
                        dag, losses, tie_tolerance=None if tol is None else float(tol)
                    ).to_dict(dag)
                    for rule in ALL_RULE_SPECS:
                        argv = ["spe", str(graph), "--rule", rule, *extra]
                        argv += ["--tol", tol] if tol else []
                        code, data, _ = run(capsys, *argv)
                        assert code == 0
                        assert data["efficient"] == want["paths"], argv
                        assert data["min_cost"] == want["min_cost"], argv
                        seen.add(data["coincide"])
        assert seen == {True, False}


class TestCheck:
    def test_axiom_failure_exits_1(self, capsys):
        code, data, _ = run(
            capsys, "check", CHAIN3, "--axiom", "EI", "--rule", "local",
            "--trials", "1",
        )
        assert code == 1
        assert data["passed"] is False
        cex = data["counterexample"]
        assert cex["spe"] == [["s", "n1", "n2", "t"]]
        assert cex["efficient_total"] == 1.5

    def test_axiom_pass_exits_0(self, capsys):
        code, data, _ = run(
            capsys, "check", "--axiom", "EI", "--rule", "fixed:wstar",
            "--trials", "25", "--seed", "4",
        )
        assert code == 0
        assert data["passed"] is True
        assert data["passes"] == 25

    @pytest.mark.parametrize("rule", ["fixed:wstar", "local", "punish-first"])
    def test_ei_on_grid20_counts_instead_of_listing(self, capsys, tmp_path, rule):
        # 2^20 tied paths: listing both sets took 16-23 s, counting them
        # takes milliseconds
        grid = json.loads((FIXTURES / "grid20.json").read_text())
        unit = tmp_path / "unit.json"
        unit.write_text(json.dumps({f"{e['from']}->{e['to']}": 1 for e in grid["edges"]}))
        start = time.perf_counter()
        code, data, _ = run(
            capsys, "check", str(FIXTURES / "grid20.json"), "--losses", str(unit),
            "--axiom", "EI", "--rule", rule, "--trials", "1",
        )
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert data["passed"] is True and data["passes"] == 1

    def test_punish_first_keeps_the_near_tie(self, capsys, tmp_path):
        # the two reversed-order paths tie in `efficient_paths`; their
        # left-to-right totals differ, and an equal split of those once
        # dropped one of them
        dag, losses = near_tie_game(random.Random(0), 1e8)
        graph = tmp_path / "near_tie_1e8.json"
        graph.write_text(json.dumps({
            "nodes": list(dag.labels),
            "edges": [{"from": dag.labels[u], "to": dag.labels[v], "loss": x}
                      for (u, v), x in losses.items()],
        }))
        code, data, _ = run(capsys, "check", str(graph), "--axiom", "EI",
                            "--trials", "1", "--rule", "punish-first")
        assert code == 0 and data["passed"] is True
        code, data, _ = run(capsys, "spe", str(graph), "--rule", "punish-first")
        assert code == 0
        assert data["outcomes"] == [
            ["r", "s", "a1", "a2", "a3", "t"], ["r", "s", "b1", "b2", "b3", "t"],
        ]
        assert data["coincide"] is True
        assert len(set(map(json.dumps, data["liabilities"].values()))) == 1

    def test_unknown_solver_mode_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(liabnet.rules.PunishFirstRule, "mode", "bogus")
        for argv in (["spe", CHAIN3],
                     ["check", "--axiom", "EI", "--trials", "1"]):
            code, data, err = run(capsys, *argv, "--rule", "punish-first")
            assert code == 2 and data is None
            assert err == "error: no solver for mode 'bogus' of rule punish-first\n"

    def test_property_not_applicable_exits_2(self, capsys):
        code, data, _ = run(
            capsys, "check", "--property", "DOWNSTREAM_MONO", "--rule", "local",
            "--trials", "5",
        )
        assert code == 2
        assert data["applicable"] is False

    def test_scenario_exits_0(self, capsys):
        code, data, _ = run(capsys, "check", "--scenario", "impossibility")
        assert code == 0
        assert data["passed"] is True
        assert data["detail"]["prime"]["efficient"] == [["s", "i", "t"]]

    def test_selector_required(self, capsys):
        code, _, err = run(capsys, "check", "--rule", "local")
        assert code == 2
        assert "exactly one" in err

    def test_two_selectors_rejected(self, capsys):
        code, _, err = run(
            capsys, "check", "--axiom", "EI", "--property", "PATH_INDEP",
            "--rule", "local",
        )
        assert code == 2

    def test_unknown_scenario_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "--scenario", "nope")
        assert code == 2

    def test_rule_required_for_axiom(self, capsys):
        code, _, err = run(capsys, "check", "--axiom", "EI")
        assert code == 2
        assert "--rule" in err


class TestSimulate:
    def config_file(self, tmp_path, seed=11):
        cfg = {
            "layers": [3, 2, 2],
            "p_next": 0.8,
            "p_skip": 0.1,
            "draws": 25,
            "loss_low": 0,
            "loss_high": 10,
            "rules": ["fixed:wstar", "local"],
            "seed": seed,
        }
        path = tmp_path / f"cfg{seed}.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_summary_and_artifacts(self, capsys, tmp_path):
        cfg = self.config_file(tmp_path)
        out_dir = tmp_path / "out"
        code, data, _ = run(capsys, "simulate", cfg, "--out", str(out_dir))
        assert code == 0
        assert data["total_draws"] == 75
        assert set(data["per_rule"]) == {"fixed:wstar", "local"}
        for name in ("per_agent.csv", "per_layer.csv", "density.csv", "summary.json"):
            assert (out_dir / name).exists()
        on_disk = json.loads((out_dir / "summary.json").read_text())
        assert on_disk == data

    def test_stdout_deterministic(self, capsys, tmp_path):
        cfg = self.config_file(tmp_path)
        code1, data1, _ = run(capsys, "simulate", cfg)
        code2, data2, _ = run(capsys, "simulate", cfg)
        assert code1 == code2 == 0
        assert data1 == data2

    def test_seed_override_changes_result(self, capsys, tmp_path):
        cfg = self.config_file(tmp_path)
        _, base, _ = run(capsys, "simulate", cfg)
        _, other, _ = run(capsys, "simulate", cfg, "--seed", "12")
        assert base != other
        assert other["config"]["seed"] == 12
        # the override reseeds the generated graph too, not only the draws
        _, direct, _ = run(capsys, "simulate", self.config_file(tmp_path, seed=12))
        assert other == direct


class TestMalformedJson:
    """Every JSON input file fails with exit 2 and one `error:` line."""

    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ("efficient", FORK, "--losses", "{bad}"),
            ("spe", CHAIN3, "--rule", "fixed:file={bad}"),
            ("simulate", "{bad}"),
        ],
        ids=["losses", "weights", "simulate-config"],
    )
    def test_exits_2_with_one_line(self, capsys, bad, argv):
        code, data, err = run(capsys, *(a.format(bad=bad) for a in argv))
        assert code == 2
        assert data is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert bad in err


WEIGHTS_ARGV = [
    ("liability", FORK, "--rule", "{rule}", "--path", "s,i,t", "--losses", "{losses}"),
    ("spe", FORK, "--rule", "{rule}", "--losses", "{losses}"),
    ("check", FORK, "--axiom", "EI", "--rule", "{rule}", "--trials", "3"),
]


class TestNanWeights:
    """A weights file with a NaN or infinite weight is refused where it is
    read, naming the label, before any rule runs. It used to pass the file
    and fail the simplex check for the wrong reason: a NaN as negative, an
    Infinity as a sum of inf."""

    def run_weights(self, capsys, tmp_path, argv, text):
        weights = tmp_path / "weights.json"
        weights.write_text(text)
        losses = tmp_path / "losses.json"
        losses.write_text(json.dumps(
            {"s->i": 1, "s->j": 2, "j->k": 1, "i->t": 3, "j->t": 1, "k->t": 1}
        ))
        rule = f"fixed:file={weights}"
        code, data, err = run(capsys, *(a.format(rule=rule, losses=losses) for a in argv))
        assert code == 2
        assert data is None
        return err

    @pytest.mark.parametrize("argv", WEIGHTS_ARGV, ids=["liability", "spe", "check-EI"])
    def test_exits_2_with_one_line(self, capsys, tmp_path, argv):
        err = self.run_weights(capsys, tmp_path, argv, '{"s": 0.5, "j": 0.5, "i": NaN}')
        assert err == "error: weight for 'i' must be a finite number\n"

    @pytest.mark.parametrize("weight", ["Infinity", "-Infinity"])
    @pytest.mark.parametrize("argv", WEIGHTS_ARGV[:2], ids=["liability", "spe"])
    def test_infinite_weight_exits_2(self, capsys, tmp_path, argv, weight):
        err = self.run_weights(capsys, tmp_path, argv, '{"s": %s}' % weight)
        assert err == "error: weight for 's' must be a finite number\n"


# every command that reads a file, with that file as its one input
FILE_COMMANDS = {
    "validate": ("validate", "{bad}"),
    "paths": ("paths", "{bad}"),
    "weights": ("weights", "{bad}"),
    "efficient": ("efficient", "{bad}"),
    "liability": ("liability", "{bad}", "--rule", "local", "--path", "s,t"),
    "spe": ("spe", "{bad}", "--rule", "local"),
    "check": ("check", "{bad}", "--axiom", "EI", "--rule", "local"),
    "simulate": ("simulate", "{bad}"),
}


class TestParserLimits:
    """JSON that the parser itself cannot take, deep nesting or an integer
    literal too long to convert, exits 2 with one `error:` line instead of
    a traceback, in every file command."""

    @pytest.fixture(params=["deep", "long-int"])
    def bad(self, request, tmp_path):
        path = tmp_path / f"{request.param}.json"
        if request.param == "deep":
            path.write_text("[" * 100_000 + "]" * 100_000)
        else:
            path.write_text('{"nodes": [], "edges": [], "x": ' + "9" * 5000 + "}")
        return str(path)

    @pytest.mark.parametrize("argv", FILE_COMMANDS.values(), ids=FILE_COMMANDS.keys())
    def test_exits_2_with_one_line(self, capsys, bad, argv):
        code, data, err = run(capsys, *(a.format(bad=bad) for a in argv))
        assert code == 2
        assert data is None
        assert err.startswith(f"error: {bad}: invalid JSON") and err.count("\n") == 1


# s-a-t, and the same graph with one field replaced or dropped
GOOD = {"nodes": ["s", "a", "t"], "edges": [{"from": "s", "to": "a"}, {"from": "a", "to": "t"}]}
# a graph file of each wrong shape, and what its error names
GRAPH_SHAPES = {
    "edges-not-list": ({**GOOD, "edges": 5}, "'edges' must be a list"),
    "from-not-string": ({**GOOD, "edges": [{"from": "s", "to": "a"}, {"from": ["s"], "to": "a"}]},
                        "edge #1 'from' and 'to' must be string labels"),
    "not-object": (["s", "a", "t"], "must be an object with 'nodes' and 'edges'"),
    "no-nodes": ({"edges": GOOD["edges"]}, "must be an object with 'nodes' and 'edges'"),
    "no-edges": ({"nodes": GOOD["nodes"]}, "must be an object with 'nodes' and 'edges'"),
    "nodes-not-list": ({**GOOD, "nodes": "sat"}, "'nodes' must be a list of string labels"),
    "node-not-string": ({**GOOD, "nodes": ["s", 1, "t"]}, "'nodes' must be a list of string"),
    "edge-not-object": ({**GOOD, "edges": [["s", "a"]]}, "edge #0 must be an object"),
    "edge-without-to": ({**GOOD, "edges": [{"from": "s"}]}, "edge #0 must be an object"),
    "loss-negative": ({**GOOD, "edges": [{"from": "s", "to": "a", "loss": -1}]},
                      "edge #0 loss must be a non-negative number"),
    "loss-bool": ({**GOOD, "edges": [{"from": "s", "to": "a", "loss": True}]},
                  "edge #0 loss must be a non-negative number"),
    "source-not-string": ({**GOOD, "source": 0}, "'source' must be a string label"),
}
# a losses file for fork.json of each wrong shape
LOSSES_SHAPES = {
    "not-object": ([1, 2], "losses file must be an object"),
    "key-without-arrow": ({"s-i": 1}, "bad edge key 's-i'"),
    "value-not-number": ({"s->i": "1"}, "loss for 's->i' must be a non-negative number"),
    "non-edge": ({"i->j": 1}, "losses file names a non-edge 'i->j'"),
}
# a weights file for chain_bypass_3.json of each wrong shape
WEIGHTS_SHAPES = {
    "not-object": ([0.5, 0.5], "weights file must be an object"),
    "weight-not-number": ({"s": "1"}, "weight for 's' must be a finite number"),
    # finite, but `float` of it raises OverflowError
    "weight-beyond-float": ({"s": 10**400 - 1}, "weight for 's' is beyond the float range"),
}
SHAPE_CASES = [
    pytest.param((command, "{file}"), data, message, id=f"{name}-{command}")
    for name, (data, message) in GRAPH_SHAPES.items()
    for command in ("paths", "validate")
] + [
    pytest.param(("efficient", FORK, "--losses", "{file}"), data, message, id=f"losses-{name}")
    for name, (data, message) in LOSSES_SHAPES.items()
] + [
    pytest.param(("spe", CHAIN3, "--rule", "fixed:file={file}"), data, message,
                 id=f"weights-{name}")
    for name, (data, message) in WEIGHTS_SHAPES.items()
]


class TestArrowInLabel:
    """A node label that holds '->' is refused where the graph file is read.
    Here `s->a->t` would key both paths of the `spe` report, and a losses
    file key `s->a->t` would name the edge from s to `a->t`."""

    GRAPH = {"nodes": ["s", "a", "t", "a->t"], "edges": [
        {"from": "s", "to": "a", "loss": 1}, {"from": "a", "to": "t", "loss": 0},
        {"from": "s", "to": "a->t", "loss": 1}]}

    @pytest.mark.parametrize(
        "argv",
        [("spe", "{graph}", "--rule", "local"),
         ("efficient", "{graph}", "--losses", "{losses}"),
         ("validate", "{graph}")],
        ids=["spe", "efficient-losses", "validate"],
    )
    def test_exits_2_with_one_line(self, capsys, tmp_path, argv):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(self.GRAPH))
        losses = tmp_path / "losses.json"
        losses.write_text(json.dumps({"s->a": 1, "s->a->t": 2}))
        code, data, err = run(capsys, *(a.format(graph=graph, losses=losses) for a in argv))
        assert code == 2
        assert data is None
        assert err == "error: node label 'a->t' contains '->', which joins labels in keys\n"


class TestShapeErrors:
    """Graph, losses and weights files and simulate configs that parse as
    JSON but have the wrong shape fail with exit 2 and one `error:` line."""

    @pytest.mark.parametrize("argv, content, message", SHAPE_CASES)
    def test_graph_file(self, capsys, tmp_path, argv, content, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code, data, err = run(capsys, *(a.format(file=path) for a in argv))
        assert code == 2
        assert data is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "config, message",
        [
            ([], "must be a JSON object"),
            ({"draws": "x"}, "'draws' must be an integer"),
            ({"layers": 5}, "'layers' must be a list of integers"),
            ({"rules": ["local", "local"]}, "rules must be distinct"),
            ({"layers": [2, 2, 2], "draws": 5, "loss_high": 1e308}, "too large"),
            ({"layers": [2, 2, 2], "draws": 5, "loss_high": 1.7e308}, "too large"),
            ({"layers": [2, 2, 2], "draws": 5, "loss_low": 1e308, "loss_high": 1e308},
             "too large"),
            # n0_0 has one edge, so it reaches only 2 nodes
            ({"layers": [3, 3], "draws": 5}, "cannot simulate from source 'n0_0'"),
            ({"layers": [3, 3, 3], "draw": 10},
             "unknown config field 'draw' (known: layers, p_next, p_skip, draws, loss_low, "
             "loss_high, rules, seed)"),
            ({"chunk": 0}, "unknown config field 'chunk'"),
        ],
        ids=["list", "draws-string", "layers-int", "rules-repeated", "loss-high-1e308",
             "loss-high-1.7e308", "loss-low-1e308", "source-reaches-two-nodes",
             "unknown-field-draw", "unknown-field-chunk"],
    )
    def test_simulate_config(self, capsys, tmp_path, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, data, err = run(capsys, "simulate", str(path))
        assert code == 2
        assert data is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @staticmethod
    def weights_config(tmp_path, layers, weights):
        """A `simulate` config on full layers of `layers` nodes with a
        `fixed:file=` rule on `weights` and `local`; (path, rule spec)."""
        weights_file = tmp_path / "weights.json"
        weights_file.write_text(json.dumps(weights))
        rule = f"fixed:file={weights_file}"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "layers": layers, "p_next": 1.0, "p_skip": 0.0, "draws": 5, "rules": [rule, "local"],
        }))
        return str(config), rule

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({"n0_0": 0.5, "zz": 0.5}, "source 'n0_0': unknown node label: 'zz'"),
            ({"n0_0": 0.5, "n1_0": 0.25}, "source 'n0_0': weights must sum to 1 (got 0.75)"),
        ],
        ids=["unknown-label", "sum-off"],
    )
    def test_simulate_weights_file_names_the_source(self, capsys, tmp_path, weights, message):
        # the one source n0_0 feeds n1_0 and n1_1, which feed n2_0 and n2_1
        config, _ = self.weights_config(tmp_path, [1, 2, 2], weights)
        code, data, err = run(capsys, "simulate", config)
        assert code == 2
        assert data is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"cannot simulate from {message}" in err

    def test_simulate_weights_file_needs_one_source(self, capsys, tmp_path):
        # n0_0 and n0_1 both feed n1_0: the file fits n0_0's subgraph but
        # names n0_0, which n0_1 does not reach
        config, rule = self.weights_config(tmp_path, [2, 1, 2], {"n0_0": 0.5, "n1_0": 0.5})
        code, data, err = run(capsys, "simulate", config)
        assert code == 2
        assert data is None
        assert err == (
            f"error: rule {rule!r} needs a single source (layers starting with 1), "
            "not 2: one weights file cannot fit every source's subgraph\n"
        )

    def test_simulate_weights_file_with_one_source_runs(self, capsys, tmp_path):
        weights = {"n0_0": 0.5, "n1_0": 0.25, "n1_1": 0.25}
        config, rule = self.weights_config(tmp_path, [1, 2, 2], weights)
        code, data, _ = run(capsys, "simulate", config)
        assert code == 0
        assert data["total_draws"] == 5
        assert set(data["per_rule"]) == {rule, "local"}


GUARD_ARGV = {
    "efficient-tol-negative": (("efficient", CHAIN3, "--tol", "-1"), "tie tolerance"),
    "efficient-tol-nan": (("efficient", CHAIN3, "--tol", "nan"), "tie tolerance"),
    "spe-tol-negative": (("spe", CHAIN3, "--rule", "local", "--tol", "-1"), "tie tolerance"),
    "spe-tol-inf": (("spe", CHAIN3, "--rule", "local", "--tol", "inf"), "tie tolerance"),
    "spe-tol-nan": (("spe", CHAIN3, "--rule", "local", "--tol", "nan"), "tie tolerance"),
    "axiom-trials-negative": (
        ("check", "--axiom", "EI", "--rule", "fixed:wstar", "--trials", "-3"), "trials"
    ),
    "property-trials-zero": (
        ("check", "--property", "PATH_INDEP", "--rule", "fixed:wstar", "--trials", "0"),
        "trials",
    ),
    "simulate-workers-zero": (("simulate", "--workers", "0"), "workers"),
    "simulate-workers-negative": (("simulate", "--workers", "-1"), "workers"),
    "simulate-seed-negative": (("simulate", "--seed", "-1"), "seed must be non-negative"),
    "paths-cap-negative": (
        ("paths", FORK, "--cap-paths", "-1"), "path cap must be non-negative, got -1"
    ),
    "weights-cap-negative": (
        ("weights", FORK, "--method", "enumerate", "--cap-paths", "-1"),
        "path cap must be non-negative, got -1",
    ),
    "check-losses-without-graph": (
        ("check", "--property", "PATH_INDEP", "--rule", "fixed:wstar",
         "--losses", "/nonexistent.json"),
        "fixed losses require a fixed graph",
    ),
}


class TestGuards:
    """A bad tie tolerance, trial count, worker count, seed or path cap, or
    fixed losses without a graph, fails with exit 2 and one `error:` line
    instead of an empty or vacuous report or a traceback."""

    @pytest.mark.parametrize("argv, message", GUARD_ARGV.values(), ids=GUARD_ARGV.keys())
    def test_exits_2_with_one_line(self, capsys, argv, message):
        code, data, err = run(capsys, *argv)
        assert code == 2
        assert data is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_under_optimize(self):
        # the guards must not be asserts, which python -O strips
        script = (
            "import contextlib, io, sys\n"
            "from liabnet.cli import main\n"
            f"for argv in {[list(a) for a, _ in GUARD_ARGV.values()]!r}:\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
            "        code = main(argv)\n"
            "    print(code, err.getvalue().count('\\n'), err.getvalue().startswith('error: '))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["2 1 True"] * len(GUARD_ARGV)


OVERFLOW_ARGV = {
    "efficient": ("efficient",),
    "spe-local": ("spe", "--rule", "local"),
    "liability-local": ("liability", "--rule", "local", "--path", "s,a,t"),
    "spe-wstar": ("spe", "--rule", "fixed:wstar"),
    "liability-wstar": ("liability", "--rule", "fixed:wstar", "--path", "s,a,t"),
}


@pytest.mark.parametrize("argv", OVERFLOW_ARGV.values(), ids=OVERFLOW_ARGV.keys())
def test_loss_too_large_for_float_exits_2(capsys, tmp_path, argv):
    # exact integer losses are accepted, but the JSON report is in floats
    graph = tmp_path / "huge.json"
    graph.write_text(json.dumps({
        "nodes": ["s", "a", "t"],
        "edges": [{"from": "s", "to": "a", "loss": 10**400},
                  {"from": "a", "to": "t", "loss": 1}],
    }))
    code, data, err = run(capsys, argv[0], str(graph), *argv[1:])
    assert code == 2
    assert data is None
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too large" in err


@pytest.mark.parametrize("rule", ["fixed:wstar", "local"])
def test_cost_off_the_outcomes_too_large_for_float_exits_2(capsys, tmp_path, rule):
    # only s->b->t is efficient and an outcome, but a continuation cost
    # beyond the float range fails the report as it fails `efficient`,
    # whether or not the outcomes coincide with the efficient paths
    graph = tmp_path / "huge.json"
    graph.write_text(json.dumps({
        "nodes": ["s", "a", "b", "t"],
        "edges": [{"from": "s", "to": "a", "loss": 0}, {"from": "s", "to": "b", "loss": 1},
                  {"from": "a", "to": "t", "loss": 10**400},
                  {"from": "b", "to": "t", "loss": 0}],
    }))
    code, data, err = run(capsys, "spe", str(graph), "--rule", rule)
    assert code == 2
    assert data is None
    assert err == "error: int too large to convert to float\n"


BAD_LOSS_ARGV = {
    "efficient": ("efficient",),
    "spe": ("spe", "--rule", "local"),
    "liability": ("liability", "--rule", "fixed:wstar", "--path", "s,a,t"),
    "check": ("check", "--axiom", "EI", "--rule", "local", "--trials", "3"),
}


@pytest.mark.parametrize("argv", BAD_LOSS_ARGV.values(), ids=BAD_LOSS_ARGV.keys())
@pytest.mark.parametrize("loss", ["NaN", "Infinity"], ids=["nan", "inf"])
def test_bad_loss_names_edge_by_labels(capsys, tmp_path, argv, loss):
    # the graph file refuses the loss before any command reads it; the
    # label-naming message of `check_losses` is pinned in tests/test_graph.py
    graph = tmp_path / "bad_loss.json"
    graph.write_text(
        '{"nodes": ["s", "a", "t"], "edges": [{"from": "s", "to": "a", "loss": %s},'
        ' {"from": "a", "to": "t", "loss": 1}, {"from": "s", "to": "t", "loss": 2}]}' % loss
    )
    code, data, err = run(capsys, argv[0], str(graph), *argv[1:])
    assert code == 2
    assert data is None
    assert err == "error: edge #0 loss must be a non-negative number\n"


# the non-finite numbers that Python's JSON parser accepts
NON_FINITE = ["NaN", "Infinity", "-Infinity"]


def _graph_text(loss: str) -> str:
    return ('{"nodes": ["s", "a", "t"], "edges": [{"from": "s", "to": "t", "loss": 1},'
            ' {"from": "s", "to": "a", "loss": 0}, {"from": "a", "to": "t", "loss": %s}]}' % loss)


class TestNonFiniteLosses:
    """A NaN or infinite loss is refused where the file is read, even by a
    command that does not read losses; a huge but finite integer is not."""

    @pytest.mark.parametrize("command", ["validate", "paths", "weights"])
    @pytest.mark.parametrize("loss", NON_FINITE)
    def test_graph_file_exits_2(self, capsys, tmp_path, command, loss):
        graph = tmp_path / "graph.json"
        graph.write_text(_graph_text(loss))
        code, data, err = run(capsys, command, str(graph))
        assert code == 2
        assert data is None
        assert err == "error: edge #2 loss must be a non-negative number\n"

    @pytest.mark.parametrize("loss", NON_FINITE)
    def test_losses_file_exits_2(self, capsys, tmp_path, loss):
        losses = tmp_path / "losses.json"
        losses.write_text('{"s->j": 1, "s->i": %s}' % loss)
        code, data, err = run(capsys, "efficient", FORK, "--losses", str(losses))
        assert code == 2
        assert data is None
        assert err == "error: loss for 's->i' must be a non-negative number\n"

    @pytest.mark.parametrize("command", ["validate", "paths", "weights"])
    def test_400_digit_integer_loss_accepted(self, capsys, tmp_path, command):
        graph = tmp_path / "graph.json"
        graph.write_text(_graph_text("9" * 400))
        code, data, err = run(capsys, command, str(graph))
        assert code == 0
        assert err == ""


class TestDeepChain:
    def test_paths_on_1500_node_chain(self, capsys, tmp_path):
        labels = ["s"] + [f"n{k}" for k in range(1, 1499)] + ["t"]
        edges = [{"from": u, "to": v} for u, v in zip(labels, labels[1:])]
        edges.append({"from": "s", "to": "t"})
        graph = tmp_path / "chain.json"
        graph.write_text(json.dumps({"nodes": labels, "edges": edges}))
        code, data, _ = run(capsys, "paths", str(graph))
        assert code == 0
        assert data["count"] == "2"
        assert data["paths"] == [labels, ["s", "t"]]


# an int loss beyond 2**53 next to a float loss: the cheapest cost plus the
# 1e-9 tolerance rounded below that cost, so its own step failed the tie
BIG_INT_GRAPHS = {
    "int-bypass": ([("s", "t", 2**53 + 1), ("s", "a", 1.152921504606847e18), ("a", "t", 1)],
                   ["s", "t"]),
    "float-then-int": ([("s", "n1", 2e-9), ("n1", "n2", 2**60 + 3)], ["s", "n1", "n2"]),
}


def _loss_graph(path, edges) -> str:
    """A graph file of (from, to, loss) triples, nodes in first-seen order."""
    nodes = list(dict.fromkeys(x for u, v, _ in edges for x in (u, v)))
    path.write_text(json.dumps({
        "nodes": nodes,
        "edges": [{"from": u, "to": v, "loss": x} for u, v, x in edges],
    }))
    return str(path)


@pytest.mark.parametrize("name", BIG_INT_GRAPHS)
class TestIntLossBeyondFloatPrecision:
    def graph(self, tmp_path, name):
        edges, cheapest = BIG_INT_GRAPHS[name]
        return _loss_graph(tmp_path / "graph.json", edges), cheapest

    def test_efficient(self, capsys, tmp_path, name):
        graph, cheapest = self.graph(tmp_path, name)
        code, data, err = run(capsys, "efficient", graph)
        assert (code, err) == (0, "")
        assert data["paths"] == [cheapest]

    @pytest.mark.parametrize("rule", ALL_RULE_SPECS)
    def test_spe(self, capsys, tmp_path, name, rule):
        graph, cheapest = self.graph(tmp_path, name)
        code, data, err = run(capsys, "spe", graph, "--rule", rule)
        assert (code, err) == (0, "")
        assert data["outcomes"] == data["efficient"] == [cheapest]
        assert data["coincide"] is True

    @pytest.mark.parametrize("axiom", ["EI", "PCP"])
    def test_check(self, capsys, tmp_path, name, axiom):
        graph, _ = self.graph(tmp_path, name)
        code, data, err = run(capsys, "check", graph, "--axiom", axiom,
                              "--rule", "fixed:wstar", "--trials", "1")
        assert (code, err) == (0, "")
        assert data["passed"] is True


def _count_costs(monkeypatch) -> list:
    """Record each call to `graph.continuation_costs`, which only
    `graph.Ties` makes."""
    calls = []
    real = liabnet.graph.continuation_costs

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(liabnet.graph, "continuation_costs", spy)
    return calls


class TestOneTieDecision:
    """Under one loss function the solver, the rules, the audits and `spe`
    share one `graph.Ties`, so the continuation costs are computed once."""

    def tied_diamond(self, tmp_path) -> list[str]:
        # every one of the diamond's three paths costs 2
        path = tmp_path / "tied.json"
        path.write_text(json.dumps({"s->t": 2, "s->i": 1, "i->j": 0, "i->t": 1, "j->t": 1}))
        return [DIAMOND, "--losses", str(path)]

    @pytest.mark.parametrize("rule", ["fixed:wstar", "punish-first"])
    def test_spe_computes_the_costs_once(self, capsys, tmp_path, monkeypatch, rule):
        argv = ["spe", *self.tied_diamond(tmp_path), "--rule", rule]
        calls = _count_costs(monkeypatch)
        code, data, _ = run(capsys, *argv)
        assert code == 0
        assert data["coincide"] is True and len(data["outcomes"]) == 3
        assert len(calls) == 1

    def test_ei_trial_computes_the_costs_once(self, capsys, tmp_path, monkeypatch):
        argv = ["check", *self.tied_diamond(tmp_path), "--axiom", "EI",
                "--rule", "punish-first", "--trials", "1"]
        calls = _count_costs(monkeypatch)
        code, data, _ = run(capsys, *argv)
        assert code == 0 and data["passed"] is True
        assert len(calls) == 1

    def test_spe_not_coinciding_computes_the_costs_once(self, capsys, tmp_path, monkeypatch):
        # phi1's outcomes are not the efficient paths under these losses, so
        # the report lists the efficient paths from the rule's own costs
        dag, _ = load_graph_file(DIAMOND)
        rng = random.Random(3)
        path = tmp_path / "float.json"
        path.write_text(json.dumps({f"{dag.labels[u]}->{dag.labels[v]}": rng.choice([0.1, 0.2, 0.3])
                                    for u, v in dag.edges}))
        calls = _count_costs(monkeypatch)
        code, data, _ = run(capsys, "spe", DIAMOND, "--losses", str(path), "--rule", "phi1")
        assert code == 0 and data["coincide"] is False
        assert len(calls) == 1

    @pytest.mark.parametrize("rule", ALL_RULE_SPECS)
    def test_spe_tol_computes_the_costs_at_most_as_often_as_before(
        self, capsys, tmp_path, monkeypatch, rule
    ):
        # before the one tie decision, `spe --tol` computed the costs for
        # `coincide` and again for the report's efficient paths, and
        # punish-first once more at bind
        before = 3 if rule == "punish-first" else 2
        calls = _count_costs(monkeypatch)
        for name in ("bypass_diamond.json", "fork.json", "shortcut_line.json"):
            graph = FIXTURES / name
            dag, embedded = load_graph_file(graph)
            for extra in _loss_variants(dag, embedded, graph, tmp_path):
                for tol in ("0", "0.25"):
                    calls.clear()
                    code, _, _ = run(capsys, "spe", str(graph), "--rule", rule, *extra,
                                     "--tol", tol)
                    assert code == 0
                    assert 1 <= len(calls) <= before, (name, extra, tol)


# near-zero float losses: each step of s-n1-n3 is within the tolerance of
# its node's cheapest continuation, so the efficient paths keep s-n1-n3,
# two tolerances above the cheapest cost 0, which the solver's totals drop
ACCUMULATING_TIES = [("s", "n1", 1e-9), ("s", "n4", 0), ("n1", "n2", 5e-324),
                     ("n1", "n3", 1e-9), ("n2", "n4", 0)]


@pytest.mark.xfail(strict=True, reason="the per-step tie test adds up tolerances along "
                   "a path, where the solver compares totals; exact numbers end to end "
                   "(ROADMAP item 3) leave no tolerance to add up")
def test_tolerances_do_not_add_up_along_an_efficient_path(capsys, tmp_path):
    graph = _loss_graph(tmp_path / "graph.json", ACCUMULATING_TIES)
    code, data, _ = run(capsys, "spe", graph, "--rule", "fixed:wstar")
    assert code == 0
    assert data["coincide"] is True


# losses at the tie rule's extremes: small ints and decimal floats, ints
# beyond 2**53, the float range's ends, and the default tolerance itself
EXTREME_LOSSES = [0, 1, 2, 3, 0.1, 0.2, 0.3, 2**53 + 1, 2**60 + 3, 10**20,
                  1.152921504606847e18, 1e300, 5e-324, 1e-9]


@st.composite
def extreme_graphs(draw):
    dag = random_dag(random.Random(draw(st.integers(0, 2**32 - 1))), 3, 6,
                     draw(st.sampled_from([0.3, 0.6])))
    losses = st.sampled_from(EXTREME_LOSSES)
    return [(dag.labels[u], dag.labels[v], draw(losses)) for u, v in dag.edges]


def _main_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200)
@given(edges=extreme_graphs(), tol=st.sampled_from(["0", "1e-9", "0.25"]))
def test_no_traceback_at_the_tie_rules_extremes(tmp_path_factory, edges, tol):
    graph = _loss_graph(tmp_path_factory.mktemp("extreme") / "graph.json", edges)
    commands = [["efficient", graph], ["efficient", graph, "--tol", tol]]
    commands += [["spe", graph, "--rule", rule] for rule in ALL_RULE_SPECS]
    commands += [["check", graph, "--axiom", axiom, "--rule", rule, "--trials", "1"]
                 for axiom in ("EI", "PCP") for rule in ALL_RULE_SPECS]
    for argv in commands:
        code, out, err = _main_in_process(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        elif argv[0] == "efficient":
            assert json.loads(out)["paths"], argv


class TestParser:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", FORK, "--nope"])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_pretty_output(self, capsys):
        code = main(["paths", FORK, "--pretty"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("{\n")


class TestSharedParser:
    """`main` builds its parser once per process; no call sees another's
    arguments, errors or help."""

    EI = ("check", "--axiom", "EI", "--rule", "fixed:wstar", "--trials", "5", "--seed", "1")

    def test_second_call_does_not_see_the_first_calls_flags(self, capsys):
        assert run(capsys, *self.EI)[0] == 0
        code, data, err = run(
            capsys, "check", "--property", "PATH_INDEP", "--rule", "fixed:wstar",
            "--trials", "5", "--seed", "1",
        )
        assert (code, err) == (0, "")
        assert data["id"] == "PATH_INDEP"

    def test_usage_error_leaves_the_next_call_alone(self, capsys):
        build_parser.cache_clear()
        first = run(capsys, *self.EI)
        with pytest.raises(SystemExit) as exc:
            main(["check", "--trials", "x"])
        assert exc.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
        assert run(capsys, *self.EI) == first
        assert first[0] == 0

    def test_help_twice_is_identical(self, capsys):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["check", "--help"])
            assert exc.value.code == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("usage: liabnet check")

    def test_parser_built_once(self, capsys):
        build_parser.cache_clear()
        main(["validate", FORK])
        main(["paths", FORK])
        assert build_parser.cache_info().misses == 1
        assert build_parser.cache_info().hits == 1
