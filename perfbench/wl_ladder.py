"""ladder-equilibria: exact SPE outcome sets on all-ties ladders.

Every path of an all-ties ladder is efficient and every mover indifferent,
so the outcome set is all 2^m paths. `check --axiom EI` on the 10-stage
ladder (1,024 outcomes) spends its time in `game` (memo build, outcome
materialization) and `graph.efficient_paths`; the `spe` report on the
8-stage ladder (256 outcomes) spends it in per-outcome `rules.apply_rule`
and JSON output. The three rules take the solver's three modes: totals
(fixed:wstar), own-edge (local) and per-history (punish-first). The ladders
are six and five stages smaller than the 16- and 13-stage ones the
ROADMAP baselines use, so that no timed command takes much over 50 ms and
a run holds about a hundred rounds: with commands of a second or more the
fastest round of a run followed the shared host's slow phases.

The run also issues three commands on a 1,500-node chain with one bypass
edge. They are never timed. `spe --rule punish-first` there fails with
RecursionError, because `game.SpeSolution._solve_history` recurses once per
path node; it is counted as a failed operation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from liabnet.axioms import CheckReport
from liabnet.game import history_count, spe_solve
from liabnet.graph import efficient_paths
from liabnet.io import dump_json
from liabnet.rules import apply_rule, make_rule

from inputs import LADDER_SEED, chain_with_bypass, ladder, write_graph
from wl_layered import traced_load_graph_file

RULES = ("fixed:wstar", "local", "punish-first")
FAULT = "game.SpeSolution._solve_history recurses once per history node"


def tag(rule: str) -> str:
    return rule.replace(":", "-")


class Workload:
    name = "ladder-equilibria"
    default_seed = LADDER_SEED
    part1 = tuple(f"ei.{tag(r)}" for r in RULES)
    part2 = tuple(f"spe.{tag(r)}" for r in RULES)

    def __init__(self, work, seed, smoke=False):
        self.work = work
        self.seed = seed
        self.ei_stages, self.spe_stages = (8, 6) if smoke else (10, 8)
        self.chain_nodes = 1500
        self.ei_file = work / f"ladder{self.ei_stages}.json"
        self.spe_file = work / f"ladder{self.spe_stages}.json"
        self.chain_file = work / "chain_bypass.json"

    def setup(self) -> None:
        for stages, path in ((self.ei_stages, self.ei_file), (self.spe_stages, self.spe_file)):
            nodes, edges = ladder(stages)
            write_graph(path, nodes, edges, "s", seed=self.seed)
        nodes, edges = chain_with_bypass(self.chain_nodes)
        write_graph(self.chain_file, nodes, edges, "s")
        m = self.spe_stages
        self.all_paths = {
            ("s",) + combo + ("t",)
            for combo in itertools.product(*[(f"a{k}", f"b{k}") for k in range(1, m + 1)])
        }

    def _ei_argv(self, rule):
        return ["check", str(self.ei_file), "--axiom", "EI", "--trials", "1", "--rule", rule]

    def round(self, runner) -> dict:
        times = {}
        for rule in RULES:
            res = runner.command(self._ei_argv(rule))
            if res is not None:
                times[f"ei.{tag(rule)}"] = res.seconds
                self.check_ei(runner, rule, res)
        for rule in RULES:
            res = runner.command(["spe", str(self.spe_file), "--rule", rule])
            if res is not None:
                times[f"spe.{tag(rule)}"] = res.seconds
                self.check_spe(runner, rule, res)
        self.chain(runner)
        return times

    # -- output checks -----------------------------------------------------

    def check_ei(self, runner, rule, res) -> None:
        if runner.expect_rc(res, 0, f"EI check {rule}"):
            out = res.json()
            runner.expect(
                out["passed"] and out["passes"] == out["trials"] == 1,
                f"EI check {rule} on the ladder: {out}",
            )

    def check_spe(self, runner, rule, res) -> None:
        if not runner.expect_rc(res, 0, f"spe {rule}"):
            return
        out = res.json()
        m = self.spe_stages
        outcomes = [tuple(p) for p in out["outcomes"]]
        runner.expect(
            len(outcomes) == len(self.all_paths) and set(outcomes) == self.all_paths,
            f"spe {rule}: outcomes are not the 2^{m} ladder paths",
        )
        runner.expect(
            {tuple(p) for p in out["efficient"]} == self.all_paths
            and len(out["efficient"]) == len(self.all_paths),
            f"spe {rule}: efficient set is not the 2^{m} ladder paths",
        )
        runner.expect(out["coincide"] is True, f"spe {rule}: coincide is false")
        runner.expect(out["min_cost"] == m + 1, f"spe {rule}: min_cost {out['min_cost']}")
        liab = out["liabilities"]
        runner.expect(len(liab) == len(self.all_paths), f"spe {rule}: liability count")
        bad = 0
        for path in self.all_paths:
            vec = liab.get("->".join(path))
            if vec is None or vec != self.closed_form(rule, path, vec):
                bad += 1
        runner.expect(not bad, f"spe {rule}: {bad} liability vectors differ from the closed form")

    def closed_form(self, rule, path, vec) -> dict:
        if rule == "fixed:wstar":
            return {x: 1.0 if x == "s" else 0.0 if x == "t" else 0.5 for x in vec}
        if rule == "local":
            movers = set(path[:-1])
            return {x: 1.0 if x in movers else 0.0 for x in vec}
        return {x: 0.5 for x in vec}

    def chain(self, runner) -> None:
        """Untimed commands on the deep chain; checked against closed forms
        when they succeed."""
        n = self.chain_nodes
        whole = ["s"] + [f"c{i}" for i in range(1, n - 1)] + ["t"]
        res = runner.command(["efficient", str(self.chain_file)], FAULT)
        if res is not None and runner.expect_rc(res, 0, "efficient on the chain"):
            out = res.json()
            cont = out["continuation"]
            runner.expect(
                out["min_cost"] == 1.5
                and out["paths"] == [["s", "t"]]
                and cont["s"] == 1.5
                and all(cont[x] == n - 1 - k for k, x in enumerate(whole) if k),
                "efficient on the chain: not [s, t] at cost 1.5",
            )
        res = runner.command(["spe", str(self.chain_file), "--rule", "local"], FAULT)
        if res is not None and runner.expect_rc(res, 0, "spe local on the chain"):
            out = res.json()
            want = {x: (0.0 if x == "t" else 1.0) for x in whole}
            runner.expect(
                out["outcomes"] == [whole]
                and out["efficient"] == [["s", "t"]]
                and out["coincide"] is False
                and out["liabilities"] == {"->".join(whole): want},
                "spe local on the chain: does not walk the whole chain",
            )
        res = runner.command(["spe", str(self.chain_file), "--rule", "punish-first"], FAULT)
        if res is not None and runner.expect_rc(res, 0, "spe punish-first on the chain"):
            out = res.json()
            share = float(Fraction(1, n) * 1.5)
            runner.expect(
                out["outcomes"] == [["s", "t"]]
                and out["coincide"] is True
                and out["liabilities"] == {"s->t": {x: share for x in whole}},
                "spe punish-first on the chain: outcome is not [s, t]",
            )

    # -- traced pass -------------------------------------------------------

    @staticmethod
    def _solve(T, path, rule):
        """The calls `check --axiom EI` and `spe` share."""
        dag, losses = traced_load_graph_file(T, path)
        r = T.call("rules.make_rule", make_rule, rule, dag)
        sol = T.call("game.spe_solve", spe_solve, dag, losses, r)
        outcomes = T.call("game.outcomes", sol.outcomes)
        eff = T.call("graph.efficient_paths", efficient_paths, dag, losses)
        return dag, losses, r, outcomes, eff

    def _reissue_ei(self, T, rule):
        dag, _, r, outcomes, eff = self._solve(T, self.ei_file, rule)
        same = {p.nodes for p in outcomes} == eff.path_set()
        report = CheckReport(
            id="EI", rule=r.spec_string, trials=1, passes=int(same), seed=0,
            counterexample=None if same else {"spe_differs_from_efficient": True},
        )
        self._counts = (len(outcomes), len(eff.paths), history_count(dag))
        return T.call("cli.dump_json", dump_json, report.to_dict())

    def _reissue_spe(self, T, rule):
        dag, losses, r, outcomes, eff = self._solve(T, self.spe_file, rule)
        coincide = {p.nodes for p in outcomes} == eff.path_set()
        ordered = sorted(outcomes, key=lambda p: p.nodes)
        liab = {}
        for p in ordered:
            vec = T.call("rules.apply_rule", apply_rule, r, p, losses)
            liab["->".join(p.labels(dag))] = {dag.labels[i]: float(vec[i]) for i in range(dag.n)}
        out = {
            "rule": r.spec_string,
            "outcomes": [list(p.labels(dag)) for p in ordered],
            "efficient": [list(p.labels(dag)) for p in sorted(eff.paths, key=lambda p: p.nodes)],
            "min_cost": float(eff.min_cost),
            "coincide": coincide,
            "liabilities": liab,
        }
        self._probe = (r, losses, ordered)
        return T.call("cli.dump_json", dump_json, out)

    def _probe_bind_vector(self, T):
        # outside the command: bind once, then one `vector` per path
        r, losses, ordered = self._probe
        with T.span("rules.bind"):
            bound = r.bind(losses)
        with T.span("rules.vector"):
            for p in ordered:
                bound.vector(p)

    def trace(self, tr) -> None:
        T, m = tr.tracer, tr.metrics
        spe_mark = T.mark()
        for rule in RULES:
            mark = T.mark()
            if tr.command(self._ei_argv(rule), lambda: self._reissue_ei(T, rule)) is None:
                continue
            m[f"game.spe_solve_s.{tag(rule)}"] = T.total("game.spe_solve", mark)
            m[f"game.outcomes_s.{tag(rule)}"] = T.total("game.outcomes", mark)
            m[f"game.outcomes.{tag(rule)}"] = self._counts[0]
        m["graph.efficient_paths.count"] = self._counts[1]
        m["game.histories"] = self._counts[2]
        apply_mark = T.mark()
        for rule in RULES:
            if tr.command(["spe", str(self.spe_file), "--rule", rule],
                          lambda: self._reissue_spe(T, rule)):
                self._probe_bind_vector(T)
        calls = 3 * len(self.all_paths)
        m["rules.apply_rule_us"] = T.total("rules.apply_rule", apply_mark) / calls * 1e6
        m["rules.bind_vector_us"] = (
            T.total("rules.bind", apply_mark) + T.total("rules.vector", apply_mark)
        ) / calls * 1e6
        m["graph.efficient_paths_s"] = T.total("graph.efficient_paths", spe_mark)
        self.chain(tr.runner)

    def finish(self, runner) -> dict:
        return {}

    def report(self, t) -> list[tuple[str, float, str]]:
        """Figures per command group; `t(keys)` is their summed time."""
        return [(f"ladder_{k.replace('.', '_s.', 1)}", t((k,)), "s") for k in self.part1 + self.part2]
