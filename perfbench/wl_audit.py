"""axiom-audit: seeded axiom and property audits of fixed:wstar.

A round runs `check --axiom` for the four axioms and `check --property`
for the five properties, 100 trials each: hundreds of random 4-8-node
instances, so per-call overhead, `Fraction` arithmetic, `generators` and
the two `axioms` trial loops take most of the time; the opposite shape to
ladder-equilibria for the same `game` and `rules` code. Once per run,
after the timed rounds, the axiom independence matrix (phi1, phi2, phi3,
phi5 against EI, RLD, PCP, SI) runs at criterion 5's 1000 trials per cell
and every counterexample it reports is replayed.

The timed audits use 100 trials rather than the acceptance count of 1000,
and the matrix stays out of the rounds, so that each command takes tens of
milliseconds and a run holds about a hundred rounds: the fastest round of
a run is steady only for short commands on a shared host whose speed
swings. Fewer trials would make the work itself depend on the seed:
across seeds 1-10 the audits' work (counted in profiled calls) spreads by
0.080 of its median at 50 trials, 0.023 at 100 and 0.025 at 250.
"""

from __future__ import annotations

import random
from fractions import Fraction

from liabnet.axioms import AXIOMS, PROPERTIES, check_axiom, check_property
from liabnet.game import spe_bruteforce, spe_solve
from liabnet.generators import random_dag, random_losses
from liabnet.graph import Path, build_dag, enumerate_paths
from liabnet.io import dump_json
from liabnet.rules import apply_rule, make_rule

from harness import close
from inputs import AUDIT_SEED

DESIGNATED = {"phi1": "EI", "phi2": "RLD", "phi3": "PCP", "phi5": "SI"}
VACUOUS = ("DOWNSTREAM_MONO", "EFF_PATH_INV", "PATH_INDEP", "TOTAL_LOSS_DEP")


def _num(x):
    return Fraction(x) if isinstance(x, str) else x


def _instance(graph):
    dag = build_dag(graph["nodes"], [(e["from"], e["to"]) for e in graph["edges"]])
    return dag, _losses(dag, graph["edges"])


def _losses(dag, edges):
    return {(dag.index(e["from"]), dag.index(e["to"])): _num(e["loss"]) for e in edges}


def _path(dag, labels) -> Path:
    return Path(tuple(dag.index(x) for x in labels))


def _efficient_labels(dag, losses) -> set:
    """Cheapest source-to-sink paths by plain enumeration (small graphs)."""
    found, stack = [], [((dag.source,), 0)]
    while stack:
        nodes, cost = stack.pop()
        if not dag.succ[nodes[-1]]:
            found.append((cost, nodes))
        for j in dag.succ[nodes[-1]]:
            stack.append((nodes + (j,), cost + losses[(nodes[-1], j)]))
    best = min(c for c, _ in found)
    return {tuple(dag.labels[i] for i in p) for c, p in found if c == best}


def _vec_is(values, reported: dict, dag) -> bool:
    return all(
        close(float(values[i]), float(_num(reported[dag.labels[i]])), 1e-12)
        for i in range(dag.n)
    )


# -- counterexample replays: True when the reported failure reproduces ------


def replay_ei(rule, cex) -> bool:
    dag, losses = _instance(cex["graph"])
    oracle = {p.labels(dag) for p in spe_bruteforce(dag, losses, make_rule(rule, dag))}
    spe = {tuple(p) for p in cex["spe"]}
    eff = {tuple(p) for p in cex["efficient"]}
    return oracle == spe and eff == _efficient_labels(dag, losses) and spe != eff


def replay_rld(rule, cex) -> bool:
    dag, losses = _instance(cex["graph"])
    second = _losses(dag, cex["off_path_losses"])
    path = _path(dag, cex["path"])
    r = make_rule(rule, dag)
    before = apply_rule(r, path, losses).values
    after = apply_rule(r, path, second).values
    return (
        all(second[e] == losses[e] for e in path.edges)
        and _vec_is(before, cex["liabilities"], dag)
        and _vec_is(after, cex["liabilities_after_off_path_change"], dag)
        and before != after
    )


def replay_pcp(rule, cex) -> bool:
    dag, losses = _instance(cex["graph"])
    r = make_rule(rule, dag)
    eq = _path(dag, cex["equilibrium_path"])
    dev = _path(dag, cex["deviation_path"])
    i, j = dag.index(cex["deviator"]), dag.index(cex["partner"])
    pos = eq.nodes.index(i)
    base = apply_rule(r, eq, losses).values
    moved = apply_rule(r, dev, losses).values
    before, after = base[i] + base[j], moved[i] + moved[j]
    return (
        eq in spe_bruteforce(dag, losses, r)
        and eq.labels(dag) in _efficient_labels(dag, losses)
        and dev.nodes[: pos + 1] == eq.nodes[: pos + 1]
        and dev.nodes[pos + 1] != eq.nodes[pos + 1]
        and before == _num(cex["pair_sum_before"])
        and after == _num(cex["pair_sum_after"])
        and after < before
        and moved[i] >= base[i]
    )


def replay_si(rule, cex) -> bool:
    dag, losses = _instance(cex["graph"])
    alpha = _num(cex["alpha"])
    path = _path(dag, cex["path"])
    r = make_rule(rule, dag)
    base = apply_rule(r, path, losses).values
    got = apply_rule(r, path, {e: alpha * v for e, v in losses.items()}).values
    want = [alpha * x for x in base]
    return (
        _vec_is(got, cex["scaled_liabilities"], dag)
        and _vec_is(want, cex["alpha_times_base"], dag)
        and max(abs(float(a) - float(b)) for a, b in zip(got, want)) > 1e-9
    )


REPLAY = {"EI": replay_ei, "RLD": replay_rld, "PCP": replay_pcp, "SI": replay_si}


class Workload:
    name = "axiom-audit"
    default_seed = AUDIT_SEED
    part1 = tuple(f"axiom.{a}" for a in AXIOMS)
    part2 = tuple(f"property.{p}" for p in PROPERTIES)

    def __init__(self, work, seed, smoke=False):
        self.work = work
        self.seed = seed
        # timed audits; the matrix keeps criterion 5's 1000 trials per cell
        self.trials = 60 if smoke else 100
        self.matrix_trials = 60 if smoke else 1000

    def setup(self) -> None:
        """Inputs are drawn inside `check` from the seed; nothing to write."""

    def _trials(self, rule) -> int:
        return self.matrix_trials if rule in DESIGNATED else self.trials

    def _argv(self, flag, ident, rule):
        return ["check", flag, ident, "--rule", rule,
                "--trials", str(self._trials(rule)), "--seed", str(self.seed)]

    def _cells(self, matrix: bool):
        if not matrix:
            for a in AXIOMS:
                yield "--axiom", a, "fixed:wstar", f"axiom.{a}"
            for p in PROPERTIES:
                yield "--property", p, "fixed:wstar", f"property.{p}"
            return
        for rule in DESIGNATED:
            for a in AXIOMS:
                yield "--axiom", a, rule, "matrix"

    def _issue(self, runner, matrix: bool) -> dict:
        times = {}
        for flag, ident, rule, key in self._cells(matrix):
            res = runner.command(self._argv(flag, ident, rule))
            if res is not None:
                self.check(runner, ident, rule, res)
                times[key] = times.get(key, 0.0) + res.seconds
        return times

    def round(self, runner) -> dict:
        return self._issue(runner, matrix=False)

    def finish(self, runner) -> dict:
        """The independence matrix, once per run; its time is reported only."""
        return self._issue(runner, matrix=True)

    def check(self, runner, ident, rule, res) -> None:
        what = f"check {ident} --rule {rule} (seed {self.seed})"
        fails = DESIGNATED.get(rule) == ident
        if not runner.expect_rc(res, 1 if fails else 0, what):
            return
        out = res.json()
        if not fails:
            runner.expect(
                out["passed"] and out["passes"] == out["trials"] == self._trials(rule),
                f"{what}: passes {out['passes']} of {out['trials']}",
            )
            return
        cex = out["counterexample"]
        runner.expect(cex is not None, f"{what}: no counterexample")
        if cex is not None:
            runner.expect(REPLAY[ident](rule, cex), f"{what}: counterexample does not replay")

    # -- traced pass -------------------------------------------------------

    def _reissue(self, T, flag, ident, rule):
        check = check_axiom if flag == "--axiom" else check_property
        with T.span(f"axioms.{check.__name__}"):
            report = check(ident, rule, dag=None, trials=self._trials(rule), seed=self.seed,
                           losses=None)
        self._report = report
        return T.call("cli.dump_json", dump_json, report.to_dict())

    def trace(self, tr) -> None:
        T, m = tr.tracer, tr.metrics
        for flag, ident, rule, key in (*self._cells(False), *self._cells(True)):
            mark = T.mark()
            res = tr.command(
                self._argv(flag, ident, rule), lambda: self._reissue(T, flag, ident, rule)
            )
            if res is None:
                continue
            self.check(tr.runner, ident, rule, res)
            if key == "matrix":
                continue
            span = "axioms.check_axiom" if flag == "--axiom" else "axioms.check_property"
            m[f"axioms.trials_per_s.{ident}"] = self._report.trials / T.total(span, mark)
            if ident in VACUOUS:
                m[f"axioms.vacuous.{ident}"] = self._report.detail.get("vacuous", 0)
        # per-layer probes on instances drawn like the audits draw them
        mark = T.mark()
        for t in range(self.trials):
            rng = random.Random(f"probe:{self.seed}:{t}")
            dag = T.call("generators.random_dag", random_dag, rng)
            losses = T.call("generators.random_losses", random_losses, rng, dag)
            T.call("graph.enumerate_paths", enumerate_paths, dag)
            r = T.call("rules.make_rule", make_rule, "fixed:wstar", dag)
            sol = T.call("game.spe_solve", spe_solve, dag, losses, r)
            for p in T.call("game.outcomes", sol.outcomes):
                for pos, i in enumerate(p.movers):
                    for alt in dag.succ[i]:
                        if alt != p.nodes[pos + 1]:
                            T.call("game.continuations", sol.continuations,
                                   p.nodes[: pos + 1] + (alt,))
        m["generators.random_dag_s"] = T.total("generators.random_dag", mark)
        m["graph.enumerate_paths_s"] = T.total("graph.enumerate_paths", mark)
        m["game.continuations_s"] = T.total("game.continuations", mark)

    def report(self, t) -> list[tuple[str, float, str]]:
        """Figures per command group; `t(keys)` is their summed time."""
        n = self.trials
        return [
            ("axiom_trials_per_s", len(AXIOMS) * n / t(self.part1), "trials/s"),
            ("property_trials_per_s", len(PROPERTIES) * n / t(self.part2), "trials/s"),
        ]
