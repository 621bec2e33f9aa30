"""sim-hourglass: `liabnet simulate` on the default hourglass config.

The vectorized engine in `liabnet.sim` does nearly all the work here: a
per-node DP, greedy walks and histograms over 30 sources x 10,000 loss
draws x 2 rules. It is the only workload that exercises numpy and process
parallelism (`--workers 2`).
"""

from __future__ import annotations

import csv
import io
import json
import statistics

from liabnet.graph import reachable_subgraph
from liabnet.io import dump_json
from liabnet.rules import make_rule
from liabnet.sim import (
    SimConfig,
    generate_hourglass,
    run_simulation,
    summary_dict,
    write_artifacts,
)

from harness import close
from inputs import SIM_SEED, hop_distance_to_last_layer, layered_graph, write_sim_config

ARTIFACTS = ("per_agent.csv", "per_layer.csv", "density.csv", "summary.json")


class Workload:
    name = "sim-hourglass"
    default_seed = SIM_SEED
    part1 = ("simulate.w1",)
    part2 = ("simulate.w2",)

    def __init__(self, work, seed, smoke=False):
        self.work = work
        self.seed = seed
        self.sizes = (6, 4, 3, 4) if smoke else (30, 20, 15, 10, 15, 20)
        self.draws = 200 if smoke else 10_000
        self.const_loss = float(1 + seed % 9)
        self.cfg = work / "hourglass.json"
        self.cfg_const = work / "hourglass_constant.json"

    @property
    def total_draws(self) -> int:
        return self.sizes[0] * self.draws

    def setup(self) -> None:
        write_sim_config(self.cfg, self.sizes, self.draws, self.seed)
        c = self.const_loss
        write_sim_config(self.cfg_const, self.sizes, 10, self.seed, c, c)
        labels, edges, layer_of = layered_graph(self.sizes, 0.4, 0.1, self.seed)
        self.n = len(labels)
        self.mean_hops = statistics.fmean(
            hop_distance_to_last_layer(self.n, edges, layer_of, s)
            for s in range(self.n)
            if layer_of[s] == 0
        )

    # -- one round of timed commands ---------------------------------------

    def _simulate(self, runner, workers):
        out = self.work / f"out-w{workers}"
        argv = ["simulate", str(self.cfg), "--out", str(out), "--workers", str(workers)]
        res = runner.command(argv)
        if res is None or not runner.expect_rc(res, 0, " ".join(argv)):
            return None, None
        return res, {f: (out / f).read_bytes() for f in ARTIFACTS}

    def round(self, runner) -> dict:
        times, arts = {}, {}
        for w in (1, 2):
            res, arts[w] = self._simulate(runner, w)
            if res is not None:
                times[f"simulate.w{w}"] = res.seconds
        if arts[1] is not None:
            self.check_artifacts(runner, arts[1])
            if arts[2] is not None:
                runner.expect(arts[1] == arts[2], "simulate artifacts differ at 1 and 2 workers")
        self.check_constant_loss(runner)
        return times

    # -- output checks -----------------------------------------------------

    def check_artifacts(self, runner, arts) -> None:
        summary = json.loads(arts["summary.json"])
        runner.expect(summary["total_draws"] == self.total_draws, "simulate: total_draws")
        agents = list(csv.DictReader(io.StringIO(arts["per_agent.csv"].decode())))
        density = list(csv.DictReader(io.StringIO(arts["density.csv"].decode())))
        for rule, stats in summary["per_rule"].items():
            binned = sum(int(r["count"]) for r in density if r["rule"] == rule)
            runner.expect(
                binned + stats["zero_liability_observations"] == self.total_draws * self.n,
                f"simulate {rule}: density bins plus zeros != draws x nodes",
            )
            mean_sum = sum(float(r["mean_liability"]) for r in agents if r["rule"] == rule)
            runner.expect(
                close(mean_sum, stats["mean_realized_total"], 1e-9),
                f"simulate {rule}: per-agent means sum to {mean_sum}, "
                f"realized mean is {stats['mean_realized_total']}",
            )
        ratio = {r: s["realized_over_efficient"] for r, s in summary["per_rule"].items()}
        runner.expect(ratio["fixed:wstar"] == 1.0, f"simulate: fixed:wstar ratio {ratio}")
        runner.expect(ratio["local"] >= 1.0, f"simulate: local ratio {ratio}")

    def check_constant_loss(self, runner) -> None:
        # every path of a source costs c per hop, so the efficient total of
        # a source is c times its hop distance to the last layer
        res = runner.command(["simulate", str(self.cfg_const)])
        if res is None or not runner.expect_rc(res, 0, "simulate (constant loss)"):
            return
        got = res.json()["mean_efficient_total"]
        want = self.const_loss * self.mean_hops
        runner.expect(
            close(got, want, 1e-9),
            f"simulate constant loss {self.const_loss}: mean efficient total {got}, "
            f"expected {want} from BFS hop distances",
        )

    # -- traced pass -------------------------------------------------------

    def _reissue(self, T, workers, out):
        config = T.call("sim.SimConfig.from_file", SimConfig.from_file, self.cfg)
        hg = T.call("sim.generate_hourglass", generate_hourglass, config.graph)
        graph = (list(hg.labels), hg.edge_labels())
        edges = 0
        for src in hg.sources:
            sub = T.call("graph.reachable_subgraph", reachable_subgraph, graph, hg.labels[src])
            edges += len(sub.edges)
            for spec in config.rules:
                T.call("rules.make_rule", make_rule, spec, sub)
        stats = T.call("sim.run_simulation", run_simulation, config, workers=workers, graph=hg)
        T.call("sim.write_artifacts", write_artifacts, stats, config, out)
        summary = T.call("sim.summary_dict", summary_dict, stats, config)
        self._subgraph_edges = edges
        return T.call("cli.dump_json", dump_json, summary)

    def trace(self, tr) -> None:
        T, m = tr.tracer, tr.metrics
        rate = {}
        for w in (1, 2):
            out = self.work / f"traced-w{w}"
            mark = T.mark()
            argv = ["simulate", str(self.cfg), "--out", str(self.work / f"out-w{w}"),
                    "--workers", str(w)]
            if tr.command(argv, lambda: self._reissue(T, w, out)) is None:
                return
            run_s = T.total("sim.run_simulation", mark)
            rate[w] = self.total_draws / run_s
            if w == 1:
                m["sim.run_simulation_s"] = run_s
                m["sim.engine_s"] = (
                    run_s
                    - T.total("graph.reachable_subgraph", mark)
                    - T.total("rules.make_rule", mark)
                )
                m["sim.write_artifacts_s"] = T.total("sim.write_artifacts", mark)
                m["sim.artifact_bytes"] = sum((out / f).stat().st_size for f in ARTIFACTS)
                m["sim.subgraph_edges"] = self._subgraph_edges
                m["graph.reachable_subgraph_s"] = T.total("graph.reachable_subgraph", mark)
            same = all(
                (out / f).read_bytes() == (self.work / f"out-w{w}" / f).read_bytes()
                for f in ARTIFACTS
            )
            tr.runner.expect(same, f"traced simulate --workers {w} wrote other artifacts")
        m["sim.draws_per_s.w1"] = rate[1]
        m["sim.draws_per_s.w2"] = rate[2]
        m["sim.parallel_efficiency"] = rate[2] / (2 * rate[1])
        # sim-hourglass is not a declared workload, so its output checks run here too
        arts = {w: {f: (self.work / f"out-w{w}" / f).read_bytes() for f in ARTIFACTS} for w in (1, 2)}
        self.check_artifacts(tr.runner, arts[1])
        tr.runner.expect(arts[1] == arts[2], "simulate artifacts differ at 1 and 2 workers")
        self.check_constant_loss(tr.runner)

    def finish(self, runner) -> dict:
        return {}

    def report(self, t) -> list[tuple[str, float, str]]:
        """Figures per command group; `t(keys)` is their summed time."""
        return [
            ("sim_draws_per_s", self.total_draws / t(self.part1), "draws/s"),
            ("sim_draws_per_s.w2", self.total_draws / t(self.part2), "draws/s"),
        ]
