"""layered-weights: `validate` and `weights --method dp` on two 321-node
layered graphs (layer sizes 1 + 32x10, p_next 0.4, about 10^20 paths).

Big-integer path counting, the per-node weight convolution and the
bottleneck scan in `graph.validate` do the work. The first graph has no
skip edges (every path has 32 edges, one convolution product per node);
the second has p_skip 0.1, so path lengths spread and the convolution does
about 15,000 big-integer products.

The graphs are smaller than criterion 2's 1 + 50x20 so that each command
takes tens of milliseconds, not half a second: a run's fastest round of a
command is a steady figure only when the command is short next to the
brief intervals in which a shared host runs at full speed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from liabnet.graph import build_dag, count_paths, validate
from liabnet.io import dump_json, load_raw_graph_file, parse_graph_data
from liabnet.weights import path_count_tables, wstar_dp

from inputs import LAYERED_SEED, layered_graph, write_graph

BOTTLENECK = re.compile(r"^bottleneck: node '(.*)' lies on every source-sink path$")


def traced_load_graph_file(T, path):
    """`io.load_graph_file` re-issued as its public calls."""
    with T.span("io.load_graph_file"):
        with open(path) as fh:
            data = json.load(fh)
        nodes, edges, label_losses, source = T.call("io.parse_graph_data", parse_graph_data, data)
        dag = T.call("graph.build_dag", build_dag, nodes, edges, source)
        losses = {(dag.index(u), dag.index(v)): x for (u, v), x in label_losses.items()}
    return dag, losses


class Graph:
    """One generated graph and its reference figures, computed here from
    the edge list (forward/backward way counts and per-length counts)."""

    def __init__(self, tag, path, labels, edges, path_len):
        self.tag, self.path, self.labels, self.edges = tag, path, labels, edges
        self.path_len = path_len  # every path has this many edges, or None
        self._ref = None

    def reference(self):
        if self._ref is None:
            self._ref = self._compute()
        return self._ref

    def _compute(self):
        n = len(self.labels)
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for u, v in self.edges:
            succ[u].append(v)
            pred[v].append(u)
        # generated indices are topological (edges run to later layers)
        fwd, fwd_len = [0] * n, [dict() for _ in range(n)]
        fwd[0], fwd_len[0] = 1, {0: 1}
        for v in range(1, n):
            for u in pred[v]:
                fwd[v] += fwd[u]
                for x, c in fwd_len[u].items():
                    fwd_len[v][x + 1] = fwd_len[v].get(x + 1, 0) + c
        bwd, bwd_len = [0] * n, [dict() for _ in range(n)]
        for u in range(n - 1, -1, -1):
            if not succ[u]:
                bwd[u], bwd_len[u] = 1, {0: 1}
            for v in succ[u]:
                bwd[u] += bwd[v]
                for y, c in bwd_len[v].items():
                    bwd_len[u][y + 1] = bwd_len[u].get(y + 1, 0) + c
        total = bwd[0]
        bottlenecks = {
            self.labels[i]
            for i in range(1, n)
            if succ[i] and fwd[i] * bwd[i] == total
        }
        weights = {}
        for i in range(n):
            if not succ[i]:
                weights[self.labels[i]] = Fraction(0)
            elif self.path_len is not None:
                weights[self.labels[i]] = Fraction(fwd[i] * bwd[i], self.path_len * total)
            else:
                through = {}
                for x, a in fwd_len[i].items():
                    for y, b in bwd_len[i].items():
                        through[x + y] = through.get(x + y, 0) + a * b
                weights[self.labels[i]] = sum(
                    (Fraction(c, y) for y, c in through.items()), Fraction(0)
                ) / total
        if sum(weights.values()) != 1:
            raise RuntimeError(f"reference weights of {self.tag} do not sum to 1")
        return total, bottlenecks, weights


class Workload:
    name = "layered-weights"
    default_seed = LAYERED_SEED
    part1 = ("validate.flat", "validate.skip")
    part2 = ("weights.flat", "weights.skip")

    def __init__(self, work, seed, smoke=False):
        self.work = work
        self.seed = seed
        self.layers, self.width = (12, 8) if smoke else (32, 10)

    def setup(self) -> None:
        sizes = (1,) + (self.width,) * self.layers
        self.graphs = []
        for tag, p_skip in (("flat", 0.0), ("skip", 0.1)):
            labels, edges, _ = layered_graph(sizes, 0.4, p_skip, self.seed)
            path = self.work / f"layered_{tag}.json"
            write_graph(path, labels, [(labels[u], labels[v]) for u, v in edges], labels[0])
            path_len = self.layers if p_skip == 0 else None
            self.graphs.append(Graph(tag, path, labels, edges, path_len))

    def round(self, runner) -> dict:
        times = {}
        for g in self.graphs:
            res = runner.command(["validate", str(g.path)])
            if res is not None and runner.expect_rc(res, 0, f"validate {g.tag}"):
                times[f"validate.{g.tag}"] = res.seconds
                self.check_validate(runner, g, res.json())
        for g in self.graphs:
            res = runner.command(["weights", str(g.path), "--method", "dp"])
            if res is not None and runner.expect_rc(res, 0, f"weights {g.tag}"):
                times[f"weights.{g.tag}"] = res.seconds
                self.check_weights(runner, g, res.json())
        return times

    # -- output checks -----------------------------------------------------

    def check_validate(self, runner, g, report) -> None:
        _, bottlenecks, _ = g.reference()
        runner.expect(report["valid"] is True, f"validate {g.tag}: not valid")
        named = set()
        for w in report["warnings"]:
            hit = BOTTLENECK.match(w)
            runner.expect(hit is not None, f"validate {g.tag}: unexpected warning {w!r}")
            if hit:
                named.add(hit.group(1))
        runner.expect(
            named == bottlenecks,
            f"validate {g.tag}: warnings name {sorted(named)}, bottlenecks are {sorted(bottlenecks)}",
        )

    def check_weights(self, runner, g, out) -> None:
        total, _, want = g.reference()
        got = out["weights"]
        runner.expect(out["metadata"]["path_count"] == str(total), f"weights {g.tag}: path_count")
        runner.expect(set(got) == set(want), f"weights {g.tag}: node labels")
        wrong = [k for k in want if got.get(k) != float(want[k])]
        runner.expect(not wrong, f"weights {g.tag}: {len(wrong)} weights differ, e.g. {wrong[:3]}")
        runner.expect(abs(sum(got.values()) - 1) <= 1e-9, f"weights {g.tag}: sum != 1")

    # -- traced pass -------------------------------------------------------

    def _reissue_validate(self, T, g):
        nodes, edges, source = T.call("io.load_raw_graph_file", load_raw_graph_file, g.path)
        report = T.call("graph.validate", validate, nodes, edges, source=source)
        self._bottlenecks += len(report.warnings)
        return T.call("cli.dump_json", dump_json, report.to_dict())

    def _reissue_weights(self, T, g):
        dag, _ = traced_load_graph_file(T, g.path)
        with T.span("weights.wstar_dp") as rec:
            wv = wstar_dp(dag)
        count = T.call("graph.count_paths", count_paths, dag)
        out = {
            "weights": {dag.labels[i]: float(w) for i, w in enumerate(wv.values)},
            "metadata": {
                "method": "dp",
                "path_count": str(count),
                "runtime_ms": round((rec[2] - rec[1]) * 1000.0, 3),
            },
        }
        self._dags.append(dag)
        return T.call("cli.dump_json", dump_json, out)

    @staticmethod
    def _same_weights(a, b):
        a, b = json.loads(a), json.loads(b)
        del a["metadata"]["runtime_ms"], b["metadata"]["runtime_ms"]
        return a == b

    def trace(self, tr) -> None:
        T, m = tr.tracer, tr.metrics
        self._bottlenecks = 0
        self._dags = []
        mark = T.mark()
        for g in self.graphs:
            tr.command(["validate", str(g.path)], lambda: self._reissue_validate(T, g))
        for g in self.graphs:
            tr.command(
                ["weights", str(g.path), "--method", "dp"],
                lambda: self._reissue_weights(T, g),
                self._same_weights,
            )
        m["graph.validate_s"] = T.total("graph.validate", mark)
        m["graph.bottlenecks"] = self._bottlenecks
        # the tables are probed on their own (the command builds them
        # inside wstar_dp); what wstar_dp spends beyond them is the
        # per-length weighting of the convolved counts
        probe = T.mark()
        terms = 0
        for dag in self._dags:
            tables = T.call("weights.path_count_tables", path_count_tables, dag)
            for i in range(dag.n):
                xs = sum(1 for row in tables.forward if row[i])
                ys = sum(1 for row in tables.backward if row[i])
                terms += xs * ys
        tables_s = T.total("weights.path_count_tables", probe)
        m["weights.path_count_tables_s"] = tables_s
        m["weights.convolution_s"] = T.total("weights.wstar_dp", mark) - tables_s
        m["weights.conv_terms"] = terms

    def finish(self, runner) -> dict:
        return {}

    def report(self, t) -> list[tuple[str, float, str]]:
        """Figures per command group; `t(keys)` is their summed time."""
        return [("validate_s", t(self.part1), "s"), ("weights_s", t(self.part2), "s")]
