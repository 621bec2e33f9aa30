"""Monte-Carlo liability comparison on a layered supply network.

Generates an hourglass-shaped layered graph (wide supplier base, narrow
middle, wide customer base), treats each first-layer node as the shock
source in turn, draws many uniform loss functions, and compares rules on
the realized cancellation paths: total losses, path lengths, per-agent
mean and mean-squared liabilities, and the concentration (Gini) of the
liability profile.

A run plans, then plays. Planning, in the calling process before the first
draw, builds each source's reachable subgraph, its nodes' indices in the
whole graph and its rules, and refuses, naming the source, one that reaches
under 3 nodes or a rule the simulator cannot play there. Playing, one job
per source, only draws, walks and tallies.

Only rules whose equilibrium path is a greedy walk are supported, and one
forward walk plays them all: movers, in topological order over the draws
that reach them, step onto the successor of least key, the smallest index
on ties. The local rule's key is the edge's loss; a fixed-weight rule's, with
positive weight on every multi-option mover, adds the head's cheapest cost;
it does not read the weights, so all fixed-weight rules share one walk.

Each source's draws are summed into one tally per rule: the per-agent
liabilities (`liab`) and their squares (`sq`), the realized totals
(`real`) and path lengths (`len`), and the count of positive per-agent
liabilities per density bin (`hist`) and of zero ones (`zeros`).

Determinism: one seed, `LayeredGraphSpec.seed`, draws the network and
spawns one RNG substream per source (`SeedSequence.spawn`). The first
source's tallies are the running sum, and every later source's are added
in source order, so outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import LiabnetError
from .graph import Dag, GraphError, reachable_subgraph
from .io import finite_number, load_json
from .rules import LocalRule, make_rule
from .weights import WeightsError

DENSITY_RANGE = (0.0, 150.0)
DENSITY_BINS = 600
_EDGES = np.linspace(*DENSITY_RANGE, DENSITY_BINS + 1)
_CHUNK = 2500


class SimError(LiabnetError):
    pass


@dataclass(frozen=True)
class LayeredGraphSpec:
    """Layer sizes and the two edge probabilities of the random network."""

    sizes: tuple[int, ...] = (30, 20, 15, 10, 15, 20)
    p_next: float = 0.4
    p_skip: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if len(self.sizes) < 2 or any(s < 1 for s in self.sizes):
            raise SimError("need at least two layers of positive size")
        for p in (self.p_next, self.p_skip):
            if not 0.0 <= p <= 1.0:
                raise SimError("edge probabilities must lie in [0, 1]")
        if self.seed < 0:
            raise SimError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class HourglassGraph:
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    layer_of: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def sources(self) -> list[int]:
        return [i for i, l in enumerate(self.layer_of) if not l]

    def edge_labels(self) -> list[tuple[str, str]]:
        return [(self.labels[u], self.labels[v]) for u, v in self.edges]


def generate_hourglass(spec: LayeredGraphSpec) -> HourglassGraph:
    """Random layered graph: Bernoulli(p_next) edges to the next layer,
    Bernoulli(p_skip) edges skipping one layer, then deterministic
    repairs so every non-final node has an outgoing edge and every
    non-initial node an incoming one (hence every sink is reachable)."""
    rng = random.Random(spec.seed)
    sizes = spec.sizes
    labels: list[str] = []
    layer_of: list[int] = []
    layers: list[list[int]] = []
    for layer, size in enumerate(sizes):
        layers.append(list(range(len(labels), len(labels) + size)))
        labels += [f"n{layer}_{k}" for k in range(size)]
        layer_of += [layer] * size

    edge_set: set[tuple[int, int]] = set()
    for gap, p in ((1, spec.p_next), (2, spec.p_skip)):
        for l in range(len(sizes) - gap):
            for a in layers[l]:
                for b in layers[l + gap]:
                    if rng.random() < p:
                        edge_set.add((a, b))
    for l in range(len(sizes) - 1):
        for a in layers[l]:
            if not any((a, b) in edge_set for b in layers[l + 1] + (layers[l + 2] if l + 2 < len(sizes) else [])):
                edge_set.add((a, rng.choice(layers[l + 1])))
    for l in range(1, len(sizes)):
        for b in layers[l]:
            has_in = any((a, b) in edge_set for a in layers[l - 1] + (layers[l - 2] if l >= 2 else []))
            if not has_in:
                edge_set.add((rng.choice(layers[l - 1]), b))
    return HourglassGraph(
        labels=tuple(labels),
        edges=tuple(sorted(edge_set)),
        layer_of=tuple(layer_of),
        sizes=tuple(sizes),
    )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class SimConfig:
    graph: LayeredGraphSpec = LayeredGraphSpec()
    draws: int = 10_000
    loss_low: float = 0.0
    loss_high: float = 100.0
    rules: tuple[str, ...] = ("fixed:wstar", "local")

    def __post_init__(self):
        if self.draws < 1:
            raise SimError("draws must be at least 1")
        # loss_high == loss_low is allowed: a degenerate constant distribution
        if not 0.0 <= self.loss_low <= self.loss_high:
            raise SimError("need 0 <= loss_low <= loss_high")
        if len(self.rules) < 1:
            raise SimError("need at least one rule")
        if len(set(self.rules)) < len(self.rules):
            raise SimError("rules must be distinct")
        # every draw of every source adds a realized total of at most
        # (layers - 1) * loss_high, and its square, to the sums
        worst = (len(self.graph.sizes) - 1) * self.loss_high
        try:
            peak = max(worst, worst * worst) * self.draws * self.graph.sizes[0]
        except OverflowError:  # draws beyond the float range
            peak = math.inf
        if not math.isfinite(peak):
            raise SimError(
                f"loss_high {self.loss_high!r} is too large for {len(self.graph.sizes)} "
                "layers and the draws: the sums of squared path totals overflow a float"
            )

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimConfig":
        """Config from a parsed JSON object; absent fields take defaults,
        and an unknown field or one of the wrong type raises SimError."""
        if not isinstance(data, Mapping):
            raise SimError("simulation config must be a JSON object")
        known = ("layers", "p_next", "p_skip", "draws", "loss_low", "loss_high", "rules", "seed")
        unknown = [key for key in data if key not in known]
        if unknown:
            raise SimError(f"unknown config field {unknown[0]!r} (known: {', '.join(known)})")

        def get(key, default, ok, what):
            if key not in data:
                return default
            if not ok(data[key]):
                raise SimError(f"config field {key!r} must be {what}")
            return data[key]

        def number(key, default):
            return float(get(key, default, finite_number, "a finite number"))

        def list_of(ok):
            return lambda x: isinstance(x, list) and all(map(ok, x))

        base = cls()
        seed = get("seed", base.graph.seed, _is_int, "an integer")
        spec = LayeredGraphSpec(
            sizes=tuple(get("layers", base.graph.sizes, list_of(_is_int),
                            "a list of integers")),
            p_next=number("p_next", base.graph.p_next),
            p_skip=number("p_skip", base.graph.p_skip),
            seed=seed,
        )
        return cls(
            graph=spec,
            draws=get("draws", base.draws, _is_int, "an integer"),
            loss_low=number("loss_low", base.loss_low),
            loss_high=number("loss_high", base.loss_high),
            rules=tuple(get("rules", base.rules,
                            list_of(lambda r: isinstance(r, str)), "a list of rule specs")),
        )

    @classmethod
    def from_file(cls, path) -> "SimConfig":
        return cls.from_dict(load_json(path))


@dataclass
class SimStats:
    rules: tuple[str, ...]
    labels: tuple[str, ...]
    layer_of: tuple[int, ...]
    sizes: tuple[int, ...]
    total_draws: int
    mean_liab: dict
    mean_sq: dict
    per_layer: dict
    mean_realized: dict
    mean_length: dict
    mean_efficient: float
    gini_mean: dict
    gini_pooled_binned: dict
    better_mean: Optional[int]
    better_mean_sq: Optional[int]
    density: dict
    zero_counts: dict

    @property
    def nonsink(self) -> list[int]:
        last = len(self.sizes) - 1
        return [i for i, l in enumerate(self.layer_of) if l != last]


def gini(values) -> float:
    """Mean absolute difference over twice the mean; 0 for all-zero input."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 0.0
    if np.any(arr < 0):
        raise SimError("gini needs non-negative values")
    total = arr.sum()
    if total == 0:
        return 0.0
    srt = np.sort(arr)
    n = arr.size
    ranks = np.arange(1, n + 1)
    return float(2.0 * (ranks * srt).sum() / (n * total) - (n + 1) / n)


def _weighted_gini(values: np.ndarray, weights: np.ndarray) -> float:
    mask = weights > 0
    x = values[mask].astype(float)
    w = weights[mask].astype(float)
    if x.size == 0:
        return 0.0
    order = np.argsort(x, kind="stable")
    x, w = x[order], w[order]
    total_w = w.sum()
    sum_wx = (w * x).sum()
    if sum_wx == 0:
        return 0.0
    cum = np.cumsum(w)
    diff_sum = 2.0 * (w * x * (2.0 * cum - w - total_w)).sum()
    return float(diff_sum / (2.0 * total_w * sum_wx))


# ---------------------------------------------------------------------------
# per-source vectorized engine


def _density(vals) -> np.ndarray:
    """Counts of `vals` per density bin. Exact: every bin edge is a
    multiple of 0.25, so `v * 4` is exact and truncates to v's bin."""
    v = np.clip(vals, DENSITY_RANGE[0], DENSITY_RANGE[1] - 1e-9)
    return np.bincount((v * 4).astype(np.int64).ravel(), minlength=DENSITY_BINS)


class SourcePlan(NamedTuple):
    """One source's subgraph as its edges' (tails, heads), sorted, with the source at node
    0; each node's index in the whole graph; and per rule spec its float weights for the
    cheapest-path walk, or None for the local rule's."""

    edges: np.ndarray
    gmap: np.ndarray
    engines: dict[str, Optional[np.ndarray]]


def _engine(spec: str, sub: Dag) -> Optional[np.ndarray]:
    rule = make_rule(spec, sub)
    if isinstance(rule, LocalRule):
        return None
    if rule.weights is None:
        raise SimError(f"rule {spec!r} is not supported by the vectorized simulator")
    if not rule.weights.in_delta_star(sub):
        raise SimError(
            f"rule {spec!r} gives some multi-option mover zero weight; "
            "its equilibrium path is not a greedy walk"
        )
    return np.array([float(x) for x in rule.weights.values])


def plan_sources(hg: HourglassGraph, specs: Sequence[str]) -> list[SourcePlan]:
    """One plan per source of `hg`, in source order; the first source that
    cannot be simulated raises SimError naming it. A `fixed:file=` rule is
    refused first when there are two or more sources: no source's subgraph
    holds another source, so no one weights file can fit them all."""
    files = [spec for spec in specs if spec.strip().startswith("fixed:file=")]
    if files and len(hg.sources) > 1:
        raise SimError(f"rule {files[0]!r} needs a single source (layers starting with 1), "
                       f"not {len(hg.sources)}: one weights file cannot fit every source's subgraph")
    graph = (hg.labels, hg.edge_labels())
    index = {label: i for i, label in enumerate(hg.labels)}
    plans = []
    for src in hg.sources:
        label = hg.labels[src]
        try:
            sub = reachable_subgraph(graph, label)
            engines = {spec: _engine(spec, sub) for spec in specs}
        except (GraphError, WeightsError) as exc:
            raise SimError(f"cannot simulate from source {label!r}: {exc}") from None
        edges = np.array(sub.edges, dtype=np.int64).T
        plans.append(SourcePlan(edges, np.array([index[x] for x in sub.labels]), engines))
    return plans


def _simulate_source(args):
    """Play every draw of one planned source: (summed efficient totals, a
    tally per rule spec)."""
    plan, n_global, draws, low, high, seed_seq = args
    (tails, heads), gmap, engines = plan
    n = len(gmap)
    # one column of U per edge; sorted edges list each node's heads in index order
    succ_cols = [np.flatnonzero(tails == i) for i in range(n)]
    succ_nodes = [heads[cols] for cols in succ_cols]
    movers = [i for i in range(n) if succ_cols[i].size]
    any_fixed = any(w is not None for w in engines.values())

    def walk(U, L=None):
        """Movers in topological order step their rows to the successor of least key (the
        loss in U, plus `L` at the head if given), smallest index first; yields (i, rows, keys)."""
        at = np.zeros(len(U), dtype=np.int64)  # at the source
        for i in movers:
            rows = np.nonzero(at == i)[0]
            if rows.size:
                key = U[np.ix_(rows, succ_cols[i])]
                if L is not None:
                    key += L[np.ix_(rows, succ_nodes[i])]
                choice = key.argmin(axis=1)
                at[rows] = succ_nodes[i][choice]
                yield i, rows, key[np.arange(rows.size), choice]

    eff = 0.0
    tallies = {
        r: dict(liab=np.zeros(n_global), sq=np.zeros(n_global), real=0.0, len=0,
                hist=np.zeros(DENSITY_BINS, dtype=np.int64), zeros=0)
        for r in engines
    }
    rng = np.random.default_rng(seed_seq)
    for done in range(0, draws, _CHUNK):
        ch = min(_CHUNK, draws - done)
        U = rng.uniform(low, high, size=(ch, tails.size))
        L = np.zeros((ch, n))
        for i in reversed(movers):
            L[:, i] = (U[:, succ_cols[i]] + L[:, succ_nodes[i]]).min(axis=1)
        teff = L[:, 0]
        sum_t = float(teff.sum())
        eff += sum_t
        # every fixed-weight rule, with positive weight on each multi-option
        # mover, realizes this one cheapest walk, whatever its weights
        steps = sum(rows.size for _, rows, _ in walk(U, L)) if any_fixed else 0

        for spec, weights in engines.items():
            t = tallies[spec]
            if weights is not None:
                t["len"] += steps
                t["real"] += sum_t
                t["liab"][gmap] += weights * sum_t
                t["sq"][gmap] += (weights * weights) * float((teff * teff).sum())
                positive = weights > 0
                t["hist"] += _density(np.outer(teff, weights[positive]))
                t["zeros"] += ch * (n_global - int(positive.sum()))
            else:
                total = np.zeros(ch)
                t["zeros"] += ch * n_global  # less one per mover's pay below
                for i, rows, pay in walk(U):
                    t["liab"][gmap[i]] += float(pay.sum())
                    t["sq"][gmap[i]] += float((pay * pay).sum())
                    total[rows] += pay
                    t["len"] += rows.size
                    t["zeros"] -= rows.size
                    t["hist"] += _density(pay)
                t["real"] += float(total.sum())
    return eff, tallies


def run_simulation(
    config: SimConfig,
    workers: int = 1,
    out_dir: Optional[str] = None,
    graph: Optional[HourglassGraph] = None,
) -> SimStats:
    """Run the full comparison and optionally write CSV/JSON artifacts.

    Results are independent of `workers`, a positive count; it only sets
    process-level parallelism across sources.
    """
    if workers < 1:
        raise SimError(f"workers must be at least 1, got {workers}")
    hg = graph if graph is not None else generate_hourglass(config.graph)
    specs = tuple(config.rules)
    plans = plan_sources(hg, specs)
    seeds = np.random.SeedSequence(config.graph.seed).spawn(len(plans))
    jobs = [(plan, hg.n, config.draws, config.loss_low, config.loss_high, seed)
            for plan, seed in zip(plans, seeds)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(_simulate_source, jobs))
    else:
        results = [_simulate_source(job) for job in jobs]

    eff, tallies = results[0]
    for more_eff, more in results[1:]:  # fixed source order keeps float sums deterministic
        eff += more_eff
        for r, t in more.items():
            for key, value in t.items():
                tallies[r][key] += value

    total_draws = config.draws * len(plans)
    mean_liab = {r: t["liab"] / total_draws for r, t in tallies.items()}
    mean_sq = {r: t["sq"] / total_draws for r, t in tallies.items()}
    mean_real = {r: t["real"] / total_draws for r, t in tallies.items()}
    for r in specs:
        balance_gap = abs(float(mean_liab[r].sum()) - mean_real[r])
        if not balance_gap <= 1e-6 * max(1.0, mean_real[r]):
            raise SimError(f"per-agent means do not add up to the realized mean for {r}")

    layer_of = np.array(hg.layer_of)
    nonsink = layer_of != len(hg.sizes) - 1
    gini_mean = {r: gini(mean_liab[r][nonsink]) for r in specs}
    bin_values = np.concatenate(([0.0], (_EDGES[:-1] + _EDGES[1:]) / 2.0))
    gini_pooled = {
        r: _weighted_gini(bin_values, np.concatenate(([t["zeros"]], t["hist"])).astype(float))
        for r, t in tallies.items()
    }

    better_mean = better_sq = None
    if len(specs) >= 2:
        a, b = specs[0], specs[1]
        better_mean = int((mean_liab[a][nonsink] < mean_liab[b][nonsink]).sum())
        better_sq = int((mean_sq[a][nonsink] < mean_sq[b][nonsink]).sum())

    in_layer = [layer_of == layer for layer in range(len(hg.sizes))]
    per_layer = {
        r: [(float(np.mean(mean_liab[r][x])), float(np.mean(mean_sq[r][x]))) for x in in_layer]
        for r in specs
    }

    stats = SimStats(
        rules=specs,
        labels=hg.labels,
        layer_of=hg.layer_of,
        sizes=hg.sizes,
        total_draws=total_draws,
        mean_liab=mean_liab,
        mean_sq=mean_sq,
        per_layer=per_layer,
        mean_realized=mean_real,
        mean_length={r: t["len"] / total_draws for r, t in tallies.items()},
        mean_efficient=eff / total_draws,
        gini_mean=gini_mean,
        gini_pooled_binned=gini_pooled,
        better_mean=better_mean,
        better_mean_sq=better_sq,
        density={r: t["hist"] for r, t in tallies.items()},
        zero_counts={r: t["zeros"] for r, t in tallies.items()},
    )
    if out_dir is not None:
        write_artifacts(stats, config, out_dir)
    return stats


# ---------------------------------------------------------------------------
# artifacts


def _fmt(x: float) -> str:
    return repr(float(x))


def write_artifacts(stats: SimStats, config: SimConfig, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "per_agent.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["agent", "layer", "rule", "mean_liability", "mean_sq_liability"])
        for rule in stats.rules:
            for i, label in enumerate(stats.labels):
                w.writerow(
                    [
                        label,
                        stats.layer_of[i],
                        rule,
                        _fmt(stats.mean_liab[rule][i]),
                        _fmt(stats.mean_sq[rule][i]),
                    ]
                )

    with open(out / "per_layer.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["layer", "rule", "mean_liability", "mean_sq_liability"])
        for rule in stats.rules:
            for layer, (liab_mean, sq_mean) in enumerate(stats.per_layer[rule]):
                w.writerow([layer, rule, _fmt(liab_mean), _fmt(sq_mean)])

    with open(out / "density.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rule", "bin_left", "bin_right", "count"])
        for rule in stats.rules:
            for k in range(DENSITY_BINS):
                w.writerow(
                    [rule, _fmt(_EDGES[k]), _fmt(_EDGES[k + 1]), int(stats.density[rule][k])]
                )

    with open(out / "summary.json", "w") as fh:
        json.dump(summary_dict(stats, config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary_dict(stats: SimStats, config: SimConfig) -> dict:
    summary = {
        "config": {
            "layers": list(config.graph.sizes),
            "p_next": config.graph.p_next,
            "p_skip": config.graph.p_skip,
            "draws_per_source": config.draws,
            "loss_low": config.loss_low,
            "loss_high": config.loss_high,
            "rules": list(config.rules),
            "seed": config.graph.seed,
        },
        "sources": int(stats.sizes[0]),
        "total_draws": stats.total_draws,
        "mean_efficient_total": stats.mean_efficient,
        "per_rule": {
            r: {
                "mean_realized_total": stats.mean_realized[r],
                "realized_over_efficient": (
                    stats.mean_realized[r] / stats.mean_efficient
                    if stats.mean_efficient
                    else 1.0
                ),
                "mean_path_length": stats.mean_length[r],
                "gini_mean_liabilities": stats.gini_mean[r],
                "gini_pooled_binned_approx": stats.gini_pooled_binned[r],
                "zero_liability_observations": stats.zero_counts[r],
            }
            for r in stats.rules
        },
        "gini_population": "per-agent mean liabilities over non-sink agents; "
        "the pooled variant is approximated from the density histogram",
        "nonsink_agents": len(stats.nonsink),
    }
    if stats.better_mean is not None:
        a, b = stats.rules[0], stats.rules[1]
        summary["better_off"] = {
            "pair": [a, b],
            "lower_mean_liability": stats.better_mean,
            "lower_mean_sq_liability": stats.better_mean_sq,
        }
    return summary
