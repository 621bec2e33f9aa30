"""Hash the output of a fixed list of liabnet commands.

Run from a checkout as

    python tools/identity.py

It runs every command in-process through `liabnet.cli.main`, against the
`src/` next to this script, and prints one sha256 per command (over its
exit code, stdout and stderr) and a last line hashing all of them. Run it
on two checkouts and compare: equal lines mean the commands behaved
byte-for-byte alike. The list:

- `validate`, `paths`, `efficient` and `weights --method dp` (without
  its `runtime_ms`) on every fixture graph;
- `validate` and `paths` on nine small invalid graphs, each failing one
  structural check in its own way or several checks at once, so every
  report and refusal message is pinned;
- `weights --method enumerate` and `weights --method shapley` (without
  `runtime_ms`) on every fixture graph, the 8-stage all-ties ladder and
  the 18-node complete DAG, whose 65,536 paths each cover their own set
  of nodes;
- `spe` for all 8 rule specs on every fixture graph but grid20, and on
  the 8- and 10-stage all-ties ladders;
- `spe --tol 0` and `spe --tol 0.25` for all 8 rule specs on fork,
  bypass_diamond and shortcut_line under the seeded integer and float
  losses, where the outcomes and the efficient paths may or may not
  coincide, and `efficient --tol 0` and `efficient --tol 0.25` on the same
  three graphs under the same losses;
- `check --property PATH_INDEP` and `TOTAL_LOSS_DEP` at 50 trials for
  `fixed:wstar` and `phi3` on the same three graphs under the seeded
  integer and float losses, whose trials group paths by their totals;
- `spe` for `fixed:wstar`, `local` and `punish-first` on the 12-stage
  all-ties ladder, whose 4,096 outcomes share one split under the first
  and the last;
- `spe --pretty` for the same three rules on fork under the seeded
  integer losses, on the 8-stage ladder and on a graph whose labels hold
  a quote, a backslash, a percent sign and an accented letter, and plain
  `spe` on that graph too;
- `check --axiom PCP --trials 1` for all 8 rule specs on the 8-stage
  ladder, where all 256 paths are equilibria;
- `spe --rule punish-first` and `check --axiom EI --rule punish-first` on
  three float near-tie graphs, two paths whose 3-decimal losses near 1e6,
  1e8 or 1e10 are the same four in reverse order;
- `check --axiom EI --rule punish-first` on grid20 with unit losses, whose
  2^20 paths all tie;
- `liability` for all 8 rule specs on every fixture graph but grid20, on
  its first and last enumerated path;
- `spe` and `liability` on fork with a `fixed:file=` weights file, the
  padded spec " local ", and three refused specs (unknown, `fixed:file=`
  without a path, a missing weights file), which `check --axiom EI` also
  refuses;
- `check` for the 9 axiom and property ids x 8 rule specs x seeds 7 and
  202408 at 300 trials;
- `validate` and `weights --method dp` (without `runtime_ms`) on the
  1,001-node layered graph of acceptance criterion 2, whose weights have
  numerators of about 200 bits: listed as generated, and with its nodes
  and edges in a seeded shuffled order, so that the Dag's indices are
  ranks and not input positions;
- `validate`, `paths`, `weights --method dp` and `efficient` on a graph
  file with a NaN loss and on one with an Infinity loss, and `efficient`
  on fork with an Infinity in its losses file: all refused where the file
  is read;
- `simulate` on a config with a field of the wrong type, and with
  `--workers 0`, both refused with exit 2;
- `spe --rule local` and `spe --rule punish-first` on a 1,500-node chain
  whose s -> t bypass costs more than the chain, deeper than the
  interpreter's recursion limit;
- `simulate` with a `fixed:file=` rule on a config with two sources,
  refused with exit 2;
- the default `simulate` at `--workers 1` and at `--workers 2`, each with
  its 4 artifacts; the second merges per-source results made in other
  processes;
- two tie-heavy `simulate` configs, each with its 4 artifacts: the default
  layers with every loss 3.0, and a small graph with every loss 0, both
  for `fixed:wstar`, `fixed:equal` and `local`, where every step ties and
  the smallest successor index decides each realized path.

`efficient`, `spe` and `liability` run under the graph's own losses where
it has them, and under a seeded integer and a seeded float losses file.
Paths in the temporary directory they are written to read `<tmp>` before
hashing.

    python tools/identity.py --baseline tools/identity.sha256

also compares every command's hash with the committed baseline, a saved
run of this script, then names each command whose hash changed, is new or
is gone, and exits 1 if there is any; `tests/test_identity.py` makes the
same comparison in the test suite. Regenerate the baseline with
`python tools/identity.py > tools/identity.sha256` when a change to the
output is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from liabnet.axioms import AXIOMS, PROPERTIES  # noqa: E402
from liabnet.cli import main as liabnet_main  # noqa: E402
from liabnet.graph import enumerate_paths  # noqa: E402
from liabnet.io import load_graph_file  # noqa: E402
from liabnet.sim import LayeredGraphSpec, generate_hourglass  # noqa: E402

RULES = (
    "fixed:wstar", "fixed:equal", "local", "phi1", "phi2", "phi3", "phi5",
    "punish-first",
)
SEEDS = (7, 202408)
TRIALS = "300"
LADDERS = (8, 10)
# near-tie graphs at 10^exponent
NEAR_TIE_EXPONENTS = (6, 8, 10)
# `spe` and `efficient` with an explicit tie tolerance, on these fixtures'
# seeded losses files
TOL_GRAPHS = ("bypass_diamond.json", "fork.json", "shortcut_line.json")
TOLS = ("0", "0.25")
# `check` under these fixtures' seeded losses files
TOTALS_PROPERTIES = ("PATH_INDEP", "TOTAL_LOSS_DEP")
TOTALS_RULES = ("fixed:wstar", "phi3")
# `spe --pretty`, and `spe` on labels that need escapes, for a rule whose
# tied outcomes share one split, one whose splits all differ, and
# punish-first
PRETTY_RULES = ("fixed:wstar", "local", "punish-first")
# `simulate` configs on which every step ties
TIE_RULES = ["fixed:wstar", "fixed:equal", "local"]
TIE_CONFIGS = {
    "constant losses": {"draws": 50, "loss_low": 3.0, "loss_high": 3.0, "rules": TIE_RULES},
    "zero losses": {"layers": [4, 3, 3], "draws": 50, "loss_low": 0, "loss_high": 0,
                    "rules": TIE_RULES, "seed": 7},
}

# name -> (nodes, edges, declared source) of a graph that fails validation
INVALID_GRAPHS = {
    "duplicate label": (["s", "a", "a", "t"], [("s", "a"), ("a", "t")], None),
    "bad edges": (["s", "a", "t"],
                  [("s", "a"), ("a", "zz"), ("a", "a"), ("s", "a"), ("a", "t")], None),
    "too small": (["s", "t"], [("s", "t")], None),
    "cycle": (["s", "a", "b", "t"], [("s", "a"), ("a", "b"), ("b", "a"), ("b", "t")], None),
    "two roots": (["a", "b", "m", "t"], [("a", "m"), ("b", "m"), ("m", "t")], None),
    "wrong source": (["s", "a", "t"], [("s", "a"), ("a", "t")], "a"),
    "unknown source": (["s", "a", "t"], [("s", "a"), ("a", "t")], "x"),
    "rootless pair": (["a", "b"], [("a", "b"), ("b", "a")], None),
    "duplicate pair": (["s", "s"], [("s", "s")], None),
}


def run(argv: list[str], tmp: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = liabnet_main(argv)
    return code, out.getvalue().replace(tmp, "<tmp>"), err.getvalue().replace(tmp, "<tmp>")


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def ladder(stages: int) -> dict:
    """s, two nodes per stage, t; complete links between consecutive
    stages; unit loss on every edge."""
    nodes = ["s"] + [f"{c}{k}" for k in range(1, stages + 1) for c in "ab"] + ["t"]
    edges = [("s", "a1"), ("s", "b1")]
    for k in range(1, stages):
        edges += [(f"{c}{k}", f"{d}{k + 1}") for c in "ab" for d in "ab"]
    edges += [(f"a{stages}", "t"), (f"b{stages}", "t")]
    return {
        "nodes": nodes,
        "edges": [{"from": u, "to": v, "loss": 1} for u, v in edges],
        "source": "s",
    }


def complete(n: int) -> dict:
    """n nodes v0..v(n-1) with an edge from every node to every later one:
    2^(n-2) paths from v0 to v(n-1)."""
    nodes = [f"v{k}" for k in range(n)]
    return {
        "nodes": nodes,
        "edges": [{"from": u, "to": v} for k, u in enumerate(nodes) for v in nodes[k + 1:]],
        "source": "v0",
    }


def near_tie(magnitude: float = 1e8) -> dict:
    """r, one edge to s, then s-a1-a2-a3-t and s-b1-b2-b3-t with the same
    four seeded 3-decimal losses in reverse order, and two dearer cross
    edges a1-b2 and b1-a2: the two sums tie only up to float rounding."""
    rng = random.Random(0)
    lead, w, x, y, z = (round(rng.uniform(0, magnitude), 3) for _ in range(5))
    edges = [
        ("r", "s", lead),
        ("s", "a1", w), ("a1", "a2", x), ("a2", "a3", y), ("a3", "t", z),
        ("s", "b1", z), ("b1", "b2", y), ("b2", "b3", x), ("b3", "t", w),
        ("a1", "b2", x + magnitude), ("b1", "a2", y + magnitude),
    ]
    return {
        "nodes": ["r", "s", "a1", "b1", "a2", "b2", "a3", "b3", "t"],
        "edges": [{"from": u, "to": v, "loss": loss} for u, v, loss in edges],
        "source": "r",
    }


def escaped_labels() -> dict:
    """Four tied paths through labels that JSON escapes (a quote, a
    backslash, a non-ASCII letter) or that %-formatting reads (a percent
    sign), listed in an order that is not their sorted order."""
    s, a, b, c, d, t = "s", 'a"q', "b\\", "c%d", "é", "t"
    edges = [(s, a), (s, b), (a, c), (a, d), (b, c), (b, d), (c, t), (d, t)]
    return {
        "nodes": [s, d, b, a, c, t],
        "edges": [{"from": u, "to": v, "loss": 1} for u, v in edges],
        "source": s,
    }


def deep_chain(n: int) -> dict:
    """s, n1, ..., t in a chain of n nodes with unit losses, and an s -> t
    bypass of loss 2000."""
    nodes = ["s"] + [f"n{k}" for k in range(1, n - 1)] + ["t"]
    edges = [(u, v, 1) for u, v in zip(nodes, nodes[1:])] + [("s", "t", 2000)]
    return {
        "nodes": nodes,
        "edges": [{"from": u, "to": v, "loss": loss} for u, v, loss in edges],
        "source": "s",
    }


def layered_1001(shuffle_seed: int | None) -> dict:
    """Acceptance criterion 2's layered graph, 1 + 50 layers of 20 nodes,
    with its nodes and edges shuffled by `shuffle_seed` unless None."""
    hg = generate_hourglass(
        LayeredGraphSpec(sizes=(1,) + (20,) * 50, p_next=0.4, p_skip=0.0, seed=20240403)
    )
    nodes, edges = list(hg.labels), list(hg.edge_labels())
    if shuffle_seed is not None:
        rng = random.Random(shuffle_seed)
        rng.shuffle(nodes)
        rng.shuffle(edges)
    return {"nodes": nodes, "edges": [{"from": u, "to": v} for u, v in edges]}


def loss_files(graph: Path, tmp: Path) -> list[tuple[str, list[str]]]:
    """(name, extra argv) per loss function to run `graph` under."""
    data = json.loads(graph.read_text())
    keys = [f"{e['from']}->{e['to']}" for e in data["edges"]]
    rng = random.Random(graph.name)
    variants = []
    if all("loss" in e for e in data["edges"]):
        variants.append(("own", []))
    for kind, draw in (
        ("int", lambda: rng.randint(0, 3)),
        ("float", lambda: rng.choice([0.1, 0.2, 0.3])),
    ):
        path = tmp / f"{graph.stem}.{kind}.json"
        path.write_text(json.dumps({k: draw() for k in keys}))
        variants.append((kind, ["--losses", str(path)]))
    return variants


def commands(tmp: Path):
    """Yield (label, argv, post) for every command; `post` rewrites stdout."""
    fixtures = sorted(
        p for p in (ROOT / "fixtures").glob("*.json") if "nodes" in json.loads(p.read_text())
    )
    for name, (nodes, edges, source) in INVALID_GRAPHS.items():
        path = tmp / f"invalid_{name.replace(' ', '_')}.json"
        data = {"nodes": nodes, "edges": [{"from": u, "to": v} for u, v in edges]}
        if source is not None:
            data["source"] = source
        path.write_text(json.dumps(data))
        yield f"validate invalid {name}", ["validate", str(path)], None
        yield f"paths invalid {name}", ["paths", str(path)], None
    ladders = []
    for stages in LADDERS:
        path = tmp / f"ladder{stages}.json"
        path.write_text(json.dumps(ladder(stages)))
        ladders.append(path)

    def no_runtime(stdout: str) -> str:
        data = json.loads(stdout)
        data["metadata"].pop("runtime_ms")
        return json.dumps(data, sort_keys=True)

    for graph in fixtures:
        name = graph.name
        dag, _ = load_graph_file(graph)
        paths = enumerate_paths(dag) if name != "grid20.json" else []
        # the first and the last path, once each
        ends = dict.fromkeys(",".join(p.labels(dag)) for p in paths[:1] + paths[-1:])
        yield f"validate {name}", ["validate", str(graph)], None
        yield f"paths {name}", ["paths", str(graph)], None
        yield f"weights {name}", ["weights", str(graph), "--method", "dp"], no_runtime
        for kind, extra in loss_files(graph, tmp):
            yield f"efficient {name} {kind}", ["efficient", str(graph), *extra], None
            tols = TOLS if extra and name in TOL_GRAPHS else ()
            for tol in tols:
                yield (
                    f"efficient {name} {kind} --tol {tol}",
                    ["efficient", str(graph), *extra, "--tol", tol],
                    None,
                )
            if tols:
                for prop in TOTALS_PROPERTIES:
                    for rule in TOTALS_RULES:
                        yield (
                            f"check {prop} {name} {kind} {rule}",
                            ["check", str(graph), *extra, "--property", prop, "--rule", rule,
                             "--trials", "50"],
                            None,
                        )
            if name != "grid20.json":
                for rule in RULES:
                    yield f"spe {name} {kind} {rule}", ["spe", str(graph), "--rule", rule, *extra], None
                    for tol in tols:
                        yield (
                            f"spe {name} {kind} {rule} --tol {tol}",
                            ["spe", str(graph), "--rule", rule, *extra, "--tol", tol],
                            None,
                        )
                    for path in ends:
                        yield (
                            f"liability {name} {kind} {rule} {path}",
                            ["liability", str(graph), "--rule", rule, "--path", path, *extra],
                            None,
                        )
    for graph in ladders:
        for rule in RULES:
            yield f"spe {graph.name} {rule}", ["spe", str(graph), "--rule", rule], None
    ladder12 = tmp / "ladder12.json"
    ladder12.write_text(json.dumps(ladder(12)))
    for rule in ("fixed:wstar", "local", "punish-first"):
        yield f"spe {ladder12.name} {rule}", ["spe", str(ladder12), "--rule", rule], None
    escaped = tmp / "escaped_labels.json"
    escaped.write_text(json.dumps(escaped_labels()))
    fork_int = dict(loss_files(ROOT / "fixtures" / "fork.json", tmp))["int"]
    for rule in PRETTY_RULES:
        for name, argv in (
            ("fork.json int", [str(ROOT / "fixtures" / "fork.json"), *fork_int]),
            (ladders[0].name, [str(ladders[0])]),
            (escaped.name, [str(escaped)]),
        ):
            yield f"spe {name} {rule} --pretty", ["spe", *argv, "--rule", rule, "--pretty"], None
        yield f"spe {escaped.name} {rule}", ["spe", str(escaped), "--rule", rule], None
    for rule in RULES:
        yield (
            f"check PCP {ladders[0].name} {rule}",
            ["check", str(ladders[0]), "--axiom", "PCP", "--trials", "1", "--rule", rule],
            None,
        )
    complete18 = tmp / "complete18.json"
    complete18.write_text(json.dumps(complete(18)))
    for graph in (*fixtures, ladders[0], complete18):
        for method in ("enumerate", "shapley"):
            yield (
                f"weights {graph.name} {method}",
                ["weights", str(graph), "--method", method],
                no_runtime,
            )
    for exponent in NEAR_TIE_EXPONENTS:
        tie = tmp / f"near_tie_1e{exponent}.json"
        tie.write_text(json.dumps(near_tie(10.0 ** exponent)))
        yield f"spe {tie.name} punish-first", ["spe", str(tie), "--rule", "punish-first"], None
        yield (
            f"check EI {tie.name} punish-first",
            ["check", str(tie), "--axiom", "EI", "--trials", "1", "--rule", "punish-first"],
            None,
        )
    grid20 = ROOT / "fixtures" / "grid20.json"
    unit = tmp / "grid20.unit.json"
    unit.write_text(json.dumps(
        {f"{e['from']}->{e['to']}": 1 for e in json.loads(grid20.read_text())["edges"]}
    ))
    yield (
        "check EI grid20.json unit punish-first",
        ["check", str(grid20), "--losses", str(unit), "--axiom", "EI", "--trials", "1",
         "--rule", "punish-first"],
        None,
    )
    # rule-spec texts beyond the plain grammar, named without the tmp path
    fork = ROOT / "fixtures" / "fork.json"
    weights = tmp / "fork.weights.json"
    weights.write_text(json.dumps({"s": 0.5, "i": 0.25, "j": 0.25}))
    losses = dict(loss_files(fork, tmp))["int"]
    good = (("fixed:file=<weights>", f"fixed:file={weights}"), ("' local '", " local "))
    bad = (("bogus", "bogus"), ("fixed:file=", "fixed:file="),
           ("fixed:file=<missing>", f"fixed:file={tmp / 'missing.json'}"))
    for name, rule in good + bad:
        yield f"spe fork.json int {name}", ["spe", str(fork), "--rule", rule, *losses], None
        yield (
            f"liability fork.json int {name} s,i,t",
            ["liability", str(fork), "--rule", rule, "--path", "s,i,t", *losses],
            None,
        )
    for name, rule in bad:
        yield f"check EI {name}", ["check", "--axiom", "EI", "--rule", rule], None
    for flag, ids in (("--axiom", AXIOMS), ("--property", PROPERTIES)):
        for check_id in ids:
            for rule in RULES:
                for seed in SEEDS:
                    yield (
                        f"check {check_id} {rule} {seed}",
                        ["check", flag, check_id, "--rule", rule, "--trials", TRIALS,
                         "--seed", str(seed)],
                        None,
                    )
    for name, shuffle_seed in (("layered1001", None), ("layered1001_shuffled", 11)):
        graph = tmp / f"{name}.json"
        graph.write_text(json.dumps(layered_1001(shuffle_seed)))
        yield f"validate {graph.name}", ["validate", str(graph)], None
        yield f"weights {graph.name}", ["weights", str(graph), "--method", "dp"], no_runtime
    # non-finite losses, which Python's JSON parser reads from NaN and Infinity
    for loss in (math.nan, math.inf):
        graph = tmp / f"loss_{loss}.json"
        graph.write_text(json.dumps({"nodes": ["s", "a", "t"], "edges": [
            {"from": "s", "to": "a", "loss": loss}, {"from": "a", "to": "t", "loss": 1},
            {"from": "s", "to": "t", "loss": 2}]}))
        yield f"validate loss {loss}", ["validate", str(graph)], None
        yield f"paths loss {loss}", ["paths", str(graph)], None
        yield f"weights loss {loss}", ["weights", str(graph), "--method", "dp"], no_runtime
        yield f"efficient loss {loss}", ["efficient", str(graph)], None
    inf_losses = tmp / "fork.inf.json"
    inf_losses.write_text(json.dumps({
        f"{e['from']}->{e['to']}": math.inf if e["to"] == "i" else 1
        for e in json.loads(fork.read_text())["edges"]
    }))
    yield "efficient fork.json inf", ["efficient", str(fork), "--losses", str(inf_losses)], None
    bad_config = tmp / "bad_sim.json"
    bad_config.write_text(json.dumps({"draws": "many"}))
    yield "simulate bad config", ["simulate", str(bad_config)], None
    yield "simulate --workers 0", ["simulate", "--workers", "0"], None
    chain = tmp / "chain1500.json"
    chain.write_text(json.dumps(deep_chain(1500)))
    for rule in ("local", "punish-first"):
        yield f"spe {chain.name} {rule}", ["spe", str(chain), "--rule", rule], None
    # n0_0 and n0_1 both feed n1_0; the file fits n0_0's subgraph only
    two_weights = tmp / "two_sources.weights.json"
    two_weights.write_text(json.dumps({"n0_0": 0.5, "n1_0": 0.5}))
    two_sources = tmp / "sim_two_sources.json"
    two_sources.write_text(json.dumps({
        "layers": [2, 1, 2], "p_next": 1.0, "p_skip": 0.0, "draws": 5,
        "rules": [f"fixed:file={two_weights}", "local"],
    }))
    yield "simulate two sources fixed:file", ["simulate", str(two_sources)], None


def simulate_commands(tmp: Path):
    """Yield (label, argv) for every `simulate` run whose artifacts are
    hashed too."""
    yield "simulate", ["simulate", "--workers", "1"]
    yield "simulate --workers 2", ["simulate", "--workers", "2"]
    for name, config in TIE_CONFIGS.items():
        path = tmp / f"sim_{name.replace(' ', '_')}.json"
        path.write_text(json.dumps(config))
        yield f"simulate {name}", ["simulate", str(path)]


def read_baseline(path: Path) -> dict[str, str]:
    """label -> hash from a saved run, without its last, all-commands line."""
    lines = path.read_text().splitlines()
    return dict(reversed(line.split("  ", 1)) for line in lines[:-1])


def compare(baseline: dict[str, str], hashes: list[tuple[str, str]]) -> int:
    """Print every command whose hash differs from `baseline`; 1 if any."""
    current = {label: h for h, label in hashes}
    report = [f"changed: {label}" for label, h in current.items()
              if label in baseline and baseline[label] != h]
    report += [f"new: {label}" for label in current if label not in baseline]
    report += [f"gone: {label}" for label in baseline if label not in current]
    for line in report:
        print(line)
    print(f"{len(report)} of {len(current)} commands differ from the baseline")
    return 1 if report else 0


def hash_commands():
    """Run every command; yield (hash, label) for each, in order."""
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        for label, argv, post in commands(tmp):
            code, out, err = run(argv, tmp_dir)
            if post is not None and code == 0:
                out = post(out)
            yield digest(str(code), out, err), label
        for k, (label, argv) in enumerate(simulate_commands(tmp)):
            sim_dir = tmp / f"simulate-{k}"
            code, out, err = run([*argv, "--out", str(sim_dir)], tmp_dir)
            artifacts = [(p.name, p.read_bytes()) for p in sorted(sim_dir.iterdir())]
            parts = [str(code), out, err] + [x for pair in artifacts for x in pair]
            yield digest(*parts), f"{label} ({len(artifacts)} artifacts)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=None,
                        help="saved output of this script to compare with")
    args = parser.parse_args()
    baseline = read_baseline(args.baseline) if args.baseline else None
    hashes = []
    for pair in hash_commands():
        hashes.append(pair)
        print(*pair, sep="  ", flush=True)
    print(digest(*(h for h, _ in hashes)), f"all {len(hashes)} commands", sep="  ")
    return 0 if baseline is None else compare(baseline, hashes)


if __name__ == "__main__":
    sys.exit(main())
