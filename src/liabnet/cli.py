"""Command-line entry point.

Subcommands: validate, paths, weights, efficient, liability, spe, check,
simulate. All output is JSON on stdout (sorted keys; `--pretty` for
indentation). Exit codes: 0 success, 1 a check failed or a counterexample
was found, 2 usage errors, malformed inputs, cap exceedances, or a check
that does not apply to the given rule.

Importing this module loads `graph` and `io`, which every graph command
runs. Each handler imports the other modules it runs, so that a process
compiles and loads only what its command needs: `validate`, `paths` and
`efficient` nothing more, `weights` the `weights` module, and `simulate`
alone numpy and the process pool.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Optional, Sequence

from . import AXIOMS, PROPERTIES, LiabnetError
from .graph import (
    Dag,
    Path,
    Ties,
    count_paths,
    efficient_paths,
    enumerate_paths,
    path_loss,
    validate,
)
from .io import (
    dump_json,
    dump_liability_report,
    load_graph_file,
    load_losses_file,
    load_raw_graph_file,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class CliError(LiabnetError):
    """Usage-level failure; message goes to stderr, exit code 2."""


def _emit(obj, pretty: bool) -> None:
    print(dump_json(obj, pretty=pretty))


def _full_losses(dag: Dag, embedded, losses_path: Optional[str]):
    losses = dict(embedded)
    if losses_path:
        losses.update(load_losses_file(losses_path, dag))
    missing = [e for e in dag.edges if e not in losses]
    if missing:
        u, v = missing[0]
        raise CliError(
            f"loss function is not total: no loss for edge "
            f"{dag.labels[u]}->{dag.labels[v]} (supply --losses <file>)"
        )
    return losses


def _parse_path(dag: Dag, text: str) -> Path:
    labels = [x.strip() for x in text.split(",") if x.strip()]
    if not labels:
        raise CliError("--path must list node labels separated by commas")
    index = {lab: i for i, lab in enumerate(dag.labels)}
    try:
        nodes = tuple(index[lab] for lab in labels)
    except KeyError as exc:
        raise CliError(f"unknown node label {exc.args[0]!r} in --path") from None
    return Path(nodes)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_validate(args) -> int:
    nodes, edges, source = load_raw_graph_file(args.graph)
    report = validate(nodes, edges, source=source)
    _emit(report.to_dict(), args.pretty)
    # a graph that fails validation is unusable input, same class as a
    # malformed file; warnings alone do not fail
    return EXIT_OK if report.valid else EXIT_USAGE


def _cmd_paths(args) -> int:
    dag, _ = load_graph_file(args.graph)
    total = count_paths(dag)
    paths = enumerate_paths(dag, cap=args.cap_paths)
    _emit(
        {"count": str(total), "paths": [p.labels(dag) for p in paths]},
        args.pretty,
    )
    return EXIT_OK


def _cmd_weights(args) -> int:
    from .weights import shapley_bruteforce, wstar_dp, wstar_enumerate

    dag, _ = load_graph_file(args.graph)
    t0 = time.perf_counter()
    if args.method == "dp":
        wv = wstar_dp(dag)
    elif args.method == "enumerate":
        wv = wstar_enumerate(dag, cap=args.cap_paths)
    else:
        wv = shapley_bruteforce(dag)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    out = {
        "weights": wv.as_dict(dag),
        "metadata": {
            "method": args.method,
            "path_count": str(count_paths(dag)),
            "runtime_ms": round(runtime_ms, 3),
        },
    }
    _emit(out, args.pretty)
    return EXIT_OK


def _cmd_efficient(args) -> int:
    dag, embedded = load_graph_file(args.graph)
    losses = _full_losses(dag, embedded, args.losses)
    res = efficient_paths(dag, losses, tie_tolerance=args.tol)
    _emit(res.to_dict(dag), args.pretty)
    return EXIT_OK


def _cmd_liability(args) -> int:
    from .rules import apply_rule, make_rule

    dag, embedded = load_graph_file(args.graph)
    losses = _full_losses(dag, embedded, args.losses)
    rule = make_rule(args.rule, dag)
    path = _parse_path(dag, args.path)
    vec = apply_rule(rule, path, losses)
    out = {
        "rule": rule.spec_string,
        "path": path.labels(dag),
        "total": float(vec.total),
        "liabilities": vec.as_dict(dag),
    }
    _emit(out, args.pretty)
    return EXIT_OK


def _cmd_spe(args) -> int:
    from .game import spe_solve
    from .rules import make_rule

    dag, embedded = load_graph_file(args.graph)
    losses = _full_losses(dag, embedded, args.losses)
    rule = make_rule(args.rule, dag).bind(losses)
    sol = spe_solve(dag, losses, rule)
    ordered = sol.sorted_outcomes()
    coincide = sol.coincides(args.tol)
    labelled = [p.labels(dag) for p in ordered]
    if coincide:
        # the efficient paths are the outcomes, listed in the same order;
        # every cost is converted, as `EfficiencyResult.to_dict` converts
        # them, so that one beyond the float range fails the report alike
        costs = [float(c) for c in rule.ties.cont]
        efficient, min_cost = labelled, costs[dag.source]
    else:
        # the rule's own costs, unless --tol asks for another tie decision
        ties = rule.ties if args.tol is None else Ties(dag, losses, args.tol)
        eff = ties.efficient().to_dict(dag)
        efficient, min_cost = eff["paths"], eff["min_cost"]
    # consecutive outcomes often share one split tuple (all of them do
    # under a fixed-weight rule on tied paths): convert each run of it once,
    # in the order of the sorted labels, and render it once
    order = sorted(range(dag.n), key=dag.labels.__getitem__)
    splits, liab = [], {}
    held = None
    for p, labels in zip(ordered, labelled):
        values = rule.checked_split(p, path_loss(losses, p))
        if values is not held:
            held = values
            splits.append([float(held[i]) for i in order])
        liab["->".join(labels)] = len(splits) - 1
    out = {
        "rule": rule.spec_string,
        "outcomes": labelled,
        "efficient": efficient,
        "min_cost": min_cost,
        "coincide": coincide,
    }
    sorted_labels = [dag.labels[i] for i in order]
    print(dump_liability_report(out, sorted_labels, splits, liab, args.pretty))
    return EXIT_OK


def _cmd_check(args) -> int:
    from .axioms import check_axiom, check_property, impossibility_scenario

    chosen = [x for x in (args.axiom, args.property, args.scenario) if x]
    if len(chosen) != 1:
        raise CliError("pick exactly one of --axiom, --property, --scenario")
    if args.losses and not args.graph:
        raise CliError("--losses needs a graph file: fixed losses require a fixed graph")
    dag = losses = None
    if args.graph:
        dag, embedded = load_graph_file(args.graph)
        if args.losses:
            losses = _full_losses(dag, embedded, args.losses)
        elif embedded and all(e in embedded for e in dag.edges):
            losses = embedded
    if args.scenario:
        if args.scenario != "impossibility":
            raise CliError(f"unknown scenario {args.scenario!r} (try: impossibility)")
        report = impossibility_scenario()
    else:
        if not args.rule:
            raise CliError("--rule is required for axiom and property checks")
        audit = check_axiom if args.axiom else check_property
        report = audit(
            args.axiom or args.property, args.rule, dag=dag, trials=args.trials,
            seed=args.seed, losses=losses,
        )
    _emit(report.to_dict(), args.pretty)
    if not report.applicable:
        return EXIT_USAGE
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_simulate(args) -> int:
    import dataclasses

    from .sim import SimConfig, run_simulation, summary_dict

    if args.config:
        config = SimConfig.from_file(args.config)
    else:
        config = SimConfig()
    if args.seed is not None:
        graph = dataclasses.replace(config.graph, seed=args.seed)
        config = dataclasses.replace(config, graph=graph)
    stats = run_simulation(config, workers=args.workers, out_dir=args.out)
    _emit(summary_dict(stats, config), args.pretty)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, shared by every `main` call, which
    only reads it."""
    parser = argparse.ArgumentParser(
        prog="liabnet",
        description=(
            "Cancellation cascades on acyclic networks: validation, path and "
            "weight computation, equilibrium solving, rule audits, simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, graph_required: bool = True):
        p = sub.add_parser(name, help=help_)
        if graph_required:
            p.add_argument("graph", help="graph JSON file")
        else:
            p.add_argument("graph", nargs="?", default=None, help="graph JSON file")
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        return p

    add("validate", "structural checks on a graph file")

    p = add("paths", "enumerate all source-to-sink paths")
    p.add_argument("--cap-paths", type=int, default=10_000,
                   help="refuse to enumerate beyond this many paths")

    p = add("weights", "canonical fixed weights of a graph")
    p.add_argument("--method", choices=("dp", "enumerate", "shapley"), default="dp")
    p.add_argument("--cap-paths", type=int, default=100_000,
                   help="path cap for --method enumerate")

    p = add("efficient", "minimum-cost paths and continuation costs")
    p.add_argument("--losses", default=None, help="JSON file mapping 'from->to' to loss")
    p.add_argument("--tol", type=float, default=None,
                   help="tie tolerance (default: exact for integer losses, 1e-9 otherwise)")

    p = add("liability", "apply a rule to one realized path")
    p.add_argument("--rule", required=True, help="rule spec, e.g. fixed:wstar or local")
    p.add_argument("--path", required=True, help="comma-separated node labels")
    p.add_argument("--losses", default=None)

    p = add("spe", "exact equilibrium outcome set of the induced game")
    p.add_argument("--rule", required=True)
    p.add_argument("--losses", default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="tie tolerance of the efficient paths and of coincide; the "
                        "equilibria always use the default (exact for integer "
                        "losses, 1e-9 otherwise)")

    p = add("check", "axiom/property/scenario audits", graph_required=False)
    p.add_argument("--axiom", choices=AXIOMS, default=None)
    p.add_argument("--property", choices=PROPERTIES, default=None)
    p.add_argument("--scenario", default=None, help="named scenario: impossibility")
    p.add_argument("--rule", default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--losses", default=None,
                   help="hold this loss function fixed across trials")

    p = sub.add_parser("simulate", help="Monte-Carlo rule comparison on a layered network")
    p.add_argument("config", nargs="?", default=None, help="simulation config JSON")
    p.add_argument("--out", default=None, help="directory for CSV/JSON artifacts")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--pretty", action="store_true")

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "paths": _cmd_paths,
    "weights": _cmd_weights,
    "efficient": _cmd_efficient,
    "liability": _cmd_liability,
    "spe": _cmd_spe,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (LiabnetError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
