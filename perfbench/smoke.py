#!/usr/bin/env python3
"""Smoke check of the benchmark itself, in a few seconds.

    python3 perfbench/smoke.py

Runs one round of every workload at reduced size with all output checks,
then one traced pass over all of them, and exits non-zero unless every
check holds, every declared metric was measured, and the only failed
operation is the known RecursionError on the deep chain. It also confirms
that the benchmark's own layered-graph generator reproduces the graph of
`liabnet.sim.generate_hourglass` for the spec the benchmark relies on.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

from run import (
    ROOT,
    declared_metrics,
    fastest,
    import_program,
    run_traced,
    run_untraced,
    workload_classes,
)


def main() -> int:
    t0 = time.perf_counter()
    main_fn = import_program()
    from harness import Runner, Samples, Tracer
    from inputs import LAYERED_SEED, SIM_SEED, layered_graph
    from liabnet.sim import LayeredGraphSpec, generate_hourglass

    problems = []
    for sizes, p_skip, seed in (((1,) + (20,) * 50, 0.0, LAYERED_SEED),
                                ((30, 20, 15, 10, 15, 20), 0.1, SIM_SEED)):
        hg = generate_hourglass(LayeredGraphSpec(sizes=sizes, p_next=0.4, p_skip=p_skip, seed=seed))
        labels, edges, _ = layered_graph(sizes, 0.4, p_skip, seed)
        if (list(hg.labels), list(hg.edges)) != (labels, edges):
            problems.append(f"layered_graph{sizes[:3]}... differs from generate_hourglass")

    end_to_end, per_layer = declared_metrics()
    work = ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(main_fn)
    try:
        workloads = [cls(work, cls.default_seed, smoke=True) for cls in workload_classes().values()]
        for wl in workloads:
            wl.setup()
            samples = Samples()
            run_untraced(wl, runner, 0, samples)
            wl.finish(runner)
            missing = sorted(set(wl.part1 + wl.part2) - set(samples.values))
            if missing:
                problems.append(f"{wl.name}: no timings for {missing}")
            else:
                wl.report(lambda keys: fastest(samples, keys))
        samples = Samples()
        run_traced(workloads, runner, Tracer("smoke"), 0, samples)
        missing = sorted(set(per_layer) - set(samples.values))
        if missing:
            problems.append(f"per-layer metrics not measured: {missing}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    problems += runner.problems
    for cmd, kind, _ in runner.failures:
        if not (kind == "RecursionError" and "chain_bypass" in cmd and "punish-first" in cmd):
            problems.append(f"unexpected failure: {cmd}: {kind}")
    if runner.failed != 2:
        problems.append(f"{runner.failed} failed operations, expected the chain command twice")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print(f"smoke: {runner.attempted} operations, {runner.failed} failed as expected, "
          f"{len(end_to_end)} end-to-end and {len(per_layer)} per-layer metrics, "
          f"{time.perf_counter() - t0:.1f} s: {'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
