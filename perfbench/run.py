#!/usr/bin/env python3
"""liabnet benchmark: seeded workloads issued through `liabnet.cli.main`.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/`. With `--trace 0` the named workload repeats whole rounds of its
commands until S seconds have passed and prints the end-to-end metrics.
With `--trace 1` the run makes whole traced passes over all four workloads
until S seconds have passed, at least one (each command untraced, then
re-issued as its public library calls with a span per call), and prints the
per-layer metrics. Either way the last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-ups measured per untraced run: one before the rounds, the rest spread
# over the run, so that their median is not one moment's host speed
SETUP_SAMPLES = 9
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import liabnet.cli; print(time.perf_counter() - t)"
)
LAYERS = ("io", "graph", "weights", "rules", "game", "axioms", "generators", "sim", "cli")


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import liabnet.cli
    except ImportError as exc:
        die(f"cannot import liabnet from {src}: {exc}")
    if Path(liabnet.cli.__file__).resolve().parent.parent != src.resolve():
        die(f"liabnet imported from {liabnet.cli.__file__}, not from {src}")
    return liabnet.cli.main


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip())


def workload_classes():
    import wl_audit
    import wl_ladder
    import wl_layered
    import wl_sim

    return {m.Workload.name: m.Workload for m in (wl_sim, wl_layered, wl_ladder, wl_audit)}


def timed_setup(workloads) -> float:
    """Seconds of one set-up: the package's import in a fresh interpreter
    plus writing every input of `workloads`."""
    imp = import_seconds()
    t0 = time.perf_counter()
    for wl in workloads:
        wl.setup()
    return imp + time.perf_counter() - t0


def run_untraced(wl, runner, seconds, samples, resetup=None):
    """Whole rounds until `seconds` have passed; each command's time per
    round lands in `samples` under the workload's key for it. When given,
    `resetup()` is timed between rounds, SETUP_SAMPLES - 1 times spread
    evenly over the run, into `setup_s`."""
    start = time.perf_counter()
    every = seconds / SETUP_SAMPLES
    next_setup = start + every
    rounds = 0
    while True:
        for key, value in wl.round(runner).items():
            samples.add(key, value)
        rounds += 1
        now = time.perf_counter()
        if now - start >= seconds:
            return rounds
        if resetup is not None and now >= next_setup:
            samples.add("setup_s", resetup())
            next_setup += every


def fastest(samples, keys) -> float:
    """Sum over commands of each command's fastest round."""
    return sum(min(samples.values[k]) for k in keys)


def run_traced(workloads, runner, tracer, seconds, samples):
    from harness import TraceRun

    start = time.perf_counter()
    passes = 0
    while True:
        tr = TraceRun(runner, tracer)
        mark = tracer.mark()
        for wl in workloads:
            wl.trace(tr)
        passes += 1
        m = tr.metrics
        m["io.load_graph_file_s"] = tracer.total("io.load_graph_file", mark) + tracer.total(
            "io.load_raw_graph_file", mark
        )
        m["graph.build_dag_s"] = tracer.total("graph.build_dag", mark)
        m["rules.make_rule_s"] = tracer.total("rules.make_rule", mark)
        m["cli.dump_json_s"] = tracer.total("cli.dump_json", mark)
        m["cli.glue_s"] = tr.glue_s
        m["trace.overhead_s"] = tr.overhead_s
        m["trace.spans"] = tracer.mark() - mark
        for cmd, size in tr.output_bytes.items():
            m[f"cli.output_bytes.{cmd}"] = size
        own = tracer.self_times(mark)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = own.get(layer, 0.0)
        for key, value in m.items():
            samples.add(key, value)
        if time.perf_counter() - start >= seconds:
            return passes


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own default seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    main_fn = import_program()
    sys.path.insert(0, str(HERE))
    from harness import Runner, Samples, Tracer

    end_to_end, per_layer = declared_metrics()
    classes = workload_classes()
    if args.workload not in classes:
        die(f"unknown workload {args.workload!r}; expected one of {sorted(classes)}")

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner, samples = Runner(main_fn), Samples()
    try:
        if args.trace:
            chosen = [cls(work, cls.default_seed if args.seed is None else args.seed)
                      for cls in classes.values()]
        else:
            cls = classes[args.workload]
            chosen = [cls(work, cls.default_seed if args.seed is None else args.seed)]
        first_setup = timed_setup(chosen)
        if args.trace:
            tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
            rounds = run_traced(chosen, runner, tracer, args.seconds, samples)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.json")
        else:
            wl = chosen[0]
            samples.add("setup_s", first_setup)
            fresh = work / "setup"
            fresh.mkdir()
            rounds = run_untraced(
                wl, runner, args.seconds, samples,
                lambda: timed_setup([cls(fresh, wl.seed)]),
            )
            closing = wl.finish(runner)
            for name, keys in (("total_s", wl.part1 + wl.part2), ("part1_s", wl.part1),
                               ("part2_s", wl.part2)):
                if keys and all(samples.count(k) == rounds for k in keys):
                    samples.add(name, fastest(samples, keys))
            samples.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's work dir is still there
            pass

    declared = per_layer if args.trace else end_to_end
    missing = sorted(set(declared) - set(samples.values))
    if missing:
        runner.problems.append(f"metrics not measured: {missing}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{'passes' if args.trace else 'rounds'} {rounds}  wall {time.perf_counter() - t_start:.1f} s")
    print(f"python {platform.python_version()}  numpy {__import__('numpy').__version__}  "
          f"nproc {os.cpu_count()}  git {git_sha()}  first setup {first_setup:.3f} s")
    if not args.trace:
        print("  per command: fastest and median of the rounds")
        for key in wl.part1 + wl.part2:
            if key in samples.values:
                v = samples.values[key]
                print(f"    {key:<30} {min(v):10.4f} s {samples.median(key):10.4f} s  n={len(v)}")
        if all(k in samples.values for k in wl.part1 + wl.part2):
            print("  figures from the fastest rounds")
            for name, value, unit in wl.report(lambda keys: fastest(samples, keys)):
                print(f"    {name:<30} {value:14.6g} {unit}")
        for key, value in closing.items():
            print(f"  once per run, after the rounds: {key} {value:.4f} s")
        print("  metrics (setup_s: median of set-ups; timings: sum of fastest rounds)")
    else:
        print("  per-layer metrics (median of passes)")
    for name in declared:
        if name in samples.values:
            print(f"    {name:<38} {samples.median(name):14.6g} {declared[name]:<9} "
                  f"n={samples.count(name)}")
    for cmd, kind, note in runner.failures:
        print(f"  FAILED {cmd}: {kind}" + (f" ({note})" if note else ""))
    for problem in runner.problems:
        print(f"  CHECK FAILED {problem}")
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": samples.median(name), "unit": unit}
            for name, unit in declared.items()
            if name in samples.values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
