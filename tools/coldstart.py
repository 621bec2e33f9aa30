"""Time CLI commands in fresh interpreters that compile liabnet from source.

Run from the root of a checkout as

    python tools/coldstart.py [CHECKOUT]

It copies the `src/` of CHECKOUT (by default the checkout holding this
script) to a temporary directory, leaving out every `__pycache__`, and
runs each command below on that checkout's `fixtures/fork.json`, 9 times,
each in a fresh interpreter with PYTHONDONTWRITEBYTECODE=1. Every import
therefore compiles from source, as it does in a fresh checkout that has
never written bytecode. The commands take turns, one round of all of them
at a time, so that a change in the host's speed falls on every command
alike. It prints, per command, the median wall time of the whole process
(interpreter start-up included), which of `dataclasses`, `inspect` and
`numpy` the process loaded, and the `liabnet` modules the command loaded.
Run it on two checkouts to compare them.

Exit codes: 0 when every command exits 0, 2 when one does not.
Standard library only; not part of Tier-1.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROUNDS = 9
# costly standard modules that only some commands need
HEAVY = ("dataclasses", "inspect", "numpy")
# run in the fresh interpreter: the command's stdout is discarded and the
# modules it loaded are printed in its place, the heavy ones first
PROBE = f"""\
import contextlib, os, sys
from liabnet.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
print(",".join(m for m in {HEAVY!r} if m in sys.modules) or "-",
      *sorted(m for m in sys.modules if m.split(".")[0] == "liabnet"))
sys.exit(code)
"""
LOSSES = {"s->i": 3, "s->j": 1, "j->k": 1, "i->t": 1, "j->t": 2, "k->t": 1}


def commands(graph: str, losses: str) -> dict[str, list[str]]:
    rule = ["--rule", "fixed:wstar", "--losses", losses]
    return {
        "validate": ["validate", graph],
        "paths": ["paths", graph],
        "weights": ["weights", graph],
        "efficient": ["efficient", graph, "--losses", losses],
        "liability": ["liability", graph, *rule, "--path", "s,j,k,t"],
        "spe": ["spe", graph, *rule],
        "check": ["check", graph, "--axiom", "EI", "--rule", "fixed:wstar",
                  "--trials", "1"],
    }


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(root / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        losses = Path(tmp) / "losses.json"
        losses.write_text(json.dumps(LOSSES))
        todo = commands(str(root / "fixtures" / "fork.json"), str(losses))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        times: dict[str, list[float]] = {name: [] for name in todo}
        loaded: dict[str, str] = {}
        for _ in range(ROUNDS):
            for name, args in todo.items():
                t0 = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, "-c", PROBE, *args],
                    capture_output=True, text=True, env=env, cwd=tmp, timeout=120,
                )
                times[name].append(time.perf_counter() - t0)
                if done.returncode != 0:
                    print(f"coldstart: {name} exited {done.returncode}:\n{done.stderr}",
                          file=sys.stderr)
                    return 2
                loaded[name] = done.stdout.strip()
    print(f"{root.resolve()}: median wall ms of {ROUNDS} fresh interpreters, no bytecode;")
    print(f"  then which of {', '.join(HEAVY)} loaded ('-': none), and the liabnet modules")
    for name in todo:
        print(f"  {name:10s} {statistics.median(times[name]) * 1000:7.1f}  {loaded[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
