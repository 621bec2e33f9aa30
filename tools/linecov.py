"""List the lines of `src/liabnet` that the test suite never runs.

Run from the root of a checkout as

    python tools/linecov.py [pytest arguments]

It runs pytest in this process (by default on `tests/`, the whole Tier-1
suite) under a `sys.settrace` tracer that records every line of
`src/liabnet` that runs, then prints, per file, each executable line that
did not run. A line is executable when the compiler gives it bytecode, so
comments, blank lines, `else:` and function docstrings never count. Lines
run only in a subprocess or a worker process are not seen: the tracer lives
in this process.

Exit codes: 0 when every unrun line is on ALLOWED below, 1 when one is not,
2 when the suite itself fails. The suite takes about three times as long
as without the tracer, so this is not part of Tier-1; run it after a change
to `src/` and give its count with the change.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liabnet"

# (file under src/liabnet, a run of consecutive source lines as they read
# stripped, why its unrun lines may stay unrun); the run is as long as it
# takes to name one place
ALLOWED = (
    ("cli.py", ("sys.exit(main())",),
     "runs only when cli.py is run as a script, in another process"),
    ("axioms.py", ("if widen(moved[i], tol) < base[i]:", "continue"),
     "a continuation that pays the deviator less than an efficient equilibrium "
     "would cost less; no shipped rule reached it in 21,000 tie-heavy PCP games"),
    ("rules.py", ("raise GraphError(",
                  'f"extension produced negative loss {value} on edge "',
                  'f"({dag.labels[i]!r}, {dag.labels[j]!r})"'),
     "with non-negative losses the potentials never fall along an edge"),
    ("sim.py", ('raise SimError(f"per-agent means do not add up to the realized mean for {r}")',),
     "tally invariant: every draw adds its liabilities and its total from one walk"),
)


def allowed(name: str, source: list[str], line: int) -> str | None:
    """The reason an entry of ALLOWED gives for `line`, or None."""
    for file, run, why in ALLOWED:
        if file != name:
            continue
        for top in range(max(0, line - len(run)), line):
            if [text.strip() for text in source[top:top + len(run)]] == list(run):
                return why
    return None


def executable_lines(path: Path) -> set[int]:
    """Every line number the compiler gives bytecode in `path`."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; its exit code and the lines run per file."""
    src = os.path.realpath(SRC) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(src)
        return local if ours[name] else None

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    run: dict[str, set[int]] = defaultdict(set)
    for name, lines in hits.items():
        run[os.path.realpath(name)] |= lines
    return int(code), run


def main(argv: list[str]) -> int:
    code, run = run_traced(argv)
    total = unrun = bad = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - run[os.path.realpath(path)])
        total += len(lines)
        unrun += len(missed)
        if missed:
            print(f"{path.name}: {len(missed)} of {len(lines)} lines unrun")
        for line in missed:
            text = source[line - 1].strip()
            why = allowed(path.name, source, line)
            bad += why is None
            print(f"  {line:5d}  {text}" + (f"    [allowed: {why}]" if why else ""))
    print(f"{unrun} of {total} executable lines unrun, {bad} of them not allowed")
    if code != 0:
        print(f"the test suite failed (pytest exit code {code})")
        return 2
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
