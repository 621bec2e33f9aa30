"""Shared machinery: in-process command runner, samples, checks and spans.

Every end-to-end operation is one `liabnet` command issued through
`liabnet.cli.main` with stdout and stderr captured. The traced run re-issues
each command as the sequence of public library calls the command makes and
records one span per call.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    seconds: float

    def json(self):
        return json.loads(self.stdout)


@dataclass
class Runner:
    """Issues commands, tallies attempted and failed operations, and
    collects output-check problems. `correct` speaks only of operations
    that did not fail."""

    main: object
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def command(self, argv: list[str], note: str = "") -> Result | None:
        """Run one command; None when it raised (counted as failed)."""
        self.attempted += 1
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(argv)
        except Exception as exc:  # a traceback the user would see; keep going
            self.failed += 1
            self.failures.append((" ".join(argv), type(exc).__name__, note))
            return None
        return Result(rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0)

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def expect_rc(self, res: Result, rc: int, what: str) -> bool:
        return self.expect(
            res.rc == rc, f"{what}: exit code {res.rc}, expected {rc} ({res.stderr.strip()})"
        )

    @property
    def correct(self) -> bool:
        return not self.problems


class Samples:
    """Named lists of measured values; reported as medians."""

    def __init__(self):
        self.values: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self.values[name])

    def count(self, name: str) -> int:
        return len(self.values.get(name, ()))


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory spans: [name, start, end, parent index, request id].

    The layer of a span is its name up to the first dot. Spans of one
    re-issued command share a request id; spans taken outside any command
    (extra per-layer probes) have request None.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request: str | None = None

    @contextlib.contextmanager
    def request(self, request_id: str):
        outer, self._request = self._request, request_id
        try:
            yield
        finally:
            self._request = outer

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._request]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def mark(self) -> int:
        return len(self.spans)

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of spans called `name` recorded after `since`."""
        return sum(r[2] - r[1] for r in self.spans[since:] if r[0] == name)

    def top_level(self, since: int) -> float:
        """Summed duration of spans without a parent, recorded after `since`."""
        return sum(r[2] - r[1] for r in self.spans[since:] if r[3] is None)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Per layer: span time minus the part covered by child spans."""
        child = [0.0] * len(self.spans)
        for rec in self.spans[since:]:
            if rec[3] is not None:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, float] = {}
        for k in range(since, len(self.spans)):
            rec = self.spans[k]
            layer = rec[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (rec[2] - rec[1]) - child[k]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start", "end", "parent", "request"],
                    "spans": self.spans,
                },
                fh,
            )


@dataclass
class TraceRun:
    """What one traced pass accumulates besides the spans themselves."""

    runner: Runner
    tracer: Tracer
    metrics: dict = field(default_factory=dict)
    overhead_s: float = 0.0
    glue_s: float = 0.0
    output_bytes: dict = field(default_factory=dict)
    _requests: int = 0

    def command(self, argv: list[str], reissue, same=None) -> Result | None:
        """Run `argv` untraced, then `reissue()` traced as one request.

        `reissue` returns the JSON text the command prints; `same(a, b)`
        compares it with the untraced output (default: equal text). The
        difference in wall time is the tracing overhead; the untraced time
        not covered by top-level spans is the command's own glue.
        """
        res = self.runner.command(argv)
        if res is None:
            return None
        self._requests += 1
        mark = self.tracer.mark()
        gc.collect()
        t0 = time.perf_counter()
        with self.tracer.request(f"{argv[0]}#{self._requests}"):
            text = reissue()
        traced = time.perf_counter() - t0
        self.overhead_s += traced - res.seconds
        self.glue_s += res.seconds - self.tracer.top_level(mark)
        cmd = argv[0]
        self.output_bytes[cmd] = self.output_bytes.get(cmd, 0) + len(res.stdout)
        ok = same(res.stdout, text) if same else res.stdout.rstrip("\n") == text
        self.runner.expect(ok, f"traced re-issue of {' '.join(argv)} printed other output")
        return res
