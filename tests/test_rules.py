from __future__ import annotations

import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path as FsPath

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import liabnet.rules
from liabnet.cli import main
from liabnet.game import spe_solve
from liabnet.generators import random_dag, random_losses
from liabnet.graph import (
    Dag,
    GraphError,
    Path,
    build_dag,
    enumerate_paths,
    efficient_paths,
    path_loss,
)
from liabnet.rules import (
    MODE_OWN_EDGE,
    MODE_PUNISH_FIRST,
    MODE_TOTALS,
    LiabilityVector,
    Rule,
    RuleSpecError,
    apply_rule,
    fixed_rule,
    irreducible_extension,
    make_rule,
)
from liabnet.weights import WeightsError, WeightVector

from conftest import ALL_RULE_SPECS, small_games

GRAMMAR = [
    "fixed:wstar",
    "fixed:equal",
    "local",
    "phi1",
    "phi2",
    "phi3",
    "phi5",
    "punish-first",
]

UNKNOWN_SPEC = (
    "unknown rule spec {!r}; expected one of fixed:wstar, fixed:equal, "
    "fixed:file=<path.json>, local, phi1, phi2, phi3, phi5, punish-first"
)


def path_of(dag: Dag, *labels: str) -> Path:
    return Path(tuple(dag.index(x) for x in labels))


def fork_losses(dag: Dag, **by_label):
    # keys like si=2 name the edge (s, i)
    out = {}
    for key, val in by_label.items():
        out[(dag.index(key[0]), dag.index(key[1]))] = val
    return out


class TestSpecGrammar:
    def test_round_trip(self, fork, tmp_path):
        wfile = tmp_path / "weights.json"
        wfile.write_text(json.dumps({"s": 0.5, "i": 0.25, "j": 0.25}))
        for text in GRAMMAR + [f"fixed:file={wfile}"]:
            assert make_rule(text, fork).spec_string == text

    def test_unknown_spec_rejected(self, fork, tmp_path):
        with pytest.raises(RuleSpecError) as exc:
            make_rule("phi4", fork)
        assert str(exc.value) == UNKNOWN_SPEC.format("phi4")
        with pytest.raises(RuleSpecError, match="^unknown rule spec 'fixed:shapley';"):
            make_rule("fixed:shapley", fork)
        with pytest.raises(RuleSpecError) as exc:
            make_rule("fixed:file=", fork)
        assert str(exc.value) == "fixed:file= needs a path"
        with pytest.raises(FileNotFoundError):
            make_rule(f"fixed:file={tmp_path / 'missing.json'}", fork)

    def test_padded_spec_accepted(self, fork, tmp_path):
        assert make_rule(" local\n", fork).spec_string == "local"
        wfile = tmp_path / "weights.json"
        wfile.write_text(json.dumps({"s": 1}))
        assert make_rule(f"  fixed:file={wfile} ", fork).spec_string == f"fixed:file={wfile}"

    def test_cli_unknown_rule_exits_2(self, capsys):
        code = main(["check", "--axiom", "EI", "--rule", "bogus"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err == "error: " + UNKNOWN_SPEC.format("bogus") + "\n"

    def test_solver_modes(self, fork):
        losses = {e: 1 for e in fork.edges}
        assert make_rule("fixed:wstar", fork).bind(losses).mode == MODE_TOTALS
        assert make_rule("phi2", fork).bind(losses).mode == MODE_TOTALS
        assert make_rule("phi3", fork).bind(losses).mode == MODE_TOTALS
        assert make_rule("phi5", fork).bind(losses).mode == MODE_TOTALS
        assert make_rule("local", fork).bind(losses).mode == MODE_OWN_EDGE
        assert make_rule("punish-first", fork).bind(losses).mode == MODE_PUNISH_FIRST

    @pytest.mark.parametrize("spec", ALL_RULE_SPECS)
    def test_bind_copies_with_fresh_memos(self, fork, spec):
        rule = make_rule(spec, fork)
        ones = {e: 1 for e in fork.edges}
        a, b = rule.bind(ones), rule.bind(dict(ones))
        assert type(a) is type(b) is type(rule)
        assert rule.losses is None
        assert a.losses is ones
        apply_rule(a, enumerate_paths(fork)[0], ones)
        assert a._passed and not b._passed
        for memo in ("_passed", "_splits"):
            assert getattr(a, memo) is not getattr(b, memo)
            assert getattr(a, memo) is not getattr(a.bind(dict(ones)), memo)
            assert not hasattr(rule, memo)

    def test_fixed_cares_follow_weights(self, fork):
        w = WeightVector((Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        bound = fixed_rule(fork, w).bind({e: 1 for e in fork.edges})
        assert bound.cares == (False, False, True, True, False)


class TestFixedFamily:
    def test_equal_split(self):
        dag, _ = _line4()
        losses = {
            (dag.index("s"), dag.index("a")): 3,
            (dag.index("a"), dag.index("b")): 2,
            (dag.index("b"), dag.index("t")): 3,
            (dag.index("s"), dag.index("t")): 1,
        }
        rule = make_rule("fixed:equal", dag)
        vec = apply_rule(rule, path_of(dag, "s", "a", "b", "t"), losses)
        assert vec.values == (Fraction(2),) * 4
        assert vec.total == 8

    def test_wstar_on_fork(self, fork):
        losses = fork_losses(fork, si=2, sj=1, jk=3, it=4, jt=0, kt=5)
        rule = make_rule("fixed:wstar", fork)
        vec = apply_rule(rule, path_of(fork, "s", "i", "t"), losses)
        # w* = (4/9, 1/6, 5/18, 1/9, 0), total 6
        expect = (Fraction(8, 3), Fraction(1), Fraction(5, 3), Fraction(2, 3), Fraction(0))
        assert vec.values == expect

    def test_source_all(self, fork):
        losses = fork_losses(fork, si=2, sj=1, jk=3, it=4, jt=0, kt=5)
        vec = apply_rule(make_rule("phi1", fork), path_of(fork, "s", "j", "t"), losses)
        assert vec.values == (Fraction(1), 0, 0, 0, 0)
        assert vec[fork.index("s")] == 1

    def test_file_weights(self, fork, tmp_path):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps({"s": 0.5, "i": 0.25, "j": 0.25}))
        rule = make_rule(f"fixed:file={wfile}", fork)
        losses = fork_losses(fork, si=1, sj=1, jk=1, it=3, jt=1, kt=1)
        vec = apply_rule(rule, path_of(fork, "s", "i", "t"), losses)
        assert tuple(map(float, vec.values)) == (2.0, 1.0, 1.0, 0.0, 0.0)

    def test_bad_weights_rejected(self, fork):
        heavy = WeightVector((Fraction(1), Fraction(1), 0, 0, 0))
        with pytest.raises(WeightsError):
            fixed_rule(fork, heavy)
        short = WeightVector((Fraction(1),))
        with pytest.raises(RuleSpecError):
            fixed_rule(fork, short)


class TestMaxOutWeights:
    def test_weights_from_largest_outgoing(self, fork):
        losses = fork_losses(fork, si=2, sj=1, jk=3, it=4, jt=0, kt=5)
        # offset u=5; marks (7, 9, 8, 10, 0), sum 34; path total 6
        vec = apply_rule(make_rule("phi2", fork), path_of(fork, "s", "i", "t"), losses)
        expect = tuple(Fraction(6 * m, 34) for m in (7, 9, 8, 10, 0))
        assert vec.values == expect

    def test_scale_invariant_split_exactly(self, fork):
        losses = fork_losses(fork, si=2, sj=1, jk=3, it=4, jt=0, kt=5)
        lam = Fraction(7, 3)
        scaled = {e: lam * v for e, v in losses.items()}
        p = path_of(fork, "s", "i", "t")
        rule = make_rule("phi2", fork)
        base = apply_rule(rule, p, losses).values
        big = apply_rule(rule, p, scaled).values
        assert big == tuple(lam * x for x in base)

    def test_depends_on_off_path_losses(self, fork):
        losses = fork_losses(fork, si=2, sj=1, jk=3, it=4, jt=0, kt=5)
        tweaked = dict(losses)
        tweaked[(fork.index("k"), fork.index("t"))] = 11
        p = path_of(fork, "s", "i", "t")
        rule = make_rule("phi2", fork)
        assert path_loss(losses, p) == path_loss(tweaked, p)
        assert apply_rule(rule, p, losses).values != apply_rule(rule, p, tweaked).values

    def test_zero_losses_zero_vector(self, fork):
        losses = {e: 0 for e in fork.edges}
        vec = apply_rule(make_rule("phi2", fork), path_of(fork, "s", "j", "k", "t"), losses)
        assert all(x == 0 for x in vec.values)


class TestOnPathAlpha:
    def test_fork_shares(self, fork):
        # longest path has 4 nodes, so each on-path agent pays T/4
        losses = fork_losses(fork, si=2, sj=1, jk=3, it=4, jt=0, kt=5)
        vec = apply_rule(make_rule("phi3", fork), path_of(fork, "s", "i", "t"), losses)
        on = Fraction(6, 4)
        off = (1 - 3 * Fraction(1, 4)) / 2 * 6
        assert vec.as_dict(fork) == pytest.approx(
            {"s": float(on), "i": float(on), "t": float(on), "j": float(off), "k": float(off)}
        )
        assert vec[fork.index("j")] == Fraction(3, 4)

    def test_sink_on_path_pays(self, fork):
        losses = {e: 1 for e in fork.edges}
        vec = apply_rule(make_rule("phi3", fork), path_of(fork, "s", "j", "t"), losses)
        assert vec[fork.index("t")] == Fraction(2, 4)

    def test_full_cover_path_leaves_no_remainder(self):
        dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t")])
        losses = {e: 5 for e in dag.edges}
        vec = apply_rule(make_rule("phi3", dag), path_of(dag, "s", "a", "t"), losses)
        assert vec.values == (Fraction(10, 3),) * 3
        assert vec.total == 10


class TestSqrtSource:
    def test_formula(self, fork):
        losses = fork_losses(fork, si=2, sj=1, jk=3, it=4, jt=0, kt=5)
        vec = apply_rule(make_rule("phi5", fork), path_of(fork, "s", "i", "t"), losses)
        w = 1 / (7.0) ** 0.5  # total 6
        assert vec[fork.index("s")] == pytest.approx(w * 6)
        for label in ("i", "j", "k", "t"):
            assert vec[fork.index(label)] == pytest.approx((1 - w) * 6 / 4)

    def test_source_payment_tracks_total(self, fork):
        rule = make_rule("phi5", fork)
        small = apply_rule(rule, path_of(fork, "s", "i", "t"), {e: 1 for e in fork.edges})
        big = apply_rule(rule, path_of(fork, "s", "i", "t"), {e: 4 for e in fork.edges})
        assert big[fork.index("s")] > small[fork.index("s")]


class TestLocal:
    def test_each_pays_own_edge(self, chain3):
        dag, losses = chain3
        vec = apply_rule(make_rule("local", dag), path_of(dag, "s", "n1", "n2", "t"), losses)
        assert vec.as_dict(dag) == {"s": 1.0, "n1": 1.0, "n2": 1.0, "t": 0.0}

    def test_shortcut_path(self, chain3):
        dag, losses = chain3
        vec = apply_rule(make_rule("local", dag), path_of(dag, "s", "t"), losses)
        assert vec.as_dict(dag) == {"s": 1.5, "n1": 0.0, "n2": 0.0, "t": 0.0}


class TestPunishFirst:
    def test_efficient_path_split_equally(self, chain3):
        dag, losses = chain3
        vec = apply_rule(make_rule("punish-first", dag), path_of(dag, "s", "t"), losses)
        assert tuple(map(float, vec.values)) == (0.375, 0.375, 0.375, 0.375)

    def test_first_inefficient_step_blamed(self, chain3):
        dag, losses = chain3
        vec = apply_rule(
            make_rule("punish-first", dag), path_of(dag, "s", "n1", "n2", "t"), losses
        )
        assert vec.as_dict(dag) == {"s": 3.0, "n1": 0.0, "n2": 0.0, "t": 0.0}

    def test_blame_lands_mid_path(self):
        # s->a efficient, then a picks the strictly worse branch
        dag = build_dag(
            ["s", "a", "t1", "t2"],
            [("s", "a"), ("a", "t1"), ("a", "t2")],
        )
        losses = {
            (dag.index("s"), dag.index("a")): 1,
            (dag.index("a"), dag.index("t1")): 0,
            (dag.index("a"), dag.index("t2")): 5,
        }
        vec = apply_rule(make_rule("punish-first", dag), path_of(dag, "s", "a", "t2"), losses)
        assert vec.as_dict(dag) == {"s": 0.0, "a": 6.0, "t1": 0.0, "t2": 0.0}


class TestTies:
    """A bound rule's `ties`, the one tie decision under its losses."""

    def test_each_bind_makes_its_own(self, chain3):
        dag, _ = chain3
        ints = {e: 1 for e in dag.edges}
        floats = {e: 1.0 for e in dag.edges}
        bound = make_rule("punish-first", dag).bind(ints)
        rebound = bound.bind(floats)  # copies the bound rule's attributes
        assert (bound.ties.tol, rebound.ties.tol) == (0, 1e-9)
        assert bound.ties.losses is ints and rebound.ties.losses is floats

    def test_bound_rule_pickles_after_a_solve(self, chain3):
        dag, losses = chain3
        bound = make_rule("punish-first", dag).bind(losses)
        assert spe_solve(dag, losses, bound).coincides()
        copy = pickle.loads(pickle.dumps(bound))
        assert copy.foreclosing == bound.foreclosing
        tight = [bound.ties.tight(*e) for e in dag.edges]
        assert [copy.ties.tight(*e) for e in dag.edges] == tight


class TestApplyRuleValidation:
    def test_rejects_wrong_start(self, fork):
        losses = {e: 1 for e in fork.edges}
        bad = Path((fork.index("i"), fork.index("t")))
        with pytest.raises(GraphError):
            apply_rule(make_rule("fixed:equal", fork), bad, losses)

    def test_rejects_missing_edge(self, fork):
        losses = {e: 1 for e in fork.edges}
        bad = Path((fork.index("s"), fork.index("k"), fork.index("t")))
        with pytest.raises(GraphError, match=r"^path uses missing edge \('s', 'k'\)$"):
            apply_rule(make_rule("fixed:equal", fork), bad, losses)

    @pytest.mark.parametrize("inner", [-1, 5, 99])
    def test_out_of_range_inner_node_named_as_index(self, fork, inner):
        # -1 must not read as the last node, t, nor 99 raise IndexError
        losses = {e: 1 for e in fork.edges}
        bad = Path((fork.index("s"), inner, fork.index("t")))
        with pytest.raises(GraphError, match=rf"^path uses missing edge \('s', {inner}\)$"):
            apply_rule(make_rule("fixed:equal", fork), bad, losses)

    def test_rejects_non_sink_end(self, fork):
        losses = {e: 1 for e in fork.edges}
        bad = Path((fork.index("s"), fork.index("j")))
        with pytest.raises(GraphError):
            apply_rule(make_rule("fixed:equal", fork), bad, losses)

    def test_rejects_repeated_node(self, fork):
        losses = {e: 1 for e in fork.edges}
        bad = path_of(fork, "s", "j", "j", "t")
        with pytest.raises(GraphError, match="path repeats a node"):
            apply_rule(make_rule("fixed:equal", fork), bad, losses)

    def test_rejects_partial_losses(self, fork):
        losses = {e: 1 for e in fork.edges}
        losses.pop((fork.index("k"), fork.index("t")))
        with pytest.raises(GraphError):
            apply_rule(make_rule("fixed:equal", fork), path_of(fork, "s", "i", "t"), losses)


_UNBALANCED_SCRIPT = """
from liabnet.graph import Path, build_dag
from liabnet.rules import Rule, RuleSpecError, apply_rule


class Leaky(Rule):
    def split(self, path, total):
        return (0,) * self.dag.n


dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t")])
try:
    apply_rule(Leaky(dag, "leaky"), Path((0, 1, 2)), {(0, 1): 1, (1, 2): 1})
except RuleSpecError as exc:
    print("raised:", exc)
"""


def _run_script(script: str, *flags: str) -> str:
    """Stdout of `script` run by a fresh interpreter with `flags`."""
    src = FsPath(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_unbalanced_rule_raises_under_optimize():
    # the balance guard must not be an assert, which python -O strips
    out = _run_script(_UNBALANCED_SCRIPT, "-O")
    assert out.startswith("raised: unbalanced liabilities from leaky")


_SIGN_GUARD_SCRIPT = """
from fractions import Fraction
from liabnet.graph import Path, build_dag
from liabnet.rules import Rule, RuleSpecError, apply_rule


class Leaky(Rule):
    # balanced: the agent at index 1 holds a tiny negative share
    def split(self, path, total):
        return (2 - self.eps, self.eps, 0)


dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t")])
for eps in (Fraction(-1, 10**13), Fraction(-1, 10**11)):
    rule = Leaky(dag, "leaky")
    rule.eps = eps
    try:
        apply_rule(rule, Path((0, 1, 2)), {(0, 1): 1, (1, 2): 1})
        print("accepted")
    except RuleSpecError as exc:
        print("raised:", exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_sign_guard_threshold(flags):
    # the guard admits rounding residue down to -1e-12, compared exactly
    # against Fraction values; python -O must not drop it
    assert _run_script(_SIGN_GUARD_SCRIPT, *flags).splitlines() == [
        "accepted", "raised: negative liability from leaky"
    ]


def test_rule_without_split_raises():
    # `split` is the one method a rule kind implements; a subclass without
    # it fails at once rather than in a recursion between two defaults
    class Bare(Rule):
        pass

    dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t")])
    losses = {(0, 1): 1, (1, 2): 1}
    with pytest.raises(NotImplementedError, match="Bare defines no split"):
        apply_rule(Bare(dag, "bare"), Path((0, 1, 2)), losses)
    with pytest.raises(NotImplementedError, match="Bare defines no split"):
        Bare(dag, "bare").bind(losses).vector(Path((0, 1, 2)))


class _Given(Rule):
    """Returns the split it was given, whatever the path."""

    def split(self, path, total):
        return self.given


def _float_verdict(values, total) -> str | None:
    """The balance and sign test `apply_rule` ran on every split before it
    tested int and `Fraction` splits in integers: the message it raised, or
    None when it accepted the split."""
    slack = 1e-9 * max(1.0, abs(float(total)))
    if not all(x >= 0 or x >= -1e-12 for x in values):
        return "negative liability from given"
    if not abs(float(sum(values) - total)) <= slack:
        return (
            "unbalanced liabilities from given: "
            f"{float(sum(values))} vs {float(total)}"
        )
    return None


# shifts around and across the float test's thresholds: -1e-12 for a value,
# 1e-9 * max(1, |total|) for the balance
_SHIFTS = [
    Fraction(1, 10**13), Fraction(-1, 10**13), Fraction(1, 10**11), Fraction(-1, 10**11),
    Fraction(1, 10**10), Fraction(-1, 10**8), Fraction(3, 10**4), Fraction(1, 10),
    Fraction(-1, 10), 1, -1, 1e-13, -1e-10, 1e-8, float("nan"),
]
_LOSSES = {
    "int": st.integers(0, 100),
    "fraction": st.fractions(0, 100, max_denominator=97),
    "float": st.floats(0, 100),
}


@st.composite
def drawn_splits(draw):
    """(losses on s->a->t, a split of the path's total over s, a, t): a
    balanced split of ints, `Fraction`s, floats or a mix, then shifted at
    one value, or moved from one value to another."""
    kind = draw(st.sampled_from(["int", "fraction", "mixed", "float"]))
    loss = _LOSSES[kind if kind != "mixed" else draw(st.sampled_from(sorted(_LOSSES)))]
    losses = {(0, 1): draw(loss), (1, 2): draw(loss)}
    total = losses[(0, 1)] + losses[(1, 2)]
    if kind == "int":
        first = draw(st.integers(0, total))
        parts = [first, draw(st.integers(0, total - first))]
    else:
        a = draw(st.fractions(0, 1, max_denominator=12))
        b = draw(st.fractions(0, 1 - a, max_denominator=12))
        parts = [a * total, b * total]
    parts.append(total - parts[0] - parts[1])
    if kind == "mixed":
        casts = draw(st.lists(st.sampled_from([int, float, None]), min_size=3, max_size=3))
        parts = [
            cast(x) if cast is float or (cast is int and x == int(x)) else x
            for cast, x in zip(casts, parts)
        ]
    shift = draw(st.one_of(st.just(0), st.sampled_from(_SHIFTS)))
    i, j = draw(st.permutations(range(3)))[:2]
    parts[i] += shift
    if draw(st.booleans()):
        parts[j] -= shift
    return losses, tuple(parts)


_ONE_EACH = {(0, 1): 1, (1, 2): 1}


@given(drawn_splits())
@example((_ONE_EACH, (3, -1, 0)))
@example((_ONE_EACH, (1, 1, 1)))
@example((_ONE_EACH, (Fraction(5, 2), Fraction(-1, 2), 0)))
@example((_ONE_EACH, (Fraction(1, 3), Fraction(2, 3), Fraction(1))))
@example((_ONE_EACH, (2 + Fraction(1, 10**13), Fraction(-1, 10**13), 0)))
def test_verdict_matches_float_test(drawn):
    # the integer test accepts only what the float test accepts, and every
    # split it does not accept meets the float test unchanged
    losses, split = drawn
    dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t")])
    rule = _Given(dag, "given")
    rule.given = split
    path = Path((0, 1, 2))
    want = _float_verdict(split, path_loss(losses, path))
    try:
        got = apply_rule(rule, path, losses)
    except RuleSpecError as exc:
        assert str(exc) == want
    else:
        assert want is None
        assert got.values is split


class TestSplitTestedOnce:
    """A bound rule tests each split tuple once per total: the same tuple
    with the same total is not tested again, and anything else is."""

    LOSSES = {(0, 1): 1, (1, 2): 1, (0, 2): 3}

    @staticmethod
    def bound(split):
        # s->a->t totals 2, s->t totals 3
        dag = build_dag(["s", "a", "t"], [("s", "a"), ("a", "t"), ("s", "t")])
        rule = _Given(dag, "given").bind(TestSplitTestedOnce.LOSSES)
        rule.given = split
        return rule

    def test_same_tuple_tested_once(self, monkeypatch):
        calls = []
        balanced = liabnet.rules._exactly_balanced
        monkeypatch.setattr(
            liabnet.rules, "_exactly_balanced", lambda *a: calls.append(a) or balanced(*a)
        )
        rule = self.bound((1, 1, 0))
        for _ in range(3):
            assert apply_rule(rule, Path((0, 1, 2)), self.LOSSES).values == (1, 1, 0)
        assert len(calls) == 1
        # a fresh binding starts with nothing passed
        apply_rule(rule.bind(dict(self.LOSSES)), Path((0, 1, 2)), self.LOSSES)
        assert len(calls) == 2

    def test_fresh_unbalanced_tuple_of_a_passed_total_raises(self):
        rule = self.bound((1, 1, 0))
        apply_rule(rule, Path((0, 1, 2)), self.LOSSES)
        for _ in range(2):
            rule.given = (2, 1, 0)
            with pytest.raises(RuleSpecError, match="unbalanced liabilities from given"):
                apply_rule(rule, Path((0, 1, 2)), self.LOSSES)
        rule.given = tuple([1, 1, 0])
        assert apply_rule(rule, Path((0, 1, 2)), self.LOSSES).values == (1, 1, 0)

    def test_passed_tuple_with_another_total_raises(self):
        rule = self.bound((1, 1, 0))
        apply_rule(rule, Path((0, 1, 2)), self.LOSSES)
        with pytest.raises(RuleSpecError, match="unbalanced liabilities from given"):
            apply_rule(rule, Path((0, 2)), self.LOSSES)

    def test_failing_tuple_raises_every_time(self):
        rule = self.bound((0, 3, -1))
        for _ in range(2):
            with pytest.raises(RuleSpecError, match="negative liability from given"):
                apply_rule(rule, Path((0, 1, 2)), self.LOSSES)


class TestPerTotalSplits:
    """A bound fixed-weight rule splits each distinct total once."""

    @staticmethod
    def parallel():
        # three two-edge paths whose totals are 3, 3.0 and Fraction(3)
        dag = build_dag(
            ["s", "a", "b", "c", "t"],
            [("s", "a"), ("s", "b"), ("s", "c"), ("a", "t"), ("b", "t"), ("c", "t")],
        )
        x = dag.index
        losses = {
            (x("s"), x("a")): 1, (x("a"), x("t")): 2,
            (x("s"), x("b")): 1.0, (x("b"), x("t")): 2,
            (x("s"), x("c")): Fraction(1), (x("c"), x("t")): 2,
        }
        return dag, losses, [path_of(dag, "s", m, "t") for m in "abc"]

    @pytest.mark.parametrize("spec", ["fixed:wstar", "fixed:equal", "phi1", "phi2"])
    def test_equal_totals_of_each_type(self, spec):
        dag, losses, paths = self.parallel()
        rule = make_rule(spec, dag)
        # a split from a fresh binding, before anything is memoized
        want = [rule.bind(dict(losses)).vector(p) for p in paths]
        assert [type(x) for x in want[1]] != [type(x) for x in want[0]]
        for order in ([0, 1, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]):
            bound = rule.bind(dict(losses))
            got = {k: bound.vector(paths[k]) for k in order}
            for k in order:
                assert got[k] == want[k]
                assert [type(x) for x in got[k]] == [type(x) for x in want[k]]

    def test_one_split_per_total(self, fork):
        losses = {e: 1 for e in fork.edges}
        bound = make_rule("fixed:wstar", fork).bind(losses)
        paths = enumerate_paths(fork)
        ties = [p for p in paths if path_loss(losses, p) == 2]
        assert len(ties) == 2
        assert bound.vector(ties[0]) is bound.vector(ties[1])

    @pytest.mark.parametrize("spec", ["fixed:wstar", "phi2"])
    def test_rebinding_splits_anew(self, fork, spec):
        p = path_of(fork, "s", "i", "t")
        first = fork_losses(fork, si=2, sj=1, jk=3, it=4, jt=0, kt=5)
        # the same total on p, another off p; then another total on p
        for second in (
            {**first, (fork.index("k"), fork.index("t")): 11},
            {**first, (fork.index("i"), fork.index("t")): 7},
        ):
            bound = make_rule(spec, fork).bind(first)
            before = bound.vector(p)
            fresh = make_rule(spec, fork).bind(second).vector(p)
            if spec == "phi2" or path_loss(second, p) != path_loss(first, p):
                assert fresh != before
            assert bound.bind(second).vector(p) == fresh
            assert bound.vector(p) == before


class TestBalanceEverywhere:
    @given(small_games())
    def test_every_rule_kind_balanced_nonnegative(self, game):
        # int and Fraction losses: every split is exact except phi5's floats
        dag, losses = game
        for spec in ALL_RULE_SPECS:
            rule = make_rule(spec, dag).bind(losses)
            for p in enumerate_paths(dag):
                values = apply_rule(rule, p, losses).values
                assert all(x >= 0 for x in values), spec
                total = path_loss(losses, p)
                if spec == "phi5":
                    assert float(sum(values)) == pytest.approx(float(total)), spec
                else:
                    assert sum(values) == total, spec

    def test_all_rules_balanced_nonnegative_on_randoms(self):
        rng = random.Random(4021)
        specs = ["fixed:wstar", "fixed:equal", "phi1", "phi2", "phi3", "phi5", "local", "punish-first"]
        for _ in range(40):
            dag = random_dag(rng)
            losses = random_losses(rng, dag)
            paths = enumerate_paths(dag)
            for spec in specs:
                rule = make_rule(spec, dag)
                for p in paths:
                    vec = apply_rule(rule, p, losses)  # asserts internally
                    assert all(float(x) >= -1e-12 for x in vec.values)
                    assert float(vec.total) == pytest.approx(
                        float(path_loss(losses, p)), abs=1e-9
                    )


class TestIrreducibleExtension:
    def test_fork_example(self, fork):
        losses = fork_losses(fork, si=1, sj=9, jk=9, it=1, jt=9, kt=9)
        path = path_of(fork, "s", "i", "t")
        ext = irreducible_extension(fork, path, losses)
        expect = fork_losses(fork, si=1, it=1, sj=0, jk=0, jt=2, kt=2)
        assert ext == expect

    def test_agrees_on_path_and_ties_everything(self):
        rng = random.Random(515)
        for _ in range(60):
            dag = random_dag(rng)
            losses = random_losses(rng, dag)
            paths = enumerate_paths(dag)
            path = rng.choice(paths)
            total = path_loss(losses, path)
            ext = irreducible_extension(dag, path, losses)
            assert set(ext) == set(dag.edges)
            assert all(v >= 0 for v in ext.values())
            for q in paths:
                assert path_loss(ext, q) == total
            res = efficient_paths(dag, ext)
            assert res.min_cost == total
            assert res.path_set() == {q.nodes for q in paths}

    def test_path_edges_preserved_between_interior_nodes(self, fork):
        # prefix potentials reproduce the original losses on interior steps
        losses = fork_losses(fork, si=1, sj=2, jk=3, it=4, jt=5, kt=6)
        path = path_of(fork, "s", "j", "k", "t")
        ext = irreducible_extension(fork, path, losses)
        sj = (fork.index("s"), fork.index("j"))
        jk = (fork.index("j"), fork.index("k"))
        assert ext[sj] == losses[sj]
        assert ext[jk] == losses[jk]

    def test_invalid_path_rejected(self, fork):
        losses = {e: 1 for e in fork.edges}
        with pytest.raises(GraphError):
            irreducible_extension(fork, Path((fork.index("s"), fork.index("k"))), losses)


def _line4():
    dag = build_dag(
        ["s", "a", "b", "t"],
        [("s", "a"), ("a", "b"), ("b", "t"), ("s", "t")],
    )
    return dag, None
