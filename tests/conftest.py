from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from liabnet.game import profile_count
from liabnet.generators import randbelow, random_dag
from liabnet.graph import Dag, build_dag, count_paths
from liabnet.io import load_graph_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Property tests replay the same examples on every run and have no
# per-example deadline, so a slow phase of the host cannot fail them.
settings.register_profile(
    "liabnet", derandomize=True, deadline=None, max_examples=150, database=None
)
settings.load_profile("liabnet")

# every rule spec the grammar names except fixed:file, which reads weights
# from a file; a rule on explicit weights is built with `rules.fixed_rule`
ALL_RULE_SPECS = [
    "fixed:wstar", "fixed:equal", "local", "phi1", "phi2", "phi3", "phi5",
    "punish-first",
]

# every field of a Dag, for field-by-field comparisons
DAG_FIELDS = ("labels", "edges", "succ", "pred", "source", "sinks", "_index")

# exact losses: ints and small-denominator fractions, few distinct values so
# ties and indifferences are common
exact_losses = st.integers(0, 6) | st.fractions(0, 6, max_denominator=3)


@st.composite
def small_games(draw, max_profiles: int = 300):
    """A `random_dag` from a drawn seed with exact losses drawn per edge,
    small enough for `spe_bruteforce`."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dag = random_dag(rng, 3, 6, draw(st.sampled_from([0.2, 0.4, 0.6])))
    assume(profile_count(dag) <= max_profiles)
    losses = {e: draw(exact_losses) for e in dag.edges}
    return dag, losses


def ladder(stages: int):
    """All-ties ladder: s, two nodes per stage, t, complete links between
    consecutive stages, unit losses; every one of its 2^stages paths ties."""
    labels = ["s"] + [f"{c}{k}" for k in range(1, stages + 1) for c in "ab"] + ["t"]
    edges = [("s", "a1"), ("s", "b1"), (f"a{stages}", "t"), (f"b{stages}", "t")]
    edges += [
        (f"{c}{k}", f"{d}{k + 1}") for k in range(1, stages) for c in "ab" for d in "ab"
    ]
    dag = build_dag(labels, edges)
    return dag, {e: 1 for e in dag.edges}


def random_dag_with_paths(
    rng: random.Random,
    min_nonsinks: int,
    max_nonsinks: int,
    max_paths: int,
    density: float = 0.4,
) -> Dag:
    """Random DAG whose non-sink count and path count fall in given bounds,
    from the first of 1,000 draws that does."""
    for _ in range(1000):
        # A couple of extra nodes leaves room for sinks.
        dag = random_dag(rng, min_nonsinks + 1, max_nonsinks + 3, density)
        nonsinks = dag.n - len(dag.sinks)
        if min_nonsinks <= nonsinks <= max_nonsinks and count_paths(dag) <= max_paths:
            return dag
    raise RuntimeError("could not generate a DAG within bounds")


def random_simplex_weights(
    rng: random.Random, dag: Dag, positive_deciders: bool = True
) -> dict[int, Fraction]:
    """Random rational point of the simplex over all nodes.

    With `positive_deciders`, every node with out-degree >= 2 gets a strictly
    positive weight; other nodes may draw 0.
    """
    deciders = set(dag.deciders())
    raw = []
    for i in range(dag.n):
        lo = 1 if (positive_deciders and i in deciders) else 0
        raw.append(lo + randbelow(rng, 10 - lo)[0])
    if sum(raw) == 0:
        raw[dag.source] = 1
    total = sum(raw)
    return {i: Fraction(raw[i], total) for i in range(dag.n)}


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str):
    return load_graph_file(FIXTURES / name)


@pytest.fixture(scope="session")
def fork():
    return load_fixture("fork.json")[0]


@pytest.fixture(scope="session")
def chain3():
    return load_fixture("chain_bypass_3.json")


@pytest.fixture(scope="session")
def chain10():
    return load_fixture("chain_bypass_10.json")


@pytest.fixture(scope="session")
def grid3():
    return load_fixture("grid3.json")[0]


@pytest.fixture(scope="session")
def grid20():
    return load_fixture("grid20.json")[0]


@pytest.fixture(scope="session")
def shortcut():
    return load_fixture("shortcut_line.json")[0]


@pytest.fixture(scope="session")
def diamond():
    return load_fixture("bypass_diamond.json")[0]


@pytest.fixture(scope="session")
def tiers():
    return load_fixture("tiers_1_3_2_3.json")[0]


def fixture_json(name: str) -> dict:
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def game_of(labels, loss):
    """A graph on `labels` and its losses, from a (from, to) -> loss map."""
    dag = build_dag(labels, list(loss))
    return dag, {(dag.index(u), dag.index(v)): x for (u, v), x in loss.items()}


# phi1 puts every weight on s: b keeps both its totals, 0.0 and 1.0, and a
# keeps two states, of totals 0.0 (via b and c) and 1.0 (via b); s's step of
# 1e16 rounds both to 1e16, so s's one state links both of a's, and the
# walk lists s-a-b-t1, s-a-c-t1, s-a-b-t2
ROUNDED_MERGE = game_of(["s", "a", "b", "c", "t1", "t2"], {
    ("s", "a"): 1e16, ("a", "b"): 0.0, ("a", "c"): 0.0,
    ("b", "t1"): 0.0, ("b", "t2"): 1.0, ("c", "t1"): 0.0,
})
# with every weight on b, s and a care for no total and keep one state per
# distinct total: a's of 4 and 0, and three at s, the roots, of 5, 1 and 4
SPLIT_ROOTS = game_of(["s", "a", "b", "t"], {
    ("s", "a"): 1, ("s", "b"): 2, ("a", "b"): 2, ("a", "t"): 0, ("b", "t"): 2,
})


def near_tie_game(rng: random.Random, magnitude: float):
    """From r, one edge to s, then two 4-edge paths s-a1-a2-a3-t and
    s-b1-b2-b3-t whose 3-decimal float losses are the same four in reverse
    order, so their sums tie up to rounding, plus two dearer cross edges
    a1-b2 and b1-a2. The tie is decided after a history with a loss of its
    own, which every compared total includes. With `random.Random(0)` at
    1e8 it is `tools/identity.py`'s near_tie_1e8.json."""
    dag = build_dag(
        ["r", "s", "a1", "b1", "a2", "b2", "a3", "b3", "t"],
        [("r", "s"), ("s", "a1"), ("s", "b1"), ("a1", "a2"), ("a1", "b2"),
         ("b1", "b2"), ("b1", "a2"), ("a2", "a3"), ("b2", "b3"), ("a3", "t"),
         ("b3", "t")],
    )
    v, w, x, y, z = (round(rng.uniform(0, magnitude), 3) for _ in range(5))
    r, s, a1, b1, a2, b2, a3, b3, t = range(9)
    losses = {
        (r, s): v,
        (s, a1): w, (a1, a2): x, (a2, a3): y, (a3, t): z,
        (s, b1): z, (b1, b2): y, (b2, b3): x, (b3, t): w,
        (a1, b2): x + magnitude, (b1, a2): y + magnitude,
    }
    return dag, losses
