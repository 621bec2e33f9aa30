from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import settings

from liabnet.io import load_graph_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Property tests replay the same examples on every run and have no
# per-example deadline, so a slow phase of the host cannot fail them.
settings.register_profile(
    "liabnet", derandomize=True, deadline=None, max_examples=150, database=None
)
settings.load_profile("liabnet")


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
