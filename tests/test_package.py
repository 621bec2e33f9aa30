"""The package namespace: `import liabnet` loads no submodule, each CLI
command loads only the modules it runs, and every package error is a
`LiabnetError` that the CLI reports with exit code 2."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liabnet
import liabnet.cli as cli
from liabnet.axioms import AxiomError
from liabnet.game import GameError
from liabnet.graph import GraphError, GraphValidationError, PathCapExceeded
from liabnet.io import FormatError
from liabnet.rules import RuleSpecError
from liabnet.sim import SimError
from liabnet.weights import WeightsError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FORK = str(ROOT / "fixtures" / "fork.json")
FLAGS = pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])

# the names the package bound when it imported its modules eagerly
EAGER = {
    "axioms": (
        "AXIOMS", "PROPERTIES", "AxiomError", "CheckReport", "check_axiom",
        "check_property", "impossibility_scenario",
    ),
    "game": (
        "GameError", "ProfileCapExceeded", "RobustnessResult", "SpeSolution",
        "check_robust_efficiency", "history_count", "profile_count",
        "spe_bruteforce", "spe_outcomes", "spe_solve",
    ),
    "graph": (
        "Dag", "EfficiencyResult", "GraphError", "GraphValidationError", "Path",
        "PathCapExceeded", "ValidationReport", "build_dag", "continuation_costs",
        "count_paths", "efficient_paths", "enumerate_paths", "path_loss",
        "reachable_subgraph", "validate",
    ),
    "rules": (
        "LiabilityVector", "Rule", "RuleSpecError", "apply_rule", "fixed_rule",
        "irreducible_extension", "make_rule",
    ),
    "weights": (
        "PathCountTables", "WeightVector", "WeightsError", "core_check",
        "path_count_tables", "path_counting_value", "shapley_bruteforce",
        "wstar_dp", "wstar_enumerate",
    ),
}
# and the simulation's, which it served on first access
SIM_EXPORTS = (
    "HourglassGraph", "LayeredGraphSpec", "SimConfig", "SimError", "SimStats",
    "generate_hourglass", "gini", "run_simulation",
)
# what `from liabnet import *` bound: the eager names and the submodules
# their imports loaded (and `importlib`, no longer)
STAR_NAMES = {
    *(name for names in EAGER.values() for name in names),
    "axioms", "game", "generators", "graph", "rules", "weights",
}
# modules no command but `simulate` loads: the simulation's, and the
# `dataclasses` machinery with the `inspect` it imports
HEAVY = ("numpy", "multiprocessing", "concurrent.futures", "dataclasses", "inspect")


def run_probe(flags, body):
    """Run `body` in a fresh interpreter, then list the `liabnet` modules
    and those of HEAVY that are loaded. Returns every JSON line printed,
    that list last; the verdict is in them, which `python -O` leaves
    alone."""
    script = (
        "import contextlib, json, os, sys\n"
        f"{body}\n"
        "print(json.dumps({'liabnet': sorted(m for m in sys.modules\n"
        "                                    if m.split('.')[0] == 'liabnet'),\n"
        f"                  'heavy': [m for m in {HEAVY!r} if m in sys.modules]}}))\n"
    )
    done = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def modules_after_command(flags, argv):
    body = (
        "from liabnet.cli import main\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        f"    code = main({argv!r})\n"
        "assert code == 0, code\n"
    )
    probe = run_probe(flags, body)[-1]
    assert probe["heavy"] == []
    loaded = probe["liabnet"]
    assert {"liabnet", "liabnet.cli", "liabnet.graph", "liabnet.io"} <= set(loaded)
    return {m.split(".", 1)[1] for m in loaded if "." in m} - {"cli", "graph", "io"}


@pytest.fixture(scope="module")
def losses_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("losses") / "fork_losses.json"
    path.write_text(json.dumps(
        {"s->i": 3, "s->j": 1, "j->k": 1, "i->t": 1, "j->t": 2, "k->t": 1}
    ))
    return str(path)


@FLAGS
def test_import_loads_no_numpy_or_process_pool(flags):
    # a fresh interpreter, since this one may have loaded liabnet.sim already;
    # the verdict is the exit code, which python -O leaves alone
    script = (
        "import sys\n"
        "import liabnet, liabnet.cli\n"
        "loaded = [m for m in ('numpy', 'multiprocessing', 'concurrent.futures')\n"
        "          if m in sys.modules]\n"
        "sys.exit('loaded: ' + ', '.join(loaded) if loaded else 0)\n"
    )
    done = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_sim_exports_resolve_to_the_sim_module():
    assert liabnet.run_simulation is liabnet.sim.run_simulation
    from liabnet import SimError

    assert SimError is liabnet.sim.SimError
    for name in SIM_EXPORTS:
        assert getattr(liabnet, name) is getattr(liabnet.sim, name)


def test_dir_lists_the_sim_names():
    names = dir(liabnet)
    assert set(SIM_EXPORTS) <= set(names)
    assert "sim" in names
    assert "wstar_dp" in names


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        liabnet.no_such_name
    assert not hasattr(liabnet, "summary_dict")


class TestLoadedModules:
    @FLAGS
    def test_import_package_loads_no_submodule(self, flags):
        assert run_probe(flags, "import liabnet") == [
            {"liabnet": ["liabnet"], "heavy": []},
        ]

    @FLAGS
    def test_import_cli_loads_graph_and_io_only(self, flags):
        assert run_probe(flags, "import liabnet.cli") == [
            {"liabnet": ["liabnet", "liabnet.cli", "liabnet.graph", "liabnet.io"],
             "heavy": []},
        ]

    @FLAGS
    @pytest.mark.parametrize("argv", [
        ["validate", FORK],
        ["paths", FORK],
        ["efficient", FORK, "--losses", "LOSSES"],
    ], ids=["validate", "paths", "efficient"])
    def test_graph_commands_load_nothing_more(self, flags, argv, losses_file):
        argv = [losses_file if a == "LOSSES" else a for a in argv]
        assert modules_after_command(flags, argv) == set()

    @FLAGS
    def test_weights_adds_the_weights_module_only(self, flags):
        assert modules_after_command(flags, ["weights", FORK]) == {"weights"}

    @FLAGS
    @pytest.mark.parametrize("command", ["spe", "liability"])
    def test_rule_commands_load_no_audit(self, flags, command, losses_file):
        argv = [command, FORK, "--rule", "fixed:wstar", "--losses", losses_file]
        if command == "liability":
            argv += ["--path", "s,j,k,t"]
        loaded = modules_after_command(flags, argv)
        assert {"rules", "weights"} <= loaded
        assert not loaded & {"axioms", "generators", "sim"}

    @FLAGS
    def test_check_loads_the_audit_but_not_the_simulation(self, flags):
        argv = ["check", FORK, "--axiom", "EI", "--rule", "fixed:wstar", "--trials", "1"]
        loaded = modules_after_command(flags, argv)
        assert {"axioms", "game", "generators", "rules", "weights"} <= loaded
        assert "sim" not in loaded


class TestNamespace:
    def test_every_name_resolves_to_its_module(self):
        names = dir(liabnet)
        for module, exported in EAGER.items():
            home = getattr(liabnet, module)
            assert home is sys.modules[f"liabnet.{module}"]
            for name in exported:
                assert getattr(liabnet, name) is getattr(home, name), name
                assert name in names, name
        assert liabnet.AXIOMS is liabnet.axioms.AXIOMS
        assert "sim" in names and "cli" in names

    def test_submodules_are_served_by_name(self):
        # the import system binds a submodule as it loads it, so only one
        # not yet loaded reaches the hook; call it directly
        for name in ("axioms", "cli", "generators", "io", "sim"):
            assert liabnet.__getattr__(name) is sys.modules[f"liabnet.{name}"]

    @FLAGS
    def test_star_import_binds_the_eager_names_without_numpy(self, flags):
        body = (
            "ns = {}\n"
            "exec('from liabnet import *', ns)\n"
            "print(json.dumps(sorted(set(ns) - {'__builtins__'})))"
        )
        bound, loaded = run_probe(flags, body)
        assert set(bound) == STAR_NAMES | {"LiabnetError"}
        assert "liabnet.sim" not in loaded["liabnet"]
        assert loaded["heavy"] == []


ERRORS = (
    GraphError, GraphValidationError, PathCapExceeded, FormatError,
    RuleSpecError, WeightsError, GameError, AxiomError, SimError, cli.CliError,
)


class TestErrors:
    @pytest.mark.parametrize("error", ERRORS, ids=lambda e: e.__name__)
    def test_derives_from_the_base(self, error):
        assert issubclass(error, liabnet.LiabnetError)

    @pytest.mark.parametrize("error", ERRORS, ids=lambda e: e.__name__)
    def test_handler_error_exits_2_with_one_line(self, error, capsys, monkeypatch):
        def handler(args):
            raise error("bad input")

        monkeypatch.setitem(cli._HANDLERS, "validate", handler)
        assert cli.main(["validate", FORK]) == cli.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: bad input\n"

    def test_other_errors_propagate(self, monkeypatch):
        def handler(args):
            raise ValueError("a bug")

        monkeypatch.setitem(cli._HANDLERS, "validate", handler)
        with pytest.raises(ValueError, match="a bug"):
            cli.main(["validate", FORK])

    @pytest.mark.parametrize("flag, ids", [
        ("--axiom", "'EI', 'RLD', 'PCP', 'SI'"),
        ("--property", "'DOWNSTREAM_MONO', 'EFF_PATH_INV', 'REDISTRIBUTION_INV', "
                       "'PATH_INDEP', 'TOTAL_LOSS_DEP'"),
    ])
    def test_unknown_check_id_lists_the_ids(self, flag, ids, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", flag, "NOPE", "--rule", "local"])
        assert exc.value.code == cli.EXIT_USAGE
        assert f"invalid choice: 'NOPE' (choose from {ids})" in capsys.readouterr().err
