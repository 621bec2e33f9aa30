"""The identity sweep of `tools/identity.py`: every command in its list
still hashes to the committed baseline `tools/identity.sha256`."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_identity():
    spec = importlib.util.spec_from_file_location("identity", TOOLS / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_matches_the_baseline(capsys):
    identity = load_identity()
    baseline = identity.read_baseline(TOOLS / "identity.sha256")
    hashes = list(identity.hash_commands())
    capsys.readouterr()
    code = identity.compare(baseline, hashes)
    report = capsys.readouterr().out
    assert code == 0, report
