"""scripts/cli_digest.py: the digest of the CLI's bytes on benchmark ops."""

import importlib.util
from pathlib import Path

from sloccanon import cli, harness

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "cli_digest.py"
_SPEC = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)


def test_digest_of_a_symmetry_map_round(monkeypatch):
    first = cli_digest.digest("symmetry-map", [5], 1)
    assert first["ops"] == len(first["op_sha256"]) == 13
    assert cli_digest.digest("symmetry-map", [5], 1) == first
    # one changed byte of output changes the digest
    dump = cli._dump
    monkeypatch.setattr(cli, "_dump", lambda obj: dump(obj) + " ")
    changed = cli_digest.digest("symmetry-map", [5], 1)
    assert changed["sha256"] != first["sha256"]
    assert changed["ops"] == first["ops"]


def test_digest_of_a_selftest_run(monkeypatch):
    first = cli_digest.digest("selftest", [2], 1)
    assert first["ops"] == len(first["op_sha256"]) == 1
    assert cli_digest.digest("selftest", [2], 1) == first
    # one trial's verdict turned to "fail" changes the digest
    trial = harness.TRIAL_SUITES["nilpoly"]

    def failing(seed):
        record = trial(seed)
        if seed == 2 * 1_000_003:
            record["verdict"] = "fail"
        return record

    monkeypatch.setitem(harness.TRIAL_SUITES, "nilpoly", failing)
    changed = cli_digest.digest("selftest", [2], 1)
    assert changed["sha256"] != first["sha256"]


def test_seed_ranges():
    assert cli_digest._seeds("7-9") == [7, 8, 9]
    assert cli_digest._seeds("4") == [4]
