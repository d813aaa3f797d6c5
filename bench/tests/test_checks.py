"""Each checker accepts the program's real output and rejects corruptions.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import json

import pytest

import sloccanon.cli as cli
from check import check
from gen import from_json, gq, to_json
from run import Client
from workloads import make_round


@pytest.fixture
def client(tmp_path):
    return Client(cli, tmp_path)


def first_of(workload, cls, seed=3):
    return next(op for op in make_round(workload, seed, 0) if op["cls"] == cls)


def run_op(client, op):
    paths = [client.write(f"in{i}.json", f) for i, f in enumerate(op["files"])]
    code, out, _ = client.call([op["cmd"], *paths, *op["args"]])
    return code, json.loads(out)


def verdict(client, op, code, payload):
    return check(op, code, json.dumps(payload), client.recanon)


def bump(v):
    return to_json(from_json(v) + gq(1))


def test_canonicalize_full_rank(client):
    op = first_of("canonicalize", "full")
    code, p = run_op(client, op)
    assert verdict(client, op, code, p) == "ok"
    blocks = p["canonical"]["blocks"]
    changed = json.loads(json.dumps(p))
    changed["canonical"]["blocks"][0]["coeffs"][-1] = \
        bump(blocks[0]["coeffs"][-1])
    assert verdict(client, op, code, changed).startswith("wrong")
    swapped = json.loads(json.dumps(p))
    b0, b1 = swapped["canonical"]["blocks"][:2]
    b0["lambda"], b1["lambda"] = b1["lambda"], b0["lambda"]
    assert verdict(client, op, code, swapped).startswith("wrong")
    forged = json.loads(json.dumps(p))
    forged["max_rank"]["rank"] -= 1
    assert verdict(client, op, code, forged).startswith("wrong")
    assert verdict(client, op, code, {"kind": "canonical"}) \
        .startswith("wrong")


def test_canonicalize_derogatory(client):
    op = first_of("canonicalize", "derogatory")
    code, p = run_op(client, op)
    assert verdict(client, op, code, p) == "ok"
    changed = json.loads(json.dumps(p))
    grid_block = next(b for b in changed["canonical"]["blocks"]
                      if "grid" in b)
    grid_block["grid"][0][0][0] = bump(grid_block["grid"][0][0][0])
    assert verdict(client, op, code, changed).startswith("wrong")


def test_canonicalize_rank_deficient(client):
    op = first_of("canonicalize", "deficient")
    code, p = run_op(client, op)
    assert verdict(client, op, code, p) == "ok"
    for field in ("n", "m", "i"):
        bad = json.loads(json.dumps(p))
        bad["partition"][field] += 1
        assert verdict(client, op, code, bad).startswith("wrong")
    bad = json.loads(json.dumps(p))
    g = bad["partition"]["gamma_part"][0]
    g[0][0] = bump(g[0][0])
    assert verdict(client, op, code, bad).startswith("wrong")


@pytest.mark.parametrize("cls", ["closed", "merged", "derogatory"])
def test_symmetry_map(client, cls):
    op = first_of("symmetry-map", cls)
    code, p = run_op(client, op)
    assert verdict(client, op, code, p) == "ok"
    blocks = p["blocks"]
    changed = json.loads(json.dumps(p))
    blk = changed["blocks"][-1]
    if "coeffs" in blk:
        blk["coeffs"][0] = bump(blk["coeffs"][0])
    else:
        blk["grid"][0][0][0] = bump(blk["grid"][0][0][0])
    assert verdict(client, op, code, changed).startswith("wrong")
    if len(blocks) > 1 and blocks[0]["lambda"] != blocks[1]["lambda"]:
        swapped = json.loads(json.dumps(p))
        b0, b1 = swapped["blocks"][:2]
        b0["lambda"], b1["lambda"] = b1["lambda"], b0["lambda"]
        assert verdict(client, op, code, swapped).startswith("wrong")
    assert check(op, 2, "", client.recanon).startswith("wrong")


def test_equiv_equivalent(client):
    op = first_of("equiv", "equivalent")
    code, p = run_op(client, op)
    assert verdict(client, op, code, p) == "ok"
    perturbed = json.loads(json.dumps(p))
    perturbed["witness"]["z1"] = bump(perturbed["witness"]["z1"])
    assert verdict(client, op, code, perturbed).startswith("wrong")
    assert verdict(client, op, 1, {"decision": "inequivalent"}) \
        .startswith("wrong")
    assert verdict(client, op, 2, {"decision": "undecided"}) == "failed"


def test_equiv_inequivalent(client):
    op = first_of("equiv", "inequivalent")
    code, p = run_op(client, op)
    assert verdict(client, op, code, p) == "ok"
    forged = {"decision": "equivalent", "permutation": [0, 1, 2],
              "witness": {k: "1" if k.startswith("d") else "0"
                          for k in ("z1", "z2", "z3", "d2", "d3")}}
    assert verdict(client, op, 0, forged).startswith("wrong")
    assert verdict(client, op, 2, {"decision": "undecided"}) == "failed"


@pytest.mark.parametrize("workload", ["canonicalize", "symmetry-map",
                                      "equiv"])
def test_generator_is_seeded(workload):
    def files(seed, index=0):
        return [(op["files"], op["args"])
                for op in make_round(workload, seed, index)]
    assert files(5) == files(5)
    assert files(5) != files(6)
    assert files(5, 0) != files(5, 1)
