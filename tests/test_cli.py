"""Command-line interface: parsing, file formats, subcommands, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sloccanon
from sloccanon import cli, exactmat
from sloccanon.canon import CanonicalForm
from sloccanon.cli import (canon_from_json, canon_to_json, main, parse_scalar,
                           scalar_from_json, scalar_to_json, state_from_json,
                           state_to_json)
from sloccanon.errors import ParseError
from sloccanon.exactmat import Matrix, Scalar


def sc(re, im=0):
    return Scalar(Fraction(re), Fraction(im))


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def state_obj(*gammas):
    n = len(gammas[0])
    return {"L": len(gammas), "N": n, "gammas": list(gammas)}


def single_block_obj(lam, coeffs):
    return {"blocks": [{"lambda": lam, "size": len(coeffs),
                        "coeffs": coeffs}]}


# -- scalar literals --------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("3", sc(3)),
    ("-2/5", sc(Fraction(-2, 5))),
    ("3/4i", sc(0, Fraction(3, 4))),
    ("1/2+1/3i", sc(Fraction(1, 2), Fraction(1, 3))),
    ("2-5i", sc(2, -5)),
])
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text", ["", "x", "1.5", "1+i", "1/0"])
def test_parse_scalar_rejects(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


def test_scalar_json_roundtrip():
    for s in (sc(7), sc(Fraction(-3, 4)), sc(1, Fraction(2, 9))):
        assert scalar_from_json(scalar_to_json(s), "t") == s
    assert scalar_from_json({"re": "1/2"}, "t") == sc(Fraction(1, 2))
    with pytest.raises(ParseError):
        scalar_from_json(True, "t")
    with pytest.raises(ParseError):
        scalar_from_json({"re": "1", "imag": "2"}, "t")


# -- file formats -----------------------------------------------------------

def test_state_json_roundtrip():
    psi = state_from_json(state_obj([["1", "0"], ["0", "1"]],
                                    [["0", "1/2"], ["0", "0"]]))
    assert psi.gammas[1][0, 1] == sc(Fraction(1, 2))
    assert state_from_json(state_to_json(psi)).gammas == psi.gammas


def test_state_json_rejects_bad_shapes():
    with pytest.raises(ParseError):
        state_from_json({"L": 2, "N": 2, "gammas": [[["1"]]]})
    with pytest.raises(ParseError):
        state_from_json([1, 2])


def test_canon_json_roundtrip_plain():
    cf = CanonicalForm.from_blocks([
        (sc(1), 2, (sc(0), sc(2))),
        (sc(3), 1, (sc(Fraction(5, 7)),)),
    ])
    obj = canon_to_json(cf)
    assert canon_from_json(obj) == cf
    assert json.loads(json.dumps(obj)) == obj


def test_canon_json_roundtrip_derogatory():
    from sloccanon.exactmat import jordan_matrix
    from sloccanon.canon import commuting_pair_canonical
    j = jordan_matrix(((sc(0), 2), (sc(0), 2)))
    a = Matrix.from_rows([[1, 2, 0, 3], [0, 1, 0, 0],
                          [0, 5, 4, 6], [0, 0, 0, 4]])
    cf, _ = commuting_pair_canonical(j, a)
    assert canon_from_json(canon_to_json(cf)) == cf


def test_canon_json_rejects_plain_block_repeating_grid_eigenvalue():
    obj = {"blocks": [
        {"lambda": "0", "sizes": [2, 2],
         "grid": [[["1", "2"], ["0", "3"]], [["0", "5"], ["4", "6"]]]},
        {"lambda": "0", "size": 1, "coeffs": ["7"]},
    ]}
    with pytest.raises(ParseError):
        canon_from_json(obj)


@pytest.mark.parametrize("block", [
    {"lambda": "1", "size": "x", "coeffs": ["0"]},
    {"lambda": "1", "size": None, "coeffs": ["0"]},
    {"lambda": "1", "size": 1.5, "coeffs": ["0"]},
    {"lambda": "1", "size": True, "coeffs": ["0"]},
    {"lambda": "0", "sizes": ["x", 1], "grid": [[["1"], ["0"]],
                                               [["0"], ["2"]]]},
    {"lambda": "0", "sizes": 2, "grid": [[["1"]]]},
])
def test_canon_file_non_integer_size_is_a_parse_error(tmp_path, capsys,
                                                      block):
    path = write_json(tmp_path / "c.json", {"blocks": [block]})
    assert main(["symmetry-map", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: canon file block 0:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("block", [
    # one grid row for two blocks
    {"lambda": "0", "sizes": [2, 1], "grid": [[["1", "2"], ["0", "3"]]]},
    # a row one entry short
    {"lambda": "0", "sizes": [2, 1],
     "grid": [[["1", "2"], ["0", "0"]], [["0", "4"]]]},
    # increasing sizes
    {"lambda": "0", "sizes": [1, 2],
     "grid": [[["1"], ["0"]], [["0"], ["2"]]]},
    # a size of zero, and a negative one
    {"lambda": "0", "sizes": [2, 0],
     "grid": [[["1", "2"], ["0", "0"]], [["0", "0"], ["0", "0"]]]},
    {"lambda": "0", "sizes": [2, -1],
     "grid": [[["1", "2"], ["0", "0"]], [["0", "0"], ["0", "0"]]]},
    # entry (0, 1) with a coefficient outside its band support
    {"lambda": "0", "sizes": [2, 1],
     "grid": [[["1", "2"], ["0", "3"]], [["0", "4"], ["5", "0"]]]},
])
@pytest.mark.parametrize("command", ["equiv", "symmetry-map"])
def test_canon_file_malformed_grid_is_a_parse_error(tmp_path, capsys, block,
                                                    command):
    path = write_json(tmp_path / "c.json", {"blocks": [block]})
    files = [path, path] if command == "equiv" else [path]
    assert main([command, *files]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: canon file block 0:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("blocks,message", [
    ([{"lambda": "0", "sizes": [1], "grid": [[["x"]]]}],
     "canon file block 0: bad scalar literal 'x'"),
    ([{"lambda": "0", "sizes": [1], "grid": [[None]]}],
     "canon file block 0: expected a list, got NoneType"),
    ([{"lambda": "0", "sizes": [1], "grid": [[["1"]]]},
      {"lambda": "0", "size": 1, "coeffs": ["1"]}],
     "canon file: plain block repeats a grid eigenvalue"),
], ids=["bad-scalar", "null-entry", "repeated-eigenvalue"])
def test_canon_file_error_names_its_place_once(tmp_path, capsys, blocks,
                                               message):
    path = write_json(tmp_path / "c.json", {"blocks": blocks})
    assert main(["symmetry-map", path]) == 3
    assert capsys.readouterr().err == f"parse error: {message}\n"


# two plain blocks at 1, and a grid run at 5 that obeys the band rule
PLAIN_AT_ONE = [{"lambda": "1", "size": 2, "coeffs": ["2", "3"]},
                {"lambda": "1", "size": 1, "coeffs": ["5"]}]
GRID_AT_FIVE = {"lambda": "5", "sizes": [2, 1],
                "grid": [[["1", "2"], ["4", "0"]], [["0", "6"], ["3", "0"]]]}


def test_canon_file_merges_plain_blocks_beside_a_grid_run(tmp_path, capsys):
    plain = write_json(tmp_path / "p.json", {"blocks": PLAIN_AT_ONE})
    mixed = write_json(tmp_path / "m.json",
                       {"blocks": [GRID_AT_FIVE, *PLAIN_AT_ONE]})
    assert main(["symmetry-map", plain]) == 0
    alone = json.loads(capsys.readouterr().out)["blocks"]
    assert main(["symmetry-map", mixed]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    blocks = json.loads(out.out)["blocks"]
    assert [b["lambda"] for b in blocks] == ["1", "5"]
    assert json.dumps(blocks[0], indent=2) == json.dumps(alone[0], indent=2)


def test_canon_file_two_grid_runs_with_one_eigenvalue(tmp_path, capsys):
    path = write_json(tmp_path / "c.json",
                      {"blocks": [GRID_AT_FIVE, GRID_AT_FIVE]})
    assert main(["symmetry-map", path]) == 3
    assert capsys.readouterr().err == \
        "parse error: canon file: two runs share the eigenvalue 5\n"


def test_canon_file_integer_sizes_may_be_strings():
    assert canon_from_json({"blocks": [
        {"lambda": "1", "size": " 2", "coeffs": ["0", "1"]}]}) == \
        canon_from_json(single_block_obj("1", ["0", "1"]))


# -- canonicalize -----------------------------------------------------------

def test_canonicalize_full_rank(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", state_obj(
        [["1", "0"], ["0", "1"]],
        [["1", "1"], ["0", "1"]],
        [["2", "3"], ["0", "2"]]))
    assert main(["canonicalize", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "canonical"
    assert payload["jordan"] == [["1", 2]]
    assert payload["canonical"]["blocks"] == \
        [{"lambda": "1", "size": 2, "coeffs": ["2", "3"]}]


def test_canonicalize_two_slot_state(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", state_obj(
        [["1", "0"], ["0", "1"]], [["5", "0"], ["0", "7"]]))
    assert main(["canonicalize", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jordan"] == [["5", 1], ["7", 1]]


def test_canonicalize_partitioned(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", state_obj(
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
        [["5", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]]))
    assert main(["canonicalize", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "partitioned"
    assert payload["partition"]["n"] == 1
    assert payload["partition"]["m"] == 2
    assert payload["partition"]["i"] == 1
    assert payload["beta_rank_condition"] is True


# rank-deficient states with a nontrivial split, scrambled by (T, P, Q),
# and their canonicalize --json output recorded before the seeded sweep
# phase and the polynomial spectral projectors were replaced
DEFICIENT_GOLDEN = [
    # (I, J_2(1), A) plus the remainder [[t1, t2], [0, 0]]
    ({"L": 3, "N": 4, "gammas": [
        [["9", "6", "0", "-3"], ["3", "5", "2", "0"], ["0", "1", "1", "0"],
         ["6", "3", "0", "-3"]],
        [["3", "2", "0", "-1"], ["1", "1", "2", "2"], ["0", "0", "1", "1"],
         ["2", "1", "0", "-1"]],
        [["16", "11", "0", "-5"], ["5", "7", "2", "0"], ["0", "1", "1", "0"],
         ["11", "6", "0", "-5"]]]},
     {"kind": "partitioned",
      "max_rank": {"coefficients": ["1", "0", "0"], "rank": 3},
      "partition": {
          "n": 2, "m": 2, "i": 1,
          "lambda_prime": [["1", "0"], ["0", "0"]],
          "gamma_part": [[["1/3", "0"], ["0", "1/3"]],
                         [["2", "1/3"], ["-1/3", "4/3"]]],
          "beta_part": [[["0", "1"], ["0", "0"]],
                        [["1", "0"], ["0", "0"]]]},
      "beta_rank_condition": True}),
    # the pencil J_2(3) + L_1 + L_1^T (a 1 x 2 and a 2 x 1 Kronecker block)
    ({"L": 2, "N": 5, "gammas": [
        [["5", "6", "3", "3", "1"], ["1", "5", "5", "0", "1"],
         ["7", "6", "1", "0", "2"], ["3", "0", "0", "0", "3"],
         ["2", "5", "5", "0", "2"]],
        [["4", "5", "2", "2", "1"], ["1", "4", "4", "0", "1"],
         ["5", "5", "1", "0", "1"], ["2", "0", "0", "0", "2"],
         ["2", "4", "4", "0", "2"]]]},
     {"kind": "partitioned",
      "max_rank": {"coefficients": ["1", "0"], "rank": 4},
      "partition": {
          "n": 2, "m": 3, "i": 1,
          "lambda_prime": [["1", "0", "0"], ["0", "1", "0"],
                           ["0", "0", "0"]],
          "gamma_part": [[["21/25", "1/25"], ["-1/25", "19/25"]]],
          "beta_part": [[["2/3", "0", "0"], ["0", "2/3", "8/9"],
                         ["-1/3", "0", "0"]]]},
      "beta_rank_condition": True}),
]


@pytest.mark.parametrize("state,expected", DEFICIENT_GOLDEN,
                         ids=["L3", "L2"])
def test_canonicalize_rank_deficient_golden_bytes(tmp_path, capsys, state,
                                                  expected):
    path = write_json(tmp_path / "s.json", state)
    assert main(["canonicalize", path, "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


# so(3) + so(3) + the 1 x 1 block (1, 2, 3), scrambled by P and Q with
# entries in {-1, 0, 1}: every summand is rational, but each element of
# the endomorphism basis of the 6 x 6 remainder piece (an algebra
# M_2(Q(i))) has an irreducible quadratic spectrum; the piece stays whole
# on the one-dimensional centre of E/rad E
SO3_SQUARED = {"L": 3, "N": 7, "gammas": [
    [[0, 0, 1, -1, -1, -1, 1], [0, -2, 2, -1, 0, -1, -2],
     [2, -1, 0, 2, 3, 3, 0], [-1, 2, -2, -1, -2, -1, 3],
     [-2, 0, 2, -3, -2, -1, 0], [1, 2, 0, 2, 0, 0, 1],
     [-3, -1, 1, -4, -2, -1, -1]],
    [[1, 1, 1, 0, 0, 2, 1], [3, -2, 0, 5, 2, 2, -2],
     [-1, 1, -2, 0, 1, -3, -1], [-3, 3, 0, -6, -3, -1, 3],
     [-1, 0, 2, -1, -2, 2, 2], [0, 2, -1, 0, -1, 1, 1],
     [-1, -1, 2, 0, -1, 1, 1]],
    [[1, 1, -1, 0, 0, 2, 2], [4, -1, -1, 3, 2, 1, 0],
     [-1, 0, 1, 0, -3, -1, 0], [-4, 3, 1, -5, -2, -1, 1],
     [-2, 3, -1, -3, -2, 3, 4], [0, -1, 0, 2, -1, -1, 0],
     [-2, 4, -1, -4, -1, 2, 4]]]}


def test_canonicalize_so3_squared_remainder(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", SO3_SQUARED)
    assert main(["canonicalize", path, "--json"]) == 0
    part = json.loads(capsys.readouterr().out)["partition"]
    assert (part["n"], part["m"], part["i"]) == (1, 6, 2)


def test_canonicalize_roundtrip_is_byte_identical(tmp_path, capsys):
    cf = CanonicalForm.from_blocks([
        (sc(1), 2, (sc(0), sc(2))),
        (sc(3), 1, (sc(5),)),
    ])
    psi = cf.assemble_state()
    path = write_json(tmp_path / "s.json", state_to_json(psi))
    assert main(["canonicalize", path, "--json"]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    # re-canonicalizing the assembled canonical output changes nothing
    back = canon_from_json(payload["canonical"])
    path2 = write_json(tmp_path / "s2.json", state_to_json(
        back.assemble_state()))
    assert main(["canonicalize", path2, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_canonicalize_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["canonicalize", str(bad)]) == 3

    four_slots = write_json(tmp_path / "l4.json", state_obj(
        [["1"]], [["1"]], [["1"]], [["1"]]))
    assert main(["canonicalize", four_slots]) == 3

    irrational = write_json(tmp_path / "irr.json", state_obj(
        [["1", "0"], ["0", "1"]],
        [["0", "-2"], ["1", "0"]],
        [["1", "0"], ["0", "1"]]))
    assert main(["canonicalize", irrational]) == 4

    noncommuting = write_json(tmp_path / "nc.json", state_obj(
        [["1", "0"], ["0", "1"]],
        [["0", "1"], ["0", "0"]],
        [["0", "0"], ["1", "0"]]))
    assert main(["canonicalize", noncommuting]) == 5
    capsys.readouterr()


def test_canonicalize_wrong_factor_root_is_a_check_failure(
        tmp_path, capsys, monkeypatch):
    # the exact cross-check in _field_roots must catch a root that the
    # norm's candidates got wrong, with a one-line error instead of a
    # traceback: shifted candidates are no roots, and the factorisation
    # over Q(i) of what is left finds the linear factors they missed
    real = exactmat._norm_candidates
    monkeypatch.setattr(exactmat, "_norm_candidates",
                        lambda coeffs: [r + 1 for r in real(coeffs)])
    path = write_json(tmp_path / "s.json", state_obj(
        [["1", "0"], ["0", "1"]], [["5", "0"], ["0", "7"]]))
    assert main(["canonicalize", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "norm over Q did not give" in err
    assert err.count("\n") == 1


def _companion(constant_first):
    """Companion matrix (as strings) of the monic polynomial given."""
    n = len(constant_first)
    return [["1" if i == j + 1 else "0" for j in range(n - 1)]
            + [str(-constant_first[i])] for i in range(n)]


def _eye(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _block_diag_strings(*blocks):
    n = sum(len(b) for b in blocks)
    out = [["0"] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


# exit 4 lines, recorded before the roots came from the norm over Q: the
# spectrum of the second slot leaves Q(i) through x^3 - 3 (real),
# x^2 + ix + 1 (complex coefficients), and x^2 - 2 beside x^3 - 3 and the
# roots 1/2 and i (mixed; the quadratic is the factor named)
NOT_IN_FIELD_GOLDEN = {
    "real": (_companion([-3, 0, 0]), 3),
    "complex": ([["0", "-1"], ["1", "-1i"]], 2),
    "mixed": (_block_diag_strings([["1/2"]], [["1i"]],
                                  _companion([-3, 0, 0]),
                                  _companion([-2, 0])), 2),
}


@pytest.mark.parametrize("pencil,degree", NOT_IN_FIELD_GOLDEN.values(),
                         ids=NOT_IN_FIELD_GOLDEN)
def test_canonicalize_not_in_field_golden_line(tmp_path, capsys, pencil,
                                               degree):
    path = write_json(tmp_path / "s.json",
                      state_obj(_eye(len(pencil)), pencil))
    assert main(["canonicalize", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "not in field: characteristic polynomial has an irreducible "
        f"factor of degree {degree} over the Gaussian rationals\n")


@pytest.mark.parametrize("field,value", [
    ("L", 2.5), ("N", 2.9), ("N", "x"), ("L", True), ("N", None)])
def test_state_file_non_integer_dimension_is_a_parse_error(
        tmp_path, capsys, field, value):
    obj = state_obj([["1", "0"], ["0", "1"]], [["5", "0"], ["0", "7"]])
    obj[field] = value
    path = write_json(tmp_path / "s.json", obj)
    assert main(["canonicalize", path]) == 3
    err = capsys.readouterr().err
    assert err == f"parse error: state file: {field}: expected an " \
                  f"integer, got {value!r}\n"


def test_canonicalize_unwritable_output_is_a_parse_error(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", state_obj(
        [["1", "0"], ["0", "1"]], [["5", "0"], ["0", "7"]]))
    out = str(tmp_path / "missing" / "out.json")
    assert main(["canonicalize", path, "-o", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {out}: ") and err.count("\n") == 1


# -- usage errors -----------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["canonicalize", "{state}", "--seed", "1"],
    ["symmetry-map", "{canon}", "--z2", "-1/2"],
    ["symmetry-map", "{canon}", "--bogus"],
    ["equiv", "{canon}"],
    ["selftest", "--count", "x"],
    ["nosuchcommand"],
    [],
    # selftest runs serially since its --jobs option went
    ["selftest", "--jobs", "2"],
    # symmetry-map always writes JSON, so it takes no --json
    ["symmetry-map", "{canon}", "--json"],
])
def test_usage_errors_exit_3_with_one_line(tmp_path, capsys, argv):
    files = {"state": write_json(tmp_path / "s.json", state_obj(
                 [["1", "0"], ["0", "1"]], [["5", "0"], ["0", "7"]])),
             "canon": write_json(tmp_path / "c.json",
                                 single_block_obj("1", ["0", "2"]))}
    assert main([a.format(**files) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert captured.err.count("\n") == 1


def test_negative_parameter_written_with_equals(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", single_block_obj("1", ["0", "2"]))
    assert main(["symmetry-map", path, "--z2=-1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["blocks"][0]["lambda"] == "1"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["canonicalize", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sloccanon canonicalize")


# -- equiv ------------------------------------------------------------------

def test_equiv_equivalent_pair(tmp_path, capsys):
    a = write_json(tmp_path / "a.json",
                   single_block_obj("1", ["0", "2", "3"]))
    b = write_json(tmp_path / "b.json",
                   single_block_obj("1", ["0", "1/3", "1/9"]))
    assert main(["equiv", a, b, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decision"] == "equivalent"
    assert set(payload["witness"]) == {"z1", "z2", "z3", "d2", "d3"}


def test_equiv_inequivalent_pair(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", single_block_obj("1", ["0", "2"]))
    b = write_json(tmp_path / "b.json", {"blocks": [
        {"lambda": "1", "size": 1, "coeffs": ["0"]},
        {"lambda": "2", "size": 1, "coeffs": ["0"]}]})
    assert main(["equiv", a, b, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["decision"] == "inequivalent"


def test_equiv_undecided_on_derogatory(tmp_path, capsys):
    obj = {"blocks": [
        {"lambda": "0", "sizes": [2, 2],
         "grid": [[["1", "2"], ["0", "3"]], [["0", "5"], ["4", "6"]]]}]}
    a = write_json(tmp_path / "a.json", obj)
    b = write_json(tmp_path / "b.json", obj)
    code = main(["equiv", a, b, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code in (0, 2)
    assert payload["decision"] in ("equivalent", "undecided")


def test_equiv_inequivalent_on_derogatory_with_other_sizes(tmp_path,
                                                          capsys):
    # the block sizes of a form are invariants of its orbit, so forms
    # with different size multisets are inequivalent, derogatory or not
    a = write_json(tmp_path / "a.json", {"blocks": [
        {"lambda": "1", "sizes": [2, 1],
         "grid": [[["1", "2"], ["0", "0"]], [["0", "0"], ["3", "0"]]]}]})
    b = write_json(tmp_path / "b.json", {"blocks": [
        {"lambda": "1", "sizes": [1, 1, 1],
         "grid": [[["1"], ["0"], ["0"]], [["0"], ["2"], ["0"]],
                  [["0"], ["0"], ["3"]]]}]})
    assert main(["equiv", a, b, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"decision": "inequivalent"}


# equiv --json bytes, recorded while the witness search had a branch of
# its own for families with no residual equation.  Forms of 1 x 1 blocks
# give no equation past the constant ones, so the whole affine family is
# open and its free parameters are pinned to symmetry._PIN_VALUES in
# order; the witness is the first pin that maps a onto b.  Each b is its
# a mapped by a harness.gen_params element.
NO_EQUATION_GOLDEN = {
    "two blocks": (
        [("1", "2"), ("3", "5")],
        [("-2938/6855+112/20565i", "392/6855-224/20565i"),
         ("-15640518/39014761+5040/39014761i",
          "1730680/39014761-252000/39014761i")],
        {"z1": "-55/16", "z2": {"re": "-547/64", "im": "-135/112"},
         "z3": {"re": "3/4", "im": "-9/7"}, "d2": "-16", "d3": "1"},
        [0, 1]),
    "one block": (
        [("0", "1")],
        [("-644/1313+784/1313i", "-161/1313+196/1313i")],
        {"z1": "0", "z2": {"re": "-30/7", "im": "-4"}, "z3": "4",
         "d2": "1", "d3": "1"},
        [0]),
    "rational": (
        [("-1", "1/2"), ("2", "3")],
        [("-6/7", "-9/14"), ("28/29", "-9/29")],
        {"z1": "0", "z2": "-32/9", "z3": "-2", "d2": "-5/3", "d3": "1"},
        [0, 1]),
    "complex": (
        [("1i", "1"), ("2", "-1")],
        [("3/380", "-189/380"), ("3/2", "5103/1850-1323/925i")],
        {"z1": {"re": "118/15", "im": "-18/5"},
         "z2": {"re": "-101/35", "im": "-2/35"},
         "z3": {"re": "-1/63", "im": "2/9"}, "d2": "-2/9", "d3": "1"},
        [0, 1]),
}


def _plain_blocks_obj(blocks):
    return {"blocks": [{"lambda": lam, "size": 1, "coeffs": [c]}
                       for lam, c in blocks]}


@pytest.mark.parametrize("a,b,witness,permutation",
                         NO_EQUATION_GOLDEN.values(), ids=NO_EQUATION_GOLDEN)
def test_equiv_without_residual_equations_golden_bytes(
        tmp_path, capsys, a, b, witness, permutation):
    pa = write_json(tmp_path / "a.json", _plain_blocks_obj(a))
    pb = write_json(tmp_path / "b.json", _plain_blocks_obj(b))
    assert main(["equiv", pa, pb, "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(
        {"decision": "equivalent", "witness": witness,
         "permutation": permutation}, indent=2) + "\n"


# -- symmetry-map -----------------------------------------------------------

def test_symmetry_map_golden(tmp_path, capsys):
    path = write_json(tmp_path / "c.json",
                      single_block_obj("1", ["0", "2", "3"]))
    assert main(["symmetry-map", path, "--z3", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["blocks"] == [{"lambda": "1", "size": 3,
                                  "coeffs": ["0", "2/3", "1/9"]}]


def test_symmetry_map_degenerate_exit(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", single_block_obj("1", ["0", "2"]))
    assert main(["symmetry-map", path, "--z1", "-1"]) == 2
    capsys.readouterr()


def test_symmetry_map_rejects_zero_scale(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", single_block_obj("1", ["0"]))
    assert main(["symmetry-map", path, "--d2", "0"]) == 3
    capsys.readouterr()


# -- selftest ---------------------------------------------------------------

def test_selftest_single_suite_with_report(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    assert main(["selftest", "--profile", "nilpoly", "--count", "5",
                 "--report", str(report), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == 0
    records = [json.loads(line)
               for line in report.read_text().splitlines()]
    assert len(records) == 5
    assert all(r["suite"] == "nilpoly" for r in records)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_selftest_refuses_fewer_than_one_trial(capsys, count):
    # a self-test that ran nothing must not read as a pass
    assert main(["selftest", "--profile", "nilpoly",
                 f"--count={count}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"parse error: --count must be at least 1, got {count}\n"


# -- entry point --------------------------------------------------------------

def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    def refuse():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    canon = write_json(tmp_path / "c.json", single_block_obj("1", ["0", "2"]))
    assert main(["symmetry-map", canon, "--z3", "1"]) == 0
    assert main(["equiv", canon, canon]) == 0
    assert capsys.readouterr().err == ""


def test_crash_exits_6_with_one_line(tmp_path, capsys, monkeypatch):
    # exit 1 means "inequivalent", so a crash must not end in it
    def crash(cf1, cf2):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "orbit_equivalent", crash)
    canon = write_json(tmp_path / "c.json", single_block_obj("1", ["0", "2"]))
    assert main(["equiv", canon, canon]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


# -- start-up -----------------------------------------------------------------

def test_closed_form_commands_do_not_load_sympy(tmp_path):
    # sympy is imported where it is used, so importing the CLI, a
    # closed-form symmetry map and equiv of a form with itself never load
    # it; a fresh interpreter is the only place to see that
    canon = write_json(tmp_path / "c.json", {"blocks": [
        {"lambda": "1", "size": 2, "coeffs": ["2", "3"]},
        {"lambda": "3", "size": 1, "coeffs": ["5"]}]})
    code = "\n".join([
        "import sys",
        "from sloccanon.cli import main",
        "loaded = ['sympy' in sys.modules]",
        f"assert main(['symmetry-map', {canon!r}, '--z1', '1/2']) == 0",
        "loaded.append('sympy' in sys.modules)",
        f"assert main(['equiv', {canon!r}, {canon!r}]) == 0",
        "loaded.append('sympy' in sys.modules)",
        "print(loaded)"])
    env = dict(os.environ, PYTHONPATH=str(
        Path(sloccanon.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[False, False, False]"


def test_cli_import_does_not_load_the_process_pool():
    # selftest runs its trials in one process, so no path of the CLI
    # needs the pool or multiprocessing, and importing it loads neither
    code = "\n".join([
        "import sys",
        "import sloccanon.cli",
        "print([m in sys.modules for m in",
        "       ('multiprocessing', 'concurrent.futures.process')])"])
    env = dict(os.environ, PYTHONPATH=str(
        Path(sloccanon.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[False, False]"
