"""Command-line front end.

Subcommands: canonicalize, equiv, symmetry-map, selftest.  All file
formats are JSON with string-encoded exact rationals; serialization is
canonical (lowest terms, fixed key order, newline-terminated) so that
round trips are byte-identical.

Exit codes: 0 success/equivalent, 1 fail/inequivalent, 2
undecided/degenerate, 3 parse or usage error, 4 eigenvalue outside the
Gaussian rationals, 5 non-commuting reduced pair, 6 internal error (an
unexpected exception, reported in one line).  A negative parameter
is written with "=", as in ``--z2=-1/2``; ``--z2 -1/2`` reads as a
missing value and exits 3.  ``selftest`` runs its trials in one
process, in seed order; a count below 1 exits 3.

canonicalize is deterministic.  On a rank-deficient state its maximal
rank and the remainder's rank condition are certified, not sampled:
both come from grid sweeps that no other coefficient tuple can beat
(see canon._coefficient_sweep).  The split into a full-rank part and a
remainder draws no random numbers, and a summand it calls
indecomposable is certified by the rank of its endomorphism algebra's
trace form (see canon._split_piece).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import (DegenerateParameter, NotCommuting, NotInField,
                     ParseError, SloccError)
from .exactmat import Matrix, Scalar
from .canon import (AClassRun, CanonicalForm, TensorState,
                    beta_canonical_check, commuting_pair_canonical,
                    full_rank_reduce, max_rank_combination,
                    nonfull_rank_split)
from .harness import TRIAL_SUITES, run_trials, write_jsonl
from .nilpoly import TruncPoly
from .symmetry import SymmetryParams, apply_all, orbit_equivalent

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 3
EXIT_NOT_IN_FIELD = 4
EXIT_NOT_COMMUTING = 5
EXIT_INTERNAL = 6


# ---------------------------------------------------------------------------
# Scalar literals
# ---------------------------------------------------------------------------

_RAT = r"[+-]?\d+(?:/\d+)?"
_COMPLEX_RE = re.compile(
    rf"^\s*(?:(?P<re>{_RAT})(?P<im1>[+-]\d+(?:/\d+)?)i"
    rf"|(?P<im2>{_RAT})i|(?P<re2>{_RAT}))\s*$")


def _fraction(text: str, where: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational literal {text!r} ({exc})")


def parse_scalar(text: str, where: str = "literal") -> Scalar:
    """Accepts 'p/q', 'p/qi', and 'p/q+r/si' forms."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise ParseError(f"{where}: bad scalar literal {text!r}")
    if m.group("re") is not None:
        return Scalar(_fraction(m.group("re"), where),
                      _fraction(m.group("im1"), where))
    if m.group("im2") is not None:
        return Scalar(Fraction(0), _fraction(m.group("im2"), where))
    return Scalar(_fraction(m.group("re2"), where), Fraction(0))


def _integer(v, where: str) -> int:
    """A JSON int, or a string of one; floats and booleans are refused."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str) and re.fullmatch(r"\s*[+-]?\d+\s*", v):
        return int(v)
    raise ParseError(f"{where}: expected an integer, got {v!r}")


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise ParseError(f"{where}: expected a list, got {type(v).__name__}")
    return v


def scalar_to_json(s: Scalar):
    if s.im == 0:
        return str(s.re)
    return {"re": str(s.re), "im": str(s.im)}


def scalar_from_json(v, where: str) -> Scalar:
    if isinstance(v, bool):
        raise ParseError(f"{where}: booleans are not scalars")
    if isinstance(v, int):
        return Scalar.of(v)
    if isinstance(v, str):
        return parse_scalar(v, where)
    if isinstance(v, dict):
        extra = set(v) - {"re", "im"}
        if extra:
            raise ParseError(f"{where}: unexpected keys {sorted(extra)}")
        re_part = _fraction(str(v.get("re", "0")), where)
        im_part = _fraction(str(v.get("im", "0")), where)
        return Scalar(re_part, im_part)
    raise ParseError(f"{where}: expected scalar, got {type(v).__name__}")


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def state_from_json(obj) -> TensorState:
    if not isinstance(obj, dict):
        raise ParseError("state file: top level must be an object")
    try:
        ell = _integer(obj["L"], "state file: L")
        n = _integer(obj["N"], "state file: N")
        grids = obj["gammas"]
    except KeyError as exc:
        raise ParseError(f"state file: missing or bad field ({exc})")
    if not isinstance(grids, list) or len(grids) != ell:
        raise ParseError(f"state file: expected {ell} slot matrices")
    mats = []
    for s, grid in enumerate(grids):
        if not isinstance(grid, list) or len(grid) != n or \
                any(not isinstance(r, list) or len(r) != n for r in grid):
            raise ParseError(f"state file: slot {s} is not an {n}x{n} grid")
        rows = [[scalar_from_json(v, f"slot {s} entry ({i},{j})")
                 for j, v in enumerate(row)]
                for i, row in enumerate(grid)]
        mats.append(Matrix.from_rows(rows))
    try:
        return TensorState(ell, n, tuple(mats))
    except SloccError as exc:
        raise ParseError(f"state file: {exc}")


def state_to_json(psi: TensorState):
    return {"L": psi.L, "N": psi.N,
            "gammas": [[[scalar_to_json(g[i, j]) for j in range(psi.N)]
                        for i in range(psi.N)] for g in psi.gammas]}


def canon_to_json(cf: CanonicalForm):
    blocks = []
    for run in cf.runs:
        if len(run.sizes) == 1:
            blocks.append({
                "lambda": scalar_to_json(run.lam),
                "size": run.sizes[0],
                "coeffs": [scalar_to_json(c) for c in run.grid[0][0].coeffs],
            })
        else:
            blocks.append({
                "lambda": scalar_to_json(run.lam),
                "sizes": list(run.sizes),
                "grid": [[[scalar_to_json(c) for c in entry.coeffs]
                          for entry in row] for row in run.grid],
            })
    return {"blocks": blocks}


def canon_from_json(obj) -> CanonicalForm:
    if not isinstance(obj, dict) or not isinstance(obj.get("blocks"), list) \
            or not obj["blocks"]:
        raise ParseError("canon file: expected a non-empty 'blocks' list")
    runs = []
    simple_blocks = []
    for k, blk in enumerate(obj["blocks"]):
        where = f"canon file block {k}"
        if not isinstance(blk, dict) or "lambda" not in blk:
            raise ParseError(f"{where}: missing lambda")
        lam = scalar_from_json(blk["lambda"], where)
        if "coeffs" in blk:
            coeffs = _list(blk["coeffs"], where)
            size = _integer(blk.get("size", len(coeffs)), where)
            coeffs = [scalar_from_json(c, where) for c in coeffs]
            if len(coeffs) != size or size < 1:
                raise ParseError(f"{where}: need exactly {size} coefficients")
            simple_blocks.append((lam, size, tuple(coeffs)))
        elif "grid" in blk:
            sizes = blk.get("sizes", [])
            if not isinstance(sizes, list):
                raise ParseError(f"{where}: sizes must be a list")
            sizes = tuple(_integer(s, where) for s in sizes)
            if not sizes:
                raise ParseError(f"{where}: grid blocks need sizes")
            n1 = sizes[0]
            try:
                grid = tuple(
                    tuple(TruncPoly(n1, tuple(scalar_from_json(c, where)
                                              for c in _list(entry, where)))
                          for entry in _list(row, where))
                    for row in _list(blk["grid"], where))
                runs.append(AClassRun(lam, sizes, grid))
            except ParseError:
                raise
            except SloccError as exc:
                raise ParseError(f"{where}: {exc}")
        else:
            raise ParseError(f"{where}: need coeffs or grid")
    # plain blocks sharing a grid run's eigenvalue would need a merged
    # grid the file does not provide
    if any(r.lam == lam for lam, _, _ in simple_blocks for r in runs):
        raise ParseError("canon file: plain block repeats a grid eigenvalue")
    try:
        return CanonicalForm(
            (*runs, *CanonicalForm.from_blocks(simple_blocks).runs))
    except SloccError as exc:
        raise ParseError(f"canon file: {exc}")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, out_path=None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"{out_path}: {exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _parse_hints(text):
    if not text:
        return None
    return [parse_scalar(tok, "--hints") for tok in text.split(",")]


def cmd_canonicalize(args) -> int:
    psi = state_from_json(_load_json(args.state))
    if psi.L not in (2, 3):
        raise ParseError("canonicalize supports L = 2 or 3 slots")
    hints = _parse_hints(args.hints)
    t, r = max_rank_combination(psi)
    if r < psi.N:
        pf = nonfull_rank_split(psi, sweep=(t, r))
        payload = {
            "kind": "partitioned",
            "max_rank": {"coefficients": [scalar_to_json(c) for c in t],
                         "rank": r},
            "partition": {
                "n": pf.n, "m": pf.m, "i": pf.i,
                "lambda_prime": [[scalar_to_json(pf.lambda_prime[i, j])
                                  for j in range(pf.m)]
                                 for i in range(pf.m)],
                "gamma_part": [[[scalar_to_json(g[i, j])
                                 for j in range(pf.n)] for i in range(pf.n)]
                               for g in pf.gamma_part],
                "beta_part": [[[scalar_to_json(b[i, j])
                                for j in range(pf.m)] for i in range(pf.m)]
                              for b in pf.beta_part],
            },
            "beta_rank_condition": beta_canonical_check(pf),
        }
        if args.json:
            _emit(_dump(payload), args.output)
        else:
            _emit(f"rank-deficient state: max rank {r} of {psi.N}\n"
                  f"split: full-rank part n={pf.n}, remainder m={pf.m}, "
                  f"deficiency i={pf.i}\n"
                  f"remainder rank condition (= m - i): "
                  f"{payload['beta_rank_condition']}\n", args.output)
        return EXIT_OK
    reduced = full_rank_reduce(psi, sweep=(t, r))
    g3 = reduced.gammas[2] if psi.L == 3 else Matrix.zero(psi.N, psi.N)
    cf, _ = commuting_pair_canonical(reduced.gammas[1], g3, hints=hints)
    payload = {
        "kind": "canonical",
        "max_rank": {"coefficients": [scalar_to_json(c) for c in t],
                     "rank": r},
        "jordan": [[scalar_to_json(lam), size]
                   for lam, size in cf.blocks],
        "commuting": True,
        "canonical": canon_to_json(cf),
    }
    if args.json:
        _emit(_dump(payload), args.output)
    else:
        lines = [f"max-rank certificate: rank {r} at coefficients "
                 + ", ".join(str(c) for c in t),
                 "jordan blocks: "
                 + ", ".join(f"(lambda={lam}, size={size})"
                             for lam, size in cf.blocks)]
        _emit("\n".join(lines) + "\n" + _dump(canon_to_json(cf)),
              args.output)
    return EXIT_OK


def cmd_equiv(args) -> int:
    cf1 = canon_from_json(_load_json(args.a))
    cf2 = canon_from_json(_load_json(args.b))
    decision = orbit_equivalent(cf1, cf2)
    payload = {"decision": decision.status}
    if decision.witness is not None:
        w = decision.witness
        payload["witness"] = {k: scalar_to_json(getattr(w, k))
                              for k in ("z1", "z2", "z3", "d2", "d3")}
        payload["permutation"] = list(decision.permutation)
    if args.json:
        _emit(_dump(payload))
    elif decision.witness is not None:
        w = decision.witness
        _emit(f"{decision.status}\nwitness: z1={w.z1} z2={w.z2} z3={w.z3} "
              f"d2={w.d2} d3={w.d3}\n"
              f"block permutation: {list(decision.permutation)}\n")
    else:
        _emit(decision.status + "\n")
    return {"equivalent": EXIT_OK, "inequivalent": EXIT_FAIL,
            "undecided": EXIT_UNDECIDED}[decision.status]


def cmd_symmetry_map(args) -> int:
    cf = canon_from_json(_load_json(args.canon))
    sp = SymmetryParams(
        parse_scalar(args.z1, "--z1"), parse_scalar(args.z2, "--z2"),
        parse_scalar(args.z3, "--z3"), parse_scalar(args.d2, "--d2"),
        parse_scalar(args.d3, "--d3"))
    out = apply_all(cf, sp)
    _emit(_dump(canon_to_json(out)), args.output)
    return EXIT_OK


def cmd_selftest(args) -> int:
    if args.count < 1:
        raise ParseError(f"--count must be at least 1, got {args.count}")
    suites = list(TRIAL_SUITES) if args.profile == "all" else [args.profile]
    all_records = []
    failures = 0
    lines = []
    for name in suites:
        records = run_trials(args.count, seed=args.seed,
                             trial=TRIAL_SUITES[name])
        for r in records:
            r["suite"] = name
        counts = {}
        for r in records:
            counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
        failures += counts.get("fail", 0)
        lines.append(f"{name}: " + ", ".join(
            f"{v}={counts[v]}" for v in sorted(counts)))
        all_records.extend(records)
    if args.report:
        write_jsonl(all_records, args.report)
    if args.json:
        _emit(_dump({"suites": lines, "failures": failures}))
    else:
        _emit("\n".join(lines) + f"\nfailures: {failures}\n")
    return EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they exit 3 like bad input files.

    argparse's own exit code for them, 2, means "undecided" here.
    """

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sloccanon",
        description="Exact canonical forms of L x N x N tensors under "
                    "local operations.  Inequivalent verdicts mean "
                    "inequivalent under the generated symmetry group.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canonicalize", help="canonicalize a state file")
    p.add_argument("state")
    p.add_argument("--hints", default=None,
                   help="comma-separated eigenvalue candidates")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("equiv", help="decide orbit equivalence of two "
                                     "canonical-form files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("symmetry-map", help="apply parametric symmetry "
                                            "maps to a canonical form")
    p.add_argument("canon")
    for flag, default in (("--z1", "0"), ("--z2", "0"), ("--z3", "0"),
                          ("--d2", "1"), ("--d3", "1")):
        p.add_argument(flag, default=default, dest=flag.lstrip("-"))
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_symmetry_map)

    p = sub.add_parser("selftest", help="run the randomized trial suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--profile", default="all",
                   choices=["all"] + list(TRIAL_SUITES))
    p.add_argument("--json", action="store_true")
    p.add_argument("--report", default=None,
                   help="write JSONL trial records to this path")
    p.set_defaults(func=cmd_selftest)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotInField as exc:
        print(f"not in field: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_FIELD
    except NotCommuting as exc:
        print(f"not commuting: {exc}", file=sys.stderr)
        return EXIT_NOT_COMMUTING
    except DegenerateParameter as exc:
        print(f"degenerate parameter: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except SloccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        # a crash must not read as exit 1, "inequivalent"
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
