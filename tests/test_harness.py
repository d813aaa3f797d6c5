"""Deterministic generators and the randomized trial runner."""

import json
import random

import pytest

from sloccanon.canon import (ILOTriple, apply_ilo, commuting_pair_canonical,
                             full_rank_reduce)
from sloccanon.errors import PatternViolation, SloccError
from sloccanon.exactmat import Matrix
from sloccanon.harness import (SIZE_PATTERNS, TRIAL_SUITES, _random_form,
                               gen_canonical, gen_ilo, gen_params,
                               mobius_trial, nilpoly_trial,
                               oracle_recanonicalize, roundtrip_trial,
                               run_trials, symmetry_trial, write_jsonl)
from sloccanon.symmetry import matrix_of_params


# -- generators -------------------------------------------------------------

def test_gen_canonical_is_deterministic():
    profile = ((1, 2), (3, 1))
    assert gen_canonical(7, profile) == gen_canonical(7, profile)
    assert gen_canonical(7, profile) != gen_canonical(8, profile)
    assert gen_canonical(7, profile).dim == 3


def test_gen_canonical_respects_profile():
    cf = gen_canonical(3, ((0, 2), (0, 2), (5, 1)))
    assert cf.is_derogatory()
    assert [(lam.re, size) for lam, size in cf.blocks] == \
        [(0, 2), (0, 2), (5, 1)]
    j, a = cf.assemble()
    assert (j @ a - a @ j).is_zero()


def test_gen_canonical_rejects_bad_profiles():
    with pytest.raises(PatternViolation):
        gen_canonical(0, ((0, 0),))


def test_gen_ilo_draws_an_upper_unitriangular_t():
    tri = gen_ilo(11, 3)
    assert tri.t[0, 0] == Matrix.identity(1)[0, 0]
    for i in range(3):
        for j in range(i):
            assert tri.t[i, j].is_zero()
    assert tri.p.rows == tri.q.rows == 3
    assert gen_ilo(11, 3) == gen_ilo(11, 3)


def test_gen_params_deterministic():
    assert gen_params(random.Random(5)) == gen_params(random.Random(5))


def test_oracle_recanonicalize_identity_fixed_point():
    cf = gen_canonical(21, ((2, 3), (0, 1)))
    assert oracle_recanonicalize(cf, Matrix.identity(3)) == cf


def _outcome(fn):
    """fn's result, or the type of the domain error it raised."""
    try:
        return fn()
    except SloccError as exc:
        return type(exc)


def _ilo_reference(cf, t):
    """The canonical form of the full (T, I, I) action on cf's state."""
    n = cf.dim
    ops = ILOTriple(t, Matrix.identity(n), Matrix.identity(n))
    reduced = full_rank_reduce(apply_ilo(cf.assemble_state(), ops))
    return commuting_pair_canonical(reduced.gammas[1], reduced.gammas[2])[0]


@pytest.mark.parametrize("seed", range(8))
def test_oracle_mixing_by_t_is_the_ilo_action(seed):
    rng = random.Random(seed)
    _, cf = _random_form(rng)
    t = matrix_of_params(gen_params(rng))
    assert _outcome(lambda: oracle_recanonicalize(cf, t)) == \
        _outcome(lambda: _ilo_reference(cf, t))


# -- trials -----------------------------------------------------------------

def test_size_patterns_cover_derogatory_and_plain():
    assert any(len(run) > 1 for pattern in SIZE_PATTERNS for run in pattern)
    assert any(all(len(run) == 1 for run in pattern)
               for pattern in SIZE_PATTERNS)
    assert max(sum(sum(run) for run in p) for p in SIZE_PATTERNS) <= 6


@pytest.mark.parametrize("trial", [symmetry_trial, mobius_trial,
                                   nilpoly_trial, roundtrip_trial])
def test_each_trial_kind_passes_smoke(trial):
    for seed in range(4):
        record = trial(seed)
        assert record["verdict"] in ("pass", "degenerate")
        assert set(record) >= {"seed", "profile", "verdict", "redraws"}


def test_trial_records_are_reproducible():
    assert symmetry_trial(42) == symmetry_trial(42)


def test_run_trials_and_report(tmp_path):
    records = run_trials(5, seed=1, trial=nilpoly_trial)
    assert len(records) == 5
    assert all(r["verdict"] == "pass" for r in records)
    path = tmp_path / "report.jsonl"
    write_jsonl(records, path)
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == records


def test_trial_suites_registry():
    assert set(TRIAL_SUITES) == {"oracle", "2nn", "nilpoly", "roundtrip"}
