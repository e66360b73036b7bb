"""Inequality rows that are constant wherever the law has mass.

R is a random rotation with rows R0, R1, R2. On the plane R2 . x = 0.5
with sigma = I (or, without the plane, with sigma = R0'R0 + R1'R1 and
mu = 0.5 R2), the law is N(0, I_2) in (R0 . x, R1 . x), and R2 . x = 0.5
wherever it has mass. The row R2 . x >= 0.5 then holds there, up to
roundoff, and bounds nothing; the cut R0 . x >= -1 gives the closed forms
P(R1 . x > 0) = 0.5 and E[R0 . x] = phi(1) / Phi(1).
"""

import math

import numpy as np
import pytest

from lingauss.cli import main
from lingauss.oracles import rejection_sample
from lingauss.problem import ProblemSpec, save_problem
from lingauss.sampler import plan, sample_constrained
from lingauss.stats import sample_stats

CUT_MASS = 0.5 * (1.0 + math.erf(math.sqrt(0.5)))  # P(R0 . x >= -1) = Phi(1)
CUT_MEAN = math.exp(-0.5) / math.sqrt(2.0 * math.pi) / CUT_MASS


def rotation(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return q


def on_plane(seed, offset=0.0, cut=True):
    """sigma = I on R2 . x = 0.5, the constant row R2 . x >= 0.5 + offset,
    then (with cut) R0 . x >= -1."""
    R = rotation(seed)
    A, b = np.vstack([R[2], R[0]]), np.array([-0.5 - offset, 1.0])
    if not cut:
        A, b = A[:1], b[:1]
    return ProblemSpec(mu=np.zeros(3), sigma=np.eye(3), A=A, b=b, C=R[2:], d=[-0.5]), R


def singular_sigma(seed, offset=0.0):
    """sigma = R0'R0 + R1'R1 and mu = 0.5 R2: no mass off R2 . x = 0.5."""
    R = rotation(seed)
    A, b = np.vstack([R[2], R[0]]), np.array([-0.5 - offset, 1.0])
    return ProblemSpec(mu=0.5 * R[2], sigma=R[:2].T @ R[:2], A=A, b=b), R


def without_constant_row(spec):
    C, d = (spec.C, spec.d) if spec.p else (None, None)
    return ProblemSpec(mu=spec.mu, sigma=spec.sigma, A=spec.A[1:], b=spec.b[1:], C=C, d=d)


VARIANTS = {"plane": on_plane, "singular_sigma": singular_sigma}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_constant_row_leaves_the_closed_form_law(variant, seed):
    spec, R = VARIANTS[variant](seed)
    planned = plan(spec)
    assert planned.transformed.G.shape[0] == 1  # only the cut reaches the chain
    outcome = sample_constrained(spec, 20_000, 1)
    assert outcome.status == "samples" and outcome.report.chain_steps == 20_000
    x = outcome.samples
    stats = sample_stats(np.column_stack([x @ R[1] > 0.0, x @ R[0]]).astype(float))
    z = np.abs(stats.mean - [0.5, CUT_MEAN]) / stats.mean_se
    assert (z <= 4.5).all(), (stats.mean, z)
    np.testing.assert_allclose(x @ R[2], 0.5, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_constant_row_with_slack_leaves_the_samples_bit_for_bit(seed):
    spec, _ = on_plane(seed, offset=-1e-3)
    outcome = sample_constrained(spec, 500, 3)
    alone = sample_constrained(without_constant_row(spec), 500, 3)
    assert np.array_equal(outcome.samples, alone.samples)
    assert outcome.report.lp_pivots == alone.report.lp_pivots


@pytest.mark.parametrize("seed", range(4))
def test_constant_row_with_slack_leaves_the_plan_under_a_singular_sigma(seed):
    # without equalities k = A mu + b, and a product over two rows can round
    # the cut's entry one ulp away from a product over one (seed 3), so the
    # remaining rows and the start agree to roundoff, not bit for bit
    spec, _ = singular_sigma(seed, offset=-1e-3)
    planned, alone = plan(spec), plan(without_constant_row(spec))
    for field in ("G", "k"):
        kept, only = getattr(planned.transformed, field), getattr(alone.transformed, field)
        np.testing.assert_allclose(kept, only, rtol=0, atol=1e-15)
    np.testing.assert_allclose(planned.start, alone.start, rtol=0, atol=1e-15)
    assert planned.report.lp_pivots == alone.report.lp_pivots


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_violated_constant_row_is_impossible(variant, seed):
    spec, _ = VARIANTS[variant](seed, offset=1e-3)
    outcome = sample_constrained(spec, 10, 1)
    assert outcome.status == "impossible"
    assert outcome.reason == "an inequality fails wherever the law has mass"
    assert outcome.report.lp_solves == 0


def test_only_constant_rows_draw_directly():
    spec, _ = on_plane(0, cut=False)
    outcome = sample_constrained(spec, 1_000, 5)
    assert outcome.report.chain_steps == 0 and outcome.report.lp_solves == 0
    plane_only = ProblemSpec(mu=spec.mu, sigma=spec.sigma, C=spec.C, d=spec.d)
    assert np.array_equal(outcome.samples, sample_constrained(plane_only, 1_000, 5).samples)


def write(tmp_path, spec):
    path = tmp_path / "problem.json"
    save_problem(spec, path)
    return str(path)


def test_cli_refuses_a_violated_constant_row(tmp_path, capsys):
    path = write(tmp_path, on_plane(0, offset=1e-3)[0])
    assert main(["check", "--problem", path]) == 2
    check_err = capsys.readouterr().err
    out = str(tmp_path / "draws.csv")
    assert main(["sample", "--problem", path, "--n", "5", "--seed", "1", "--out", out]) == 2
    assert capsys.readouterr().err == check_err
    assert "fails wherever the law has mass" in check_err


def test_cli_draws_directly_when_every_row_is_constant(tmp_path, capsys):
    path = write(tmp_path, on_plane(0, cut=False)[0])
    assert main(["check", "--problem", path]) == 0
    checked = capsys.readouterr().out
    assert "feasible: normal restricted to a plane, direct sampling applies" in checked
    assert "linear programs: 0 (0 pivots)" in checked
    out = str(tmp_path / "draws.csv")
    assert main(["sample", "--problem", path, "--n", "50", "--seed", "1", "--out", out]) == 0
    assert "chain steps" not in capsys.readouterr().out


def test_conditional_oracle_agrees_on_a_constant_row(tmp_path, capsys):
    path = write(tmp_path, on_plane(0)[0])
    command = ["compare", "--problem", path, "--n", "20000", "--seed", "1"]
    assert main(command + ["--oracle", "conditional"]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("seed", range(4))
def test_rejection_oracle_keeps_the_law_under_a_singular_sigma(seed):
    # the oracle proposes through L_rank alone (seed 1's factor has a null
    # column of 1e-8) and keeps R2 . x >= 0.5 up to roundoff: both are needed
    spec, R = singular_sigma(seed)
    report = rejection_sample(spec, 200_000, np.random.default_rng(seed))
    se = math.sqrt(CUT_MASS * (1.0 - CUT_MASS) / report.proposals)
    assert abs(report.acceptance_rate - CUT_MASS) <= 4.5 * se
    stats = sample_stats(report.samples @ R[0][:, None], independent=True)
    assert abs(stats.mean[0] - CUT_MEAN) <= 4.5 * stats.mean_se[0]


@pytest.mark.parametrize("seed", range(4))
def test_rejection_oracle_agrees_on_a_constant_row_under_a_singular_sigma(tmp_path, capsys, seed):
    path = write(tmp_path, singular_sigma(seed)[0])
    command = ["compare", "--problem", path, "--n", "20000", "--seed", "1"]
    assert main(command + ["--oracle", "rejection", "--proposals", "200000"]) == 0, (
        capsys.readouterr().out
    )
