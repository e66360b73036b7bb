"""Acceptance suite: one test per criterion, one printed verdict line each.

The three million-sample method runs and their reference oracles are shared
module-scoped fixtures so the whole suite costs one pass over each fixture
problem (about two minutes total).
"""

import contextlib
import io
import time

import numpy as np
import pytest

from lingauss.cli import main
from lingauss.elliptical_slice import active_arcs, fill_chain
from lingauss.feasibility import find_feasible_point
from lingauss.fixtures import pentagon_problem, write_pentagon_files
from lingauss.oracles import conditional_direct_sample, rejection_sample
from lingauss.problem import ProblemSpec
from lingauss.sampler import sample_constrained
from lingauss.stats import compare_stats, sample_stats
from lingauss.transform import build_transform
from test_feasibility import planned_region

N_METHOD = 1_000_000
REJECTION_PROPOSALS = 10_000_000
CONDITIONAL_PROPOSALS = 1_000_000
SIGMA_LEVEL = 4.0


def verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def inequality_spec():
    return pentagon_problem("inequality")


@pytest.fixture(scope="module")
def equality_spec():
    return pentagon_problem("equality")


@pytest.fixture(scope="module")
def both_spec():
    return pentagon_problem("both")


@pytest.fixture(scope="module")
def inequality_run(inequality_spec):
    return sample_constrained(inequality_spec, N_METHOD, 2024)


@pytest.fixture(scope="module")
def equality_run(equality_spec):
    return sample_constrained(equality_spec, N_METHOD, 2025)


@pytest.fixture(scope="module")
def both_run(both_spec):
    return sample_constrained(both_spec, N_METHOD, 2026)


@pytest.fixture(scope="module")
def rejection_report(inequality_spec):
    started = time.perf_counter()
    report = rejection_sample(
        inequality_spec, REJECTION_PROPOSALS, np.random.default_rng(1017)
    )
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def conditional_equality_report(equality_spec):
    return conditional_direct_sample(
        equality_spec, CONDITIONAL_PROPOSALS, np.random.default_rng(1018)
    )


@pytest.fixture(scope="module")
def conditional_both_report(both_spec):
    started = time.perf_counter()
    report = conditional_direct_sample(
        both_spec,
        CONDITIONAL_PROPOSALS,
        np.random.default_rng(1019),
        inequality_filter=(both_spec.A, both_spec.b),
    )
    return report, time.perf_counter() - started


def test_criterion_1_rejection_acceptance_rate(rejection_report):
    report, elapsed = rejection_report
    rate_ok = 2e-5 <= report.acceptance_rate <= 1.2e-4
    time_ok = elapsed < 120.0
    verdict(
        1,
        rate_ok and time_ok,
        f"rate {report.acceptance_rate:.3e} in [2e-05, 1.2e-04] with "
        f"{report.accepted} of {report.proposals} kept, {elapsed:.1f}s < 120s",
    )


def test_criterion_2_conditional_acceptance_rate(conditional_both_report):
    report, elapsed = conditional_both_report
    rate_ok = abs(report.acceptance_rate - 0.12) <= 0.02
    time_ok = elapsed < 60.0
    verdict(
        2,
        rate_ok and time_ok,
        f"filtered rate {report.acceptance_rate:.4f} in 0.12 +/- 0.02 with "
        f"{report.accepted} of {report.proposals} kept, {elapsed:.1f}s < 60s",
    )


def test_criterion_3_method_vs_oracle_moments_three_ways(
    inequality_run,
    equality_run,
    both_run,
    rejection_report,
    conditional_equality_report,
    conditional_both_report,
):
    pairs = (
        ("i", inequality_run, rejection_report[0]),
        ("ii", equality_run, conditional_equality_report),
        ("iii", both_run, conditional_both_report[0]),
    )
    details = []
    all_ok = True
    for tag, run, oracle in pairs:
        method = sample_stats(run.samples, independent=run.report.chain_steps == 0)
        reference = sample_stats(oracle.samples, independent=True)
        report = compare_stats(method, reference, sigma_level=SIGMA_LEVEL)
        all_ok &= report.all_passed
        details.append(f"({tag}) max z {report.max_z:.2f}")
    verdict(
        3,
        all_ok,
        f"mean and covariance agreement at sigma level {SIGMA_LEVEL:g}: "
        + ", ".join(details),
    )


def test_criterion_4_exact_constraint_satisfaction(
    inequality_spec,
    equality_spec,
    both_spec,
    inequality_run,
    equality_run,
    both_run,
):
    checks = []
    ok = True
    for spec, run, label in (
        (inequality_spec, inequality_run, "inequality"),
        (equality_spec, equality_run, "equality"),
        (both_spec, both_run, "combined"),
    ):
        samples = run.samples
        assert samples.shape[0] == N_METHOD
        if spec.p:
            residual = float(np.abs(samples @ spec.C.T + spec.d).max())
            ok &= residual <= 1e-8
            checks.append(f"{label} |Cx+d| {residual:.2e}")
        if spec.m:
            worst = float((samples @ spec.A.T + spec.b).min())
            ok &= worst >= -1e-6
            checks.append(f"{label} min(Ax+b) {worst:.2e}")
    verdict(4, ok, "; ".join(checks) + f" over {N_METHOD} samples per fixture")


def test_criterion_5_analytic_half_normal():
    spec = ProblemSpec(
        mu=np.zeros(1), sigma=np.eye(1), A=np.array([[1.0]]), b=np.array([0.0])
    )
    transformed = build_transform(spec)
    chain = np.empty((100_000, 1))  # sigma = 1 and mu = 0: the chain's u is x
    fill_chain(transformed, np.array([1.0]), chain, np.random.default_rng(301))
    stats = sample_stats(chain)
    mean_target = float(np.sqrt(2 / np.pi))
    var_target = 1 - 2 / np.pi
    ess = float(stats.ess[0])
    variance = float(stats.covariance[0, 0])
    var_se = float(np.sqrt(2.0 * variance**2 / ess))
    z_mean = abs(float(stats.mean[0]) - mean_target) / float(stats.mean_se[0])
    z_var = abs(variance - var_target) / var_se
    verdict(
        5,
        z_mean <= SIGMA_LEVEL and z_var <= SIGMA_LEVEL,
        f"mean z {z_mean:.2f} vs sqrt(2/pi), variance z {z_var:.2f} vs 1-2/pi "
        f"at ess {ess:.0f} of 100000 steps",
    )


def test_criterion_6_equality_closed_form(equality_spec, equality_run):
    # the paper's map from the raw (C, d): E = sigma C' (C sigma C')^-1, F = I - E C
    mu, sigma, C, d = equality_spec.mu, equality_spec.sigma, equality_spec.C, equality_spec.d
    E = sigma @ C.T @ np.linalg.inv(C @ sigma @ C.T)
    F = np.eye(equality_spec.n) - E @ C
    target_mean = F @ mu - E @ d
    target_cov = F @ sigma @ F.T
    transformed = build_transform(equality_spec)
    stats = sample_stats(equality_run.samples, independent=True)
    z_mean = float((np.abs(stats.mean - target_mean) / stats.mean_se).max())
    dim = equality_spec.n
    z_cov = 0.0
    for i in range(dim):
        for j in range(i, dim):
            se = np.sqrt(
                (stats.covariance[i, i] * stats.covariance[j, j] + stats.covariance[i, j] ** 2)
                / stats.n
            )
            z_cov = max(z_cov, abs(stats.covariance[i, j] - target_cov[i, j]) / se)
    B, g = transformed.B, transformed.g
    identities = max(
        float(np.abs(B @ B.T - target_cov).max()),
        float(np.abs(C @ B).max()),
        float(np.abs(C @ g + d).max()),
        float(np.abs(g - target_mean).max()),
    )
    verdict(
        6,
        z_mean <= SIGMA_LEVEL and z_cov <= SIGMA_LEVEL and identities <= 1e-8,
        f"mean z {z_mean:.2f} vs F mu - E d, cov z {z_cov:.2f} vs F Sigma F', "
        f"B B' = F Sigma F', C B = 0, C g + d = 0 and g = F mu - E d "
        f"within {identities:.2e} <= 1e-08",
    )


def test_criterion_7_feasibility_classifier(inequality_spec):
    # (a) infeasible pair; the plan names each region's kind, since an empty
    # interior is a point mass only once its implicit equalities are solved
    infeasible = planned_region(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))[0]
    # (b) point-mass pair
    pinned = planned_region(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))[0]
    # (c) the fixture polytope
    transformed = build_transform(inequality_spec)
    pentagon = find_feasible_point(transformed.H, transformed.k).kind
    kinds_ok = (
        infeasible == "infeasible" and pinned == "point_mass" and pentagon == "full_dimensional"
    )

    # brute-force 2-D grid confirmations
    axis = np.linspace(-3.0, 3.0, 601)
    xx, yy = np.meshgrid(axis, axis)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    box_h = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    empty_k = np.array([-2.0, 0.0, 0.0, 0.0])  # y1 >= 2 and y1 <= 0
    empty_mask = np.all(points @ box_h.T + empty_k >= 0, axis=1)
    full_k = np.array([1.0, 2.0, 1.0, 2.0])
    full_mask = np.all(points @ box_h.T + full_k >= 0, axis=1)
    point_k = np.array([-1.0, 1.0, -1.0, 1.0])
    point_points = points[np.all(points @ box_h.T + point_k >= 0, axis=1)]
    grid_ok = (
        not empty_mask.any()
        and planned_region(box_h, empty_k)[0] == "infeasible"
        and full_mask.sum() > 1_000
        and planned_region(box_h, full_k)[0] == "full_dimensional"
        and point_points.shape[0] >= 1
        and (point_points.max(axis=0) - point_points.min(axis=0)).max() < 0.02
        and planned_region(box_h, point_k)[0] == "point_mass"
    )
    verdict(
        7,
        kinds_ok and grid_ok,
        f"three-way kinds ({infeasible} / {pinned} / {pentagon}) "
        "with 2-D grid confirmation of all three classes",
    )


def test_criterion_8_arc_oracle_equivalence():
    n_grid = 10_000
    theta = 2 * np.pi * np.arange(n_grid) / n_grid
    rng = np.random.default_rng(401)
    worst = 0.0
    for _ in range(1_000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        H = rng.normal(size=(m, n))
        y = rng.normal(size=n)
        k = rng.uniform(0.05, 1.0, size=m) - H @ y  # y strictly feasible
        nu = rng.normal(size=n)
        arcs = active_arcs(y, nu, H, k)
        values = (
            np.outer(np.cos(theta), H @ y) + np.outer(np.sin(theta), H @ nu) + k
        )
        feasible = np.all(values >= 0.0, axis=1)
        member = np.zeros(n_grid, dtype=bool)
        for start, end in arcs.intervals:
            member |= (theta >= start) & (theta <= end)
        disagreements = np.flatnonzero(member != feasible)
        if disagreements.size:
            endpoints = np.concatenate(
                [arcs.intervals.ravel(), arcs.intervals.ravel() - 2 * np.pi,
                 arcs.intervals.ravel() + 2 * np.pi]
            )
            gap = np.abs(theta[disagreements][:, None] - endpoints[None, :]).min(axis=1)
            worst = max(worst, float(gap.max()))
    verdict(
        8,
        worst < 1e-3,
        f"1000 random instances vs {n_grid}-point grid oracle, "
        f"largest boundary mismatch {worst:.2e} rad < 1e-03",
    )


def test_criterion_9_byte_identical_csv(tmp_path):
    write_pentagon_files(tmp_path)
    ok = True
    details = []
    for stem, extra in (
        ("pentagon_inequality", ["--chains", "2"]),
        ("pentagon_equality", []),
        ("pentagon_combined", []),
    ):
        first = tmp_path / f"{stem}_a.csv"
        second = tmp_path / f"{stem}_b.csv"
        args = [
            "sample",
            "--problem",
            str(tmp_path / f"{stem}.json"),
            "--n",
            "1000",
            "--seed",
            "97",
        ] + extra
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args + ["--out", str(first)]) == 0
            assert main(args + ["--out", str(second)]) == 0
        identical = first.read_bytes() == second.read_bytes()
        ok &= identical
        details.append(f"{stem} {'identical' if identical else 'DIFFERS'}")
    verdict(9, ok, "two consecutive seeded runs per fixture: " + "; ".join(details))
