"""Checks of the program's outputs against independent references.

None of these import the program. Each check returns a list of failure
messages; an empty list means the output passed.

- Every sample satisfies A x + b >= -tol and |C x + d| <= tol, with tol
  relative to the size of the terms summed.
- Moments agree with a reference at Z_LIMIT standard errors. Chain standard
  errors use the benchmark's own ESS per series (bench/ess.py).
- Verdicts match the construction of the input.
- Start points are strictly interior.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ess import coordinate_ess
from workloads import REFERENCE

Z_LIMIT = 5.0
REL_TOL = 1e-9
POINT_TOL = 1e-6
RADIUS_TOL = 1e-6


def constraint_failures(samples, arrays) -> list[str]:
    """A x + b >= -tol and |C x + d| <= tol for every row of `samples`."""
    x = np.atleast_2d(samples)
    failures = []
    for name, mat, vec, two_sided in (
        ("A x + b", arrays.get("A"), arrays.get("b"), False),
        ("C x + d", arrays.get("C"), arrays.get("d"), True),
    ):
        if mat is None:
            continue
        value = x @ mat.T + vec
        tol = REL_TOL * (np.abs(x) @ np.abs(mat).T + np.abs(vec) + 1.0)
        bad = (np.abs(value) > tol) if two_sided else (value < -tol)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            failures.append(
                f"{int(bad.sum())} violations of {name}, first: sample {row} row {col} "
                f"value {value[row, col]:.3e}"
            )
    return failures


def _moment_failures(label, estimate, se, reference, reference_se) -> list[str]:
    combined = np.hypot(se, reference_se)
    z = np.abs(estimate - reference) / combined
    worst = int(np.argmax(z))
    if z[worst] > Z_LIMIT:
        return [
            f"{label}[{worst}] = {estimate[worst]:.6g} vs reference {reference[worst]:.6g}: "
            f"z = {z[worst]:.1f} > {Z_LIMIT}"
        ]
    return []


def chain_moments(samples, chains=1):
    """Means and variances with ESS-based standard errors."""
    ess_x, ess_sq = coordinate_ess(samples, chains)
    mean = samples.mean(axis=0)
    squares = (samples - mean) ** 2
    var = squares.mean(axis=0) * len(samples) / (len(samples) - 1)
    return {
        "mean": mean,
        "mean_se": np.sqrt(var / ess_x),
        "var": var,
        "var_se": squares.std(axis=0, ddof=1) / np.sqrt(ess_sq),
    }


def iid_moments(samples):
    """Means and variances with iid standard errors."""
    n = len(samples)
    mean = samples.mean(axis=0)
    squares = (samples - mean) ** 2
    return {
        "mean": mean,
        "mean_se": samples.std(axis=0, ddof=1) / math.sqrt(n),
        "var": squares.mean(axis=0) * n / (n - 1),
        "var_se": squares.std(axis=0, ddof=1) / math.sqrt(n),
    }


def moment_failures(got, reference) -> list[str]:
    return _moment_failures(
        "mean", got["mean"], got["mean_se"], reference["mean"], reference["mean_se"]
    ) + _moment_failures("var", got["var"], got["var_se"], reference["var"], reference["var_se"])


def stored_inequality_reference() -> dict:
    doc = json.loads((REFERENCE / "pentagon_inequality_moments.json").read_text())
    return {key: np.array(doc[key]) for key in ("mean", "mean_se", "var", "var_se")}


def conditional_law(arrays):
    """Closed-form mean and covariance of N(mu, sigma) given C x + d = 0."""
    mu, sigma, C, d = arrays["mu"], arrays["sigma"], arrays["C"], arrays["d"]
    gain = np.linalg.solve(C @ sigma @ C.T, C @ sigma).T  # sigma C' (C sigma C')^-1
    return mu - gain @ (C @ mu + d), sigma - gain @ C @ sigma


def equality_failures(samples, arrays) -> list[str]:
    """Direct draws on the plane against the closed-form conditional law."""
    n = len(samples)
    mean, cov = conditional_law(arrays)
    var = np.diag(cov).copy()
    zero = np.zeros_like(mean)
    reference = {"mean": mean, "mean_se": zero, "var": var, "var_se": zero}
    got = iid_moments(samples)
    got["mean_se"] = np.sqrt(var / n)  # exact iid errors of the known law
    got["var_se"] = var * math.sqrt(2.0 / (n - 1))
    return moment_failures(got, reference)


def latent_region(arrays, independent=None):
    """(H, k, g) of the latent problem y ~ N(0, sigma), H y + k >= 0, x = F y + g.

    Without equalities F = I and g = mu. With them, F = I - gain C and g is
    the conditional mean; `independent` gives a full-rank (C, d) for the same
    plane when the input's C has redundant rows.
    """
    A, b, mu = arrays["A"], arrays["b"], arrays["mu"]
    if arrays.get("C") is None:
        return A, A @ mu + b, mu
    C, d = independent if independent is not None else (arrays["C"], arrays["d"])
    sigma = arrays["sigma"]
    gain = np.linalg.solve(C @ sigma @ C.T, C @ sigma).T
    g = mu - gain @ (C @ mu + d)
    return A @ (np.eye(mu.size) - gain @ C), A @ g + b, g


def plane_root(cov):
    """A square root of a rank-deficient covariance; roundoff-sized
    eigenvalues count as zero so that draws stay on the plane."""
    values, vectors = np.linalg.eigh(0.5 * (cov + cov.T))
    values[values < 1e-12 * values.max()] = 0.0
    return vectors * np.sqrt(values)


def plane_rejection_reference(arrays, draws, rng, batch=200_000):
    """Draws of the conditional law on the plane, kept where A x + b >= 0."""
    mean, cov = conditional_law(arrays)
    root = plane_root(cov)
    kept = []
    for start in range(0, draws, batch):
        x = mean + rng.standard_normal((min(batch, draws - start), mean.size)) @ root.T
        kept.append(x[np.all(x @ arrays["A"].T + arrays["b"] >= 0.0, axis=1)])
    return iid_moments(np.vstack(kept))


def _truncated_normal_moments(lo, hi):
    """Mean and variance of N(0, 1) restricted to [lo, hi], elementwise."""
    pdf_lo, pdf_hi = (np.exp(-0.5 * v**2) / math.sqrt(2.0 * math.pi) for v in (lo, hi))
    erf = np.vectorize(math.erf)
    mass = 0.5 * (erf(hi / math.sqrt(2.0)) - erf(lo / math.sqrt(2.0)))
    mean = (pdf_lo - pdf_hi) / mass
    var = 1.0 + (lo * pdf_lo - hi * pdf_hi) / mass - mean**2
    return mean, var


def box_failures(samples, arrays, info) -> list[str]:
    """Whitened coordinates z = L^-1 (x - mu) against truncated-normal moments."""
    z = (samples - arrays["mu"]) @ info["whiten"].T
    mean, var = _truncated_normal_moments(info["lo"], info["hi"])
    zero = np.zeros_like(mean)
    return moment_failures(
        chain_moments(z), {"mean": mean, "mean_se": zero, "var": var, "var_se": zero}
    )


def interior_failures(H, k, point) -> list[str]:
    """A start point must hold positive slack on every row."""
    slack = H @ point + k
    if slack.min() <= 0.0:
        return [f"start point is not strictly interior: min slack {slack.min():.3e}"]
    return []


def chebyshev_radius(H, k) -> float:
    """max s with H y + k >= s * |h_i|, s <= 1, from scipy's HiGHS."""
    from scipy.optimize import linprog

    m, n = H.shape
    norms = np.linalg.norm(H, axis=1)
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    result = linprog(
        cost,
        A_ub=np.hstack([-H, norms[:, None]]),
        b_ub=k,
        bounds=[(None, None)] * n + [(None, 1.0)],
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"reference Chebyshev LP ended with status {result.status}")
    return float(-result.fun)


def verdict_failures(case, status, point=None) -> list[str]:
    """The verdict the input was built to have; the constructed point for point masses."""
    if status != case.expect:
        return [f"verdict {status!r}, built to be {case.expect!r}"]
    if status == "point_mass":
        want = case.info["point"]
        if np.linalg.norm(point - want) > POINT_TOL * (1.0 + np.linalg.norm(want)):
            return [f"point mass off the constructed point by {np.linalg.norm(point - want):.3e}"]
    return []


def radius_failures(got, want) -> list[str]:
    if got is None or abs(got - want) > RADIUS_TOL * max(1.0, abs(want)):
        return [f"Chebyshev radius {got} vs reference {want:.9g}"]
    return []
