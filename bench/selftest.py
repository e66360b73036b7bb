"""Self-tests of the benchmark's own parts. Imports nothing from the program.

    python3 bench/selftest.py --seed 7

- The ESS estimator matches the known ESS of AR(1) series, n (1 - r) / (1 + r).
- Each check passes correct input and rejects a wrong one: shifted samples,
  one sample outside a row, a point on a face, a wrong radius and a
  swapped verdict.
- Each generator yields the verdict it was built for, judged by scipy's
  HiGHS on the row-normalised system and by ranks of the equality system.

Exits 1 if any test fails.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from scipy.optimize import linprog

import checks
from ess import geyer_ess, min_ess
from workloads import box, classify, pentagon

RESULTS: list[tuple[str, bool]] = []


def expect(name, condition) -> None:
    RESULTS.append((name, bool(condition)))
    print(f"{'PASS' if condition else 'FAIL'}  {name}")


def ar1(rng, n, rho):
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1.0 - rho**2)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


def selftest_ess(rng) -> None:
    n = 100_000
    for rho in (0.0, 0.5, 0.9):
        known = n * (1.0 - rho) / (1.0 + rho)
        got = geyer_ess(ar1(rng, n, rho))[0]
        expect(f"ESS of AR(1), rho {rho}: {got:.0f} vs {known:.0f}", abs(got / known - 1) < 0.1)
    # the square of a Gaussian AR(1) has lag correlation rho^2, so x sets the minimum
    x = ar1(rng, n, 0.9)
    ratio = min_ess(x[:, None]) / geyer_ess(x)[0]
    expect("min ESS over x and x^2 is the ESS of x", abs(ratio - 1) < 1e-12)
    chains = np.concatenate([ar1(rng, n // 4, 0.5) for _ in range(4)])[:, None]
    total = min_ess(chains, chains=4)
    expect(f"ESS of 4 chains adds up: {total:.0f} vs {n / 3:.0f}", abs(total / (n / 3) - 1) < 0.1)


def box_draws(case, rng, count):
    """iid draws of the box's law: independent truncated normals in z, then x."""
    info = case.info
    z = np.empty((count, info["lo"].size))
    for i, (lo, hi) in enumerate(zip(info["lo"], info["hi"])):
        column = rng.standard_normal(4 * count)
        z[:, i] = column[(column >= lo) & (column <= hi)][:count]
    return case.arrays["mu"] + z @ np.linalg.inv(info["whiten"]).T


def selftest_checks(seed, rng) -> None:
    case = box(seed)[0]
    arrays, info = case.arrays, case.info
    draws = box_draws(case, rng, 20_000)
    expect("box: iid draws pass the row check", not checks.constraint_failures(draws, arrays))
    expect("box: iid draws pass the moment check", not checks.box_failures(draws, arrays, info))
    outside = draws.copy()
    a, b = arrays["A"][0], arrays["b"][0]
    outside[5] -= (a @ outside[5] + b + 1e-3) * a / (a @ a)  # just past row 0
    expect("box: one sample outside a row fails", checks.constraint_failures(outside, arrays))
    shift = np.linalg.inv(info["whiten"])[:, 0] * 0.05  # z_0 moved by 0.05
    expect("box: shifted samples fail", checks.box_failures(draws + shift, arrays, info))

    arrays = pentagon(seed)[1].arrays
    mean, cov = checks.conditional_law(arrays)
    root = checks.plane_root(cov)
    draws = mean + rng.standard_normal((200_000, mean.size)) @ root.T
    expect("equality: exact draws pass", not checks.equality_failures(draws, arrays))
    expect("equality: exact draws lie on the plane", not checks.constraint_failures(draws, arrays))
    shift = root[:, -1] * 0.05  # along the plane's direction of largest variance
    expect("equality: shifted samples fail", checks.equality_failures(draws + shift, arrays))
    off_plane = draws.copy()
    off_plane[7] += 1e-3 * arrays["C"][0]
    off = checks.constraint_failures(off_plane, arrays)
    expect("equality: one sample off the plane fails", off)

    reference = checks.stored_inequality_reference()
    shifted = dict(reference, mean=reference["mean"] + 10 * reference["mean_se"])
    same = checks.moment_failures(reference, reference)
    expect("inequality: the stored reference passes", not same)
    expect("inequality: a shifted mean fails", checks.moment_failures(shifted, reference))


def normalised(A, b):
    norms = np.linalg.norm(A, axis=1)
    return A / norms[:, None], b / norms


def lp(cost, A, b):
    """min cost . x subject to A x + b >= 0, x free."""
    return linprog(cost, A_ub=-A, b_ub=b, bounds=[(None, None)] * A.shape[1])


def coordinate_extent(A, b) -> float:
    """Largest width of the region along a coordinate axis."""
    return max(-lp(-c, A, b).fun - lp(c, A, b).fun for c in np.eye(A.shape[1]))


def built_verdict(case) -> str:
    """The verdict of one classify input, decided without the program."""
    arrays = case.arrays
    A, b, C, d = arrays["A"], arrays["b"], arrays["C"], arrays["d"]
    if C is not None:
        rank = np.linalg.matrix_rank(C)
        if rank < np.linalg.matrix_rank(np.hstack([C, d[:, None]])):
            return "impossible"
        if rank == C.shape[1]:
            x = np.linalg.lstsq(C, -d, rcond=None)[0]
            return "point_mass" if np.all(A @ x + b > 0) else "impossible"
        H, k, _ = checks.latent_region(arrays, case.info.get("independent"))
        return "samples" if checks.chebyshev_radius(*normalised(H, k)) > 1e-6 else "flat"
    A, b = normalised(A, b)
    if lp(np.zeros(A.shape[1]), A, b).status != 0:
        return "impossible"
    if checks.chebyshev_radius(A, b) > 1e-6:
        return "samples"
    return "point_mass" if coordinate_extent(A, b) < 1e-6 else "degenerate"


def selftest_generators(seed) -> None:
    for case in classify(seed):
        name = f"classify/{case.name}"
        got = built_verdict(case)
        expect(f"{name}: built {case.expect!r}, judged {got!r}", got == case.expect)
        if case.expect == "point_mass":
            p = case.info["point"]
            passes = not checks.verdict_failures(case, "point_mass", p)
            expect(f"{name}: the constructed point passes", passes)
            moved = checks.verdict_failures(case, "point_mass", p + 1e-3)
            expect(f"{name}: a moved point fails", moved)
        swapped = "impossible" if case.expect != "impossible" else "samples"
        expect(f"{name}: a swapped verdict fails", checks.verdict_failures(case, swapped))

    case = box(seed)[0]
    H, k, _ = checks.latent_region(case.arrays)
    radius = checks.chebyshev_radius(H, k)
    expect(f"box: full-dimensional, radius {radius:.3f}", radius > 0.1)
    middle = np.linalg.inv(case.info["whiten"]) @ (case.info["lo"] + case.info["hi"]) / 2
    expect("box: its middle is strictly interior", not checks.interior_failures(H, k, middle))
    on_face = k.copy()
    on_face[0] = -H[0] @ middle  # row 0 now passes through the point
    expect("box: a point on a face fails", checks.interior_failures(H, on_face, middle))
    expect("box: a wrong radius fails", checks.radius_failures(radius * 1.01, radius))
    for form in pentagon(seed):
        if form.arrays["A"] is not None:
            H, k, _ = checks.latent_region(form.arrays)
            expect(f"{form.name}: full-dimensional", checks.chebyshev_radius(H, k) > 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed of the inputs")
    args = parser.parse_args()
    rng = np.random.default_rng([args.seed, 99])
    selftest_ess(rng)
    selftest_checks(args.seed, rng)
    selftest_generators(args.seed)
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} of {len(RESULTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
