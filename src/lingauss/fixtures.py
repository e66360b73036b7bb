"""Built-in 4-D validation problem.

A four-dimensional normal distribution restricted by five half-spaces and a
rank-2 system of equalities; imposing both at once confines the mass to an
irregular pentagon inside the 2-D equality plane. The accompanying affine
coordinate change maps that plane onto the first two axes (the last two rows
of PLANE_T repeat the equality matrix, so transformed plane points end at
v3 = v4 = 0).

Naive accept-reject on the full space accepts roughly 5e-5 of proposals for
the half-space region, and plane-conditional accept-reject keeps roughly 12%
for the pentagon, which is what makes this problem a useful stress test for
a rejection-free method.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .problem import ProblemSpec, save_problem

PENTAGON_MU = np.array([0.284, 0.964, 0.940, 0.664])

PENTAGON_SIGMA = np.array(
    [
        [0.960, 1.407, 0.754, -1.360],
        [1.407, 8.250, 1.105, -1.993],
        [0.754, 1.105, 14.79, -7.116],
        [-1.360, -1.993, -7.116, 5.350],
    ]
)

PENTAGON_A = np.array(
    [
        [128.61, 935.51, -425.89, -472.28],
        [-15.34, -223.32, 27.84, 196.12],
        [103.19, -107.39, 23.58, 19.79],
        [-923.53, -5030.49, 2283.68, 2670.02],
        [83.29, 466.44, -204.57, -254.19],
    ]
)

PENTAGON_B = np.array([-183.90, 72.14, 102.45, 1010.98, -83.47])

PENTAGON_C = np.array(
    [
        [13.04, 60.57, -26.93, -33.82],
        [0.36, -9.15, 4.00, 4.05],
    ]
)

PENTAGON_D = np.array([-11.31, 2.08])

PLANE_T = np.array(
    [
        [-2.25, -10.68, 6.24, 4.21],
        [-8.57, -33.44, 14.64, 21.10],
        [13.04, 60.57, -26.93, -33.82],
        [0.36, -9.15, 4.00, 4.05],
    ]
)

PLANE_OFFSET = np.array([3.28, 4.49, -11.31, 2.08])

_VARIANTS = ("both", "inequality", "equality", "none")


def pentagon_problem(constraints: str = "both") -> ProblemSpec:
    """The validation problem with the requested constraint blocks.

    constraints: "both" | "inequality" | "equality" | "none".
    """
    if constraints not in _VARIANTS:
        raise ValueError(f"constraints must be one of {_VARIANTS}, got {constraints!r}")
    use_ineq = constraints in ("both", "inequality")
    use_eq = constraints in ("both", "equality")
    return ProblemSpec(
        mu=PENTAGON_MU.copy(),
        sigma=PENTAGON_SIGMA.copy(),
        A=PENTAGON_A.copy() if use_ineq else None,
        b=PENTAGON_B.copy() if use_ineq else None,
        C=PENTAGON_C.copy() if use_eq else None,
        d=PENTAGON_D.copy() if use_eq else None,
    )


def write_pentagon_files(out_dir) -> list[Path]:
    """Write the three problem variants plus the plane transform as JSON files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for variant, stem in (
        ("inequality", "pentagon_inequality"),
        ("equality", "pentagon_equality"),
        ("both", "pentagon_combined"),
    ):
        path = out_dir / f"{stem}.json"
        save_problem(pentagon_problem(variant), path)
        written.append(path)
    transform_path = out_dir / "pentagon_transform.json"
    transform_path.write_text(
        json.dumps({"T": PLANE_T.tolist(), "offset": PLANE_OFFSET.tolist()}, indent=2) + "\n"
    )
    written.append(transform_path)
    return written
