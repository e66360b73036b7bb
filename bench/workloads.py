"""Seeded inputs of the three workloads.

Every input is a set of raw numpy arrays (mu, sigma, A, b, C, d) plus the
arguments of one `sample_constrained` call, and whatever the checks need to
know about how the input was built. Nothing here imports the program.

Chain seeds are constants of the benchmark, not functions of --seed: with a
fixed draw stream the minimum ESS of a chain is an exact count, so the ESS
rates move only with time unless the kernel or its draw order changes.
--seed draws the seed of the pentagon's direct draws and of each classify
input's one draw; the box and the classify systems do not depend on it (see
`box` and `classify`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"

# Chain lengths of the checked calls and, after the comma, of the timed ones.
# A timed call takes under 0.2 s, so a run times each problem over a hundred
# times and its fastest call falls in a quiet stretch of the shared host.
PENTAGON_STEPS, PENTAGON_TIMED_STEPS = 100_000, 500
PENTAGON_DIRECT_DRAWS = 200_000
COMBINED_CHAINS = 4
COMBINED_BURN_IN = 100
COMBINED_PER_CHAIN, COMBINED_TIMED_PER_CHAIN = 7_000, 25
BOX_DIM = 50
BOX_STEPS, BOX_TIMED_STEPS = 20_000, 1_000
BOX_SEED = 2
CLASSIFY_SEED = 5


@dataclass
class Case:
    """One problem and the sample_constrained calls made on it.

    The checked call draws n_samples; the timed calls draw `timed` samples
    with the same seed, so a timed chain is a prefix of the checked one.
    expect is the verdict the input was built to have: "samples",
    "impossible", "point_mass" or "degenerate" (DegenerateRegion raised).
    """

    name: str
    arrays: dict
    n_samples: int
    seed: int
    expect: str
    kwargs: dict = field(default_factory=dict)
    rate: bool = False  # counted in the workload's ess_per_s
    info: dict = field(default_factory=dict)
    timed: int | None = None

    def __post_init__(self):
        if self.timed is None:
            self.timed = self.n_samples


def _pentagon_arrays() -> dict:
    doc = json.loads((REFERENCE / "pentagon.json").read_text())
    return {key: np.array(doc[key]) for key in ("mu", "sigma", "A", "b", "C", "d")}


def pentagon(seed: int) -> list[Case]:
    """The paper's 4-D problem in its three forms, each sampled at length."""
    full = _pentagon_arrays()
    ineq = dict(full, C=None, d=None)
    eq = dict(full, A=None, b=None)
    return [
        Case(
            "pentagon_inequality",
            ineq,
            PENTAGON_STEPS,
            1,
            "samples",
            rate=True,
            timed=PENTAGON_TIMED_STEPS,
        ),
        Case("pentagon_equality", eq, PENTAGON_DIRECT_DRAWS, seed, "samples"),
        Case(
            "pentagon_combined",
            full,
            COMBINED_CHAINS * COMBINED_PER_CHAIN,
            2,
            "samples",
            kwargs={"chains": COMBINED_CHAINS, "burn_in": COMBINED_BURN_IN},
            timed=COMBINED_CHAINS * COMBINED_TIMED_PER_CHAIN,
        ),
    ]


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def box(seed: int) -> list[Case]:
    """A randomly rotated and scaled 50-D box, 100 rows, no equalities.

    With x = mu + L z and z ~ N(0, I), each whitened coordinate z_i is cut to
    [lo_i, hi_i], about [-1.5, 2]. The rows are those 100 cuts written in x,
    each scaled by a random positive factor and shuffled.

    The box does not depend on --seed. Any change to its rows, even a row
    permutation, sends the chain down another path, and the minimum ESS over
    100 series of a 20k-step chain then varies by a factor of 1.5, which
    would swamp any change in speed.
    """
    rng = np.random.default_rng(BOX_SEED)
    n = BOX_DIM
    scales = rng.uniform(0.5, 2.0, n)
    root = _orthogonal(rng, n) * scales  # L = Q diag(scales)
    sigma = root @ root.T
    sigma = 0.5 * (sigma + sigma.T)
    mu = rng.normal(size=n)
    lo = -1.5 + rng.uniform(-0.1, 0.1, n)
    hi = 2.0 + rng.uniform(-0.1, 0.1, n)
    whiten = np.linalg.inv(root)
    A = np.vstack([whiten, -whiten])
    b = np.concatenate([-whiten @ mu - lo, whiten @ mu + hi])
    A, b = _scaled(rng, A, b)
    arrays = {"mu": mu, "sigma": sigma, "A": A, "b": b, "C": None, "d": None}
    info = {"whiten": whiten, "lo": lo, "hi": hi}
    return [
        Case("box", arrays, BOX_STEPS, 3, "samples", rate=True, info=info, timed=BOX_TIMED_STEPS)
    ]


def _spd(rng, n):
    root = rng.standard_normal((n, n)) / np.sqrt(n)
    return root @ root.T + np.eye(n)


def _scaled(rng, A, b):
    """Positive row scaling and a row shuffle: the region is unchanged."""
    scale = rng.uniform(0.5, 2.0, A.shape[0])
    order = rng.permutation(A.shape[0])
    return (A * scale[:, None])[order], (b * scale)[order]


def _polytope(rng, n, m):
    """{x : a_i . (x - c) <= r_i}: every face lies 0.5 to 2 from the centre c."""
    normals = rng.standard_normal((m, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    centre = rng.uniform(-0.5, 0.5, n)
    radii = rng.uniform(0.5, 2.0, m)
    return -normals, normals @ centre + radii


def _made_infeasible(rng, A, b):
    """Append the Farkas row -sum(l_i a_i) with offset -sum(l_i b_i) - 1.

    For any x, l . (A x + b) plus the new row's value is -1, so not every row
    can be nonnegative: the region is empty.
    """
    weights = rng.uniform(0.5, 1.5, A.shape[0])
    return np.vstack([A, -(weights @ A)]), np.append(b, -(weights @ b) - 1.0)


def _point_mass(rng, n, m):
    """n + 1 rows through p that positively span R^n, plus m - n - 1 slack rows.

    With a_{n+1} = -sum(l_i a_i) and every a_i . (x - p) >= 0, the weighted
    sum forces each term to zero, so x = p.
    """
    p = rng.uniform(-1.0, 1.0, n)
    tight = rng.standard_normal((n, n))
    tight = np.vstack([tight, -(rng.uniform(0.5, 1.5, n) @ tight)])
    loose = rng.standard_normal((m - n - 1, n))
    gaps = rng.uniform(0.5, 2.0, m - n - 1) * np.linalg.norm(loose, axis=1)
    A = np.vstack([tight, loose])
    b = np.concatenate([-tight @ p, -loose @ p + gaps])
    return A, b, p


def _flat(rng, n):
    """x_1 = 0 written as two inequalities, |x_i| <= 1 otherwise, rotated."""
    rows = [np.eye(n)[0], -np.eye(n)[0]]
    offsets = [0.0, 0.0]
    for i in range(1, n):
        rows += [np.eye(n)[i], -np.eye(n)[i]]
        offsets += [1.0, 1.0]
    rotation = _orthogonal(rng, n)
    return np.array(rows) @ rotation.T, np.array(offsets)


def _many_equalities(rng, n, rows, redundant, m):
    """`rows` equality rows, `redundant` of them combinations of the others.

    m inequalities keep a ball of radius 0.5 to 2 around a point x0 on the
    plane. Also returns a full-rank (C, d) of the same plane for the checks.
    """
    independent = rng.standard_normal((rows - redundant, n))
    mix = rng.standard_normal((redundant, rows - redundant))
    C = np.vstack([independent, mix @ independent])
    x0 = rng.uniform(-1.0, 1.0, n)
    d = -C @ x0
    normals = rng.standard_normal((m, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    A = -normals
    b = normals @ x0 + rng.uniform(0.5, 2.0, m)
    order = rng.permutation(rows)
    return A, b, C[order], d[order], independent, -independent @ x0


def classify(seed: int) -> list[Case]:
    """A batch of constraint systems, each with a verdict known by construction.

    The systems are built from the fixed seed CLASSIFY_SEED; --seed picks
    only the seed of each input's one draw. The simplex's time on one input
    moves by about 15% with its geometry, even with its row order or scales
    alone, which would add a spread from seed to seed that is not the
    program's. Every input takes under 0.1 s, so a run times each of them
    over a hundred times and its fastest call dodges the host's stalls.
    """
    cases = []

    def add(name, expect, n, A=None, b=None, C=None, d=None, **info):
        rng = np.random.default_rng([CLASSIFY_SEED, 3, len(cases)])
        arrays = {"mu": rng.normal(size=n) * 0.1, "sigma": _spd(rng, n)}
        arrays.update(A=A, b=b, C=C, d=d)
        # every input counts in ess_per_s: one draw is one effective sample,
        # a verdict without draws is none
        cases.append(Case(name, arrays, 1, seed + len(cases), expect, rate=True, info=info))
        return cases[-1]

    def rng_for(tag):
        return np.random.default_rng([CLASSIFY_SEED, 4, tag])

    for tag, (n, m) in enumerate(((15, 60), (20, 80))):
        rng = rng_for(20 + tag)
        A, b = _polytope(rng, n, m)
        add(f"full_{n}x{m}", "samples", n, *_scaled(rng, A, b))
        A, b = _made_infeasible(rng, A, b)
        add(f"infeasible_{n}x{m + 1}", "impossible", n, *_scaled(rng, A, b))
    for tag, (n, m) in enumerate(((8, 33), (10, 41))):
        rng = rng_for(40 + tag)
        A, b, p = _point_mass(rng, n, m)
        add(f"point_mass_{n}x{m}", "point_mass", n, *_scaled(rng, A, b), point=p)
    rng = rng_for(4)
    add("flat_10", "degenerate", 10, *_scaled(rng, *_flat(rng, 10)))

    rng = rng_for(5)
    A, b, C, d, *independent = _many_equalities(rng, 100, 70, 10, 30)
    add("equalities_100x70", "samples", 100, A, b, C, d, independent=independent)

    rng = rng_for(6)
    C = rng.standard_normal((3, 10))
    C[2] = C[0] + C[1]
    d = rng.standard_normal(3)
    d[2] = d[0] + d[1] + 1.0
    A, b = _polytope(rng, 10, 20)
    add("equalities_no_solution", "impossible", 10, A, b, C, d)

    rng = rng_for(7)
    C = rng.standard_normal((10, 10)) + 3.0 * np.eye(10)
    p = rng.uniform(-1.0, 1.0, 10)
    A = rng.standard_normal((20, 10))
    b = -A @ p + rng.uniform(0.5, 2.0, 20)  # p strictly inside every row
    add("equalities_unique", "point_mass", 10, A, b, C, -C @ p, point=p)

    # x >= 1 and x <= 0 with every row scaled by 1e-10: empty. Nothing in it
    # depends on --seed, so it fails the same way in every run.
    rows, offsets = np.array([[1e-10], [-1e-10]]), np.array([-1e-10, 0.0])
    fixed = add("scaled_infeasible", "impossible", 1, rows, offsets)
    fixed.arrays.update(mu=np.zeros(1), sigma=np.eye(1))
    fixed.seed = 0
    return cases


WORKLOADS = {"pentagon": pentagon, "box": box, "classify": classify}
