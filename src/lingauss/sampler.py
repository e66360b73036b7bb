"""End-to-end sampling: dispatch on the inequality rows the law can move.

Recipes (RunReport.recipe names the constraint blocks present):

* no such row               -> direct draws u ~ N(0, I_k)
* some                      -> slice-sampling chain on u ~ N(0, I_k)
                               s.t. G u + k >= 0, started at an interior
                               point found by linear programming

Both recipes draw in the plane's own k = rank(sigma) - r coordinates, r the
number of independent equality rows, and place every draw u on the plane
by the one affine map x = g + B u of `transform` (B B' = F sigma F').
A row the law cannot move, constant wherever it has mass, is decided by
`plan` alone and never reaches the LPs or the chain.

Degenerate cases short-circuit: an inconsistent equality system, a
constant row that fails, or an empty inequality region yields an
`impossible` outcome with the reason; a system pinned to a single point,
by the equalities or by k = 0, yields `point_mass` with that point. An
inequality region without interior is settled by the same rules, once its
implicit equalities have joined the equality rows. `plan`
makes that verdict, and everything else that precedes the first draw, for
both `sample_constrained` and the CLI's `check`.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .elliptical_slice import fill_chain, long_directions
from .errors import DegenerateRegion, NumericalBreakdown
from .feasibility import classify_region, find_feasible_point
from .problem import ProblemSpec
from .transform import (
    EQUALITY_TOL,
    TransformedProblem,
    build_transform,
    classify_equality_system,
    map_latent_rows,
    packed_latent,
)

POINT_TOL = 1e-8


@dataclass
class RunReport:
    """What actually ran: recipe, classifications, and chain bookkeeping.

    chain_steps == 0 marks a direct (iid) recipe; stats consumers use that to
    skip the autocorrelation correction. chains counts the chains that ran:
    with fewer samples than chains asked for, one per sample. lp_pivots
    sums the simplex pivots of the call's feasibility programs.
    long_directions is the number b of long coordinates of a chain run in
    the Dikin eigenbasis: its odd steps move those b, its even steps one
    thin coordinate each (0: the plain chain, whose steps move every
    coordinate). chain_seconds is the time spent in
    fill_chain, summed over the chains, so chain_seconds / chain_steps is
    the cost of one chain step. lp_solves counts the feasibility linear
    programs (see FeasibilityResult.lp_solves), and plan_seconds is the
    time spent in `plan`: everything before the first draw. Both LP counts
    sum over plan's rounds, and feasibility names the region's kind as the
    last round settled it: "point_mass" or "infeasible" for a region
    without interior.
    """

    recipe: str
    equality: str | None = None
    feasibility: str | None = None
    chebyshev_radius: float | None = None
    chains: int = 1
    chain_steps: int = 0
    chain_seconds: float = 0.0
    seconds: float = 0.0
    lp_pivots: int = 0
    long_directions: int = 0
    lp_solves: int = 0
    plan_seconds: float = 0.0


@dataclass
class SamplingOutcome:
    status: Literal["impossible", "point_mass", "samples"]
    report: RunReport
    reason: str | None = None
    point: np.ndarray | None = None
    samples: np.ndarray | None = None


def _check_rng(rng, chains):
    """Raise ValueError unless rng can seed `chains` chains: a Generator for
    one chain, or a nonnegative integer seed for any number."""
    if isinstance(rng, np.random.Generator):
        if chains > 1:
            raise ValueError("chains > 1 needs an integer seed so chain i can use seed + i")
        return
    try:
        seed = operator.index(rng)
    except TypeError:
        raise ValueError(f"seed must be an integer or a numpy Generator, got {rng!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _generators(rng, count):
    """The generators of the first `count` chains, chain i seeded with seed + i."""
    if isinstance(rng, np.random.Generator):
        return [rng]
    return [np.random.default_rng(operator.index(rng) + i) for i in range(count)]


def _split_counts(n_samples, chains):
    base, extra = divmod(n_samples, chains)
    return [base + (1 if i < extra else 0) for i in range(chains)]


@dataclass
class Plan:
    """A run up to its first draw: the verdict with its reason or point, and
    for sampling the latent map and, with inequality rows, the chain's start
    u0 in the plane's coordinates."""

    status: Literal["impossible", "point_mass", "samples"]
    report: RunReport
    reason: str | None = None
    point: np.ndarray | None = None
    transformed: TransformedProblem | None = None
    start: np.ndarray | None = None


def plan(spec: ProblemSpec) -> Plan:
    """Everything before the first draw; `sample_constrained` and the CLI's
    `check` both run it, so they reach the same verdict.

    The recipe, the equality classification, the latent map (so a singular
    C sigma C.T raises SingularEqualityGram for every recipe) and, with
    inequality rows the law can move, the LP classification of the region.

    One rule decides, before any LP, which inequality rows are constant
    where the law has mass: row i is when |G_i| <= EQUALITY_TOL |A_i| |B|_F
    (a row implied by the plane, or along sigma's null space), and every
    row is when the equality solution is unique or k = rank(sigma) - r is
    0. A constant row holds or fails as a whole, by its value k_i at g (or
    at the unique solution): it fails when k_i < -POINT_TOL |A_i|, and the
    problem is impossible. The rows that hold are dropped from H, G and k,
    so neither the LPs nor the chain see them; with none left the law is a
    point mass at the unique solution or at g when k = 0, and otherwise is
    drawn directly.

    A region with an empty interior has implicit equalities: the rows
    find_feasible_point reports tight on all of it. They join (C, d) and
    the plan runs again, on a plane those rows now fix, so each round
    lowers k and there are at most k rounds. The rules above end the last
    one: a unique solution or k = 0 makes every row constant, hence a point
    mass or impossible, and an inconsistent system is impossible. A region
    that keeps an interior on the smaller plane is flat and raises
    DegenerateRegion, so a later round classifies its region by the slack
    program alone and places no start point. The report's LP counts sum
    over the rounds.

    With a singular sigma the LPs run on range(sigma), where the latent
    prior has its mass, through an orthonormal basis of it, and the start
    point lies there too; an implicit equality is taken on that subspace.
    The LPs pose the region in y, H y + k >= 0; their
    point y0, written y0 = L_rank w, becomes u = P' w in the plane's
    coordinates, for which B u = F y0: the chain's start u0.
    """
    started = time.perf_counter()
    if spec.p:
        recipe = "equality-and-inequality" if spec.m else "equality-only"
    else:
        recipe = "inequality-only" if spec.m else "unconstrained"
    report = RunReport(recipe=recipe)
    implicit = 0  # rows joined to (C, d) as implicit equalities
    dimension = None  # k of the last round's plane

    def decided(status, **fields):
        if implicit:  # the region has no interior, so this verdict is its kind
            if status == "samples":
                raise DegenerateRegion(
                    f"feasible region is flat: {implicit} implicit equalities leave it "
                    f"{dimension}-dimensional, with an interior on that flat"
                )
            report.feasibility = "point_mass" if status == "point_mass" else "infeasible"
        report.plan_seconds = time.perf_counter() - started
        return Plan(status, report, **fields)

    def impossible(reason):
        return decided("impossible", reason=reason)

    row_norms = np.linalg.norm(spec.A, axis=1)
    support = None
    if spec.factor.rank < spec.n:  # the latent prior lives on range(sigma)
        support = spec.factor.factor[:, spec.n - spec.factor.rank :]
        norms = np.linalg.norm(support, axis=0)
        support = support / norms
    while True:
        classification = None
        if spec.p:
            classification = classify_equality_system(spec.C, spec.d)
            if not implicit:
                report.equality = classification.kind
            if classification.kind == "no_solution":
                if implicit:
                    return impossible("the inequalities' implicit equalities have no solution")
                return impossible("equality system C x + d = 0 has no solution")
        if classification is not None and classification.kind == "unique":
            point, level = classification.x, spec.A @ classification.x + spec.b
            constant = np.ones(spec.m, dtype=bool)
        else:
            transformed = build_transform(spec, equality=classification)
            if dimension is not None and transformed.B.shape[1] >= dimension:
                raise NumericalBreakdown("implicit equalities left the plane's dimension as it was")
            dimension = transformed.B.shape[1]
            point = transformed.g if dimension == 0 else None
            level = transformed.k
            scale = EQUALITY_TOL * np.linalg.norm(transformed.B)  # Frobenius: no SVD
            constant = np.linalg.norm(transformed.G, axis=1) <= scale * row_norms
        if (level < -POINT_TOL * row_norms)[constant].any():
            return impossible("an inequality fails wherever the law has mass")
        if point is not None:  # every row is constant
            return decided("point_mass", point=point)
        kept = ~constant
        if constant.any():
            transformed = replace(
                transformed, H=transformed.H[kept], G=transformed.G[kept], k=transformed.k[kept]
            )
        if not transformed.k.size:
            return decided("samples", transformed=transformed)
        H = transformed.H if support is None else transformed.H @ support
        # only the first round can sample: a later round's interior is a flat
        locate = classify_region if implicit else find_feasible_point
        feasibility = locate(H, transformed.k)
        report.lp_pivots += feasibility.lp_pivots
        report.lp_solves += feasibility.lp_solves
        if feasibility.kind != "empty_interior":
            break
        rows = np.flatnonzero(kept)[feasibility.tight]
        C, d = spec.A[rows], spec.b[rows]
        if support is not None:  # x - mu lies in range(sigma): keep the rows' part there
            projected = (C @ support) @ support.T
            C, d = projected, d + (C - projected) @ spec.mu
        implicit += rows.size
        spec = replace(spec, C=np.vstack([spec.C, C]), d=np.concatenate([spec.d, d]))
    report.feasibility = feasibility.kind
    report.chebyshev_radius = feasibility.chebyshev_radius
    if feasibility.kind == "infeasible":
        return impossible("no point satisfies the inequalities (negative maximum slack)")
    if support is None:  # L_rank = L, square and invertible
        w = np.linalg.solve(spec.factor.factor, feasibility.point)
    else:
        w = feasibility.point / norms
    return decided("samples", transformed=transformed, start=transformed.P.T @ w)


def sample_constrained(
    spec: ProblemSpec,
    n_samples: int,
    rng,
    *,
    burn_in: int = 0,
    thin: int = 1,
    chains: int = 1,
) -> SamplingOutcome:
    """Draw n_samples from N(mu, sigma) restricted to the problem's constraints.

    rng is a nonnegative integer seed or a numpy Generator (chains > 1
    requires the integer form; chain i is seeded with seed + i and chains
    run back to back, all started from the same LP interior point). A bad
    rng raises ValueError before any LP runs. burn_in and thin
    apply per chain and only to chain recipes -- direct recipes produce
    independent draws, so there is nothing to warm up or decorrelate.

    The samples are written once, into the (n_samples, n) array returned:
    the direct draws, and each chain's kept states in its block of rows,
    are written as u at the head of that memory (transform.packed_latent),
    and the map g + B u expands them in place, so a call holds no other
    array that grows with n_samples. Each chain's rows are mapped on their
    own, in blocks whose shapes depend only on a row's place, so with the
    same seed, burn-in and thinning, chain i's samples are the first
    samples of chain i in any call that gives it more; direct draws are
    the first of any longer call's.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if burn_in < 0 or thin < 1 or chains < 1:
        raise ValueError("burn_in >= 0, thin >= 1, chains >= 1 required")
    _check_rng(rng, chains)
    started = time.perf_counter()
    planned = plan(spec)
    report = planned.report

    def done(status, **fields):
        report.seconds = time.perf_counter() - started
        return SamplingOutcome(status=status, report=report, **fields)

    if planned.status != "samples":
        return done(planned.status, reason=planned.reason, point=planned.point)
    transformed = planned.transformed
    samples = np.empty((n_samples, spec.n))
    k = transformed.B.shape[1]
    if not transformed.k.size:  # no row the law can move: direct draws
        (generator,) = _generators(rng, 1)
        generator.standard_normal(out=packed_latent(samples, k))
        map_latent_rows(transformed, samples)
        return done("samples", samples=samples)

    u0, long = planned.start, None
    axes = long_directions(transformed, u0)
    if axes is not None:  # run the chain in the Dikin eigenbasis: u = R w
        R, long = axes
        report.long_directions = long
        u0 = R.T @ u0
        transformed = replace(
            transformed, B=transformed.B @ R, G=transformed.G @ R, P=transformed.P @ R
        )
    # chain i fills the next count_i rows; only the chains with a row run
    counts = _split_counts(n_samples, min(chains, n_samples))
    report.chains = len(counts)
    end = 0
    for generator, count in zip(_generators(rng, len(counts)), counts):
        start, end = end, end + count
        began = time.perf_counter()
        latent = packed_latent(samples[start:end], k)
        fill_chain(transformed, u0, latent, generator, long, burn_in, thin)
        report.chain_seconds += time.perf_counter() - began
        report.chain_steps += burn_in + count * thin
        map_latent_rows(transformed, samples[start:end])
    return done("samples", samples=samples)
