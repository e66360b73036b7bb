import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.optimize import linprog

import lingauss.simplex
from lingauss.errors import CyclingGuardExceeded
from lingauss.simplex import PIVOT_TOL, LpSolution, phase_one, phase_two, solve_lp

# A frozen reference: the simplex kernel as it was when the tableau stored
# every column in label order (structural, surplus, artificial), basic ones
# included, and a variable could be sign-restricted, with one structural
# column, as well as free, with two. The package's kernel stores one column
# per free variable and per nonbasic surplus column, takes free variables
# only, and must make the same pivots and give the same bits on free
# programs.

STALL_LIMIT = 100


@dataclass(frozen=True)
class FullBasis:
    """The phase-1 basis of the reference: a tableau with every column."""

    tableau: np.ndarray
    basis: tuple[int, ...]
    split: tuple[tuple[int, float], ...]  # column t is sign * (original variable j)
    cap: int


def reference_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    multipliers = tableau[:, col].copy()
    multipliers[row] = 0.0
    tableau -= np.outer(multipliers, tableau[row])
    # scrub roundoff so the pivot column is an exact unit vector
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def reference_iterate(tableau, basis, ncols, tol, cap):
    """Pivot until the reduced costs are nonnegative. Mutates tableau/basis.

    Returns ("optimal" or "unbounded", pivots made); raises
    CyclingGuardExceeded at the cap.
    """
    nrows = len(basis)
    bland = False
    stalled = 0
    best = -tableau[-1, -1]
    for pivots in range(cap):
        reduced = tableau[-1, :ncols]
        if bland:
            negatives = np.flatnonzero(reduced < -tol)
            if negatives.size == 0:
                return "optimal", pivots
            col = int(negatives[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -tol:
                return "optimal", pivots
        pivot_col = tableau[:nrows, col]
        eligible = pivot_col > tol
        if not eligible.any():
            return "unbounded", pivots
        ratios = np.full(nrows, np.inf)
        ratios[eligible] = tableau[:nrows, -1][eligible] / pivot_col[eligible]
        least = ratios.min()
        ties = np.flatnonzero(ratios == least)
        row = int(ties[np.argmin(np.asarray(basis)[ties])])  # Bland-safe tie-break
        reference_pivot(tableau, basis, row, col)
        objective = -tableau[-1, -1]
        if objective < best - tol:
            best = objective
            stalled = 0
        else:
            stalled += 1
            if stalled >= STALL_LIMIT:
                bland = True
    raise CyclingGuardExceeded(f"simplex did not converge within {cap} pivots")


def reference_phase_one(G, h, nonneg=None, tol=PIVOT_TOL):
    """A feasible basis of {G x >= h; x_j >= 0 where nonneg[j]}, or None if
    empty, with the number of pivots phase 1 made either way."""
    nrows, nv = G.shape
    if nonneg is None:
        nonneg = np.zeros(nv, dtype=bool)

    split: list[tuple[int, float]] = []
    for j in range(nv):
        split.append((j, 1.0))
        if not nonneg[j]:
            split.append((j, -1.0))
    n_struct = len(split)
    rhs = np.array(h, dtype=float)
    slack_start = rhs <= 0.0  # rows the origin satisfies, -0.0 included
    art_rows = np.flatnonzero(~slack_start)
    art0 = n_struct + nrows
    total = art0 + art_rows.size  # + surplus + artificial

    body = np.zeros((nrows, total))
    for t, (j, sign) in enumerate(split):
        body[:, t] = sign * G[:, j]
    body[:, n_struct:art0] = -np.eye(nrows)
    body[slack_start] *= -1.0
    rhs = np.abs(rhs)
    body[art_rows, art0 + np.arange(art_rows.size)] = 1.0

    tableau = np.zeros((nrows + 1, total + 1))
    tableau[:nrows, :total] = body
    tableau[:nrows, -1] = rhs
    basis = [n_struct + i for i in range(nrows)]
    for a, i in enumerate(art_rows):
        basis[i] = art0 + a
    # phase-1 reduced costs: artificial costs 1, priced out against the basis
    # (each artificial column prices to exactly zero)
    tableau[-1, art0:total] = 1.0
    tableau[-1] -= tableau[art_rows].sum(axis=0)

    cap = 50 * (n_struct + 3 * nrows)
    status, pivots = reference_iterate(tableau, basis, total, tol, cap)
    if status == "unbounded":  # impossible for a sum of nonnegative variables
        raise CyclingGuardExceeded("phase 1 reported unbounded: numerical breakdown")
    if -tableau[-1, -1] > tol:
        return None, pivots

    # drive any leftover zero-valued artificials out of the basis
    drop_rows = []
    for i in range(nrows):
        if basis[i] >= art0:
            candidates = np.flatnonzero(np.abs(tableau[i, :art0]) > tol)
            if candidates.size:
                col = int(candidates[np.argmax(np.abs(tableau[i, candidates]))])
                reference_pivot(tableau, basis, i, col)
                pivots += 1
            else:
                drop_rows.append(i)  # redundant constraint row
    if drop_rows:
        tableau = np.delete(tableau, drop_rows, axis=0)
        basis = [b for i, b in enumerate(basis) if i not in set(drop_rows)]

    tableau = np.delete(tableau, np.s_[art0:total], axis=1)
    return FullBasis(tableau, tuple(basis), tuple(split), cap), pivots


def reference_phase_two(start, c, tol=PIVOT_TOL):
    """Minimize c @ (structural columns' values) from the phase-1 basis, with
    one cost per structural column; start itself is left unchanged."""
    tableau = start.tableau.copy()
    basis = list(start.basis)
    nrows = len(basis)
    ncols = tableau.shape[1] - 1
    cost = np.zeros(ncols)
    cost[: len(start.split)] = c
    tableau[-1, :] = 0.0
    tableau[-1, :ncols] = cost
    for i in range(nrows):
        cb = cost[basis[i]]
        if cb != 0.0:
            tableau[-1] -= cb * tableau[i]

    status, pivots = reference_iterate(tableau, basis, ncols, tol, start.cap)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)

    values = np.zeros(ncols)
    for i in range(nrows):
        values[basis[i]] = tableau[i, -1]
    x = np.zeros(start.split[-1][0] + 1)
    for t, (j, sign) in enumerate(start.split):
        x[j] += sign * values[t]
    return LpSolution("optimal", float(c @ values[: len(start.split)]), x, pivots)


def split_columns(a):
    """a's last axis over the structural columns: a_j, then -a_j, for each
    variable j. A cost c of the variables becomes split_columns(c)."""
    a = np.asarray(a, dtype=float)
    return np.stack((a, -a), axis=-1).reshape(*a.shape[:-1], -1)


def with_sign_rows(G, h, nonneg):
    """{G x >= h; x_j >= 0 where nonneg[j]} over free x: each sign
    restriction becomes a row e_j . x >= 0."""
    return np.vstack([G, np.eye(G.shape[1])[nonneg]]), np.append(h, np.zeros(nonneg.sum()))


def scipy_status(result):
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(result.status, "other")


def certify_feasible(G, h, nonneg):
    """Independent feasibility certificate: zero-violation phase-1 LP via scipy."""
    m, n = G.shape
    bounds = [(0, None) if f else (None, None) for f in nonneg]
    probe = linprog(
        np.concatenate([np.zeros(n), np.ones(m)]),
        A_ub=np.hstack([-G, -np.eye(m)]),
        b_ub=-h,
        bounds=bounds + [(0, None)] * m,
        method="highs",
    )
    return probe.status == 0 and probe.fun < 1e-9


def certify_unbounded(c, G, h, nonneg):
    """Independent recession-direction certificate: G z >= 0, c.z <= -1."""
    m, n = G.shape
    bounds = [(0, None) if f else (None, None) for f in nonneg]
    ray = linprog(
        np.zeros(n),
        A_ub=np.vstack([-G, c[None, :]]),
        b_ub=np.concatenate([np.zeros(m), [-1.0]]),
        bounds=bounds,
        method="highs",
    )
    return ray.status == 0


def all_artificial_phase_one(G, h, tol=PIVOT_TOL):
    """Reference phase 1 that gives every row an artificial column, as the
    solver did before it started from the origin's slack basis; returns the
    basis (None if empty) and the pivot count, as phase_one does."""
    nrows, nv = G.shape
    split = [(j, s) for j in range(nv) for s in (1.0, -1.0)]
    n_struct = len(split)
    total = n_struct + 2 * nrows
    art0 = n_struct + nrows
    body = np.zeros((nrows, total))
    for t, (j, sign) in enumerate(split):
        body[:, t] = sign * G[:, j]
    body[:, n_struct:art0] = -np.eye(nrows)
    rhs = np.array(h, dtype=float)
    flip = rhs < 0.0
    body[flip] *= -1.0
    rhs[flip] *= -1.0
    body[:, art0:] = np.eye(nrows)
    tableau = np.zeros((nrows + 1, total + 1))
    tableau[:nrows, :total] = body
    tableau[:nrows, -1] = rhs
    basis = [art0 + i for i in range(nrows)]
    tableau[-1, art0:total] = 1.0
    tableau[-1] -= tableau[:nrows].sum(axis=0)
    cap = 50 * (total + nrows)
    status, pivots = reference_iterate(tableau, basis, total, tol, cap)
    if status == "unbounded":
        raise CyclingGuardExceeded("phase 1 reported unbounded")
    if -tableau[-1, -1] > tol:
        return None, pivots
    drop_rows = []
    for i in range(nrows):
        if basis[i] >= art0:
            candidates = np.flatnonzero(np.abs(tableau[i, :art0]) > tol)
            if candidates.size:
                col = int(candidates[np.argmax(np.abs(tableau[i, candidates]))])
                reference_pivot(tableau, basis, i, col)
                pivots += 1
            else:
                drop_rows.append(i)
    tableau = np.delete(tableau, drop_rows, axis=0)
    basis = [b for i, b in enumerate(basis) if i not in set(drop_rows)]
    tableau = np.delete(tableau, np.s_[art0:total], axis=1)
    return FullBasis(tableau, tuple(basis), tuple(split), cap), pivots


def stored_tableau(start):
    """The tableau a FeasibleBasis stores: the rows of G, the rows with_row
    added, and the cost row, without the working tableau's partner row."""
    return np.concatenate((start.work[:-2], start.added, start.work[-1:]))


def test_known_optimum():
    # min -x1 - 2 x2  s.t.  x1 + x2 <= 4, x1 <= 3, x >= 0
    G, h = with_sign_rows(
        np.array([[-1.0, -1.0], [-1.0, 0.0]]), np.array([-4.0, -3.0]), np.array([True, True])
    )
    solution = solve_lp(split_columns([-1.0, -2.0]), G, h)
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(-8.0, abs=1e-9)
    np.testing.assert_allclose(solution.x, [0.0, 4.0], atol=1e-9)


def test_free_variable_optimum():
    # min x  s.t.  x >= -5 with x free
    solution = solve_lp(split_columns([1.0]), [[1.0]], [-5.0])
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(-5.0, abs=1e-9)


def test_unbounded():
    solution = solve_lp(split_columns([-1.0]), [[1.0]], [0.0])
    assert solution.status == "unbounded"


def test_infeasible():
    # x >= 1 and -x >= 0
    assert solve_lp(split_columns([0.0]), [[1.0], [-1.0]], [1.0, 0.0]).status == "infeasible"


def test_degenerate_vertex_terminates():
    # Beale-style degeneracy: many constraints through one vertex
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    G = -np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    h = -np.array([0.0, 0.0, 1.0])
    solution = solve_lp(split_columns(c), *with_sign_rows(G, h, np.ones(4, dtype=bool)))
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(-0.05, abs=1e-9)


def test_solution_is_feasible_when_optimal():
    rng = np.random.default_rng(61)
    for _ in range(100):
        m, n = rng.integers(1, 8, size=2)
        G = rng.normal(size=(m, n))
        h = rng.normal(size=m)
        c = rng.normal(size=n)
        nonneg = rng.random(n) < 0.5
        solution = solve_lp(split_columns(c), *with_sign_rows(G, h, nonneg))
        if solution.status == "optimal":
            assert (G @ solution.x - h).min() >= -1e-7
            if nonneg.any():
                assert solution.x[nonneg].min() >= -1e-9


def test_randomized_against_reference_solver():
    rng = np.random.default_rng(67)
    checked = 0
    for trial in range(300):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 10))
        G = np.round(rng.normal(size=(m, n)) * 2, 1)
        h = np.round(rng.normal(size=m) * 2, 1)
        c = np.round(rng.normal(size=n) * 2, 1)
        nonneg = rng.random(n) < 0.5
        if trial % 7 == 0 and m > 1:  # sprinkle degenerate structure
            G[1] = G[0]
            h[1] = h[0]
        if trial % 11 == 0:
            G[0] = 0.0
        mine = solve_lp(split_columns(c), *with_sign_rows(G, h, nonneg))
        ref = linprog(
            c,
            A_ub=-G,
            b_ub=-h,
            bounds=[(0, None) if f else (None, None) for f in nonneg],
            method="highs",
        )
        if mine.status == scipy_status(ref):
            if mine.status == "optimal":
                assert mine.objective == pytest.approx(ref.fun, abs=1e-6 * (1 + abs(ref.fun)))
            checked += 1
        else:
            # presolvers disagree on degenerate instances; trust certificates only
            feasible = certify_feasible(G, h, nonneg)
            if mine.status == "infeasible":
                assert not feasible
            elif mine.status == "unbounded":
                assert feasible and certify_unbounded(c, G, h, nonneg)
            else:
                assert feasible
            checked += 1
    assert checked == 300


def test_shared_phase_one_matches_separate_solves_bit_for_bit():
    rng = np.random.default_rng(83)
    statuses = set()
    for trial in range(120):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 7))
        G = rng.normal(size=(m, n))
        h = rng.normal(size=m)
        nonneg = rng.random(n) < 0.5
        if trial % 5 == 0 and m > 1:  # a duplicate row makes a degenerate vertex
            G[1] = G[0]
            h[1] = h[0]
        costs = [split_columns(rng.normal(size=n)) for _ in range(3)]
        costs += [split_columns(sign * np.eye(n)[i]) for i in range(n) for sign in (1.0, -1.0)]
        G, h = with_sign_rows(G, h, nonneg)
        start, _ = phase_one(G, h)
        if start is not None:
            tableau = stored_tableau(start)
        for c in costs:
            separate = solve_lp(c, G, h)
            statuses.add(separate.status)
            if start is None:
                assert separate.status == "infeasible"
                continue
            shared = phase_two(start, c)
            assert shared.status == separate.status
            assert shared.objective == separate.objective
            assert (shared.x is None) == (separate.x is None)
            if shared.x is not None:
                assert np.array_equal(shared.x, separate.x)
        if start is not None:
            assert np.array_equal(stored_tableau(start), tableau)  # phase 2 works on a copy
    assert statuses == {"optimal", "unbounded", "infeasible"}


def test_a_continued_phase_two_solves_the_program_with_its_row():
    # a solved program plus a row its optimum satisfies, under a new cost by
    # column, is the program a fresh solve over the structural columns
    # poses: a variable per column, each held to >= 0 by a row
    rng = np.random.default_rng(149)
    statuses = []
    for trial in range(250):
        G, h, nonneg = random_region(rng, trial)
        c = G.T @ np.ones(G.shape[0])
        G, h = with_sign_rows(G, h, nonneg)
        solved = solve_lp(split_columns(c), G, h)
        if solved.status != "optimal":
            continue
        g = rng.normal(size=G.shape[1])
        margin = 0.0 if trial % 3 == 0 else rng.uniform(0.0, 1.0)  # a tight row, or not
        floor = g @ solved.x - margin
        body = split_columns(np.vstack([G, g]))
        signs = np.where(rng.random(body.shape[1]) < 0.2, -1.0, 1.0)
        cost = rng.uniform(0.1, 2.0, body.shape[1]) * signs
        continued = phase_two(solved.basis.with_row(g, floor), cost)
        fresh = solve_lp(
            split_columns(cost),
            *with_sign_rows(body, np.append(h, floor), np.ones(cost.size, bool)),
        )
        assert continued.status == fresh.status
        statuses.append(continued.status)
        if continued.status == "optimal":
            scale = 1.0 + abs(fresh.objective)
            assert continued.objective == pytest.approx(fresh.objective, abs=1e-9 * scale)
            assert (G @ continued.x - h).min() >= -1e-9 * scale
            assert g @ continued.x >= floor - 1e-9 * scale
            assert continued.multipliers.size == G.shape[0] + 1
    assert statuses.count("optimal") >= 50 and "unbounded" in statuses


def test_a_row_the_vertex_violates_is_refused():
    solved = solve_lp(split_columns([1.0]), [[1.0]], [2.0])
    assert solved.x[0] == 2.0
    assert stored_tableau(solved.basis.with_row([1.0], 2.0)).shape[0] == 3  # tight: surplus 0
    with pytest.raises(ValueError):
        solved.basis.with_row([1.0], 2.5)


def test_phase_one_at_the_origin_makes_no_pivot():
    rng = np.random.default_rng(89)
    for trial in range(20):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 8))
        G = rng.normal(size=(m, n))
        h = -np.abs(rng.normal(size=m))
        h[rng.random(m) < 0.3] = 0.0
        h[rng.random(m) < 0.3] = -0.0
        G, h = with_sign_rows(G, h, rng.random(n) < 0.5)
        m = G.shape[0]
        start, pivots = phase_one(G, h)
        assert pivots == 0
        assert tuple(start.basis) == tuple(2 * n + i for i in range(m))  # the surplus columns
        np.testing.assert_array_equal(stored_tableau(start)[:m, -1], np.abs(h))
        assert solve_lp(np.zeros(2 * n), G, h).pivots == 0


def test_slack_start_matches_all_artificial_phase_one():
    rng = np.random.default_rng(97)
    statuses = set()
    pivots = {"slack start": 0, "all artificial": 0}
    for trial in range(200):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 8))
        G = rng.normal(size=(m, n))
        h = rng.normal(size=m)
        signs = trial % 4
        if signs == 1:  # the origin satisfies every row
            h = -np.abs(h)
            h[rng.random(m) < 0.2] = 0.0
        elif signs == 2:  # the origin violates every row
            h = np.abs(h) + 0.1
        elif signs == 3 and m > 1:  # a duplicate row makes a degenerate vertex
            G[1] = G[0]
            h[1] = h[0]
        nonneg = rng.random(n) < 0.5
        c = rng.normal(size=n)
        free = with_sign_rows(G, h, nonneg)
        mine = solve_lp(split_columns(c), *free)
        start, start_pivots = all_artificial_phase_one(*free)
        statuses.add(mine.status)
        if start is None:
            assert mine.status == "infeasible"
            continue
        ref = reference_phase_two(start, split_columns(c))
        assert mine.status == ref.status
        if ref.status == "optimal":
            tol = 1e-9 * (1 + abs(ref.objective))
            assert mine.objective == pytest.approx(ref.objective, abs=tol)
        pivots["slack start"] += mine.pivots
        pivots["all artificial"] += start_pivots + ref.pivots
        scipy_ref = linprog(
            c,
            A_ub=-G,
            b_ub=-h,
            bounds=[(0, None) if f else (None, None) for f in nonneg],
            method="highs",
        )
        if mine.status == scipy_status(scipy_ref):
            if mine.status == "optimal":
                assert mine.objective == pytest.approx(
                    scipy_ref.fun, abs=1e-6 * (1 + abs(scipy_ref.fun))
                )
        else:  # HiGHS's presolve may call an unbounded program infeasible
            assert mine.status == "unbounded"
            assert certify_feasible(G, h, nonneg) and certify_unbounded(c, G, h, nonneg)
    assert statuses == {"optimal", "unbounded", "infeasible"}
    assert pivots["slack start"] < pivots["all artificial"]


def test_pivot_counts_add_up():
    rng = np.random.default_rng(101)
    G = rng.normal(size=(8, 4))
    h = G @ (3.0 * rng.normal(size=4)) - 0.1  # nonempty; the origin violates rows
    assert (h > 0.0).any()
    c = split_columns(G.T @ np.ones(8))  # bounded below on {G x >= h}
    start, start_pivots = phase_one(G, h)
    second = phase_two(start, c)
    whole = solve_lp(c, G, h)
    assert whole.status == "optimal"
    assert start_pivots > 0
    assert whole.pivots == start_pivots + second.pivots
    infeasible = solve_lp(split_columns([0.0]), [[1.0], [-1.0]], [1.0, 0.0])
    assert infeasible.status == "infeasible" and infeasible.pivots >= 1


def test_shape_validation():
    with pytest.raises(ValueError, match="2 entries per column"):
        solve_lp(np.ones(4), np.ones((1, 3)), np.ones(1))
    with pytest.raises(ValueError, match="2 entries per column"):
        solve_lp(np.ones(3), np.ones((1, 3)), np.ones(1))  # one cost per variable
    with pytest.raises(ValueError, match="2 entries per column"):
        solve_lp(np.ones(0), np.ones((1, 0)), np.ones(1))  # no variable
    with pytest.raises(ValueError, match="rows"):
        solve_lp(np.ones(4), np.ones((2, 2)), np.ones(1))


def test_phase_two_refuses_a_cost_of_the_wrong_length(monkeypatch):
    # a triangle in two free variables, four structural columns
    start, _ = phase_one(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.array([0, 0, -1.0]))
    assert phase_two(start, split_columns([-1.0, -1.0])).pivots > 0
    tableau = stored_tableau(start)
    pivots = []
    monkeypatch.setattr(lingauss.simplex, "_pivot", lambda *args: pivots.append(args))
    for cost in ([1.0], [-1.0, -1.0], np.ones(5)):
        with pytest.raises(ValueError, match="one entry per structural column"):
            phase_two(start, cost)
    assert pivots == []
    np.testing.assert_array_equal(stored_tableau(start), tableau)


def test_solution_structure():
    solution = solve_lp(split_columns([1.0]), [[1.0]], [2.0])
    assert isinstance(solution, LpSolution)
    assert solution.x.shape == (1,)
    assert solution.objective == pytest.approx(2.0, abs=1e-9)


def random_region(rng, trial):
    """(G, h, nonneg) of one of the families the kernel comparison covers;
    with_sign_rows poses it over free variables."""
    m = int(rng.integers(1, 12))
    n = int(rng.integers(1, 8))
    G = rng.normal(size=(m, n))
    h = rng.normal(size=m)
    nonneg = rng.random(n) < 0.5
    family = trial % 6
    if family == 1:  # the origin satisfies every row
        h = -np.abs(h)
        h[rng.random(m) < 0.3] = 0.0
    elif family == 2:  # the origin violates every row
        h = np.abs(h) + 0.1
    elif family == 3 and m > 1:  # duplicate violated rows
        h[0] = abs(h[0]) + 0.1
        G[1:3] = G[0]
        h[1:3] = h[0]
    elif family == 4:  # signed zeros
        G[rng.random((m, n)) < 0.3] = -0.0
        h[rng.random(m) < 0.4] = -0.0
    elif family == 5:  # pinned coordinates: x_j >= a_j and -x_j >= -a_j, a_j > 0
        a = rng.uniform(0.5, 2.0, n)
        G = np.vstack([np.eye(n), -np.eye(n), G])
        h = np.concatenate([a, -a, G[2 * n :] @ a - np.abs(h)])
    if trial % 2:  # coarse entries make exact ties in reduced costs and ratios
        G = np.round(G, (trial // 2) % 2)
    return G, h, nonneg


def assert_same_solution(mine, ref):
    assert mine.status == ref.status
    assert mine.objective == ref.objective
    assert mine.pivots == ref.pivots
    assert (mine.x is None) == (ref.x is None)
    if ref.x is not None:
        assert np.array_equal(mine.x, ref.x)


def assert_same_basis(start, ref_start):
    """A FeasibleBasis holds the reference basis's entries of its labels."""
    assert tuple(start.basis) == ref_start.basis
    assert np.array_equal(ref_start.tableau[:, start.columns], stored_tableau(start)[:, :-1])
    assert np.array_equal(ref_start.tableau[:, -1], stored_tableau(start)[:, -1])


def test_kernel_matches_the_full_tableau_reference(monkeypatch):
    # Each region is solved with the default stall limit and again with a
    # limit of 1, so that Bland's rule takes over after the first pivot that
    # does not improve the objective; both kernels read their own limit.
    # Each kernel's tableau is recorded before and after every _iterate
    # call: the stored entries must equal the reference's of the same labels.
    # From an origin that satisfies every row, phase_one returns its start
    # basis without calling _iterate (the reference iterates there and makes
    # no pivot), so the basis it returns stands in for both records. Every
    # basis phase_one returns is also compared with the reference's. Some
    # costs draw the two halves of each variable independently, so their
    # reduced costs are no mirror images; halves that both cost less than
    # nothing make a basic variable's partner, whose column the kernel never
    # stores, the most negative, and the program ends unbounded through it.
    module = sys.modules[__name__]
    full, condensed = [], []

    def full_iterate(tableau, basis, ncols, tol, cap, unspied=reference_iterate):
        before = tableau.copy()
        status, pivots = unspied(tableau, basis, ncols, tol, cap)
        full.append((before, tableau.copy(), pivots))
        return status, pivots

    def condensed_iterate(
        work, row_partners, columns, basis, cap, unspied=lingauss.simplex._iterate
    ):
        # the working tableau's partner row sits above the cost row (see _iterate)
        def record():
            partners = (work[-2, :-1].copy(), row_partners.copy(), basis.copy())
            return np.delete(work, -2, axis=0), columns.copy(), partners

        before = record()
        status, pivots = unspied(work, row_partners, columns, basis, cap)
        condensed.append((before, record()))
        return status, pivots

    def assert_same_partners(reference, tableau, columns, partner_row, row_partners, basis):
        # the half of each variable that is not stored: a stored one's
        # partner is its negated column, a basic one's -e_row, and each
        # reduced cost is the reference's of the same label
        n_struct = 2 * n
        stored = columns < n_struct
        assert np.array_equal(reference[:-1, columns[stored] ^ 1], -tableau[:-1, :-1][:, stored])
        assert np.array_equal(reference[-1, columns[stored] ^ 1], partner_row[stored])
        assert (partner_row[~stored] == np.inf).all()
        basic = basis < n_struct
        unit = np.eye(basis.size)[:, basic]
        assert np.array_equal(reference[:-1, basis[basic] ^ 1], -unit)
        assert np.array_equal(reference[-1, basis[basic] ^ 1], row_partners[basic])
        assert (row_partners[~basic] == np.inf).all()

    def assert_same_tableaus():
        assert len(full) == len(condensed) == 1
        for reference, (tableau, columns, partners) in zip(full[0][:2], condensed[0]):
            assert np.array_equal(reference[:, columns], tableau[:, :-1])
            assert np.array_equal(reference[:, -1], tableau[:, -1])
            if partners is not None:
                assert_same_partners(reference, tableau, columns, *partners)
        full.clear()
        condensed.clear()

    def counted_entering(costs, *args, unspied=lingauss.simplex._entering):
        entering = unspied(costs, *args)
        seen["through a basic partner"] += entering is not None and entering >= costs.size
        return entering

    monkeypatch.setattr(module, "reference_iterate", full_iterate)
    monkeypatch.setattr(lingauss.simplex, "_iterate", condensed_iterate)
    monkeypatch.setattr(lingauss.simplex, "_entering", counted_entering)
    rng = np.random.default_rng(107)
    halves = np.random.default_rng(163)  # the independent halves, apart from the regions
    seen = {"optimal": 0, "unbounded": 0, "infeasible": 0, "driven out": 0, "bland differs": 0}
    seen["through a basic partner"] = 0
    for trial in range(320):
        G, h, nonneg = random_region(rng, trial)
        n = G.shape[1]
        costs = [rng.normal(size=n), np.round(rng.normal(size=n))]
        costs += [sign * np.eye(n)[i] for i in range(n) for sign in (1.0, -1.0)]
        costs = [split_columns(c) for c in costs]
        costs.append(np.repeat(np.abs(costs[0][::2]), 2))  # a cost of |x|
        costs.append(halves.normal(size=2 * n))
        costs.append(-np.abs(halves.normal(size=2 * n)))
        G, h = with_sign_rows(G, h, nonneg)
        pivots_by_limit = []
        for limit in (100, 1):
            monkeypatch.setattr(lingauss.simplex, "STALL_LIMIT", limit)
            monkeypatch.setattr(module, "STALL_LIMIT", limit)
            ref_start, ref_pivots = reference_phase_one(G, h)
            seen["driven out"] += ref_pivots > full[0][2]
            start, pivots = phase_one(G, h)
            if not (h > 0.0).any():
                assert condensed == [] and pivots == 0
                condensed.append(((stored_tableau(start), start.columns, None),) * 2)
            assert_same_tableaus()
            assert pivots == ref_pivots
            assert (start is None) == (ref_start is None)
            made = [pivots]
            if start is None:
                seen["infeasible"] += 1
            else:
                assert_same_basis(start, ref_start)
                for c in costs:
                    mine = phase_two(start, c)
                    assert_same_solution(mine, reference_phase_two(ref_start, c))
                    if mine.status == "optimal":  # the surplus columns' reduced costs
                        final = full[0][1][-1, 2 * n : 2 * n + G.shape[0]]
                        assert np.array_equal(mine.multipliers, final)
                    assert_same_tableaus()
                    seen[mine.status] += 1
                    made.append(mine.pivots)
                    whole = solve_lp(c, G, h)
                    assert_same_solution(whole, replace(mine, pivots=pivots + mine.pivots))
                    condensed.clear()
            pivots_by_limit.append(made)
        seen["bland differs"] += pivots_by_limit[0] != pivots_by_limit[1]
    assert all(count > 0 for count in seen.values()), seen


def test_phase_one_stores_only_nonbasic_columns(monkeypatch):
    widths = []
    iterate = lingauss.simplex._iterate

    def spied(tableau, *args):
        widths.append(tableau.shape[1])
        return iterate(tableau, *args)

    monkeypatch.setattr(lingauss.simplex, "_iterate", spied)
    rng = np.random.default_rng(109)
    for trial in range(60):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 8))
        G = rng.normal(size=(m, n))
        h = rng.normal(size=m)
        if trial % 3 == 0:  # the origin satisfies every row
            h = -np.abs(h)
        elif trial % 3 == 1 and m > 1:  # a duplicate violated row
            h[0] = abs(h[0]) + 0.1
            G[1], h[1] = G[0], h[0]
        G, h = with_sign_rows(G, h, rng.random(n) < 0.5)
        m, n_struct = G.shape[0], 2 * n
        violated = int(np.count_nonzero(h > 0.0))
        widths.clear()
        start, _ = phase_one(G, h)
        # one column per variable and one artificial column per violated row
        # while phase 1 iterates, and no iteration at all from an origin that
        # satisfies every row
        assert widths == ([n + violated + 1] if violated else [])
        ref_start, _ = reference_phase_one(G, h)
        assert (start is None) == (ref_start is None)
        if start is None:
            continue
        assert_same_basis(start, ref_start)
        nonbasic, basic = set(start.columns.tolist()), set(start.basis.tolist())
        assert len(basic) == m  # a surplus column keeps every row independent
        assert not nonbasic & basic
        # one half of every variable and every surplus column, once, no artificial
        owners = [label // 2 if label < n_struct else label - n for label in nonbasic | basic]
        assert sorted(owners) == list(range(n + m))
        assert stored_tableau(start).shape == (m + 1, n + 1)


def test_pivot_update_is_an_outer_product_entry_for_entry():
    # the update is a BLAS product with an inner dimension of 1: each entry
    # must be the one rounded product that np.outer forms, overflow,
    # underflow and zeros of either sign included, and the leaving
    # variable's column in the freed slot must be -a_i * (1/p), 1/p in row
    rng = np.random.default_rng(113)
    entries = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.0, -2.5, 0.1, 3.0])
    for trial in range(200):
        m, w = (int(v) for v in rng.integers(2, 9, size=2))
        tableau = rng.choice(entries, size=(m, w)) * rng.choice([1.0, 1.0 + 2**-30], size=(m, w))
        row, slot = int(rng.integers(m)), int(rng.integers(w))
        tableau[row, slot] = rng.choice([1.0, -2.0, 0.75, 3.0])
        columns, basis = np.arange(w), w + np.arange(m)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            want = tableau.copy()
            pivot = want[row, slot]
            want[row] /= pivot
            multipliers = want[:, slot].copy()
            multipliers[row] = 0.0
            want -= np.outer(multipliers, want[row])
            multipliers *= -1.0 / pivot
            multipliers[row] = 1.0 / pivot
            want[:, slot] = multipliers
            lingauss.simplex._pivot(tableau, columns, basis, row, slot, tableau[:, slot].copy())
        assert np.array_equal(tableau, want, equal_nan=True)
        assert columns[slot] == w + row and basis[row] == slot
