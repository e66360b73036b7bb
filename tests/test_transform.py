import numpy as np
import pytest

from lingauss.errors import NotPSD, SingularEqualityGram
from lingauss.problem import ProblemSpec
from lingauss.transform import (
    EQUALITY_TOL,
    build_transform,
    classify_equality_system,
)

from conftest import random_spd


def brute_force_transform(mu, sigma, C, d):
    """Straight-line reference: explicit inverse, no factorization tricks.

    Returns the paper's F = I - E C and g. A problem built with A = I has
    H = A F = F, so its H is compared with F.
    """
    E = sigma @ C.T @ np.linalg.inv(C @ sigma @ C.T)
    F = np.eye(len(mu)) - E @ C
    g = F @ mu - E @ d
    return F, g


def test_classify_no_solution():
    C = np.array([[1.0, 0.0], [1.0, 0.0]])
    d = np.array([0.0, 1.0])  # x1 = 0 and x1 = -1
    assert classify_equality_system(C, d).kind == "no_solution"


def test_classify_unique():
    C = np.array([[2.0, 0.0], [0.0, 4.0]])
    d = np.array([-2.0, -8.0])
    result = classify_equality_system(C, d)
    assert result.kind == "unique"
    np.testing.assert_allclose(result.x, [1.0, 2.0], atol=1e-12)


def test_classify_infinite():
    C = np.array([[1.0, 1.0, 0.0]])
    d = np.array([-1.0])
    assert classify_equality_system(C, d).kind == "infinite"


def test_classify_empty_system_is_infinite():
    assert classify_equality_system(np.zeros((0, 3)), np.zeros(0)).kind == "infinite"


def test_classification_ignores_row_scale():
    # x = (1, 2) twice over; rows 1e12 apart in scale still pin one point
    C = np.array([[1.0, 1.0], [1.0, -1.0]])
    d = np.array([-3.0, 1.0])
    scales = np.array([1e-6, 1e6])
    result = classify_equality_system(C * scales[:, None], d * scales)
    assert result.kind == "unique"
    np.testing.assert_allclose(result.x, [1.0, 2.0], atol=1e-12)
    inconsistent = scales * np.array([-3.0, 2.0])  # x1 + x2 = 3 and x1 + x2 = -2
    result = classify_equality_system(C[[0, 0]] * scales[:, None], inconsistent)
    assert result.kind == "no_solution"
    # x1 = 3e8 beside x2 = x3: a large offset makes no row look dependent
    C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
    assert classify_equality_system(C, [-3e8, 0.0]).kind == "infinite"
    C = np.array([[1.0, 0.0], [1.0, 1e-3]])  # x1 = 3e8 and x2 = 0
    result = classify_equality_system(C, [-3e8, -3e8])
    assert result.kind == "unique"
    np.testing.assert_allclose(result.x, [3e8, 0.0], atol=1e-3)


def test_classification_ignores_translation():
    # x -> x + t maps C x + d = 0 to C x + (d - C t) = 0: the same kind of set.
    # The tolerance grows with the offset, so the parallel planes lie 45 apart.
    rng = np.random.default_rng(61)
    systems = {
        "infinite": (rng.normal(size=(2, 4)), np.zeros(2)),
        "unique": (rng.normal(size=(3, 3)), np.zeros(3)),
        "no_solution": (np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]]), np.array([0.0, 100.0])),
    }
    for kind, (C, d) in systems.items():
        for size in (1e-3, 1.0, 1e4, 1e8):
            t = size * rng.normal(size=C.shape[1])
            assert classify_equality_system(C, d - C @ t).kind == kind, (kind, size)


def test_row_scale_does_not_make_an_equality_redundant():
    rng = np.random.default_rng(59)
    n = 4
    sigma = random_spd(rng, n)
    C = rng.normal(size=(2, n))
    d = -C @ rng.normal(size=n)
    mu = rng.normal(size=n)
    scales = np.array([1e6, 1e-6])
    scaled = build_transform(
        ProblemSpec(mu, sigma, np.eye(n), np.zeros(n), C * scales[:, None], d * scales)
    )
    F, g = brute_force_transform(mu, sigma, C, d)
    np.testing.assert_allclose(scaled.H, F, atol=1e-8)
    np.testing.assert_allclose(scaled.B @ scaled.B.T, F @ sigma @ F.T, atol=1e-8)
    np.testing.assert_allclose(scaled.g, g, atol=1e-8)
    # x1 = 3e8 and x1 + 1e-3 x2 = 3e8 are two equations: x2 = 0 is the second
    C = np.array([[1.0, 0.0, 0.0], [1.0, 1e-3, 0.0]])
    t = build_transform(ProblemSpec(np.zeros(3), np.eye(3), np.eye(3), np.zeros(3), C, [-3e8] * 2))
    np.testing.assert_allclose(t.g, [3e8, 0.0, 0.0], atol=1e-3)
    np.testing.assert_allclose(t.H, np.diag([0.0, 0.0, 1.0]), atol=1e-8)
    np.testing.assert_allclose(t.B @ t.B.T, np.diag([0.0, 0.0, 1.0]), atol=1e-8)


def test_transform_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n))  # strictly fewer rows than dimensions
        sigma = random_spd(rng, n)
        C = rng.normal(size=(p, n))
        mu = rng.normal(size=n)
        x_star = rng.normal(size=n)
        d = -C @ x_star  # consistent by construction
        spec = ProblemSpec(mu, sigma, np.eye(n), np.zeros(n), C, d)
        transformed = build_transform(spec)
        F, g = brute_force_transform(mu, sigma, C, d)
        np.testing.assert_allclose(transformed.H, F, atol=1e-8)
        np.testing.assert_allclose(transformed.B @ transformed.B.T, F @ sigma @ F.T, atol=1e-8)
        np.testing.assert_allclose(transformed.g, g, atol=1e-8)


def test_transform_identities_on_random_systems():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n))
        sigma = random_spd(rng, n)
        C = rng.normal(size=(p, n))
        d = -C @ rng.normal(size=n)
        spec = ProblemSpec(rng.normal(size=n), sigma, np.eye(n), np.zeros(n), C, d)
        t = build_transform(spec)
        F = t.H  # A = I
        np.testing.assert_allclose(C @ F, 0.0, atol=1e-8)
        np.testing.assert_allclose(C @ t.B, 0.0, atol=1e-8)
        np.testing.assert_allclose(C @ t.g + d, 0.0, atol=1e-8)
        np.testing.assert_allclose(F @ sigma @ F.T, F @ sigma, atol=1e-8)
        np.testing.assert_allclose(F @ F, F, atol=1e-8)
        np.testing.assert_allclose(t.B @ t.B.T, F @ sigma, atol=1e-8)


@pytest.mark.parametrize("rank_deficit", [0, 1], ids=["full_rank", "singular_sigma"])
def test_plane_factor_carries_the_conditional_covariance(rank_deficit):
    # B B' = F sigma F', B lies on the plane, P is orthonormal, G = A B, and
    # the plane has k = rank(sigma) - r coordinates
    rng = np.random.default_rng(79)
    for _ in range(30):
        n = int(rng.integers(3, 7))
        p = int(rng.integers(0, n - rank_deficit))
        # a singular sigma has no variance along one coordinate
        sigma = np.zeros((n, n))
        kept = np.sort(rng.permutation(n)[: n - rank_deficit])
        sigma[np.ix_(kept, kept)] = random_spd(rng, n - rank_deficit)
        C = rng.normal(size=(p, n)) if p else None
        d = -C @ rng.normal(size=n) if p else None
        A = rng.normal(size=(2, n))
        spec = ProblemSpec(rng.normal(size=n), 0.5 * (sigma + sigma.T), A, np.ones(2), C, d)
        t = build_transform(spec)
        F = brute_force_transform(spec.mu, spec.sigma, C, d)[0] if p else np.eye(n)
        assert spec.factor.rank == n - rank_deficit
        assert t.B.shape == (n, n - rank_deficit - p)
        np.testing.assert_allclose(t.B @ t.B.T, F @ spec.sigma @ F.T, atol=1e-8)
        np.testing.assert_allclose(t.P.T @ t.P, np.eye(t.P.shape[1]), atol=1e-12)
        np.testing.assert_allclose(F @ t.B, t.B, atol=1e-8)
        np.testing.assert_allclose(t.H, A @ F, atol=1e-8)
        np.testing.assert_array_equal(t.G, A @ t.B)
        if p:
            np.testing.assert_allclose(C @ t.B, 0.0, atol=1e-8)


def test_no_equalities_shortcut():
    spec = ProblemSpec(mu=[1.0, -2.0], sigma=np.eye(2), A=[[1.0, 0.0]], b=[0.0])
    t = build_transform(spec)
    np.testing.assert_array_equal(t.B, spec.factor.factor)
    np.testing.assert_array_equal(t.P, np.eye(2))
    np.testing.assert_array_equal(t.g, spec.mu)
    np.testing.assert_array_equal(t.H, spec.A)
    np.testing.assert_allclose(t.k, spec.A @ spec.mu + spec.b)


def test_inequalities_map_into_latent_space():
    rng = np.random.default_rng(47)
    n = 4
    sigma = random_spd(rng, n)
    C = rng.normal(size=(2, n))
    d = -C @ rng.normal(size=n)
    A = rng.normal(size=(3, n))
    b = rng.normal(size=3)
    spec = ProblemSpec(mu=rng.normal(size=n), sigma=sigma, A=A, b=b, C=C, d=d)
    t = build_transform(spec)
    F, _ = brute_force_transform(spec.mu, sigma, C, d)
    np.testing.assert_allclose(t.H, A @ F, atol=1e-10)
    np.testing.assert_allclose(t.k, A @ t.g + b, atol=1e-10)
    # a point of the plane has the same slack in x, in y = B u and in u
    u = rng.normal(size=t.B.shape[1])
    x = t.g + t.B @ u
    np.testing.assert_allclose(A @ x + b, t.H @ (t.B @ u) + t.k, atol=1e-8)
    np.testing.assert_allclose(A @ x + b, t.G @ u + t.k, atol=1e-8)
    np.testing.assert_allclose(C @ x + d, 0.0, atol=1e-8)


def test_redundant_equality_rows_are_dropped():
    rng = np.random.default_rng(53)
    n = 4
    sigma = random_spd(rng, n)
    C = rng.normal(size=(2, n))
    d = -C @ rng.normal(size=n)
    spec_plain = ProblemSpec(np.zeros(n), sigma, np.eye(n), np.zeros(n), C, d)
    C_dup = np.vstack([C, 2.0 * C[0]])
    d_dup = np.concatenate([d, [2.0 * d[0]]])
    spec_dup = ProblemSpec(np.zeros(n), sigma, np.eye(n), np.zeros(n), C_dup, d_dup)
    a = build_transform(spec_plain)
    b = build_transform(spec_dup)
    np.testing.assert_allclose(a.H, b.H, atol=1e-10)
    np.testing.assert_allclose(a.B @ a.B.T, b.B @ b.B.T, atol=1e-10)
    np.testing.assert_allclose(a.g, b.g, atol=1e-10)
    F, g = brute_force_transform(np.zeros(n), sigma, C, d)  # the two kept rows
    np.testing.assert_allclose(b.H, F, atol=1e-8)
    np.testing.assert_allclose(b.B @ b.B.T, F @ sigma @ F.T, atol=1e-8)
    np.testing.assert_allclose(b.g, g, atol=1e-8)


def test_shuffled_redundant_systems_match_brute_force_on_independent_rows():
    # planted combinations, zero rows and duplicates, shuffled among the rows
    rng = np.random.default_rng(107)
    dropped = 0
    for trial in range(200):
        width = int(rng.integers(2, 12))
        free = int(rng.integers(1, width))
        base = rng.normal(size=(free, width)) * rng.uniform(0.1, 10.0, (free, 1))
        planted = int(rng.integers(0, 6))
        weights = rng.normal(size=(planted, free))
        weights[rng.random(weights.shape) < 0.4] = 0.0  # sparse combinations
        rows = np.vstack([base, weights @ base])
        if trial % 10 == 0:
            rows = np.vstack([rows, np.zeros(width), rows[0]])  # a zero row, a duplicate
        rows = rows[rng.permutation(rows.shape[0])]
        x_star = rng.normal(size=width)
        mu = rng.normal(size=width)
        sigma = random_spd(rng, width)
        equality = classify_equality_system(rows, -rows @ x_star)
        assert equality.rows.shape[0] == free
        spec = ProblemSpec(mu, sigma, np.eye(width), np.zeros(width), rows, -rows @ x_star)
        t = build_transform(spec, equality=equality)
        F, g = brute_force_transform(mu, sigma, base, -base @ x_star)
        np.testing.assert_allclose(t.H, F, atol=1e-8)
        np.testing.assert_allclose(t.B @ t.B.T, F @ sigma @ F.T, atol=1e-8)
        np.testing.assert_allclose(t.g, g, atol=1e-8)
        dropped += rows.shape[0] - free
    assert dropped > 200


@pytest.mark.parametrize("eps", [1.2e-8, 5e-8, 1e-6, 1e-4])
def test_near_parallel_rows_give_a_projector(eps):
    # two unit rows eps apart: rank 1 below 2e-8 (s2 / s1 = tan(eps / 2)), else 2
    C = np.array([[1.0, 0.0, 0.0], [np.cos(eps), np.sin(eps), 0.0]])
    d = -C @ np.array([0.0, 1.25e-8, 0.0])
    spec = ProblemSpec(np.ones(3), np.eye(3), np.eye(3), np.zeros(3), C, d)
    rank = classify_equality_system(C, d).rows.shape[0]
    assert rank == (1 if eps < 2e-8 else 2)
    F = build_transform(spec).H  # A = I
    assert np.abs(F @ F - F).max() <= 1e-12
    assert abs(np.trace(F) - (3 - rank)) <= 1e-12
    np.testing.assert_allclose(C @ F, 0.0, atol=2 * EQUALITY_TOL)


def test_inconsistent_system_rejected_by_build():
    spec = ProblemSpec(
        mu=np.zeros(2),
        sigma=np.eye(2),
        C=[[1.0, 0.0], [1.0, 0.0]],
        d=[0.0, 1.0],
    )
    with pytest.raises(ValueError):
        build_transform(spec)


def test_unique_system_rejected_by_build():
    spec = ProblemSpec(mu=np.zeros(2), sigma=np.eye(2), C=np.eye(2), d=[-1.0, -1.0])
    with pytest.raises(ValueError):
        build_transform(spec)


def test_given_classification_builds_the_same_transform():
    rng = np.random.default_rng(73)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n))
        m = int(rng.integers(0, 5))
        C = rng.normal(size=(p, n))
        if p > 1 and rng.random() < 0.5:  # a redundant row
            C = np.vstack([C, C[0] + C[-1]])
        d = -C @ rng.normal(size=n)
        spec = ProblemSpec(
            mu=rng.normal(size=n),
            sigma=random_spd(rng, n),
            A=rng.normal(size=(m, n)) if m else None,
            b=rng.normal(size=m) if m else None,
            C=C,
            d=d,
        )
        alone = build_transform(spec)
        given = build_transform(spec, equality=classify_equality_system(spec.C, spec.d))
        for name in ("g", "H", "k", "B", "G", "P"):
            assert np.array_equal(getattr(alone, name), getattr(given, name)), name


def test_given_non_infinite_classification_rejected():
    spec = ProblemSpec(mu=np.zeros(2), sigma=np.eye(2), C=np.eye(2), d=[-1.0, -1.0])
    with pytest.raises(ValueError, match="unique"):
        build_transform(spec, equality=classify_equality_system(spec.C, spec.d))


def test_singular_gram_raises():
    # sigma annihilates the constraint direction: C sigma C^T = 0
    spec = ProblemSpec(
        mu=np.zeros(2),
        sigma=[[1.0, 0.0], [0.0, 0.0]],
        C=[[0.0, 1.0]],
        d=[0.0],
    )
    with pytest.raises(SingularEqualityGram):
        build_transform(spec)


def rotated_singular_sigma(seed):
    """sigma = Q diag(1, 1, 0) Q' for a random rotation Q, and the unit row
    Q[:, 2]', the one direction sigma carries no mass across."""
    rotation, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    sigma = rotation @ np.diag([1.0, 1.0, 0.0]) @ rotation.T
    return 0.5 * (sigma + sigma.T), rotation[:, 2]


@pytest.mark.parametrize("seed, rank", [(102, 2), (106, 2)])
def test_rotated_singular_gram_raises(seed, rank):
    # roundoff leaves the Gram near 1e-17, where its Cholesky factor survives,
    # and on the first seed leaves sigma a Cholesky factor too, whose last
    # pivot factor_covariance rejects
    sigma, row = rotated_singular_sigma(seed)
    spec = ProblemSpec(mu=np.zeros(3), sigma=sigma, C=[row], d=[-0.5])
    assert spec.factor.rank == rank
    with pytest.raises(SingularEqualityGram):
        build_transform(spec)


def test_gram_is_tested_on_the_directions_the_rank_of_sigma_counts():
    # rank(sigma) counts 2 of diag(1, 1, 5e-11, 0). The row meets the counted
    # x2 with weight 6e-11 and the uncounted x3 with 5e-11: a Gram of 1.1e-10
    # in all, 6e-11 on the counted part. Passing it would leave x2 a
    # conditional variance of 0.45 that k = rank - r = 1 has no room for.
    row = np.array([0.0, np.sqrt(6e-11), 1.0, 0.0])
    spec = ProblemSpec(
        mu=np.zeros(4), sigma=np.diag([1.0, 1.0, 5e-11, 0.0]), C=[row], d=[-1e-6]
    )
    assert spec.factor.rank == 2
    with pytest.raises(SingularEqualityGram):
        build_transform(spec)


def test_gram_made_indefinite_by_a_tolerated_negative_eigenvalue_raises():
    # the counted directions give the Gram 2.5e-11; sigma's -9e-11, which the
    # PSD tolerance of 1e-10 max|sigma| lets through, makes V sigma V.T
    # negative. The floor refuses the Gram first: a tolerated eigenvalue is
    # never below -1e-10 max|sigma|, so it cannot outweigh a Gram above it.
    spec = ProblemSpec(
        mu=np.zeros(3), sigma=np.diag([1.0, -9e-11, 1.0]), C=[[0.0, 1.0, 5e-6]], d=[0.0]
    )
    with pytest.raises(SingularEqualityGram):
        build_transform(spec)
    with pytest.raises(NotPSD):  # -5e-11 is 5e-8 times max|sigma| here
        ProblemSpec(mu=np.zeros(3), sigma=np.diag([1e-3, -5e-11, 1e-3]))


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_gram_test_is_relative_to_the_scale_of_sigma(scale):
    _, row = rotated_singular_sigma(102)
    spec = ProblemSpec(mu=np.zeros(3), sigma=scale * np.eye(3), C=[row], d=[-0.5])
    transformed = build_transform(spec)
    np.testing.assert_allclose(row @ transformed.g, 0.5, rtol=1e-12)
