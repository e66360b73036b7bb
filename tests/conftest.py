from dataclasses import dataclass

import numpy as np
import pytest

from lingauss.fixtures import PLANE_OFFSET, PLANE_T, pentagon_problem


@pytest.fixture(scope="session")
def pentagon_inequality():
    return pentagon_problem("inequality")


@pytest.fixture(scope="session")
def pentagon_equality():
    return pentagon_problem("equality")


@pytest.fixture(scope="session")
def pentagon_both():
    return pentagon_problem("both")


def random_spd(rng, n, scale=1.0):
    """Random symmetric positive definite matrix with bounded condition number."""
    root = rng.normal(size=(n, n))
    return scale * (root @ root.T + n * np.eye(n))


@dataclass(frozen=True)
class ValidationTransform:
    """Affine coordinate change v = T x + offset used by the validation study.

    For the built-in 4-D problem the last two rows of T repeat the equality
    matrix, so plane-restricted samples land at v3 = v4 = 0 and the first two
    coordinates parameterize the plane.
    """

    T: np.ndarray
    offset: np.ndarray


def pentagon_transform() -> ValidationTransform:
    """Coordinate change whose first two output axes parameterize the plane."""
    return ValidationTransform(T=PLANE_T.copy(), offset=PLANE_OFFSET.copy())


def pentagon_plane_coords(x, vt: ValidationTransform) -> tuple[float, float]:
    """First two coordinates of v = T x + offset: the in-plane position of x."""
    v = vt.T @ np.asarray(x, dtype=float) + vt.offset
    return float(v[0]), float(v[1])
