"""Operator seminorm, SVD singular values, sphere oracle."""

import math

import numpy as np
import pytest

from normcat.extreal import INF
from normcat.linear import (
    as_matrix, singular_values,
    operator_seminorm, min_gain_estimate,
)

LOG2 = math.log(2)


def test_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        as_matrix([[float("nan")]])
    with pytest.raises(ValueError):
        as_matrix([])


def test_tiny_nonzero_singular_value_is_not_a_kernel():
    # a route through A^T A squares 1e-7 to 1e-14, below any kernel cut-off
    assert abs(operator_seminorm([[1e-7]]) - 7 * math.log(10)) < 1e-9
    assert abs(operator_seminorm([[1e-7]]) - 16.118) < 1e-3


def test_ill_conditioned_diagonal_keeps_sigma_min():
    assert singular_values([[1e6, 0.0], [0.0, 1.0]]) == [1e6, 1.0]
    assert operator_seminorm([[1e6, 0.0], [0.0, 1.0]]) == 0.0


def test_wide_matrix_is_padded_with_kernel_zeros():
    sigma = singular_values([[3.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert sigma[:2] == pytest.approx([3.0, 2.0], rel=1e-12) and sigma[2] == 0.0
    assert operator_seminorm([[3.0, 0.0, 0.0], [0.0, 2.0, 0.0]]) == INF


def test_singular_values_match_numpy():
    rng = np.random.default_rng(6)
    for trial in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((m, n)) * rng.uniform(0.1, 5.0)
        ours = singular_values(a)
        ref = np.linalg.svd(a, compute_uv=False).tolist()
        ref += [0.0] * (n - len(ref))   # wide matrices: pad kernel zeros
        assert len(ours) == n
        assert max(abs(x - y) for x, y in zip(ours, ref)) <= 1e-9 * ref[0]


def test_operator_seminorm_values():
    assert operator_seminorm([[1.0, 0.0], [0.0, 1.0]]) == 0.0
    assert abs(operator_seminorm([[1.0, 0.0], [0.0, 0.5]]) - LOG2) < 1e-12
    assert operator_seminorm([[2.0, 0.0], [0.0, 3.0]]) == 0.0


def test_operator_seminorm_infinite_on_kernels():
    assert operator_seminorm([[1.0, 1.0]]) == INF          # wide: kernel
    assert operator_seminorm([[0.0]]) == INF
    assert operator_seminorm([[1.0, 1.0], [1.0, 1.0]]) == INF


def test_tall_injective_matrices_can_have_zero_norm():
    # an isometric embedding of R^1 into R^2 followed by stretching
    a = [[1.0], [1.0]]   # sigma_min = sqrt(2) > 1
    assert operator_seminorm(a) == 0.0


def test_zero_norm_maps_both_ways_force_equal_dimension():
    # finite-dimensional Schroeder-Bernstein: a wide matrix always has a
    # kernel, so no zero-norm pair can exist between unequal dimensions
    rng = np.random.default_rng(7)
    for m, n in [(1, 3), (2, 4), (3, 5)]:
        back = rng.standard_normal((m, n))
        assert operator_seminorm(back) == INF
    # equal dimensions admit zero-norm pairs (orthogonal matrices)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert operator_seminorm(q) < 1e-9
    assert operator_seminorm(q.T) < 1e-9


def test_seminorm_subadditive_under_composition():
    rng = np.random.default_rng(8)
    for trial in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((n, k))
        na, nb = operator_seminorm(a), operator_seminorm(b)
        if na == INF or nb == INF or na + nb > 12:
            # kernels, or sigma_min(ab) possibly below the rank cut-off
            continue
        nab = operator_seminorm(a @ b)
        assert nab <= na + nb + 1e-9


def test_operator_seminorm_is_orthogonally_invariant():
    # sigma_min, hence the seminorm, ignores rotations on either side
    rng = np.random.default_rng(10)
    for trial in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n))
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        r, _ = np.linalg.qr(rng.standard_normal((n, n)))
        na = operator_seminorm(a)
        if na == INF or na > 12:
            continue
        assert abs(operator_seminorm(q @ a @ r) - na) < 1e-9


def controlled_spectrum_matrix(rng, n):
    """Random matrix with singular values in [0.5, 2]: moderate conditioning."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = rng.uniform(0.5, 2.0, size=n)
    return q1 @ np.diag(sigma) @ q2


def test_sphere_oracle_matches_sigma_min():
    rng = np.random.default_rng(10)
    for trial in range(50):
        n = int(rng.integers(1, 5))
        a = controlled_spectrum_matrix(rng, n)
        smin = singular_values(a)[-1]
        est = min_gain_estimate(a, samples=100000, seed=trial)
        assert est >= smin - 1e-12           # sampled minimum cannot undershoot
        assert abs(1.0 / est - 1.0 / smin) <= 0.01 / smin
