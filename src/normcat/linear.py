"""Operator seminorm of real matrices between Euclidean spaces.

The seminorm of a matrix measures worst-case contraction: max(0, -log
of the smallest singular value), infinite when the matrix has a kernel.
Singular values come from LAPACK's SVD of A itself, never from the Gram
matrix A^T A, which would square the conditioning; tests cross-check
against an independent sphere-sampling oracle.
"""

import math

import numpy as np

from .extreal import INF


def as_matrix(entries):
    """Validate and return a rectangular float matrix with finite entries."""
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("matrix must be two-dimensional and nonempty")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def singular_values(entries):
    """Singular values of a rectangular matrix, descending, padded to its width.

    Values with sigma <= sigma_max * max(m, n) * eps (LAPACK's rank
    cut-off) are reported as exact zeros, and a wide m x n matrix gets
    n - m more zeros: it always has a kernel.  The cut-off multiplies
    sigma_max by the power-of-two multiple max(m, n) * eps, so it does
    not overflow when sigma_max * max(m, n) would.
    """
    a = as_matrix(entries)
    m, n = a.shape
    sigma = np.linalg.svd(a, compute_uv=False)
    sigma[sigma <= sigma[0] * (max(m, n) * np.finfo(float).eps)] = 0.0
    return sigma.tolist() + [0.0] * (n - min(m, n))


def operator_seminorm(entries):
    """max(0, -log sigma_min): how strongly the matrix can contract a vector.

    A kernel (sigma_min = 0) gives infinity; matrices that never shrink
    anything get 0 by the floor convention.
    """
    sigma = singular_values(entries)
    smin = sigma[-1]
    if smin == 0.0:
        return INF
    return max(0.0, -math.log(smin))


def min_gain_estimate(entries, samples=100000, seed=0):
    """Smallest ||Av|| over `samples` random unit vectors v.

    An independent randomized estimate of sigma_min used as an oracle
    against the SVD computation; always an upper bound on sigma_min.
    """
    a = as_matrix(entries)
    n = a.shape[1]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, samples))
    norms = np.linalg.norm(v, axis=0)
    norms[norms == 0.0] = 1.0
    v /= norms
    gains = np.linalg.norm(a @ v, axis=0)
    return float(gains.min())
