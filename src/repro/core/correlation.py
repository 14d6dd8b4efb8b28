"""Cholesky-based correlated normal sampling (Section V-F).

The paper couples per-core memory with the two benchmark speeds by drawing
a standard-normal vector, multiplying by a Cholesky factor of the target
correlation matrix, and then transforming the components: the memory
component becomes a uniform (via Φ) that indexes the per-core-memory class
distribution, while the speed components are rescaled to the predicted
benchmark mean/variance.  This module provides the correlated-normal part.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special as _special


def nearest_correlation_psd(matrix: np.ndarray, eps: float = 1e-10) -> np.ndarray:
    """Project a symmetric matrix to the nearest positive semi-definite one.

    Empirical correlation matrices assembled entry-wise (as in Table III)
    can be slightly indefinite; clipping negative eigenvalues and restoring
    the unit diagonal is the standard repair.
    """
    sym = 0.5 * (matrix + matrix.T)
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    clipped = np.clip(eigenvalues, eps, None)
    repaired = eigenvectors @ np.diag(clipped) @ eigenvectors.T
    # Renormalise to unit diagonal so it stays a correlation matrix.
    d = np.sqrt(np.diag(repaired))
    repaired = repaired / np.outer(d, d)
    np.fill_diagonal(repaired, 1.0)
    return repaired


@dataclass
class CorrelatedNormalSampler:
    """Draw standard-normal vectors with a prescribed correlation matrix.

    Uses the lower Cholesky factor ``L`` of the correlation matrix ``R`` so
    that ``x = z @ L.T`` (``z`` iid standard normal rows) has ``corr(x) = R``
    — the matrix form of the paper's ``V_C = V U`` construction.
    """

    correlation: np.ndarray
    _factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.correlation, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {matrix.shape}")
        if not np.allclose(np.diag(matrix), 1.0, atol=1e-8):
            raise ValueError("correlation matrix must have unit diagonal")
        if not np.allclose(matrix, matrix.T, atol=1e-8):
            raise ValueError("correlation matrix must be symmetric")
        if np.any(np.abs(matrix) > 1 + 1e-8):
            raise ValueError("correlation entries must lie in [-1, 1]")
        try:
            factor = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            factor = np.linalg.cholesky(nearest_correlation_psd(matrix))
        self.correlation = matrix
        self._factor = factor

    @property
    def dimension(self) -> int:
        """Number of correlated components."""
        return self.correlation.shape[0]

    @property
    def cholesky_factor(self) -> np.ndarray:
        """The lower-triangular factor ``L`` with ``L @ L.T == R``."""
        return self._factor.copy()

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Return a ``(size, dimension)`` array of correlated N(0,1) margins."""
        if size < 0:
            raise ValueError("size must be non-negative")
        z = rng.standard_normal((size, self.dimension))
        return z @ self._factor.T

    @staticmethod
    def normals_to_uniforms(z: np.ndarray) -> np.ndarray:
        """Map standard-normal variates to uniforms via Φ (the normal CDF).

        Used to convert the memory component of the correlated vector into
        the uniform that selects the per-core-memory class (Section V-F).
        Calls ``scipy.special.ndtr`` directly: it is the function
        ``scipy.stats.norm.cdf`` ends in, with the same bits and without
        the per-call argument handling.
        """
        return _special.ndtr(np.asarray(z, dtype=float))
