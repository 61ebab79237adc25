"""Direct, unoptimized reference forms that the tests check the library against.

None of this is used by the pipeline itself: each function here is the slow
or textbook version of something the library does incrementally or
implicitly, kept so that tests can compare the two.
"""

from dataclasses import dataclass

import numpy as np

from sparsebrdf.errors import (
    EmptyMaskError,
    IndexOutOfRangeError,
    RankCollapseError,
    SingularMatrixError,
)
from sparsebrdf.merl import BrdfTensor, RowMap
from sparsebrdf.somp import DEFAULT_COND_LIMIT, SupportSet, atom_select


def residual_update(dinv: np.ndarray, support, coeffs: np.ndarray) -> np.ndarray:
    """Project coeffs onto the orthogonal complement of the selected columns.

    Computed from scratch with a dense QR; this is the reference form the
    incremental update inside somp_select is checked against.
    """
    indices = list(support.indices if isinstance(support, SupportSet) else support)
    if not indices:
        return coeffs.copy()
    basis = dinv[:, indices]
    svals = np.linalg.svd(basis, compute_uv=False)
    if svals[-1] == 0.0 or svals[0] / svals[-1] > DEFAULT_COND_LIMIT:
        raise RankCollapseError(
            f"selected columns are numerically dependent (cond > {DEFAULT_COND_LIMIT:.0e})"
        )
    q, _ = np.linalg.qr(basis)
    return coeffs - q @ (q.T @ coeffs)


def exact_somp(dinv: np.ndarray, coeffs: np.ndarray, m: int) -> SupportSet:
    """SOMP with m picks that re-projects from scratch after every pick."""
    selected: list[int] = []
    history: list[float] = []
    residual = coeffs.copy()
    for _ in range(m):
        selected.append(atom_select(dinv, residual, exclude=selected))
        residual = residual_update(dinv, selected, coeffs)
        history.append(float(np.linalg.norm(residual)))
    return SupportSet(indices=selected, residual_history=history)


def dictionary_pseudo_inverse(d: np.ndarray, rank_tol: float = 1e-10) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a full-rank dictionary.

    Accepts either orientation: full column rank (tall/orthogonal case) or
    full row rank (overcomplete case).  Raises when the smallest singular
    value falls below rank_tol relative to the largest.
    """
    d = np.asarray(d, dtype=np.float64)
    u, sigma, vt = np.linalg.svd(d, full_matrices=False)
    if sigma[0] == 0.0 or sigma[-1] < rank_tol * sigma[0]:
        raise SingularMatrixError(
            f"matrix of shape {d.shape} is rank deficient "
            f"(sigma ratio {sigma[-1] / sigma[0] if sigma[0] else 0.0:.2e})"
        )
    return (vt.T / sigma) @ u.T


@dataclass(frozen=True)
class SubsamplingOperator:
    """Row selection of the identity: keeps the listed entries, in order."""

    rows: tuple
    ambient_dim: int

    def apply(self, signal: np.ndarray) -> np.ndarray:
        signal = np.asarray(signal)
        if signal.shape[0] != self.ambient_dim:
            raise IndexOutOfRangeError(
                f"signal has {signal.shape[0]} rows, operator expects {self.ambient_dim}"
            )
        return signal[list(self.rows)]

    def as_matrix(self) -> np.ndarray:
        phi = np.zeros((len(self.rows), self.ambient_dim))
        phi[np.arange(len(self.rows)), list(self.rows)] = 1.0
        return phi


def build_subsampling_operator(support: SupportSet, ambient_dim: int) -> SubsamplingOperator:
    if any(i < 0 or i >= ambient_dim for i in support.indices):
        raise IndexOutOfRangeError(
            f"support indices must lie in [0, {ambient_dim})"
        )
    return SubsamplingOperator(tuple(support.indices), ambient_dim)


def row_of_grid(row_map: RowMap) -> np.ndarray:
    """Dense row of every grid index, or -1 where the cell is not mapped."""
    inv = np.full(row_map.resolution.grid_size, -1, dtype=np.int64)
    inv[row_map.grid_indices] = np.arange(row_map.n_valid, dtype=np.int64)
    return inv


def validity_mask(brdf: BrdfTensor) -> RowMap:
    """Row map over this tensor's own valid cells."""
    idx = np.flatnonzero(brdf.mask).astype(np.int64)
    if idx.size == 0:
        raise EmptyMaskError("tensor has no valid cells")
    return RowMap(brdf.resolution, idx)
