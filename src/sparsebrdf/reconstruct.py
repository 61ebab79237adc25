"""Full-BRDF recovery from a handful of measured samples.

Per channel, the coefficients s minimize the ridge objective

    || b_lambda - mean_lambda - D_rows s ||_2^2 + eta ||s||_2^2

over the dictionary rows at the selected sample locations; the full mapped
signal is then D s + mean and the linear BRDF follows by inverting the
log-relative map.  Because the dictionary atoms are ordered by importance,
only the first m atoms are used when m samples are available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dictionary import DictionaryBundle, PcaDictionary
from .errors import (
    IndexOutOfRangeError,
    ProvenanceMismatchError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .mapping import MappedBrdf, ReferenceBrdf, log_relative_unmap
from .merl import INVALID_SENTINEL, BrdfTensor, RowMap
from .somp import SupportSet

DEFAULT_ETA = 40.0


@dataclass(frozen=True)
class MeasurementVector:
    """Mapped-domain samples of one material at the selected locations."""

    values: np.ndarray  # (3, m), selection order
    support: SupportSet
    material_id: str
    provenance: str

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class ReconstructionResult:
    coefficients: np.ndarray  # (3, k)
    mapped: MappedBrdf
    tensor: BrdfTensor
    ridge_residuals: np.ndarray  # (3,) squared data residual per channel


def measure(mapped: MappedBrdf, support: SupportSet, material_id: str = "") -> MeasurementVector:
    """Sample a mapped BRDF at the support rows, in selection order."""
    if len(support) == 0:
        raise IndexOutOfRangeError("empty support")
    n = mapped.values.shape[1]
    if any(i < 0 or i >= n for i in support.indices):
        raise IndexOutOfRangeError(f"support indices must lie in [0, {n})")
    return MeasurementVector(
        values=mapped.values[:, support.indices].copy(),
        support=support,
        material_id=material_id,
        provenance=mapped.provenance,
    )


def ridge_solve(d_rows: np.ndarray, b: np.ndarray, eta: float) -> np.ndarray:
    """Closed-form ridge solution via the normal equations.

    Solves (D^T D + eta I) s = D^T b with a Cholesky factorization.  b is one
    right-hand side of shape (m,) or r of them as the columns of an (m, r)
    array, all sharing the one factorization; s has b's trailing shape.
    With eta = 0 the rows must have full column rank.
    """
    d_rows = np.asarray(d_rows, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if d_rows.ndim != 2 or b.ndim not in (1, 2) or b.shape[0] != d_rows.shape[0]:
        raise ShapeMismatchError(
            f"rows {d_rows.shape} incompatible with measurements {b.shape}"
        )
    if eta < 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta == 0.0:
        svals = np.linalg.svd(d_rows, compute_uv=False)
        if svals[0] == 0.0 or svals[-1] < 1e-12 * svals[0]:
            raise SingularMatrixError("rank-deficient system requires eta > 0")
    gram = d_rows.T @ d_rows + eta * np.eye(d_rows.shape[1])
    rhs = d_rows.T @ b
    try:
        factor = scipy.linalg.cho_factor(gram)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise SingularMatrixError(str(exc)) from exc
    return scipy.linalg.cho_solve(factor, rhs)


def synthesize(
    pca: PcaDictionary,
    coefficients: np.ndarray,
    ref: ReferenceBrdf,
    row_map: RowMap,
    ridge_residuals=None,
) -> ReconstructionResult:
    """Expand coefficients through the dictionary and invert the mapping.

    Coefficients shorter than the atom count are zero-padded; cells outside
    the row map are re-marked invalid in the output tensor.
    """
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
    if coefficients.shape[0] != 3 or coefficients.shape[1] > pca.n_atoms:
        raise ShapeMismatchError(
            f"expected (3, <= {pca.n_atoms}) coefficients, got {coefficients.shape}"
        )
    if coefficients.shape[1] < pca.n_atoms:
        pad = np.zeros((3, pca.n_atoms - coefficients.shape[1]))
        coefficients = np.hstack([coefficients, pad])
    mapped_values = pca.atoms @ coefficients.T + pca.mean[:, None]  # (n, 3)
    mapped = MappedBrdf(np.ascontiguousarray(mapped_values.T), ref.key)
    linear = log_relative_unmap(mapped, ref)
    full = np.full((3, row_map.resolution.grid_size), INVALID_SENTINEL)
    full[:, row_map.grid_indices] = linear
    tensor = BrdfTensor(row_map.resolution, full, row_map.mask())
    if ridge_residuals is None:
        ridge_residuals = np.full(3, np.nan)
    return ReconstructionResult(
        coefficients=coefficients,
        mapped=mapped,
        tensor=tensor,
        ridge_residuals=np.asarray(ridge_residuals, dtype=np.float64),
    )


def reconstruct_full(
    samples: MeasurementVector,
    bundle: DictionaryBundle,
    eta: float = DEFAULT_ETA,
) -> ReconstructionResult:
    """Ridge-fit the three channels at the sampled rows, then synthesize.

    The min(m, k) leading atoms are used, matching the m = k coupling.  The
    channels share the sampled rows, so one factorization serves all three.
    """
    if samples.provenance != bundle.reference.key:
        raise ProvenanceMismatchError(
            "measurements were mapped against a different reference than the bundle"
        )
    pca = bundle.pca
    rows = list(samples.support.indices)
    if any(r < 0 or r >= pca.n_rows for r in rows):
        raise IndexOutOfRangeError("support indices outside dictionary rows")
    if not rows:
        raise IndexOutOfRangeError("empty support")
    k_used = min(len(rows), pca.n_atoms)
    d_rows = pca.atoms[rows, :k_used]
    mean_rows = pca.mean[rows]
    rhs = (samples.values - mean_rows).T  # (m, 3)
    solution = ridge_solve(d_rows, rhs, eta)
    residuals = np.sum((rhs - d_rows @ solution) ** 2, axis=0)
    return synthesize(pca, solution.T, bundle.reference, bundle.row_map, residuals)
