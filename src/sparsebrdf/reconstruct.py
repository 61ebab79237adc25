"""Full-BRDF recovery from a handful of measured samples.

Per channel, the coefficients s minimize the ridge objective

    || b_lambda - mean_lambda - D_rows s ||_2^2 + eta ||s||_2^2

over the dictionary rows at the selected sample locations; the full mapped
signal is then D s + mean and the linear BRDF follows by inverting the
log-relative map.  Because the dictionary atoms are ordered by importance,
a support of m rows reads the atoms of ``DictionaryBundle.for_budget(m)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import parallel
from .dictionary import DictionaryBundle, PcaDictionary
from .errors import (
    ConfigError,
    IndexOutOfRangeError,
    ProvenanceMismatchError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .mapping import MappedBrdf, ReferenceBrdf, log_relative_unmap, map_cells, unmap_in_place
from .merl import INVALID_SENTINEL, BrdfTensor, MerlFile, RowMap, store_cells, write_stored
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
    clamped_fraction: float  # share of the valid cells' values clamped on unmap


def _support_rows(support: SupportSet, n: int) -> np.ndarray:
    """The support's rows, in selection order; at least one, each in [0, n)."""
    if len(support) == 0:
        raise IndexOutOfRangeError("empty support")
    # checked as Python ints, which an out-of-range record may overflow
    if any(i < 0 or i >= n for i in support.indices):
        raise IndexOutOfRangeError(f"support indices must lie in [0, {n})")
    return np.asarray(support.indices, dtype=np.int64)


def measure(mapped: MappedBrdf, support: SupportSet, material_id: str = "") -> MeasurementVector:
    """Sample a mapped BRDF at the support rows, in selection order."""
    rows = _support_rows(support, mapped.values.shape[1])
    return MeasurementVector(
        values=mapped.values[:, rows].copy(),
        support=support,
        material_id=material_id,
        provenance=mapped.provenance,
    )


def measure_brdf(brdf: BrdfTensor | MerlFile, support: SupportSet,
                 bundle: DictionaryBundle, material_id: str = "") -> MeasurementVector:
    """measure(log_relative_map(brdf, ...), support), mapping only the
    support's cells (see map_cells): brdf, a tensor or an open_merl file,
    must have the bundle's resolution and a valid value at every support
    cell."""
    rows = _support_rows(support, bundle.row_map.n_valid)
    return MeasurementVector(
        values=map_cells(brdf, bundle.reference, bundle.row_map, rows),
        support=support,
        material_id=material_id,
        provenance=bundle.reference.key,
    )


def check_eta(eta: float) -> None:
    """Raise ConfigError unless the ridge weight eta is finite and >= 0."""
    if not eta >= 0.0:  # NaN included
        raise ConfigError(f"eta must be >= 0, got {eta}")
    if eta == np.inf:
        raise ConfigError(f"eta must be finite, got {eta}")


def ridge_solve(d_rows: np.ndarray, b: np.ndarray, eta: float) -> np.ndarray:
    """Closed-form ridge solution: s minimizes ||D s - b||^2 + eta ||s||^2.

    b is one right-hand side of shape (m,) or r of them as the columns of an
    (m, r) array; s has b's trailing shape.  For eta > 0 the normal
    equations (D^T D + eta I) s = D^T b are solved with one Cholesky
    factorization that all right-hand sides share.  With eta = 0 the rows
    must have full column rank, and s is their least-squares solution.
    """
    d_rows = np.asarray(d_rows, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if d_rows.ndim != 2 or b.ndim not in (1, 2) or b.shape[0] != d_rows.shape[0]:
        raise ShapeMismatchError(
            f"rows {d_rows.shape} incompatible with measurements {b.shape}"
        )
    check_eta(eta)
    if eta == 0.0:
        svals = np.linalg.svd(d_rows, compute_uv=False)
        if (svals.size < d_rows.shape[1] or svals[0] == 0.0
                or svals[-1] < 1e-12 * svals[0]):
            raise SingularMatrixError("rank-deficient system requires eta > 0")
        # least squares on the rows themselves: the normal equations would
        # square their condition number
        return np.linalg.lstsq(d_rows, b, rcond=None)[0]
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
) -> ReconstructionResult:
    """Expand (3, k) coefficients, one per channel and atom, through the
    dictionary and invert the mapping.

    Cells outside the row map are re-marked invalid in the output tensor.
    """
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
    if coefficients.shape != (3, pca.n_atoms):
        raise ShapeMismatchError(
            f"expected (3, {pca.n_atoms}) coefficients, got {coefficients.shape}"
        )
    # an overflow leaves a value that is not finite, which the tensor's check
    # rejects with its one error, so numpy warns of none
    with np.errstate(over="ignore", invalid="ignore"):
        product = coefficients @ pca.atoms.T  # (3, n)
        product += pca.mean
        mapped = MappedBrdf(product, ref.key)
        linear, clamped = log_relative_unmap(mapped, ref)
    full = np.full((3, row_map.resolution.grid_size), INVALID_SENTINEL)
    for row, values in zip(full, linear):  # one channel at a time scatters faster
        row[row_map.grid_indices] = values
    clamped_fraction = clamped / linear.size
    del linear
    tensor = BrdfTensor(row_map.resolution, full, row_map.mask())
    return ReconstructionResult(
        coefficients=coefficients,
        mapped=mapped,
        tensor=tensor,
        clamped_fraction=clamped_fraction,
    )


class RidgeFit(NamedTuple):
    """The ridge fit of a support's measurements over the atoms of
    ``bundle.for_budget(m)``: (3, min(m, k)) coefficients, the squared data
    residual per channel and the 2-norm condition number of the sampled
    rows."""

    coefficients: np.ndarray
    residuals: np.ndarray
    condition: float


def ridge_fit(samples: MeasurementVector, bundle: DictionaryBundle, eta: float) -> RidgeFit:
    """Ridge-fit the three channels at the sampled rows, through the atoms of
    ``bundle.for_budget(m)``.

    The channels share the sampled rows, so one factorization serves all three.
    """
    if samples.provenance != bundle.reference.key:
        raise ProvenanceMismatchError(
            "measurements were mapped against a different reference than the bundle"
        )
    rows = _support_rows(samples.support, bundle.pca.n_rows)
    pca = bundle.for_budget(len(rows)).pca
    d_rows = pca.atoms[rows]
    rhs = (samples.values - pca.mean[rows]).T  # (m, 3)
    solution = ridge_solve(d_rows, rhs, eta)
    return RidgeFit(solution.T, np.sum((rhs - d_rows @ solution) ** 2, axis=0),
                    float(np.linalg.cond(d_rows)))


def reconstruct_full(
    samples: MeasurementVector,
    bundle: DictionaryBundle,
    eta: float = DEFAULT_ETA,
) -> ReconstructionResult:
    """ridge_fit, then synthesize through the same atoms; the fit's
    diagnostics are ridge_fit's."""
    coefficients = ridge_fit(samples, bundle, eta).coefficients
    bundle = bundle.for_budget(len(samples.support))
    return synthesize(bundle.pca, coefficients, bundle.reference, bundle.row_map)


def write_reconstruction(bundle: DictionaryBundle, coefficients: np.ndarray,
                         path) -> float:
    """Write the MERL file write_merl writes of the tensor synthesize
    expands (3, k) coefficients into, byte for byte, and return its
    clamped_fraction, with no tensor built.

    One pass over the parallel._REFERENCE_BLOCK-row blocks of valid rows,
    split between the workers with OpenBLAS pinned to one thread, takes per
    block, in its worker's (3, block) buffer, the product with the atoms
    plus the mean, the unmap (unmap_in_place) with its clamp count, and
    store_cells: BrdfTensor's check of the values, with its error, and their
    scaled scatter into one (3, grid_size) buffer.  Each block first fills
    with the sentinel the cells after the previous block's last valid cell
    (from the grid's start for the first) up to its own last (to the grid's
    end for the last), so no two blocks share a cell.  The buffer is written
    once the workers are joined, so a failed check leaves no file.  Block
    starts are multiples of 8: a block product starting there gives each
    row the whole product's bits, while blocks of odd width were seen to
    differ in the last bit (OpenBLAS, k = 20).
    """
    pca, ref, row_map = bundle.pca, bundle.reference, bundle.row_map
    atoms = pca.atoms.T  # (k, n), C-order in every dictionary
    cells = row_map.grid_indices
    n = row_map.n_valid
    stored = np.empty((3, row_map.resolution.grid_size))

    def write(buf, start, stop):
        first = cells[start - 1] + 1 if start else 0
        last = cells[stop - 1] + 1 if stop < n else stored.shape[1]
        stored[:, first:last] = INVALID_SENTINEL
        block = buf[:, :stop - start]
        np.matmul(coefficients, atoms[:, start:stop], out=block)
        block += pca.mean[start:stop]
        clamped = unmap_in_place(block.T, ref, slice(start, stop))
        store_cells(stored, cells[start:stop], block)
        return clamped

    # an overflow leaves a value that is not finite, which store_cells
    # rejects with its one error, so numpy warns of none
    with parallel._one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        clamps = parallel._row_blocks(
            n, write, lambda: np.empty((3, min(parallel._REFERENCE_BLOCK, n))))
    write_stored(path, row_map.resolution, stored)
    return sum(clamps) / (3 * n)
