"""Full-BRDF recovery from a handful of measured samples.

Per channel, the coefficients s minimize the ridge objective

    || b_lambda - mean_lambda - D_rows s ||_2^2 + eta ||s||_2^2

over the dictionary rows at the selected sample locations; the full mapped
signal is then D s + mean and the linear BRDF follows by inverting the
log-relative map.  Because the dictionary atoms are ordered by importance,
a support of m rows reads the atoms of ``DictionaryBundle.for_budget(m)``.
``ridge_fit`` fits (3, m) mapped samples, which ``reconstruct`` maps from
the support's cells against the bundle's own reference; ``reconstruct_full``
first checks that its ``MeasurementVector`` was mapped against that reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import parallel
from .dictionary import DictionaryBundle, PcaDictionary
from .errors import (
    BundleFormatError,
    ConfigError,
    ProvenanceMismatchError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .mapping import MappedBrdf, ReferenceBrdf, unmap_in_place
from .merl import INVALID_SENTINEL, check_reflectance, store_cells, write_stored
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


def measure(mapped: MappedBrdf, support: SupportSet, material_id: str = "") -> MeasurementVector:
    """Sample a mapped BRDF at the support rows, in selection order."""
    return MeasurementVector(
        values=mapped.values[:, support.rows(mapped.values.shape[1])].copy(),
        support=support,
        material_id=material_id,
        provenance=mapped.provenance,
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


def synthesize(pca: PcaDictionary, coefficients: np.ndarray, ref: ReferenceBrdf) -> MappedBrdf:
    """Expand (3, k) coefficients, one per channel and atom, through the
    dictionary: the mapped values D s + mean, copied from each block of
    _expand, which is then unmapped in place to pass check_reflectance."""
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
    if coefficients.shape != (3, pca.n_atoms):
        raise ShapeMismatchError(
            f"expected (3, {pca.n_atoms}) coefficients, got {coefficients.shape}"
        )
    mapped = np.empty((3, pca.n_rows))

    def keep(block, start, stop):
        mapped[:, start:stop] = block
        unmap_in_place(block.T, ref, slice(start, stop))
        check_reflectance(block)

    _expand(pca, coefficients, keep)
    return MappedBrdf(mapped, ref.key)


def _expand(pca: PcaDictionary, coefficients: np.ndarray, step) -> list:
    """step(block, start, stop) for every parallel._REFERENCE_BLOCK-row block
    start:stop of the dictionary's rows, and what each returned, in block
    order: block, its worker's (3, block) buffer, which the step may
    overwrite, holds the mapped values D s + mean of (3, k) coefficients.
    The workers run with OpenBLAS pinned to one thread, and numpy warns of
    no overflow: the step's check must reject what is not finite.  Block
    starts are multiples of 8: a block product starting there gives each
    row the whole product's bits, while blocks of odd width were seen to
    differ in the last bit (OpenBLAS, k = 20)."""
    atoms = pca.atoms.T  # (k, n), C-order in every dictionary
    n = pca.n_rows

    def expand(buf, start, stop):
        block = buf[:, :stop - start]
        np.matmul(coefficients, atoms[:, start:stop], out=block)
        block += pca.mean[start:stop]
        return step(block, start, stop)

    with parallel._one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        return parallel._row_blocks(
            n, expand, lambda: np.empty((3, min(parallel._REFERENCE_BLOCK, n))))


class RidgeFit(NamedTuple):
    """The ridge fit of a support's measurements over the atoms of
    ``bundle.for_budget(m)``: (3, min(m, k)) coefficients, the squared data
    residual per channel and the 2-norm condition number of the sampled
    rows."""

    coefficients: np.ndarray
    residuals: np.ndarray
    condition: float


def ridge_fit(values: np.ndarray, support: SupportSet, bundle: DictionaryBundle,
              eta: float) -> RidgeFit:
    """Ridge-fit the (3, m) mapped values sampled at the support's rows, in
    its order, through the atoms of ``bundle.for_budget(m)``; one
    factorization serves the three channels.  Raises BundleFormatError
    unless those atoms and the mean are finite at the rows, which loading
    does not check."""
    rows = support.rows(bundle.pca.n_rows)
    pca = bundle.for_budget(len(rows)).pca
    d_rows, mean = pca.atoms[rows], pca.mean[rows]
    if not (np.isfinite(d_rows).all() and np.isfinite(mean).all()):
        raise BundleFormatError("atoms and mean must be finite at the sampled rows")
    rhs = (values - mean).T  # (m, 3)
    solution = ridge_solve(d_rows, rhs, eta)
    return RidgeFit(solution.T, np.sum((rhs - d_rows @ solution) ** 2, axis=0),
                    float(np.linalg.cond(d_rows)))


def reconstruct_full(samples: MeasurementVector, bundle: DictionaryBundle,
                     eta: float = DEFAULT_ETA) -> ReconstructionResult:
    """ridge_fit of samples, which must be mapped against the bundle's
    reference, then synthesize through the same atoms."""
    if samples.provenance != bundle.reference.key:
        raise ProvenanceMismatchError(
            "measurements were mapped against a different reference than the bundle")
    coefficients = ridge_fit(samples.values, samples.support, bundle, eta).coefficients
    cut = bundle.for_budget(len(samples.support))
    return ReconstructionResult(coefficients, synthesize(cut.pca, coefficients, cut.reference))


def write_reconstruction(bundle: DictionaryBundle, coefficients: np.ndarray,
                         path) -> float:
    """Write the MERL file of the reflectance synthesize's mapped values of
    (3, k) coefficients unmap to, byte for byte the file write_merl writes
    of a tensor of that reflectance at the row map's cells and sentinels
    elsewhere, and return the share of its values clamped on unmap.

    Each block of _expand first fills with the sentinel the cells after the
    previous block's last valid cell (or the grid's start) up to its own
    last (or the grid's end), so no two blocks share a cell.  It is then
    unmapped in place with its clamp count, and store_cells checks it, with
    BrdfTensor's error, and scatters it scaled into one (3, grid_size)
    buffer, written once the workers are joined: a failed check leaves no file.
    """
    ref, row_map = bundle.reference, bundle.row_map
    cells, n = row_map.grid_indices, row_map.n_valid
    stored = np.empty((3, row_map.resolution.grid_size))

    def write(block, start, stop):
        first = cells[start - 1] + 1 if start else 0
        last = cells[stop - 1] + 1 if stop < n else stored.shape[1]
        stored[:, first:last] = INVALID_SENTINEL
        clamped = unmap_in_place(block.T, ref, slice(start, stop))
        store_cells(stored, cells[start:stop], block)
        return clamped

    clamps = _expand(bundle.pca, coefficients, write)
    write_stored(path, row_map.resolution, stored)
    return sum(clamps) / (3 * n)
