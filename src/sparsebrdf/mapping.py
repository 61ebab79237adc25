"""Log-relative mapping between linear reflectance and the fitting domain.

Measured reflectance spans many orders of magnitude, which makes a direct
least-squares fit chase the specular peaks.  All training and reconstruction
therefore happens in a compressed domain:

    mapped = ln((rho + eps) / (rho_ref + eps))

where rho_ref is a per-row reference reflectance (the median over the
training corpus by default).  The offset eps keeps the map defined at
rho = 0 and the map is exactly invertible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    InvalidSampleError,
    ProvenanceMismatchError,
    ShapeMismatchError,
)
from .merl import BrdfTensor, RowMap, corpus_matrix

DEFAULT_EPSILON = 1e-3
REFERENCE_FLOOR = 1e-6

# valid rows per block when computing the reference
_REFERENCE_BLOCK = 65536


@dataclass(frozen=True)
class ReferenceBrdf:
    """Per-row reference reflectance plus the mapping offset."""

    values: np.ndarray
    epsilon: float = DEFAULT_EPSILON
    key: str = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.values.size and not (self.values.min() >= REFERENCE_FLOOR
                                     and self.values.max() < np.inf):
            raise ValueError("reference values must be finite and floored at 1e-6")
        self.values.setflags(write=False)
        digest = hashlib.sha256()
        digest.update(np.float64(self.epsilon).tobytes())
        digest.update(np.ascontiguousarray(self.values))
        object.__setattr__(self, "key", digest.hexdigest()[:16])


@dataclass(frozen=True)
class MappedBrdf:
    """3 x n_valid values in the mapped domain, tagged with their reference."""

    values: np.ndarray
    provenance: str

    def __post_init__(self):
        self.values.setflags(write=False)


def check_mapping(epsilon: float, statistic: str) -> None:
    """Raise ConfigError unless epsilon is positive and finite and the
    reference statistic is median or mean."""
    if not 0.0 < epsilon < np.inf:
        raise ConfigError(f"epsilon must be positive and finite, got {epsilon}")
    if statistic not in ("median", "mean"):
        raise ConfigError(f"unknown statistic {statistic!r}")


def compute_reference(
    training,
    row_map: RowMap,
    epsilon: float = DEFAULT_EPSILON,
    statistic: str = "median",
) -> ReferenceBrdf:
    """Reference reflectance per valid row from training BrdfTensors, each
    of the row map's resolution: matrix_reference over their corpus_matrix."""
    entries, _ = corpus_matrix(list(enumerate(training)), row_map)
    return matrix_reference(entries, epsilon, statistic)


def matrix_reference(entries: np.ndarray, epsilon: float, statistic: str) -> ReferenceBrdf:
    """Reference reflectance per row of an (n_valid, 3t) corpus_matrix.

    The statistic (median, or mean) is taken over all training materials and
    all three channels of a row, then floored at 1e-6.  Both statistics are
    per row, so they are taken over blocks of _REFERENCE_BLOCK rows, one
    copied block at a time; entries is left as it is.  The matrix is read
    only once the settings pass check_mapping.
    """
    check_mapping(epsilon, statistic)
    n, q = entries.shape
    ref = np.empty(n)
    for start in range(0, n, _REFERENCE_BLOCK):
        # a copied row block, transposed, has the layout of the materials'
        # (3, B) channel blocks stacked one above the other, which fixes the
        # order np.mean sums in; and each row's channels are contiguous for
        # the partition
        block = entries[start:start + _REFERENCE_BLOCK].copy().T
        out = ref[start:start + block.shape[1]]
        if statistic == "mean":
            block.mean(axis=0, out=out)
        else:
            # median via partition; np.median's nan-handling path is several
            # times slower at full measurement resolution
            mid = (q - 1) // 2
            block.partition((mid, q // 2), axis=0)
            np.add(block[mid], block[q // 2], out=out)
            out *= 0.5
    np.maximum(ref, REFERENCE_FLOOR, out=ref)
    return ReferenceBrdf(ref, epsilon)


def map_in_place(rows: np.ndarray, ref: ReferenceBrdf, at=slice(None)) -> None:
    """Overwrite linear reflectance with its mapped value,
    ln((rho + eps) / (rho_ref + eps)).  rows is (r, c): one row per
    reference row that at indexes (by default every valid row), one column
    per channel.  Each value is mapped on its own, so a row's mapped values
    do not depend on which other rows are mapped with it."""
    rows += ref.epsilon
    rows /= (ref.values[at] + ref.epsilon)[:, None]
    np.log(rows, out=rows)


def map_cells(brdf: BrdfTensor, ref: ReferenceBrdf, row_map: RowMap,
              rows=slice(None)) -> np.ndarray:
    """The (3, r) mapped values of brdf at the row map's rows that rows
    indexes (by default every valid row), in that order.  Only their cells
    are gathered; each must be valid, and the tensor must have the row
    map's resolution."""
    if brdf.resolution != row_map.resolution:
        raise ShapeMismatchError(
            f"measured BRDF has resolution {brdf.resolution}, the bundle's "
            f"row map has {row_map.resolution}"
        )
    cells = row_map.grid_indices[rows]
    invalid = np.flatnonzero(~brdf.mask[cells])
    if invalid.size:
        row = np.arange(row_map.n_valid)[rows][invalid[0]]
        raise InvalidSampleError(
            f"measured BRDF is invalid at grid cell {cells[invalid[0]]}, "
            f"which support row {row} samples"
        )
    values = brdf.values[:, cells]
    map_in_place(values.T, ref, rows)
    return values


def log_relative_map(brdf: BrdfTensor, ref: ReferenceBrdf, row_map: RowMap) -> MappedBrdf:
    """Map linear reflectance at the valid rows into the fitting domain."""
    if row_map.n_valid != ref.values.size:
        raise ShapeMismatchError(
            f"row map has {row_map.n_valid} rows, reference has {ref.values.size}"
        )
    return MappedBrdf(map_cells(brdf, ref, row_map), ref.key)


def log_relative_unmap(mapped: MappedBrdf, ref: ReferenceBrdf) -> tuple[np.ndarray, int]:
    """Invert the mapping back to linear reflectance, clamped at zero.

    Returns the (3, n_valid) reflectance and the number of its values that
    were clamped.  The clamp only activates for mapped values below the
    image of rho = 0.
    """
    if mapped.provenance != ref.key:
        raise ProvenanceMismatchError(
            f"mapped data carries reference {mapped.provenance}, got {ref.key}"
        )
    rho = np.exp(mapped.values)
    rho *= ref.values + ref.epsilon
    rho -= ref.epsilon
    clamped = int(np.count_nonzero(rho < 0.0))
    np.maximum(rho, 0.0, out=rho)
    return rho, clamped
