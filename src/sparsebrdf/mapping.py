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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import parallel
from .errors import (
    ConfigError,
    InvalidSampleError,
    ProvenanceMismatchError,
    ShapeMismatchError,
)
from .merl import BrdfTensor, MerlFile, RowMap, corpus_matrix

DEFAULT_EPSILON = 1e-3
REFERENCE_FLOOR = 1e-6

# bytes of the copy a worker takes its blocks' reference statistics from, a
# few rows at a time, whatever the column count.  Copies of a few MB stay
# resident on the heap after the pass: at 4 MiB, train-dict's peak on 16
# full-grid materials rose by the two workers' 8 MiB
_REFERENCE_COPY_BYTES = 1 << 18


@dataclass(frozen=True)
class ReferenceBrdf:
    """Per-row reference reflectance plus the mapping offset.  The values
    are read-only, so key, hashed when first read, cannot go stale."""

    values: np.ndarray
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.values.size and not (self.values.min() >= REFERENCE_FLOOR
                                     and self.values.max() < np.inf):
            raise ValueError("reference values must be finite and floored at 1e-6")
        self.values.setflags(write=False)

    @cached_property
    def key(self) -> str:
        """The provenance of values mapped against this reference."""
        digest = hashlib.sha256()
        digest.update(np.float64(self.epsilon).tobytes())
        digest.update(np.ascontiguousarray(self.values))
        return digest.hexdigest()[:16]


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


def compute_reference(training, row_map: RowMap, epsilon: float = DEFAULT_EPSILON,
                      statistic: str = "median") -> ReferenceBrdf:
    """Reference reflectance per valid row from training BrdfTensors, each
    of the row map's resolution.

    The statistic (median, or mean) is taken over all training materials and
    all three channels of a row, then floored at 1e-6.  Once the settings
    pass check_mapping, the tensors are gathered into their corpus_matrix,
    and the statistics, both per row, are taken over its _REFERENCE_BLOCK-row
    blocks, split between the workers, each block a sub-block at a time from
    a copy in its worker's _reference_buffer.  train_bundle takes the same
    step first in each block of its one pass.
    """
    check_mapping(epsilon, statistic)
    entries, _ = corpus_matrix(list(enumerate(training)), row_map)
    n, q = entries.shape
    ref = np.empty(n)
    parallel._row_blocks(
        n, lambda copy, a, z: _row_reference(entries[a:z], statistic, copy, ref[a:z]),
        lambda: _reference_buffer(n, q))
    return ReferenceBrdf(ref, epsilon)


def _reference_buffer(n: int, q: int) -> np.ndarray:
    """A worker's buffer for _row_reference over the blocks of an (n, q)
    corpus_matrix: as many rows as fit in _REFERENCE_COPY_BYTES, but at
    least one and at most a block."""
    rows = max(1, _REFERENCE_COPY_BYTES // (8 * q))
    return np.empty((min(rows, parallel._REFERENCE_BLOCK, n), q))


def _row_reference(rows: np.ndarray, statistic: str, copy: np.ndarray,
                  out: np.ndarray) -> None:
    """The reference reflectance of each row of rows, a row block of a
    corpus_matrix, written to out: the statistic of the row, taken from a
    copy of the row in the C-order buffer copy, len(copy) rows at a time,
    then floored at 1e-6.  Each row's statistic is its own, so the number
    of rows copied at a time does not change a bit."""
    step = len(copy)
    for start in range(0, len(rows), step):
        sub, at = rows[start:start + step], out[start:start + step]
        # the copy, transposed, has the layout of the materials' (3, B)
        # channel blocks stacked one above the other, which fixes the order
        # np.mean sums in; and each row's channels are contiguous for the
        # partition
        block = copy[:len(sub)]
        np.copyto(block, sub)
        block = block.T
        if statistic == "mean":
            block.mean(axis=0, out=at)
        else:
            # median via partition; np.median's nan-handling path is several
            # times slower at full measurement resolution
            q = len(block)
            mid = (q - 1) // 2
            block.partition((mid, q // 2), axis=0)
            np.add(block[mid], block[q // 2], out=at)
            at *= 0.5
    np.maximum(out, REFERENCE_FLOOR, out=out)


def map_in_place(rows: np.ndarray, values: np.ndarray, epsilon: float) -> None:
    """Overwrite linear reflectance with its mapped value,
    ln((rho + eps) / (rho_ref + eps)), against reference values rho_ref,
    one per row of rows, and the offset epsilon.  rows is (r, c): one row
    per reference row, one column per channel.  Each value is mapped on its
    own, so a row's mapped values do not depend on which other rows are
    mapped with it."""
    rows += epsilon
    rows /= (values + epsilon)[:, None]
    np.log(rows, out=rows)


def map_cells(brdf: BrdfTensor | MerlFile, ref: ReferenceBrdf, row_map: RowMap,
              rows=slice(None)) -> np.ndarray:
    """The (3, r) mapped values of brdf, a tensor or an open_merl file, at
    the row map's rows that rows indexes (by default every valid row), in
    that order.  Only their cells are gathered; each must be valid, and brdf
    must have the row map's resolution."""
    if brdf.resolution != row_map.resolution:
        raise ShapeMismatchError(
            f"measured BRDF has resolution {brdf.resolution}, the bundle's "
            f"row map has {row_map.resolution}"
        )
    cells = row_map.grid_indices[rows]
    values, valid = brdf.cells(cells)
    invalid = np.flatnonzero(~valid)
    if invalid.size:
        row = np.arange(row_map.n_valid)[rows][invalid[0]]
        raise InvalidSampleError(
            f"measured BRDF is invalid at grid cell {cells[invalid[0]]}, "
            f"which support row {row} samples"
        )
    map_in_place(values.T, ref.values[rows], ref.epsilon)
    return values


def log_relative_map(brdf: BrdfTensor, ref: ReferenceBrdf, row_map: RowMap) -> MappedBrdf:
    """Map linear reflectance at the valid rows into the fitting domain."""
    if row_map.n_valid != ref.values.size:
        raise ShapeMismatchError(
            f"row map has {row_map.n_valid} rows, reference has {ref.values.size}"
        )
    return MappedBrdf(map_cells(brdf, ref, row_map), ref.key)


def unmap_in_place(rows: np.ndarray, ref: ReferenceBrdf, at) -> int:
    """Overwrite mapped values with their linear reflectance,
    (rho_ref + eps) exp(v) - eps clamped at zero, and return how many were
    clamped.  rows is (r, c), as map_in_place takes it: one row per
    reference row, here the rows at indexes, one column per channel.  The
    clamp only activates for mapped values below the image of rho = 0."""
    np.exp(rows, out=rows)
    rows *= (ref.values[at] + ref.epsilon)[:, None]
    rows -= ref.epsilon
    clamped = int(np.count_nonzero(rows < 0.0))
    np.maximum(rows, 0.0, out=rows)
    return clamped


def log_relative_unmap(mapped: MappedBrdf, ref: ReferenceBrdf) -> tuple[np.ndarray, int]:
    """Invert the mapping back to linear reflectance, clamped at zero.

    Returns the (3, n_valid) reflectance and the number of its values that
    were clamped (see unmap_in_place).
    """
    if mapped.provenance != ref.key:
        raise ProvenanceMismatchError(
            f"mapped data carries reference {mapped.provenance}, got {ref.key}"
        )
    rho = mapped.values.copy()
    return rho, unmap_in_place(rho.T, ref, slice(None))
