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
    EmptyCorpusError,
    ProvenanceMismatchError,
    ShapeMismatchError,
)
from .merl import BrdfTensor, RowMap

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
    """Reference reflectance per valid row from a training corpus.

    The statistic (median by default, mean optionally) is taken over all
    training materials and all three channels, then floored at 1e-6.  Both
    statistics are per row, so they are taken over blocks of
    _REFERENCE_BLOCK rows, and only one block is stacked across materials
    at a time.
    """
    training = list(training)
    if not training:
        raise EmptyCorpusError("reference needs at least one training BRDF")
    rows = row_map.grid_indices
    blocks = ((start, np.concatenate(
        [b.values[:, rows[start:start + _REFERENCE_BLOCK]] for b in training]))
        for start in range(0, rows.size, _REFERENCE_BLOCK))
    return _reference(blocks, rows.size, epsilon, statistic)


def matrix_reference(entries: np.ndarray, epsilon: float, statistic: str) -> ReferenceBrdf:
    """compute_reference over an (n_valid, 3t) matrix of linear reflectance,
    one row per valid row and one column per training channel, in the
    material order compute_reference stacks them.  entries is left as it is.
    """
    n = entries.shape[0]
    # a copied row block, transposed, has the memory layout of
    # compute_reference's stacked block, which fixes the order np.mean sums
    # in; and each row's channels are contiguous for the partition
    blocks = ((start, entries[start:start + _REFERENCE_BLOCK].copy().T)
              for start in range(0, n, _REFERENCE_BLOCK))
    return _reference(blocks, n, epsilon, statistic)


def _reference(blocks, n: int, epsilon: float, statistic: str) -> ReferenceBrdf:
    """The floored per-row statistic of (start, block) pairs, where block is
    (q, B): the q training channels of rows start..start+B.  The median
    reorders each block.  The blocks are read only once the settings pass
    check_mapping."""
    check_mapping(epsilon, statistic)
    ref = np.empty(n)
    for start, block in blocks:
        q, size = block.shape
        out = ref[start:start + size]
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


def log_relative_map(brdf: BrdfTensor, ref: ReferenceBrdf, row_map: RowMap) -> MappedBrdf:
    """Map linear reflectance at the valid rows into the fitting domain."""
    if row_map.n_valid != ref.values.size:
        raise ShapeMismatchError(
            f"row map has {row_map.n_valid} rows, reference has {ref.values.size}"
        )
    rho = brdf.values[:, row_map.grid_indices]
    map_in_place(rho.T, ref)
    return MappedBrdf(rho, ref.key)


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
