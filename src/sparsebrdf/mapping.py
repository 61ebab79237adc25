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
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.values.size and self.values.min() < REFERENCE_FLOOR:
            raise ValueError("reference values must be floored at 1e-6")
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
    if statistic not in ("median", "mean"):
        raise ValueError(f"unknown statistic {statistic!r}")
    rows = row_map.grid_indices
    ref = np.empty(rows.size)
    q = 3 * len(training)
    mid = (q - 1) // 2
    for start in range(0, rows.size, _REFERENCE_BLOCK):
        block = rows[start:start + _REFERENCE_BLOCK]
        stacked = np.concatenate([b.values[:, block] for b in training], axis=0)
        if statistic == "mean":
            ref[start:start + block.size] = stacked.mean(axis=0)
        else:
            # median via partition; np.median's nan-handling path is several
            # times slower at full measurement resolution
            stacked.partition((mid, q // 2), axis=0)
            ref[start:start + block.size] = 0.5 * (stacked[mid] + stacked[q // 2])
    np.maximum(ref, REFERENCE_FLOOR, out=ref)
    return ReferenceBrdf(ref, epsilon)


def log_relative_map(brdf: BrdfTensor, ref: ReferenceBrdf, row_map: RowMap) -> MappedBrdf:
    """Map linear reflectance at the valid rows into the fitting domain."""
    if row_map.n_valid != ref.values.size:
        raise ShapeMismatchError(
            f"row map has {row_map.n_valid} rows, reference has {ref.values.size}"
        )
    rho = brdf.values[:, row_map.grid_indices]
    mapped = np.log((rho + ref.epsilon) / (ref.values + ref.epsilon))
    return MappedBrdf(mapped, ref.key)


def log_relative_unmap(mapped: MappedBrdf, ref: ReferenceBrdf) -> np.ndarray:
    """Invert the mapping back to linear reflectance, clamped at zero.

    The clamp only activates for mapped values below the image of rho = 0.
    """
    if mapped.provenance != ref.key:
        raise ProvenanceMismatchError(
            f"mapped data carries reference {mapped.provenance}, got {ref.key}"
        )
    rho = np.exp(mapped.values) * (ref.values + ref.epsilon) - ref.epsilon
    return np.maximum(rho, 0.0)
