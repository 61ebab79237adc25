"""MERL-format BRDF I/O and half-angle grid arithmetic.

File layout (little-endian throughout):
    header   3 x int32   (n_theta_h, n_theta_d, n_phi_d)
    payload  3 * n_theta_h * n_theta_d * n_phi_d x float64, channel-major
             (all red, then all green, then all blue)

Within a channel the linear index of cell (i_th, i_td, i_pd) is
    i_pd + n_phi_d * (i_td + n_theta_d * i_th).

Stored values are linear reflectance divided by a per-channel scale
(1.0/1500, 1.15/1500, 1.66/1500 for R, G, B); negative stored values mark
invalid measurements and are kept verbatim as sentinels.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    EmptyCorpusError,
    EmptyMaskError,
    InconsistentCorpusError,
    MerlFormatError,
)

MERL_SCALES = np.array([1.0 / 1500.0, 1.15 / 1500.0, 1.66 / 1500.0])
INVALID_SENTINEL = -1.0

_HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class BrdfResolution:
    """Grid resolution over (theta_h, theta_d, phi_d)."""

    n_theta_h: int = 90
    n_theta_d: int = 90
    n_phi_d: int = 180

    def __post_init__(self):
        if min(self.n_theta_h, self.n_theta_d, self.n_phi_d) < 1:
            raise DomainError(f"resolution counts must be >= 1, got {self}")

    @property
    def grid_size(self) -> int:
        return self.n_theta_h * self.n_theta_d * self.n_phi_d


@dataclass(frozen=True)
class HalfAngleDirection:
    """One light/view sample direction in half-angle coordinates (radians).

    theta_h, theta_d lie in [0, pi/2); phi_d is folded to [0, pi) by
    reciprocity.
    """

    theta_h: float
    theta_d: float
    phi_d: float

    def degrees(self) -> tuple[float, float, float]:
        return (
            float(np.degrees(self.theta_h)),
            float(np.degrees(self.theta_d)),
            float(np.degrees(self.phi_d)),
        )


class BrdfTensor:
    """One isotropic BRDF on the half-angle grid.

    values : (3, grid_size) float64, linear reflectance (1/sr) on valid
        cells, negative sentinels elsewhere.
    mask : (grid_size,) bool, True where the measurement is valid.  The mask
        is shared by all three channels.
    """

    def __init__(self, resolution: BrdfResolution, values, mask):
        values = np.asarray(values, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        n = resolution.grid_size
        if values.shape != (3, n):
            raise MerlFormatError(
                f"values shape {values.shape} does not match resolution {resolution}"
            )
        if mask.shape != (n,):
            raise MerlFormatError(f"mask shape {mask.shape} does not match grid {n}")
        # valid cells hold 0 <= v < inf and invalid ones v < 0 exactly when
        # every channel is nonnegative just where the mask is set and no
        # value is NaN or +inf (max propagates NaN); neither set is gathered
        # unless a check fails, and then only to name the failing one
        if not (all(np.array_equal(row >= 0.0, mask) for row in values)
                and values.max() < np.inf):
            finite_nonneg = (values >= 0.0) & (values < np.inf)
            if not finite_nonneg[:, mask].all():
                raise MerlFormatError(
                    "valid cells must hold finite nonnegative reflectance")
            raise MerlFormatError("invalid cells must hold negative sentinels")
        self.resolution = resolution
        self.values = values
        self.mask = mask
        self.values.setflags(write=False)
        self.mask.setflags(write=False)


def _read_stored(path) -> tuple[BrdfResolution, np.ndarray]:
    """Resolution and (3, grid_size) stored doubles of a MERL file, checked
    for a whole header, positive dims and the payload length; the length is
    checked before the payload is allocated, so a header claiming a huge
    grid fails as a short file does."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) != 12:
            raise MerlFormatError(f"{path}: truncated header")
        dims = struct.unpack("<3i", header)
        if min(dims) <= 0:
            raise MerlFormatError(f"{path}: nonpositive header dims {dims}")
        res = BrdfResolution(*dims)
        n = res.grid_size
        held = (os.fstat(fh.fileno()).st_size - 12) // 8
        if held != 3 * n:
            raise MerlFormatError(f"{path}: payload holds {held} doubles, expected {3 * n}")
        payload = np.fromfile(fh, dtype="<f8", count=3 * n)
    return res, payload.reshape(3, n)


def read_merl(path) -> BrdfTensor:
    """Read a MERL binary file.

    Valid (nonnegative) stored values are scaled to linear reflectance;
    negative stored values are kept verbatim and masked invalid.  A cell
    negative in any channel is masked invalid in all three.
    """
    res, values = _read_stored(path)
    nonneg = values >= 0.0
    mask = nonneg.all(axis=0)
    np.multiply(values, MERL_SCALES[:, None], out=values, where=nonneg)
    # cells invalidated by a sibling channel must still carry a sentinel;
    # scaling kept every negative value negative and every other one not
    np.copyto(values, INVALID_SENTINEL, where=~((values < 0.0) | mask))
    return BrdfTensor(res, values, mask)


class MerlMask(NamedTuple):
    """Resolution and validity mask of a MERL file, without its values."""

    resolution: BrdfResolution
    mask: np.ndarray


def read_merl_mask(path) -> MerlMask:
    """The mask read_merl gives a file, for a mask pass over a corpus that
    does not hold its tensors; the file is checked as read_merl checks it,
    short of the values of its valid cells."""
    res, stored = _read_stored(path)
    return MerlMask(res, (stored >= 0.0).all(axis=0))


def write_merl(brdf: BrdfTensor, path) -> None:
    """Write a MERL binary file.

    A valid value is stored as value / scale, correctly rounded; invalid
    cells store their sentinels verbatim.  At the three MERL scales the
    rounded quotient reads back (stored * scale) as the value whenever any
    stored double does, so read_merl(write_merl(b)) reproduces b when every
    valid value has an exact preimage, as every value read_merl produces
    has; any other value reads back within one ulp.
    """
    res = brdf.resolution
    stored = brdf.values / MERL_SCALES[:, None]
    np.copyto(stored, brdf.values, where=~brdf.mask)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<3i", res.n_theta_h, res.n_theta_d, res.n_phi_d))
        stored.astype("<f8", copy=False).tofile(fh)


def direction_to_index(d: HalfAngleDirection, res: BrdfResolution) -> int:
    """Linear grid index of a direction.

    theta_h uses the MERL square-root warp, concentrating bins near the
    specular ridge; theta_d and phi_d bin linearly.
    """
    if not (0.0 <= d.theta_h < _HALF_PI):
        raise DomainError(f"theta_h {d.theta_h} outside [0, pi/2)")
    if not (0.0 <= d.theta_d < _HALF_PI):
        raise DomainError(f"theta_d {d.theta_d} outside [0, pi/2)")
    if not (0.0 <= d.phi_d < np.pi):
        raise DomainError(f"phi_d {d.phi_d} outside [0, pi)")
    i_th = min(int(np.sqrt(d.theta_h / _HALF_PI) * res.n_theta_h), res.n_theta_h - 1)
    i_td = min(int(d.theta_d / _HALF_PI * res.n_theta_d), res.n_theta_d - 1)
    i_pd = min(int(d.phi_d / np.pi * res.n_phi_d), res.n_phi_d - 1)
    return i_pd + res.n_phi_d * (i_td + res.n_theta_d * i_th)


def index_to_direction(idx: int, res: BrdfResolution) -> HalfAngleDirection:
    """Bin-center direction of a linear grid index (inverse on bin centers)."""
    if not (0 <= idx < res.grid_size):
        raise DomainError(f"index {idx} outside grid of size {res.grid_size}")
    i_pd = idx % res.n_phi_d
    rest = idx // res.n_phi_d
    i_td = rest % res.n_theta_d
    i_th = rest // res.n_theta_d
    return HalfAngleDirection(
        theta_h=_HALF_PI * ((i_th + 0.5) / res.n_theta_h) ** 2,
        theta_d=_HALF_PI * (i_td + 0.5) / res.n_theta_d,
        phi_d=np.pi * (i_pd + 0.5) / res.n_phi_d,
    )


def bin_center_angles(res: BrdfResolution):
    """Bin-center (theta_h, theta_d, phi_d) arrays for every grid cell."""
    i_th, i_td, i_pd = np.meshgrid(
        np.arange(res.n_theta_h),
        np.arange(res.n_theta_d),
        np.arange(res.n_phi_d),
        indexing="ij",
    )
    theta_h = _HALF_PI * ((i_th.ravel() + 0.5) / res.n_theta_h) ** 2
    theta_d = _HALF_PI * (i_td.ravel() + 0.5) / res.n_theta_d
    phi_d = np.pi * (i_pd.ravel() + 0.5) / res.n_phi_d
    return theta_h, theta_d, phi_d


@dataclass(frozen=True)
class RowMap:
    """Bijection between dense matrix rows and valid grid cells.

    grid_indices[r] is the grid index of dense row r (sorted ascending).
    """

    resolution: BrdfResolution
    grid_indices: np.ndarray

    def __post_init__(self):
        self.grid_indices.setflags(write=False)

    @property
    def n_valid(self) -> int:
        return int(self.grid_indices.size)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.resolution.grid_size, dtype=bool)
        m[self.grid_indices] = True
        return m


def corpus_mask(brdfs) -> RowMap:
    """Row map over cells valid in every tensor of the corpus.

    Using the intersection gives all corpus matrices identical row
    semantics.  brdfs may be BrdfTensors or the MerlMasks of a mask pass;
    all of them are read before a mix of resolutions is reported, so a
    malformed file is reported first, as it would be by reading the corpus.
    """
    res = None
    mixed = False
    for b in brdfs:
        if res is None:
            res = b.resolution
            mask = b.mask.copy()
        elif b.resolution != res:
            mixed = True
        else:
            mask &= b.mask
    if res is None:
        raise EmptyMaskError("empty corpus")
    if mixed:
        raise MerlFormatError("corpus mixes resolutions")
    idx = np.flatnonzero(mask).astype(np.int64)
    if idx.size == 0:
        raise EmptyMaskError("no cell is valid across the whole corpus")
    return RowMap(res, idx)


def corpus_matrix(corpus, row_map: RowMap) -> tuple[np.ndarray, list]:
    """The corpus's linear reflectance at the valid rows, as an (n_valid, 3t)
    C-order matrix, and the material ids in column order.

    corpus holds (material_id, BrdfTensor) pairs, each of the row map's
    resolution, and has a length.  Material i fills columns 3i, 3i+1, 3i+2
    with its R, G, B channels.  The corpus is iterated once, so one that reads
    its tensors lazily holds one at a time.
    """
    if not len(corpus):
        raise EmptyCorpusError("corpus holds no material")
    entries = np.empty((row_map.n_valid, 3 * len(corpus)))
    ids = []
    for i, (mid, brdf) in enumerate(corpus):
        if brdf.resolution != row_map.resolution:
            raise InconsistentCorpusError(
                f"BRDF {mid} has resolution {brdf.resolution}, "
                f"row map has {row_map.resolution}"
            )
        entries[:, 3 * i:3 * i + 3] = brdf.values[:, row_map.grid_indices].T
        ids.append(mid)
    return entries, ids
