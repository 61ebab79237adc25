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

import mmap
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import parallel
from .errors import (
    DomainError,
    EmptyCorpusError,
    EmptyMaskError,
    InconsistentCorpusError,
    IndexOutOfRangeError,
    MerlFormatError,
)

MERL_SCALES = np.array([1.0 / 1500.0, 1.15 / 1500.0, 1.66 / 1500.0])
INVALID_SENTINEL = -1.0
# materials corpus_matrix gathers per write: one pass over the matrix rows
# fills 12 adjacent columns, where a write per material fills 3
_FILL_GROUP = 4

_HALF_PI = np.pi / 2.0

# what BrdfTensor, open_merl and check_reflectance say of a valid cell's bad value
_BAD_VALID = "valid cells must hold finite nonnegative reflectance"


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
                raise MerlFormatError(_BAD_VALID)
            raise MerlFormatError("invalid cells must hold negative sentinels")
        self.resolution = resolution
        self.values = values
        self.mask = mask
        self.values.setflags(write=False)
        self.mask.setflags(write=False)

    def cells(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """The (3, r) values and (r,) mask at cells; map_cells reads a
        MerlFile's cells through the same call."""
        return self.values[:, cells], self.mask[cells]


class MerlFile(NamedTuple):
    """Resolution and (3, grid_size) stored doubles of a MERL file, as a
    read-only memory map of the file."""

    resolution: BrdfResolution
    stored: np.ndarray

    @property
    def mask(self) -> np.ndarray:
        """read_merl's mask: valid where every channel is nonnegative."""
        return (self.stored >= 0.0).all(axis=0)

    def cells(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """The (3, r) linear reflectance and (r,) validity at cells.  Only
        those cells are read and scaled; at each valid one the reflectance
        is read_merl's."""
        values = self.stored[:, cells]
        valid = (values >= 0.0).all(axis=0)
        values *= MERL_SCALES[:, None]
        return values, valid


def _read_stored(path) -> MerlFile:
    """A MERL file's stored doubles, checked for a whole header, positive
    dims and the payload length; the length is checked before the payload
    is mapped, so a header claiming a huge grid fails as a short file does.
    A pass over the doubles reads the page cache in place, with no copy into
    fresh memory."""
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
        buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    payload = np.frombuffer(buffer, dtype="<f8", count=3 * n, offset=12)
    return MerlFile(res, payload.reshape(3, n))


def open_merl(path) -> MerlFile:
    """The one checked read of a MERL file, with read_merl's errors, but
    with no tensor built: its stored doubles stay memory-mapped, and
    MerlFile.cells reads the cells a caller needs.  Beyond _read_stored's
    checks, the one value check rejects +inf at a valid cell, which scaling
    would keep; at an invalid cell a NaN or +inf becomes a sentinel."""
    merl = _read_stored(path)
    # the max is not below +inf just when a stored double is +inf or a NaN
    if not merl.stored.max() < np.inf:
        if (merl.stored[:, merl.mask] == np.inf).any():
            raise MerlFormatError(f"{path}: {_BAD_VALID}")
    return merl


def read_merl(path) -> BrdfTensor:
    """Read a MERL binary file.

    Valid (nonnegative) stored values are scaled to linear reflectance;
    negative stored values are kept verbatim and masked invalid.  A cell
    negative in any channel is masked invalid in all three.
    """
    merl = open_merl(path)
    values = np.array(merl.stored, dtype=np.float64)
    mask = merl.mask
    np.multiply(values, MERL_SCALES[:, None], out=values, where=values >= 0.0)
    # cells invalidated by a sibling channel must still carry a sentinel;
    # scaling kept every negative value negative and every other one not
    np.copyto(values, INVALID_SENTINEL, where=~((values < 0.0) | mask))
    return BrdfTensor(merl.resolution, values, mask)


def write_merl(brdf: BrdfTensor, path) -> None:
    """Write a MERL binary file.

    A valid value is stored as value / scale, correctly rounded; invalid
    cells store their sentinels verbatim.  At the three MERL scales the
    rounded quotient reads back (stored * scale) as the value whenever any
    stored double does, so read_merl(write_merl(b)) reproduces b when every
    valid value has an exact preimage, as every value read_merl produces
    has; any other value reads back within one ulp.
    """
    stored = brdf.values / MERL_SCALES[:, None]
    np.copyto(stored, brdf.values, where=~brdf.mask)
    write_stored(path, brdf.resolution, stored)


def check_reflectance(values: np.ndarray) -> None:
    """BrdfTensor's check of valid cells, with its error: finite, nonnegative."""
    if not (values.min() >= 0.0 and values.max() < np.inf):  # NaN fails too
        raise MerlFormatError(_BAD_VALID)


def store_cells(stored: np.ndarray, cells, values: np.ndarray) -> None:
    """Write (3, r) linear reflectance at cells of a (3, grid_size) buffer
    of stored doubles as write_merl stores a valid value, one channel at a
    time.  The values must pass check_reflectance; they are divided by the
    scales in place."""
    check_reflectance(values)
    values /= MERL_SCALES[:, None]
    for row, channel in zip(stored, values):
        row[cells] = channel


def write_stored(path, resolution: BrdfResolution, stored: np.ndarray) -> None:
    """Write a MERL file of (3, grid_size) stored doubles, in one write."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<3i", resolution.n_theta_h, resolution.n_theta_d,
                             resolution.n_phi_d))
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


def _bin_centers(cells, res: BrdfResolution):
    """Bin-center (theta_h, theta_d, phi_d) of linear grid indices, in the
    type of cells: floats for an int, float64 arrays for an integer array."""
    rest, i_pd = divmod(cells, res.n_phi_d)
    i_th, i_td = divmod(rest, res.n_theta_d)
    return (_HALF_PI * ((i_th + 0.5) / res.n_theta_h) ** 2,
            _HALF_PI * (i_td + 0.5) / res.n_theta_d,
            np.pi * (i_pd + 0.5) / res.n_phi_d)


def index_to_direction(idx: int, res: BrdfResolution) -> HalfAngleDirection:
    """Bin-center direction of a linear grid index (inverse on bin centers)."""
    if not (0 <= idx < res.grid_size):
        raise DomainError(f"index {idx} outside grid of size {res.grid_size}")
    return HalfAngleDirection(*_bin_centers(int(idx), res))


def bin_center_angles(res: BrdfResolution):
    """Bin-center (theta_h, theta_d, phi_d) arrays for every grid cell, in
    index order; cell c holds index_to_direction(c)'s angles, bit for bit."""
    # in the grid's smallest integer type, which numpy divides faster than int64
    return _bin_centers(np.arange(res.grid_size, dtype=np.min_scalar_type(res.grid_size)), res)


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


def corpus_mask(sources) -> RowMap:
    """Row map over cells valid in every source of the corpus.

    Using the intersection gives all corpus matrices identical row
    semantics.  A source is a BrdfTensor or a MERL path, as in corpus_matrix;
    a file is checked by _read_stored, with no value pass.  Every source is
    read before a mix of resolutions is reported, so a malformed file is
    reported first, as it would be by reading the corpus.
    """
    res = None
    mixed = False
    for source in sources:
        b = source if isinstance(source, BrdfTensor) else _read_stored(source)
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


def _gather(mid, source, row_map: RowMap, cells: np.ndarray, out: np.ndarray,
            pool, cuts: list) -> None:
    """Write one corpus entry's linear reflectance at cells, the row map's
    cells as a writeable array, into out, a (3, n_valid) block, one piece of
    the rows between cuts per worker of pool.  A MERL file is read through
    open_merl, and only the gathered cells are scaled."""
    if isinstance(source, BrdfTensor):
        res, values, scales = source.resolution, source.values, None
    else:
        res, values = open_merl(source)
        scales = MERL_SCALES
    if res != row_map.resolution:
        raise InconsistentCorpusError(
            f"BRDF {mid} has resolution {res}, row map has {row_map.resolution}")
    # a file's doubles sit 12 bytes in, unaligned, and take would first copy
    # a whole channel into aligned memory; native doubles are taken as the
    # 8-byte items they are, which need no alignment
    src, dst = (values.view("V8"), out.view("V8")) if values.dtype.isnative else (values, out)

    def gather(_, a, z):
        # one channel at a time, so that take writes a contiguous out, which
        # it does not buffer; corpus_matrix checked the cells against the
        # grid, so clipping never moves one, and take skips the bounds check
        # its default mode buffers for
        for c in range(3):
            np.take(src[c], cells[a:z], out=dst[c, a:z], mode="clip")
            if scales is not None:
                out[c, a:z] *= scales[c]

    parallel._run(pool, gather, cuts)


def corpus_matrix(corpus, row_map: RowMap) -> tuple[np.ndarray, list]:
    """The corpus's linear reflectance at the valid rows, as an (n_valid, 3t)
    C-order matrix, and the material ids in column order.

    corpus holds (material_id, source) pairs and has a length; a source is a
    BrdfTensor or the path of a MERL file, of the row map's resolution.
    Material i fills columns 3i, 3i+1, 3i+2 with its R, G, B channels.  The
    corpus is iterated once, one source at a time, so one file is mapped at
    a time.  A file is read straight into the matrix, with no BrdfTensor:
    it is checked by open_merl on the calling thread, and only the row
    map's cells are gathered and scaled.  The gathered channels of
    _FILL_GROUP materials are held in one block beside the matrix and
    written into their adjacent columns in one pass over the rows (105 MB
    of block at the full grid).  Each gather and write is split between the
    workers by rows, one piece of parallel._row_cuts each; a matrix of one
    _REFERENCE_BLOCK-row block is filled on the calling thread alone.
    """
    t = len(corpus)
    if not t:
        raise EmptyCorpusError("corpus holds no material")
    cells = row_map.grid_indices
    if cells.size and (cells.min() < 0 or cells.max() >= row_map.resolution.grid_size):
        raise IndexOutOfRangeError(
            f"row map cells outside the {row_map.resolution.grid_size}-cell grid")
    # take copies read-only indices on every call
    cells = np.array(cells)
    entries = np.empty((row_map.n_valid, 3 * t))
    group = np.empty((3 * min(_FILL_GROUP, t), row_map.n_valid))
    ids = []
    cuts = parallel._row_cuts(row_map.n_valid)
    with parallel._pool(len(cuts) - 1) as pool:
        for i, (mid, source) in enumerate(corpus):
            j = 3 * (i % _FILL_GROUP)
            _gather(mid, source, row_map, cells, group[j:j + 3], pool, cuts)
            ids.append(mid)
            if j + 3 == len(group) or i + 1 == t:
                columns = slice(3 * i - j, 3 * i + 3)

                def write(_, a, z):
                    entries[a:z, columns] = group[:j + 3, a:z].T

                parallel._run(pool, write, cuts)
    return entries, ids
