"""PCA dictionary training over a corpus of mapped BRDFs.

The training matrix T stacks each material's three channels as columns
(material-major, R/G/B within a material).  After subtracting the per-row
mean, a truncated SVD T - mean = U Sigma V^T yields the dictionary
D = U Sigma and coefficients S = V^T.  The SVD is computed from the t x t
Gram matrix so the tall dimension (up to ~1.5M rows) is never decomposed
directly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import parallel
from .errors import (
    BundleFormatError,
    ConfigError,
    InconsistentCorpusError,
    InvalidKError,
)
from .mapping import (
    DEFAULT_EPSILON,
    ReferenceBrdf,
    _reference_buffer,
    _row_reference,
    check_mapping,
    map_in_place,
)
from .merl import BrdfResolution, RowMap

CHANNEL_NAMES = ("R", "G", "B")


@dataclass(frozen=True)
class TrainingMatrix:
    """Dense training matrix with column labels and the shared row map."""

    entries: np.ndarray
    labels: tuple
    row_map: RowMap
    provenance: str

    def __post_init__(self):
        self.entries.setflags(write=False)


def assemble_training_matrix(mapped_brdfs, material_ids, row_map: RowMap) -> TrainingMatrix:
    """Write mapped BRDFs, one per material id, into the n_valid x 3t
    training matrix: material i fills columns 3i to 3i + 2."""
    mapped_brdfs, material_ids = list(mapped_brdfs), list(material_ids)
    if len(mapped_brdfs) != len(material_ids):
        raise InconsistentCorpusError("one material id per mapped BRDF required")
    if not material_ids:
        raise InconsistentCorpusError("empty training corpus")
    provenance = mapped_brdfs[0].provenance
    entries = np.empty((row_map.n_valid, 3 * len(material_ids)))
    for i, (mid, mb) in enumerate(zip(material_ids, mapped_brdfs)):
        if mb.provenance != provenance:
            raise InconsistentCorpusError("training BRDFs mapped against different references")
        if mb.values.shape != (3, row_map.n_valid):
            raise InconsistentCorpusError(
                f"mapped BRDF {mid} has shape {mb.values.shape}, "
                f"expected (3, {row_map.n_valid})"
            )
        entries[:, 3 * i:3 * i + 3] = mb.values.T
    labels = tuple((mid, c) for mid in material_ids for c in CHANNEL_NAMES)
    return TrainingMatrix(entries, labels, row_map, provenance)


class PcaDictionary:
    """Mean, dictionary D = U Sigma, coefficients S = V^T and D's left inverse.

    Columns of atoms/sigma are sorted by decreasing singular value; each left
    singular vector is sign-fixed so its largest-magnitude entry is positive,
    making results reproducible across platforms.  Atoms whose singular value
    is zero are stored as zero columns, and their rows of the inverse are
    zero (pseudo-inverse semantics).

    The (n, k) atoms are always the transpose of a C-order (k, n) array, the
    layout of the bundle's atom-major file, so each atom is a contiguous row
    of atoms.T and k leading atoms are a prefix of it; atoms in another
    layout are copied into it.  The inverse is derived from atoms and sigma
    when it is first read: only selection and the coherence scan read it,
    and at the full grid it is as large as the atoms.
    """

    def __init__(self, mean: np.ndarray, atoms: np.ndarray, coeffs: np.ndarray,
                 sigma: np.ndarray):
        self.mean = mean
        self.atoms = np.ascontiguousarray(atoms.T).T  # (n, k) = U_k Sigma_k
        self.coeffs = coeffs  # (k, t) = V_k^T
        self.sigma = sigma  # (k,)
        for arr in (mean, self.atoms, coeffs, sigma):
            arr.setflags(write=False)

    @cached_property
    def inverse(self) -> np.ndarray:
        """(k, n) inverse of the atoms restricted to their column space."""
        inverse = _derived_inverse(self.atoms, self.sigma)
        inverse.setflags(write=False)
        return inverse

    @property
    def n_rows(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_signals(self) -> int:
        return self.coeffs.shape[1]

    def truncate(self, k: int) -> "PcaDictionary":
        """Keep the k leading atoms; no retraining needed.  The arrays are
        read-only views of this dictionary's, so nothing is copied."""
        if not 1 <= k <= self.n_atoms:
            raise InvalidKError(f"k={k} outside [1, {self.n_atoms}]")
        if k == self.n_atoms:
            return self
        return PcaDictionary(self.mean, self.atoms[:, :k], self.coeffs[:k],
                             self.sigma[:k])


def _derived_inverse(atoms: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(atoms / sigma^2)^T as a C-order (k, n) array, with zero rows where
    sigma is zero, derived over the columns of a row-wise pass's blocks of
    the n rows, split between its workers.  Each value is derived on its
    own, so the blocks do not change its bits."""
    safe = np.where(sigma > 0.0, sigma, 1.0)[:, None]
    scale = np.where(sigma[:, None] > 0.0, 1.0 / safe, 0.0)
    u = np.empty((len(sigma), len(atoms)))

    def derive(_, a, z):
        cols = u[:, a:z]
        np.divide(atoms[a:z].T, safe, out=cols)
        cols *= scale

    parallel._row_blocks(len(atoms), derive)
    return u


def check_k(k: int, t: int) -> None:
    """Raise InvalidKError unless k atoms can be trained from t signals."""
    if not 1 <= k < t:
        raise InvalidKError(f"k={k} must satisfy 1 <= k < t={t}")


def train_pca(matrix: TrainingMatrix, k: int) -> PcaDictionary:
    """Train the k-atom PCA dictionary from a training matrix, whose entries
    are left unchanged.

    Requires 1 <= k < t.  Rank deficiency is not an error: trailing singular
    values may be (numerically) zero, in which case the corresponding atoms
    are zeroed.
    """
    return _train_in_place(matrix.entries.copy(order="K"), k)


def _train_in_place(entries: np.ndarray, k: int, step=None,
                    buffer=lambda: None) -> PcaDictionary:
    """train_pca over an (n, t) array, which is centred in place and must not
    be read after the call.

    The row means, the sum of squares the zero rule reads and the centring
    are taken in one pass over the _REFERENCE_BLOCK-row blocks of entries,
    split between the workers; step(buf, start, stop), when given, first
    works on each block, with its worker's buffer().  The Gram matrix and
    U_k are whole-matrix products on BLAS's own threads, and the per-atom
    sign fix is split between the workers by atom.  Each step is per row,
    per block or per atom, so no bit depends on the worker count.
    """
    n, t = entries.shape
    check_k(k, t)
    if t > n:
        raise InvalidKError(f"more signals ({t}) than rows ({n}) is unsupported")

    mean = np.empty(n)

    def centre(buf, start, stop):
        if step is not None:
            step(buf, start, stop)
        rows = entries[start:stop]
        rows.mean(axis=1, out=mean[start:stop])
        squares = np.einsum("ij,ij->", rows, rows)
        rows -= mean[start:stop, None]
        return squares

    # the zero rule below reads the norm before centering, summed per block
    # and then over the blocks in order
    norm = math.sqrt(np.sum(parallel._row_blocks(n, centre, buffer)))
    gram = entries.T @ entries
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    sigma = np.sqrt(np.clip(eigvals[order], 0.0, None))
    v = eigvecs[:, order]

    # singular values at roundoff level (relative to sigma_max, or to the
    # pre-centering scale when centering annihilated everything) are exact
    # zeros; their atoms are zeroed rather than divided into garbage.  Through
    # the Gram matrix a null direction's singular value reads about
    # sqrt(eps) * sigma_max, so the relative rule scales with sqrt(eps)
    eps = np.finfo(np.float64).eps
    tiny = max(
        sigma[0] * np.sqrt(t * eps),
        eps * max(n, t) * norm,
    )
    sigma[sigma <= tiny] = 0.0
    # only the k kept left singular vectors are formed, atom-major; at least
    # two, since a one-row product goes through GEMV, whose sums differ in
    # the last bit from the GEMM of wider products
    u = (v[:, :max(k, 2)].T @ entries.T)[:k]
    sigma, v = sigma[:k], v[:, :k]

    # each vector is divided by its singular value (zeroed where that is
    # zero), sign-fixed so its largest-magnitude entry is positive, and
    # scaled into an atom, split by atom between the workers of the pass
    cuts = parallel._cuts(k, 1, len(parallel._row_cuts(n)) - 1)

    def fix(_, a, z):
        for j in range(a, z):
            row = u[j]
            if sigma[j] > 0.0:
                row /= sigma[j]
            else:
                row[:] = 0.0
            if _leads_negative(row):
                row *= -1.0
                v[:, j] *= -1.0
            row *= sigma[j]

    with parallel._pool(len(cuts) - 1) as pool:
        parallel._run(pool, fix, cuts)
    return PcaDictionary(mean=mean, atoms=u.T, coeffs=v.T.copy(), sigma=sigma.copy())


def _leads_negative(row: np.ndarray) -> bool:
    """row[np.argmax(np.abs(row))] < 0, with no buffer: the first entry of
    largest magnitude is the first minimum when that outweighs the first
    maximum, or ties it from a lower index."""
    lo, hi = np.argmin(row), np.argmax(row)
    return -row[lo] > row[hi] or (-row[lo] == row[hi] and lo < hi and row[lo] < 0.0)


@dataclass(frozen=True)
class DictionaryBundle:
    """Everything needed to select samples and reconstruct: the trained
    dictionary plus the row map, mapping reference and material manifest."""

    pca: PcaDictionary
    row_map: RowMap
    reference: ReferenceBrdf
    material_ids: tuple
    config_hash: str = ""

    @property
    def arrays(self) -> dict:
        """The bundle's arrays by the name of the .bin file each is saved
        in, in the order the digest hashes them, each in the layout it is
        saved in: the atoms atom-major, as (k, n)."""
        pca = self.pca
        return {"mean": pca.mean, "atoms": pca.atoms.T, "coeffs": pca.coeffs,
                "sigma": pca.sigma, "rows": self.row_map.grid_indices,
                "reference": self.reference.values}

    @cached_property
    def digest(self) -> str:
        """Content hash of the saved arrays; computed once per bundle object.

        Each row of each array (a 1-D array is one row, and each atom is a
        row of the atoms) is cut into pieces of at most _DIGEST_CHUNK_BYTES,
        and each piece is hashed with SHA-256 where it lies, one row per task
        on parallel._WORKERS threads.  The digest is SHA-256 over each array's
        shape followed by its pieces' digests, row by row, then epsilon.
        Piece bounds depend only on shapes, so the digest does not depend on
        the thread count, and a truncation's atom pieces are the first
        pieces of the whole bundle's."""
        arrays = self.arrays.values()
        rows = [np.atleast_2d(arr) for arr in arrays]
        h = hashlib.sha256()
        with ThreadPoolExecutor(parallel._WORKERS) as pool:
            digests = pool.map(_row_digest, itertools.chain.from_iterable(rows))
            for arr, own in zip(arrays, rows):
                h.update(np.array(arr.shape, dtype="<i8"))
                h.update(b"".join(itertools.islice(digests, len(own))))
        h.update(np.float64(self.reference.epsilon).tobytes())
        return h.hexdigest()[:16]

    def for_budget(self, m: int) -> "DictionaryBundle":
        """The bundle a support of m rows is recorded against and
        reconstructed with, in either stop mode: the m leading atoms when
        m <= k, all k atoms otherwise."""
        return replace(self, pca=self.pca.truncate(m)) if m < self.pca.n_atoms else self


# bytes per digest piece of a row: large enough that a piece's hash
# outweighs its task
_DIGEST_CHUNK_BYTES = 1 << 20


def _row_digest(row: np.ndarray) -> bytes:
    """The SHA-256 digests of a row's pieces, joined.  The rows of a
    dictionary's arrays are contiguous; a piece of another row is hashed
    from a copy of itself."""
    step = max(1, _DIGEST_CHUNK_BYTES // row.itemsize)
    return b"".join(hashlib.sha256(np.ascontiguousarray(row[start:start + step])).digest()
                    for start in range(0, len(row), step))


def train_bundle(entries: np.ndarray, ids, row_map: RowMap, k: int, *,
                 epsilon: float = DEFAULT_EPSILON,
                 statistic: str = "median") -> DictionaryBundle:
    """Train a k-atom bundle from the corpus_matrix of its training
    materials over row_map, named in column order by ids.

    The mapping reference is computed from the same materials the dictionary
    is trained on.  Every step works in entries, so it must not be read
    after the call.  One pass over its _REFERENCE_BLOCK-row blocks, split
    between the workers, takes each block's reference as compute_reference
    does, from copies of its rows in its worker's buffer, then maps the
    block, takes its row means and sum of squares, and centres it in place;
    _train_in_place then trains on the centred matrix.  A matrix of one
    block is worked on by the calling thread alone.
    """
    check_mapping(epsilon, statistic)
    n, q = entries.shape
    ref = np.empty(n)

    def reference_and_map(copy, start, stop):
        rows, at = entries[start:stop], ref[start:stop]
        _row_reference(rows, statistic, copy, at)
        map_in_place(rows, at, epsilon)

    pca = _train_in_place(entries, k, reference_and_map, lambda: _reference_buffer(n, q))
    return DictionaryBundle(
        pca=pca,
        row_map=row_map,
        reference=ReferenceBrdf(ref, epsilon),
        material_ids=tuple(ids),
    )


BUNDLE_VERSION = 2

# array name -> (dtype, axes), in manifest order; every array is stored
# C-order little-endian, and its axes are n rows, k atoms and t training
# signals.  The atoms are atom-major, so m leading atoms are a prefix of the file
_BUNDLE_ARRAYS = {
    "mean": ("<f8", "n"),
    "atoms": ("<f8", "kn"),
    "coeffs": ("<f8", "kt"),
    "sigma": ("<f8", "k"),
    "reference": ("<f8", "n"),
    "rows": ("<i8", "n"),
}


def _replace_file(path: Path, write) -> None:
    """Call write(tmp) on a temporary path beside path, then rename tmp over
    path.  A process that maps the old file keeps its inode, so it never
    reads a truncated mapping; the temporary is removed if write fails."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_bundle(bundle: DictionaryBundle, directory) -> None:
    """Persist a dictionary bundle as raw binaries plus a JSON manifest.

    Layout: each array is a C-order little-endian flat binary (<name>.bin),
    the atoms as (k, n), written with one tofile of the array the dictionary
    holds; shapes and dtypes live in manifest.json.  Nothing is
    memory-mapped, so no dirty page of a file counts as this process's
    memory.  The dictionary inverse is not stored: a dictionary derives it
    from atoms and sigma when it is read.  Each file replaces its
    predecessor atomically, the manifest last, so a bundle loaded from the
    directory before keeps reading its own values.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    res = bundle.row_map.resolution
    manifest = {
        "version": BUNDLE_VERSION,
        "resolution": [res.n_theta_h, res.n_theta_d, res.n_phi_d],
        "epsilon": bundle.reference.epsilon,
        "materials": list(bundle.material_ids),
        "config_hash": bundle.config_hash,
        "digest": bundle.digest,
        "arrays": {},
    }
    arrays = bundle.arrays
    for name, (dtype, _) in _BUNDLE_ARRAYS.items():
        out = arrays[name].astype(dtype, copy=False)
        _replace_file(directory / f"{name}.bin", out.tofile)
        manifest["arrays"][name] = {"shape": list(out.shape), "dtype": dtype}
    text = json.dumps(manifest, indent=2)
    _replace_file(directory / "manifest.json", lambda tmp: tmp.write_text(text))


_MANIFEST_KEYS = ("version", "arrays", "resolution", "epsilon", "materials",
                  "config_hash")


def _read_manifest(path: Path) -> dict:
    """The parsed manifest.json, checked for every key load_bundle reads."""
    try:
        manifest = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BundleFormatError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise BundleFormatError(f"{path}: not a JSON object")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise BundleFormatError(f"{path}: missing {', '.join(missing)}")
    arrays = manifest["arrays"]
    if not (isinstance(arrays, dict) and set(arrays) == set(_BUNDLE_ARRAYS) and all(
            isinstance(meta, dict) and meta.get("dtype") == _BUNDLE_ARRAYS[name][0]
            and isinstance(meta.get("shape"), list)
            and all(isinstance(v, int) and v >= 0 for v in meta["shape"])
            for name, meta in arrays.items())):
        raise BundleFormatError(
            f"{path}: arrays must be {', '.join(_BUNDLE_ARRAYS)}, each with "
            "its dtype and a shape of nonnegative integers"
        )
    res = manifest["resolution"]
    if not (isinstance(res, list) and len(res) == 3
            and all(isinstance(v, int) for v in res)):
        raise BundleFormatError(f"{path}: resolution must be three integers")
    if type(manifest["epsilon"]) not in (int, float):
        raise BundleFormatError(f"{path}: epsilon must be a number")
    if not isinstance(manifest["materials"], list):
        raise BundleFormatError(f"{path}: materials must be a list")
    return manifest


def _check_arrays(path: Path, arrays: dict, res: BrdfResolution) -> None:
    """Raise BundleFormatError unless the arrays agree on n, k and t, each at
    least 1, and the rows are strictly increasing cells of the grid."""
    atoms, coeffs = arrays["atoms"], arrays["coeffs"]
    if atoms.ndim != 2 or coeffs.ndim != 2 or 0 in atoms.shape or 0 in coeffs.shape:
        raise BundleFormatError(
            f"{path}: atoms and coeffs must be nonempty matrices, got shapes "
            f"{list(atoms.shape)} and {list(coeffs.shape)}"
        )
    dims = {"k": atoms.shape[0], "n": atoms.shape[1], "t": coeffs.shape[1]}
    for name, (_, axes) in _BUNDLE_ARRAYS.items():
        want = tuple(dims[a] for a in axes)
        if arrays[name].shape != want:
            raise BundleFormatError(
                f"{path}: {name} has shape {list(arrays[name].shape)}, expected "
                f"({', '.join(axes)}) = {list(want)} from atoms and coeffs"
            )
    rows = arrays["rows"]
    if rows[0] < 0 or rows[-1] >= res.grid_size or np.any(rows[1:] <= rows[:-1]):
        raise BundleFormatError(
            f"{path}: rows must be strictly increasing cells of the "
            f"{res.grid_size}-cell grid"
        )


def _map_array(path: Path, meta: dict) -> np.ndarray:
    """The array a .bin file holds, as a read-only memory map of the file.

    The file must hold the manifest shape's count of whole elements (a
    trailing partial element is ignored); an empty array cannot be mapped
    and is read from an empty buffer instead.
    """
    expected = math.prod(meta["shape"])
    with open(path, "rb") as fh:
        held = os.fstat(fh.fileno()).st_size // np.dtype(meta["dtype"]).itemsize
        if held != expected:
            raise BundleFormatError(
                f"{path}: holds {held} elements, manifest shape "
                f"{meta['shape']} needs {expected}"
            )
        buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if expected else b""
    data = np.frombuffer(buffer, dtype=meta["dtype"], count=expected)
    return data.reshape(meta["shape"]).astype(meta["dtype"].lstrip("<"), copy=False)


def load_bundle(directory) -> DictionaryBundle:
    """The bundle save_bundle wrote to directory, checked against its
    manifest.  Its arrays are read-only memory maps of the .bin files; the
    dictionary's (n, k) atoms are the transpose of the atom-major file, so
    a truncation reads a prefix of it and nothing is copied."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = _read_manifest(manifest_path)
    if manifest["version"] != BUNDLE_VERSION:
        raise ConfigError(f"unsupported bundle version {manifest['version']!r}")
    arrays = {name: _map_array(directory / f"{name}.bin", meta)
              for name, meta in manifest["arrays"].items()}
    try:
        res = BrdfResolution(*manifest["resolution"])
        reference = ReferenceBrdf(arrays["reference"], manifest["epsilon"])
    except ValueError as exc:  # DomainError included
        raise BundleFormatError(f"{manifest_path}: {exc}") from exc
    _check_arrays(manifest_path, arrays, res)
    return DictionaryBundle(
        pca=PcaDictionary(arrays["mean"], arrays["atoms"].T, arrays["coeffs"],
                          arrays["sigma"]),
        row_map=RowMap(res, arrays["rows"]),
        reference=reference,
        material_ids=tuple(manifest["materials"]),
        config_hash=manifest["config_hash"],
    )
