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
import json
import math
import mmap
import os
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    BundleFormatError,
    ConfigError,
    InconsistentCorpusError,
    InvalidKError,
)
from .mapping import (
    DEFAULT_EPSILON,
    ReferenceBrdf,
    map_in_place,
    matrix_reference,
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

    The inverse is derived from atoms and sigma when it is first read: only
    selection and the coherence scan read it, and at the full grid it is as
    large as the atoms.
    """

    def __init__(self, mean: np.ndarray, atoms: np.ndarray, coeffs: np.ndarray,
                 sigma: np.ndarray):
        self.mean = mean
        self.atoms = atoms  # (n, k) = U_k Sigma_k
        self.coeffs = coeffs  # (k, t) = V_k^T
        self.sigma = sigma  # (k,)
        for arr in (mean, atoms, coeffs, sigma):
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
    """(atoms / sigma^2)^T, with zero rows where sigma is zero.  It is built
    in the buffer the atoms are divided into, and so is F-ordered."""
    safe = np.where(sigma > 0.0, sigma, 1.0)
    u = atoms / safe
    u *= np.where(sigma > 0.0, 1.0 / safe, 0.0)
    return u.T


def train_pca(matrix: TrainingMatrix, k: int) -> PcaDictionary:
    """Train the k-atom PCA dictionary from a training matrix, whose entries
    are left unchanged.

    Requires 1 <= k < t.  Rank deficiency is not an error: trailing singular
    values may be (numerically) zero, in which case the corresponding atoms
    are zeroed.
    """
    return _train_in_place(matrix.entries.copy(order="K"), k)


def _train_in_place(entries: np.ndarray, k: int) -> PcaDictionary:
    """train_pca over an (n, t) array, which is centred in place and must not
    be read after the call."""
    n, t = entries.shape
    if not 1 <= k < t:
        raise InvalidKError(f"k={k} must satisfy 1 <= k < t={t}")
    if t > n:
        raise InvalidKError(f"more signals ({t}) than rows ({n}) is unsupported")

    mean = entries.mean(axis=1)
    # the zero rule below reads the norm before centering
    norm = float(np.linalg.norm(entries))
    entries -= mean[:, None]
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
    # only the k kept columns of U are formed, and the centred entries are
    # dropped right after; at least two, since a one-column product goes
    # through GEMV, whose sums differ in the last bit from the GEMM of wider
    # products
    u = (entries @ v[:, :max(k, 2)])[:, :k]
    del entries
    sigma, v = sigma[:k], v[:, :k]
    u /= np.where(sigma > 0.0, sigma, 1.0)
    u[:, sigma == 0.0] = 0.0

    # deterministic sign: largest-magnitude entry of each u column positive;
    # one column at a time, so no n x k |u| temporary is made
    for j in range(k):
        col = u[:, j]
        if col[np.argmax(np.abs(col))] < 0.0:
            col *= -1.0
            v[:, j] *= -1.0

    u *= sigma
    return PcaDictionary(
        mean=mean,
        atoms=np.ascontiguousarray(u),
        coeffs=v.T.copy(),
        sigma=sigma.copy(),
    )


@dataclass(frozen=True)
class DictionaryBundle:
    """Everything needed to select samples and reconstruct: the trained
    dictionary plus the row map, mapping reference and material manifest."""

    pca: PcaDictionary
    row_map: RowMap
    reference: ReferenceBrdf
    material_ids: tuple
    config_hash: str = ""

    @cached_property
    def digest(self) -> str:
        """Content hash of the arrays; computed once per bundle object."""
        h = hashlib.sha256()
        for arr in (
            self.pca.mean,
            self.pca.atoms,
            self.pca.coeffs,
            self.pca.sigma,
            self.row_map.grid_indices,
            self.reference.values,
        ):
            h.update(np.ascontiguousarray(arr))
        h.update(np.float64(self.reference.epsilon).tobytes())
        return h.hexdigest()[:16]

    def for_budget(self, m: int) -> "DictionaryBundle":
        """The bundle a support of m rows is recorded against and
        reconstructed with, in either stop mode: the m leading atoms when
        m <= k, all k atoms otherwise."""
        return replace(self, pca=self.pca.truncate(m)) if m < self.pca.n_atoms else self


def train_bundle(entries: np.ndarray, ids, row_map: RowMap, k: int, *,
                 epsilon: float = DEFAULT_EPSILON,
                 statistic: str = "median") -> DictionaryBundle:
    """Train a k-atom bundle from the corpus_matrix of its training
    materials over row_map, named in column order by ids.

    The mapping reference is computed from the same materials the dictionary
    is trained on.  Every step works in entries: the reference is taken over
    its rows, and it is then mapped and centred in place, so it must not be
    read after the call.
    """
    reference = matrix_reference(entries, epsilon, statistic)
    map_in_place(entries, reference)
    return DictionaryBundle(
        pca=_train_in_place(entries, k),
        row_map=row_map,
        reference=reference,
        material_ids=tuple(ids),
    )


BUNDLE_VERSION = 1

# array name -> (bundle attribute path, dtype); all stored C-order little-endian
_BUNDLE_ARRAYS = {
    "mean": "<f8",
    "atoms": "<f8",
    "coeffs": "<f8",
    "sigma": "<f8",
    "reference": "<f8",
    "rows": "<i8",
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

    Layout: each array is a C-order little-endian flat binary (<name>.bin);
    shapes and dtypes live in manifest.json.  The dictionary inverse is not
    stored: a dictionary derives it from atoms and sigma when it is read.
    Each file replaces its predecessor atomically, the manifest last, so a
    bundle loaded from the directory before keeps reading its own values.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    res = bundle.row_map.resolution
    arrays = {
        "mean": bundle.pca.mean,
        "atoms": bundle.pca.atoms,
        "coeffs": bundle.pca.coeffs,
        "sigma": bundle.pca.sigma,
        "reference": bundle.reference.values,
        "rows": bundle.row_map.grid_indices,
    }
    manifest = {
        "version": BUNDLE_VERSION,
        "resolution": [res.n_theta_h, res.n_theta_d, res.n_phi_d],
        "epsilon": bundle.reference.epsilon,
        "materials": list(bundle.material_ids),
        "config_hash": bundle.config_hash,
        "digest": bundle.digest,
        "arrays": {},
    }
    for name, arr in arrays.items():
        dtype = _BUNDLE_ARRAYS[name]
        out = np.ascontiguousarray(arr).astype(dtype, copy=False)
        _replace_file(directory / f"{name}.bin", out.tofile)
        manifest["arrays"][name] = {"shape": list(arr.shape), "dtype": dtype}
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
            isinstance(meta, dict) and meta.get("dtype") == _BUNDLE_ARRAYS[name]
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


# array name -> its axes: n rows, k atoms, t training signals
_BUNDLE_AXES = {"mean": "n", "atoms": "nk", "coeffs": "kt", "sigma": "k",
                "reference": "n", "rows": "n"}


def _check_arrays(path: Path, arrays: dict, res: BrdfResolution) -> None:
    """Raise BundleFormatError unless the arrays agree on n, k and t, each at
    least 1, and the rows are strictly increasing cells of the grid."""
    atoms, coeffs = arrays["atoms"], arrays["coeffs"]
    if atoms.ndim != 2 or coeffs.ndim != 2 or 0 in atoms.shape or 0 in coeffs.shape:
        raise BundleFormatError(
            f"{path}: atoms and coeffs must be nonempty matrices, got shapes "
            f"{list(atoms.shape)} and {list(coeffs.shape)}"
        )
    dims = {"n": atoms.shape[0], "k": atoms.shape[1], "t": coeffs.shape[1]}
    for name, axes in _BUNDLE_AXES.items():
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
    manifest.  Its arrays are read-only memory maps of the .bin files."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = _read_manifest(manifest_path)
    if manifest["version"] != BUNDLE_VERSION:
        raise ConfigError(f"unsupported bundle version {manifest['version']}")
    arrays = {name: _map_array(directory / f"{name}.bin", meta)
              for name, meta in manifest["arrays"].items()}
    try:
        res = BrdfResolution(*manifest["resolution"])
        reference = ReferenceBrdf(arrays["reference"], manifest["epsilon"])
    except ValueError as exc:  # DomainError included
        raise BundleFormatError(f"{manifest_path}: {exc}") from exc
    _check_arrays(manifest_path, arrays, res)
    return DictionaryBundle(
        pca=PcaDictionary(arrays["mean"], arrays["atoms"], arrays["coeffs"],
                          arrays["sigma"]),
        row_map=RowMap(res, arrays["rows"]),
        reference=reference,
        material_ids=tuple(manifest["materials"]),
        config_hash=manifest["config_hash"],
    )
