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
from .mapping import DEFAULT_EPSILON, ReferenceBrdf, compute_reference, log_relative_map
from .merl import BrdfResolution, RowMap

CHANNEL_NAMES = ("R", "G", "B")

# singular values below sigma_max * this are treated as exact zeros
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class TrainingMatrix:
    """Dense training matrix with column labels and the shared row map."""

    entries: np.ndarray
    labels: tuple
    row_map: RowMap
    provenance: str

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def n_signals(self) -> int:
        return self.entries.shape[1]


def assemble_training_matrix(mapped_brdfs, material_ids, row_map: RowMap) -> TrainingMatrix:
    """Stack mapped BRDFs into the n_valid x 3t training matrix."""
    mapped_brdfs = list(mapped_brdfs)
    material_ids = list(material_ids)
    if len(mapped_brdfs) != len(material_ids):
        raise InconsistentCorpusError("one material id per mapped BRDF required")
    if not mapped_brdfs:
        raise InconsistentCorpusError("empty training corpus")
    provenance = mapped_brdfs[0].provenance
    columns = []
    labels = []
    for mid, mb in zip(material_ids, mapped_brdfs):
        if mb.provenance != provenance:
            raise InconsistentCorpusError("training BRDFs mapped against different references")
        if mb.values.shape != (3, row_map.n_valid):
            raise InconsistentCorpusError(
                f"mapped BRDF {mid} has shape {mb.values.shape}, "
                f"expected (3, {row_map.n_valid})"
            )
        for c in range(3):
            columns.append(mb.values[c])
            labels.append((mid, CHANNEL_NAMES[c]))
    entries = np.stack(columns, axis=1)
    return TrainingMatrix(entries, tuple(labels), row_map, provenance)


@dataclass(frozen=True)
class PcaDictionary:
    """Mean, dictionary D = U Sigma, coefficients S = V^T and D's left inverse.

    Columns of atoms/sigma are sorted by decreasing singular value; each left
    singular vector is sign-fixed so its largest-magnitude entry is positive,
    making results reproducible across platforms.  Atoms whose singular value
    is numerically zero are stored as zero columns, and their rows of the
    inverse are zero (pseudo-inverse semantics).
    """

    mean: np.ndarray
    atoms: np.ndarray  # (n, k) = U_k Sigma_k
    coeffs: np.ndarray  # (k, t) = V_k^T
    sigma: np.ndarray  # (k,)
    inverse: np.ndarray  # (k, n), inverse of atoms restricted to its column space

    def __post_init__(self):
        for arr in (self.mean, self.atoms, self.coeffs, self.sigma, self.inverse):
            arr.setflags(write=False)

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
        """Keep the k leading atoms; no retraining needed."""
        if not 1 <= k <= self.n_atoms:
            raise InvalidKError(f"k={k} outside [1, {self.n_atoms}]")
        if k == self.n_atoms:
            return self
        return PcaDictionary(
            mean=self.mean,
            atoms=self.atoms[:, :k].copy(),
            coeffs=self.coeffs[:k].copy(),
            sigma=self.sigma[:k].copy(),
            inverse=self.inverse[:k].copy(),
        )


def train_pca(matrix: TrainingMatrix, k: int) -> PcaDictionary:
    """Train the k-atom PCA dictionary from a training matrix.

    Requires 1 <= k < t.  Rank deficiency is not an error: trailing singular
    values may be (numerically) zero, in which case the corresponding atoms
    are zeroed.
    """
    entries = matrix.entries
    n, t = entries.shape
    if not 1 <= k < t:
        raise InvalidKError(f"k={k} must satisfy 1 <= k < t={t}")
    if t > n:
        raise InvalidKError(f"more signals ({t}) than rows ({n}) is unsupported")

    mean = entries.mean(axis=1)
    centered = entries - mean[:, None]
    gram = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    sigma = np.sqrt(np.clip(eigvals[order], 0.0, None))
    v = eigvecs[:, order]

    # singular values at roundoff level (relative to sigma_max, or to the
    # pre-centering scale when centering annihilated everything) are exact
    # zeros; their atoms are zeroed rather than divided into garbage
    eps = np.finfo(np.float64).eps
    tiny = max(
        sigma[0] * _RANK_TOL,
        eps * max(n, t) * float(np.linalg.norm(entries)),
    )
    sigma[sigma <= tiny] = 0.0
    safe = np.where(sigma > 0.0, sigma, 1.0)
    u = (centered @ v) / safe
    u[:, sigma == 0.0] = 0.0

    # deterministic sign: largest-magnitude entry of each u column positive
    pivot = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[pivot, np.arange(u.shape[1])])
    signs[signs == 0.0] = 1.0
    u *= signs
    v *= signs

    inv_sigma = np.where(sigma[:k] > 0.0, 1.0 / safe[:k], 0.0)
    return PcaDictionary(
        mean=mean,
        atoms=u[:, :k] * sigma[:k],
        coeffs=v[:, :k].T.copy(),
        sigma=sigma[:k].copy(),
        inverse=u[:, :k].T * inv_sigma[:, None],
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
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(np.float64(self.reference.epsilon).tobytes())
        return h.hexdigest()[:16]

    def truncate(self, k: int) -> "DictionaryBundle":
        return replace(self, pca=self.pca.truncate(k))

    def for_budget(self, m: int) -> "DictionaryBundle":
        """The bundle a budget of m samples works with: the m leading atoms
        when m <= k, all k atoms otherwise."""
        return self.truncate(m) if m <= self.pca.n_atoms else self


def train_bundle(corpus, row_map: RowMap, k: int, *,
                 epsilon: float = DEFAULT_EPSILON, statistic: str = "median",
                 config_hash: str = "") -> DictionaryBundle:
    """Train a k-atom bundle from (material_id, BrdfTensor) pairs.

    The mapping reference is computed from the same materials the dictionary
    is trained on.
    """
    corpus = list(corpus)
    ids = [mid for mid, _ in corpus]
    reference = compute_reference(
        (b for _, b in corpus), row_map, epsilon=epsilon, statistic=statistic
    )
    mapped = [log_relative_map(b, reference, row_map) for _, b in corpus]
    matrix = assemble_training_matrix(mapped, ids, row_map)
    return DictionaryBundle(
        pca=train_pca(matrix, k),
        row_map=row_map,
        reference=reference,
        material_ids=tuple(ids),
        config_hash=config_hash,
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


def save_bundle(bundle: DictionaryBundle, directory) -> None:
    """Persist a dictionary bundle as raw binaries plus a JSON manifest.

    Layout: each array is a C-order little-endian flat binary (<name>.bin);
    shapes and dtypes live in manifest.json.  The dictionary inverse is
    recomputed on load from atoms and sigma.
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
        np.ascontiguousarray(arr).astype(dtype).tofile(directory / f"{name}.bin")
        manifest["arrays"][name] = {"shape": list(arr.shape), "dtype": dtype}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


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
            and isinstance(meta.get("shape"), list) for name, meta in arrays.items())):
        raise BundleFormatError(
            f"{path}: arrays must be {', '.join(_BUNDLE_ARRAYS)}, each with "
            "its dtype and a shape"
        )
    res = manifest["resolution"]
    if not (isinstance(res, list) and len(res) == 3
            and all(isinstance(v, int) for v in res)):
        raise BundleFormatError(f"{path}: resolution must be three integers")
    return manifest


def load_bundle(directory) -> DictionaryBundle:
    directory = Path(directory)
    manifest = _read_manifest(directory / "manifest.json")
    if manifest["version"] != BUNDLE_VERSION:
        raise ConfigError(f"unsupported bundle version {manifest['version']}")
    arrays = {}
    for name, meta in manifest["arrays"].items():
        path = directory / f"{name}.bin"
        data = np.fromfile(path, dtype=meta["dtype"])
        expected = int(np.prod(meta["shape"]))
        if data.size != expected:
            raise BundleFormatError(
                f"{path}: holds {data.size} elements, manifest shape "
                f"{meta['shape']} needs {expected}"
            )
        arrays[name] = data.reshape(meta["shape"]).astype(meta["dtype"].lstrip("<"))
    sigma = arrays["sigma"]
    atoms = arrays["atoms"]
    tiny = sigma[0] * _RANK_TOL if sigma.size and sigma[0] > 0.0 else np.inf
    safe = np.where(sigma > tiny, sigma, 1.0)
    u = atoms / safe
    inv_sigma = np.where(sigma > tiny, 1.0 / safe, 0.0)
    pca = PcaDictionary(
        mean=arrays["mean"],
        atoms=atoms,
        coeffs=arrays["coeffs"],
        sigma=sigma,
        inverse=u.T * inv_sigma[:, None],
    )
    res = BrdfResolution(*manifest["resolution"])
    row_map = RowMap(res, arrays["rows"])
    reference = ReferenceBrdf(arrays["reference"], manifest["epsilon"])
    return DictionaryBundle(
        pca=pca,
        row_map=row_map,
        reference=reference,
        material_ids=tuple(manifest["materials"]),
        config_hash=manifest["config_hash"],
    )
