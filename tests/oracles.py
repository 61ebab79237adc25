"""Direct, unoptimized reference forms that the tests check the library against.

None of this is used by the pipeline itself: each function here is the slow
or textbook version of something the library does incrementally or
implicitly, kept so that tests can compare the two.
"""

import struct
from dataclasses import dataclass

import numpy as np

from sparsebrdf import evaluate
from sparsebrdf.dictionary import (
    CHANNEL_NAMES,
    DictionaryBundle,
    PcaDictionary,
    TrainingMatrix,
    train_bundle,
)
from sparsebrdf.errors import (
    EmptyCorpusError,
    EmptyMaskError,
    InconsistentCorpusError,
    InvalidKError,
    IndexOutOfRangeError,
    MerlFormatError,
    RankCollapseError,
    SingularMatrixError,
)
from sparsebrdf.mapping import REFERENCE_FLOOR, MappedBrdf, ReferenceBrdf, log_relative_map
from sparsebrdf.merl import (
    INVALID_SENTINEL,
    MERL_SCALES,
    BrdfResolution,
    BrdfTensor,
    RowMap,
    bin_center_angles,
    corpus_mask,
    read_merl,
)
import sparsebrdf.somp as somp
import sparsebrdf.synthetic as synthetic
from sparsebrdf.reconstruct import MeasurementVector, ridge_solve
from sparsebrdf.somp import DEFAULT_COND_LIMIT, SampleBudget, SupportSet


def correlation_scores(dinv: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """l1 norm of every column's correlation row against the residual: the
    full scan, each whole ``_SCAN_BLOCK`` block scored by one GEMM, abs and
    row sum through one reused buffer.  The library scores a block in
    sub-blocks, so this is the product those must reproduce bit for bit."""
    n = dinv.shape[1]
    block = somp._SCAN_BLOCK
    scores = np.empty(n)
    buf = np.empty((min(block, n), residual.shape[1]))
    for start in range(0, n, block):
        stop = min(start + block, n)
        corr = buf[:stop - start]
        np.matmul(dinv[:, start:stop].T, residual, out=corr)
        np.abs(corr, out=corr)
        corr.sum(axis=1, out=scores[start:stop])
    return scores


def atom_select(dinv: np.ndarray, residual: np.ndarray, exclude=()) -> int:
    """Index of the unselected column with the largest total correlation,
    ties to the smallest index, from a full scan."""
    scores = correlation_scores(dinv, residual)
    for i in exclude:
        scores[i] = -np.inf
    return int(np.argmax(scores))


def normalized_columns(dinv: np.ndarray) -> np.ndarray:
    """dinv with each column divided by its 2-norm (zero columns kept), as
    one whole copy; the norms are summed over an F-order copy, whatever
    dinv's layout.  The library divides a C-order copy in place, one scan
    block at a time."""
    norms = np.linalg.norm(np.asfortranarray(dinv), axis=0)
    return dinv / np.where(norms > 0.0, norms, 1.0)


def full_scan_somp(dinv: np.ndarray, coeffs: np.ndarray, stop,
                   normalize_atoms: bool = False) -> SupportSet:
    """somp_select with every column scored at every pick.

    The same loop and arithmetic as the library's, so its indices and
    residual history must equal the bound-pruned scan's exactly.
    """
    dinv = np.asarray(dinv, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    k, n = dinv.shape
    if isinstance(stop, SampleBudget):
        max_steps, threshold = stop.m, -1.0
    else:
        max_steps = stop.max_iters if stop.max_iters is not None else min(k, n)
        threshold = stop.epsilon
    # the library scores a C-order array, whatever layout it was given; an
    # F-order one can take other GEMM kernels, which round a column's score
    # by where it sits, and so break an exact tie between equal columns
    scan_dinv = np.ascontiguousarray(normalized_columns(dinv) if normalize_atoms else dinv)
    selected: list[int] = []
    history: list[float] = []
    basis = np.zeros((k, 0))
    residual = coeffs.copy()
    while len(selected) < max_steps:
        if threshold >= 0.0 and np.linalg.norm(residual) <= threshold:
            break
        j = atom_select(scan_dinv, residual, exclude=selected)
        selected.append(j)
        col = dinv[:, j].astype(np.float64, copy=True)
        for _ in range(2):
            col -= basis @ (basis.T @ col)
        norm = np.linalg.norm(col)
        if norm <= np.linalg.norm(dinv[:, j]) / DEFAULT_COND_LIMIT:
            raise RankCollapseError("selected columns became numerically dependent")
        basis = np.hstack([basis, (col / norm)[:, None]])
        residual = coeffs - basis @ (basis.T @ coeffs)
        history.append(float(np.linalg.norm(residual)))
    return SupportSet(indices=selected, residual_history=history)


def residual_update(dinv: np.ndarray, support, coeffs: np.ndarray) -> np.ndarray:
    """Project coeffs onto the orthogonal complement of the selected columns.

    Computed from scratch with a dense QR; this is the reference form the
    incremental update inside somp_select is checked against.
    """
    indices = list(support.indices if isinstance(support, SupportSet) else support)
    if not indices:
        return coeffs.copy()
    basis = dinv[:, indices]
    svals = np.linalg.svd(basis, compute_uv=False)
    if svals[-1] == 0.0 or svals[0] / svals[-1] > DEFAULT_COND_LIMIT:
        raise RankCollapseError(
            f"selected columns are numerically dependent (cond > {DEFAULT_COND_LIMIT:.0e})"
        )
    q, _ = np.linalg.qr(basis)
    return coeffs - q @ (q.T @ coeffs)


def exact_somp(dinv: np.ndarray, coeffs: np.ndarray, m: int) -> SupportSet:
    """SOMP with m picks that re-projects from scratch after every pick."""
    selected: list[int] = []
    history: list[float] = []
    residual = coeffs.copy()
    for _ in range(m):
        selected.append(atom_select(dinv, residual, exclude=selected))
        residual = residual_update(dinv, selected, coeffs)
        history.append(float(np.linalg.norm(residual)))
    return SupportSet(indices=selected, residual_history=history)


def dictionary_pseudo_inverse(d: np.ndarray, rank_tol: float = 1e-10) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a full-rank dictionary.

    Accepts either orientation: full column rank (tall/orthogonal case) or
    full row rank (overcomplete case).  Raises when the smallest singular
    value falls below rank_tol relative to the largest.
    """
    d = np.asarray(d, dtype=np.float64)
    u, sigma, vt = np.linalg.svd(d, full_matrices=False)
    if sigma[0] == 0.0 or sigma[-1] < rank_tol * sigma[0]:
        raise SingularMatrixError(
            f"matrix of shape {d.shape} is rank deficient "
            f"(sigma ratio {sigma[-1] / sigma[0] if sigma[0] else 0.0:.2e})"
        )
    return (vt.T / sigma) @ u.T


@dataclass(frozen=True)
class SubsamplingOperator:
    """Row selection of the identity: keeps the listed entries, in order."""

    rows: tuple
    ambient_dim: int

    def apply(self, signal: np.ndarray) -> np.ndarray:
        signal = np.asarray(signal)
        if signal.shape[0] != self.ambient_dim:
            raise IndexOutOfRangeError(
                f"signal has {signal.shape[0]} rows, operator expects {self.ambient_dim}"
            )
        return signal[list(self.rows)]

    def as_matrix(self) -> np.ndarray:
        phi = np.zeros((len(self.rows), self.ambient_dim))
        phi[np.arange(len(self.rows)), list(self.rows)] = 1.0
        return phi


def build_subsampling_operator(support: SupportSet, ambient_dim: int) -> SubsamplingOperator:
    if any(i < 0 or i >= ambient_dim for i in support.indices):
        raise IndexOutOfRangeError(
            f"support indices must lie in [0, {ambient_dim})"
        )
    return SubsamplingOperator(tuple(support.indices), ambient_dim)


def row_of_grid(row_map: RowMap) -> np.ndarray:
    """Dense row of every grid index, or -1 where the cell is not mapped."""
    inv = np.full(row_map.resolution.grid_size, -1, dtype=np.int64)
    inv[row_map.grid_indices] = np.arange(row_map.n_valid, dtype=np.int64)
    return inv


def validity_mask(brdf: BrdfTensor) -> RowMap:
    """Row map over this tensor's own valid cells."""
    idx = np.flatnonzero(brdf.mask).astype(np.int64)
    if idx.size == 0:
        raise EmptyMaskError("tensor has no valid cells")
    return RowMap(brdf.resolution, idx)


def stacked_reference(training, row_map: RowMap, epsilon: float,
                      statistic: str = "median") -> ReferenceBrdf:
    """compute_reference over the whole corpus stacked at once."""
    training = list(training)
    if not training:
        raise EmptyCorpusError("reference needs at least one training BRDF")
    stacked = np.concatenate([b.values[:, row_map.grid_indices] for b in training], axis=0)
    if statistic == "mean":
        ref = stacked.mean(axis=0)
    else:
        q = stacked.shape[0]
        mid = (q - 1) // 2
        part = np.partition(stacked, (mid, q // 2), axis=0)
        ref = 0.5 * (part[mid] + part[q // 2])
    np.maximum(ref, REFERENCE_FLOOR, out=ref)
    return ReferenceBrdf(ref, epsilon)


def stacked_training_matrix(mapped_brdfs, material_ids, row_map: RowMap) -> TrainingMatrix:
    """assemble_training_matrix by np.stack over a list of every channel."""
    mapped_brdfs = list(mapped_brdfs)
    material_ids = list(material_ids)
    if len(mapped_brdfs) != len(material_ids):
        raise InconsistentCorpusError("one material id per mapped BRDF required")
    if not mapped_brdfs:
        raise InconsistentCorpusError("empty training corpus")
    columns = [mb.values[c] for mb in mapped_brdfs for c in range(3)]
    labels = tuple((mid, c) for mid in material_ids for c in CHANNEL_NAMES)
    return TrainingMatrix(np.stack(columns, axis=1), labels, row_map,
                          mapped_brdfs[0].provenance)


def full_copy_train_pca(matrix: TrainingMatrix, k: int) -> PcaDictionary:
    """train_pca projecting onto all t right singular vectors, then slicing k."""
    entries = matrix.entries
    n, t = entries.shape
    if not 1 <= k < t:
        raise InvalidKError(f"k={k} must satisfy 1 <= k < t={t}")
    mean = entries.mean(axis=1)
    centered = entries - mean[:, None]
    gram = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    sigma = np.sqrt(np.clip(eigvals[order], 0.0, None))
    v = eigvecs[:, order]
    eps = np.finfo(np.float64).eps
    tiny = max(sigma[0] * np.sqrt(t * eps),
               eps * max(n, t) * float(np.linalg.norm(entries)))
    sigma[sigma <= tiny] = 0.0
    safe = np.where(sigma > 0.0, sigma, 1.0)
    u = (centered @ v) / safe
    u[:, sigma == 0.0] = 0.0
    pivot = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[pivot, np.arange(u.shape[1])])
    signs[signs == 0.0] = 1.0
    u *= signs
    v *= signs
    inv_sigma = np.where(sigma[:k] > 0.0, 1.0 / safe[:k], 0.0)
    pca = PcaDictionary(
        mean=mean,
        atoms=u[:, :k] * sigma[:k],
        coeffs=v[:, :k].T.copy(),
        sigma=sigma[:k].copy(),
    )
    # the inverse formed from U rather than derived from the atoms, so that
    # a derived inverse is compared with an independent expected array; in
    # C order, as the library derives every inverse
    pca.inverse = np.ascontiguousarray(u[:, :k].T) * inv_sigma[:, None]
    return pca


def allocating_correlation_scores(dinv: np.ndarray, residual: np.ndarray,
                                  block: int) -> np.ndarray:
    """SOMP scan scores with fresh temporaries for every block."""
    n = dinv.shape[1]
    scores = np.empty(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        scores[start:stop] = np.abs(dinv[:, start:stop].T @ residual).sum(axis=1)
    return scores


def allocating_read_merl(path) -> BrdfTensor:
    """read_merl scaling through np.where into a fresh array, then writing
    the sentinel of sibling-invalid cells from a second np.where."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) != 12:
            raise MerlFormatError(f"{path}: truncated header")
        dims = struct.unpack("<3i", header)
        if min(dims) <= 0:
            raise MerlFormatError(f"{path}: nonpositive header dims {dims}")
        res = BrdfResolution(*dims)
        n = res.grid_size
        payload = np.fromfile(fh, dtype="<f8", count=3 * n + 1)
    if payload.size != 3 * n:
        raise MerlFormatError(
            f"{path}: payload holds {payload.size} doubles, expected {3 * n}"
        )
    stored = payload.reshape(3, n)
    mask = np.all(stored >= 0.0, axis=0)
    values = np.where(stored >= 0.0, stored * MERL_SCALES[:, None], stored)
    values[:, ~mask] = np.where(
        stored[:, ~mask] < 0.0, stored[:, ~mask], INVALID_SENTINEL
    )
    if np.isposinf(values[:, mask]).any():
        raise MerlFormatError(f"{path}: valid cells must hold finite nonnegative reflectance")
    return BrdfTensor(res, values, mask)


def per_material_corpus_matrix(corpus, row_map: RowMap) -> tuple:
    """corpus_matrix as a fill of each material's 3 strided columns from its
    read_merl tensor, a file read only when its material's turn comes."""
    if not len(corpus):
        raise EmptyCorpusError("corpus holds no material")
    entries = np.empty((row_map.n_valid, 3 * len(corpus)))
    ids = []
    for i, (mid, brdf) in enumerate(corpus):
        if not isinstance(brdf, BrdfTensor):
            brdf = read_merl(brdf)
        if brdf.resolution != row_map.resolution:
            raise InconsistentCorpusError(
                f"BRDF {mid} has resolution {brdf.resolution}, "
                f"row map has {row_map.resolution}"
            )
        entries[:, 3 * i:3 * i + 3] = brdf.values[:, row_map.grid_indices].T
        ids.append(mid)
    return entries, ids


def allocating_log_relative_map(brdf: BrdfTensor, ref: ReferenceBrdf,
                                row_map: RowMap) -> MappedBrdf:
    """log_relative_map as one expression, with a temporary per operation."""
    rho = brdf.values[:, row_map.grid_indices]
    return MappedBrdf(np.log((rho + ref.epsilon) / (ref.values + ref.epsilon)), ref.key)


def gathering_tensor_check(values: np.ndarray, mask: np.ndarray) -> None:
    """BrdfTensor's two cell invariants, checked on gathered copies of the
    valid and the invalid cells; raises what BrdfTensor raises."""
    valid = values[:, mask]
    if valid.size and (not np.all(np.isfinite(valid)) or valid.min() < 0.0):
        raise MerlFormatError("valid cells must hold finite nonnegative reflectance")
    invalid = values[:, ~mask]
    if invalid.size and not invalid.max() < 0.0:
        raise MerlFormatError("invalid cells must hold negative sentinels")


def _exact_unscale(values: np.ndarray, scale: float) -> np.ndarray:
    """Stored doubles whose read-back (stored * scale) reproduces `values`:
    plain division, then one-ulp neighbours where the product misses."""
    stored = values / scale
    miss = stored * scale != values
    if np.any(miss):
        up = np.nextafter(stored[miss], np.inf)
        stored[miss] = np.where(up * scale == values[miss], up, stored[miss])
        miss = stored * scale != values
    if np.any(miss):
        dn = np.nextafter(stored[miss], -np.inf)
        stored[miss] = np.where(dn * scale == values[miss], dn, stored[miss])
    return stored


def per_channel_write_merl(brdf: BrdfTensor, path) -> None:
    """write_merl unscaling one channel's gathered valid cells at a time,
    with the one-ulp fix-up of _exact_unscale; write_merl stores the plain
    quotient, so its bytes equal these only while no value needs the fix-up."""
    res = brdf.resolution
    stored = brdf.values.copy()
    for c in range(3):
        stored[c, brdf.mask] = _exact_unscale(brdf.values[c, brdf.mask], MERL_SCALES[c])
    with open(path, "wb") as fh:
        fh.write(struct.pack("<3i", res.n_theta_h, res.n_theta_d, res.n_phi_d))
        stored.astype("<f8").tofile(fh)


def allocating_synthesize(pca: PcaDictionary, coefficients: np.ndarray,
                          ref: ReferenceBrdf, row_map: RowMap):
    """synthesize's mapped (3, n_valid) values, the (3, grid) tensor values
    they unmap to, sentinels outside the row map, and the clamped count, one
    temporary per operation, for (3, k) coefficients.  write_merl of that
    tensor gives the bytes write_reconstruction writes, and the clamped
    count over 3 n_valid the share it returns."""
    mapped = np.ascontiguousarray((pca.atoms @ coefficients.T + pca.mean[:, None]).T)
    unclamped = np.exp(mapped) * (ref.values + ref.epsilon) - ref.epsilon
    full = np.full((3, row_map.resolution.grid_size), INVALID_SENTINEL)
    full[:, row_map.grid_indices] = np.maximum(unclamped, 0.0)
    return mapped, full, int(np.count_nonzero(unclamped < 0.0))


def zero_padded_reconstruct(samples: MeasurementVector, bundle: DictionaryBundle,
                            eta: float):
    """allocating_synthesize's outputs for the ridge fit reconstruct_full
    makes over the min(m, k) leading atoms, its coefficients zero-padded to
    all k atoms and expanded through the whole dictionary: reconstruct_full's
    mapped values, and the tensor and clamped count of write_reconstruction's
    file for its coefficients."""
    pca = bundle.pca
    rows = list(samples.support.indices)
    k_used = min(len(rows), pca.n_atoms)
    solution = ridge_solve(pca.atoms[rows, :k_used],
                           (samples.values - pca.mean[rows]).T, eta)
    padded = np.zeros((3, pca.n_atoms))
    padded[:, :k_used] = solution.T
    return allocating_synthesize(pca, padded, bundle.reference, bundle.row_map)


def tensor_dict_experiment(config: evaluate.ExperimentConfig) -> tuple:
    """run_experiment's result rows and support records, from a dict of every
    BrdfTensor of the corpus: each fold gathers its training materials into a
    fresh matrix, and maps each held-out tensor whole with log_relative_map
    into an array of its own, which the direct path reads."""
    corpus, _ = evaluate.load_corpus(config.corpus_dir, config.synthetic)
    tensors = {mid: s if isinstance(s, BrdfTensor) else read_merl(s) for mid, s in corpus}
    ids = list(tensors)
    row_map = corpus_mask(tensors.values())
    folds = evaluate.kfold_split(
        ids, config.folds, evaluate._stream_seed(config.seed, evaluate._STREAM_FOLDS))
    # k_fixed atoms when set, which a threshold run needs; else the largest m
    k_max = config.k_fixed if config.k_fixed is not None else max(config.m_values)
    rows, supports = [], []
    for fold, test_ids in enumerate(folds):
        train_ids = [i for i in ids if i not in test_ids]
        entries = np.empty((row_map.n_valid, 3 * len(train_ids)))
        for i, mid in enumerate(train_ids):
            entries[:, 3 * i:3 * i + 3] = tensors[mid].values[:, row_map.grid_indices].T
        bundle = train_bundle(entries, train_ids, row_map, k_max,
                              epsilon=config.epsilon, statistic=config.reference_statistic)
        mapped = [log_relative_map(tensors[mid], bundle.reference, row_map)
                  for mid in test_ids]
        held_out = evaluate._HeldOut(np.concatenate([mb.values for mb in mapped]), bundle)
        held_out.mapped = mapped
        rows.extend(evaluate._evaluate_fold(config, fold, test_ids, bundle, held_out,
                                            supports))
    return rows, supports


def uncached_gen_brdf(spec: synthetic.MaterialSpec, res: BrdfResolution) -> BrdfTensor:
    """gen_brdf with the grid's geometry computed on every call: the horizon
    mask and, at its valid cells, the cosines and Schlick term the models
    read, each by the expression the library caches per resolution."""
    theta_h, theta_d, phi_d = bin_center_angles(res)
    wi, wo = synthetic.halfdiff_to_io(theta_h, theta_d, phi_d)
    cos_i = wi[:, 2]
    cos_o = wo[:, 2]
    mask = (cos_i >= synthetic.HORIZON_COS) & (cos_o >= synthetic.HORIZON_COS)
    cos_d = np.cos(theta_d[mask])
    vals = synthetic._eval_channels(spec, np.cos(theta_h[mask]), cos_i[mask], cos_o[mask],
                                    np.power(1.0 - cos_d, 5.0))
    values = np.full((3, res.grid_size), INVALID_SENTINEL)
    scale = MERL_SCALES[:, None]
    values[:, mask] = np.maximum(vals, 0.0) / scale * scale
    return BrdfTensor(res, values, mask)
