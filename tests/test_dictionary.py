import numpy as np
import pytest

from sparsebrdf.dictionary import (
    DictionaryBundle,
    TrainingMatrix,
    assemble_training_matrix,
    load_bundle,
    save_bundle,
    train_pca,
)
from sparsebrdf.errors import (
    InconsistentCorpusError,
    InvalidKError,
    SingularMatrixError,
)
from sparsebrdf.mapping import (
    ReferenceBrdf,
    compute_reference,
    log_relative_map,
)
from sparsebrdf.merl import BrdfResolution, corpus_mask

from conftest import make_random_tensor, toy_row_map
from oracles import dictionary_pseudo_inverse


def _random_matrix(rng, n, t):
    entries = rng.standard_normal((n, t))
    labels = tuple((f"m{i // 3}", "RGB"[i % 3]) for i in range(t))
    return TrainingMatrix(entries, labels, toy_row_map(n), "test-ref")


def _mapped_corpus(rng, count, res=BrdfResolution(8, 8, 8)):
    tensors = [make_random_tensor(rng, res=res, invalid_frac=0.05) for _ in range(count)]
    rm = corpus_mask(tensors)
    ref = compute_reference(tensors, rm)
    ids = [f"m{i}" for i in range(count)]
    mapped = [log_relative_map(b, ref, rm) for b in tensors]
    return mapped, ids, rm


def test_assemble_shape_and_order(rng):
    res = BrdfResolution(8, 8, 8)
    tensors = [make_random_tensor(rng, res=res, invalid_frac=0.0) for _ in range(2)]
    rm = corpus_mask(tensors)
    ref = compute_reference(tensors, rm)
    mapped = [log_relative_map(b, ref, rm) for b in tensors]
    matrix = assemble_training_matrix(mapped, ["a", "b"], rm)
    assert matrix.entries.shape == (512, 6)
    assert matrix.labels[:3] == (("a", "R"), ("a", "G"), ("a", "B"))
    assert matrix.labels[3:] == (("b", "R"), ("b", "G"), ("b", "B"))
    # column order is material-major, channel within
    assert np.array_equal(matrix.entries[:, 1], mapped[0].values[1])
    assert np.array_equal(matrix.entries[:, 5], mapped[1].values[2])


def test_assemble_single_material(rng):
    mapped, ids, rm = _mapped_corpus(rng, 1)
    matrix = assemble_training_matrix(mapped, ids, rm)
    assert matrix.n_signals == 3
    assert matrix.labels == (("m0", "R"), ("m0", "G"), ("m0", "B"))


def test_assemble_rejects_mixed_references(rng):
    mapped, ids, rm = _mapped_corpus(rng, 2)
    other = mapped[1].__class__(mapped[1].values.copy(), "someone-else")
    with pytest.raises(InconsistentCorpusError):
        assemble_training_matrix([mapped[0], other], ids, rm)


def test_train_identical_columns_is_rank_zero(rng):
    col = rng.standard_normal(64)
    entries = np.tile(col[:, None], (1, 6))
    matrix = TrainingMatrix(entries, tuple(("m", "R") for _ in range(6)),
                            toy_row_map(64), "ref")
    pca = train_pca(matrix, 1)
    assert pca.sigma[0] == 0.0
    assert np.allclose(pca.atoms @ pca.coeffs, 0.0)


def test_energy_identity_against_full_svd(rng):
    matrix = _random_matrix(rng, 100, 10)
    k = 9
    pca = train_pca(matrix, k)
    centered = matrix.entries - matrix.entries.mean(axis=1)[:, None]
    svals = np.linalg.svd(centered, compute_uv=False)
    resid = np.linalg.norm(centered - pca.atoms @ pca.coeffs, "fro") ** 2
    discarded = float((svals[k:] ** 2).sum())
    # k = t - 1 discards only the centering null direction, so both sides sit
    # at roundoff; the floor keeps the comparison meaningful there
    floor = np.finfo(np.float64).eps * float((svals**2).sum())
    assert abs(resid - discarded) <= 1e-6 * max(discarded, floor)


def test_train_shapes(rng):
    matrix = _random_matrix(rng, 50, 12)
    pca = train_pca(matrix, 5)
    assert pca.coeffs.shape == (5, 12)
    assert pca.atoms.shape == (50, 5)
    assert pca.sigma.shape == (5,)


def test_train_k_bounds(rng):
    matrix = _random_matrix(rng, 50, 12)
    with pytest.raises(InvalidKError):
        train_pca(matrix, 12)
    with pytest.raises(InvalidKError):
        train_pca(matrix, 0)


def test_orthonormality_and_left_inverse(rng):
    matrix = _random_matrix(rng, 80, 10)
    pca = train_pca(matrix, 6)
    u = pca.atoms / pca.sigma
    assert np.abs(u.T @ u - np.eye(6)).max() < 1e-10
    assert np.abs(pca.inverse @ pca.atoms - np.eye(6)).max() < 1e-8


def test_sigma_descending(rng):
    matrix = _random_matrix(rng, 80, 10)
    pca = train_pca(matrix, 9)
    assert np.all(np.diff(pca.sigma) < 0.0)


def test_truncate_identity_and_single(rng):
    matrix = _random_matrix(rng, 40, 8)
    pca = train_pca(matrix, 6)
    assert pca.truncate(6) is pca
    one = pca.truncate(1)
    assert one.sigma.shape == (1,)
    assert np.array_equal(one.atoms, pca.atoms[:, :1])
    with pytest.raises(InvalidKError):
        pca.truncate(7)


def test_truncate_matches_retraining(rng):
    matrix = _random_matrix(rng, 60, 11)
    truncated = train_pca(matrix, 9).truncate(5)
    retrained = train_pca(matrix, 5)
    # sign-aligned comparison; deterministic sign fixing should make the
    # signs agree outright, but the contract only promises up-to-sign
    for j in range(5):
        a, b = truncated.atoms[:, j], retrained.atoms[:, j]
        sign = np.sign(np.dot(a, b)) or 1.0
        assert np.allclose(a, sign * b, atol=1e-8)
    assert np.allclose(truncated.sigma, retrained.sigma, atol=1e-10)


def test_pseudo_inverse_identity():
    assert np.allclose(dictionary_pseudo_inverse(np.eye(4)), np.eye(4))


def test_pseudo_inverse_left_inverse_of_pca(rng):
    matrix = _random_matrix(rng, 60, 9)
    pca = train_pca(matrix, 5)
    pinv = dictionary_pseudo_inverse(pca.atoms)
    assert np.abs(pinv @ pca.atoms - np.eye(5)).max() < 1e-10


def test_pseudo_inverse_penrose_overcomplete(rng):
    d = rng.standard_normal((4, 8))  # full row rank almost surely
    pinv = dictionary_pseudo_inverse(d)
    assert np.allclose(pinv @ d @ pinv, pinv, atol=1e-8)
    assert np.allclose(d @ pinv @ d, d, atol=1e-8)
    # overcomplete closed form: D^T (D D^T)^-1
    closed = d.T @ np.linalg.inv(d @ d.T)
    assert np.allclose(pinv, closed, atol=1e-8)


def test_pseudo_inverse_singular(rng):
    col = rng.standard_normal(6)
    d = np.stack([col, 2 * col], axis=1)
    with pytest.raises(SingularMatrixError):
        dictionary_pseudo_inverse(d)


def test_bundle_roundtrip(tmp_path, rng):
    mapped, ids, rm = _mapped_corpus(rng, 4)
    matrix = assemble_training_matrix(mapped, ids, rm)
    pca = train_pca(matrix, 5)
    ref = ReferenceBrdf(np.full(rm.n_valid, 0.25))
    bundle = DictionaryBundle(pca, rm, ref, tuple(ids), config_hash="abc123")
    save_bundle(bundle, tmp_path / "bundle")
    back = load_bundle(tmp_path / "bundle")
    assert back.config_hash == "abc123"
    assert back.material_ids == tuple(ids)
    assert back.digest == bundle.digest
    assert np.array_equal(back.pca.atoms, pca.atoms)
    assert np.array_equal(back.pca.coeffs, pca.coeffs)
    assert np.array_equal(back.row_map.grid_indices, rm.grid_indices)
    assert back.reference.key == ref.key
    assert np.allclose(back.pca.inverse, pca.inverse)
