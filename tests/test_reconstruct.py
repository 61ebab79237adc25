import numpy as np
import pytest

from sparsebrdf.dictionary import (
    DictionaryBundle,
    assemble_training_matrix,
    train_pca,
)
from sparsebrdf.errors import (
    IndexOutOfRangeError,
    ProvenanceMismatchError,
    ShapeMismatchError,
    SingularMatrixError,
)
from sparsebrdf.mapping import (
    MappedBrdf,
    compute_reference,
    log_relative_map,
    log_relative_unmap,
)
from sparsebrdf.merl import BrdfResolution, corpus_mask
from sparsebrdf.reconstruct import (
    measure,
    reconstruct_full,
    ridge_solve,
    synthesize,
)
from sparsebrdf.somp import SampleBudget, SupportSet, somp_select
from sparsebrdf.synthetic import gen_corpus

from conftest import make_random_tensor


def ridge_gradient_descent(d_rows, b, eta, iters=200000, lr=None):
    """Independent iterative minimizer of the ridge objective."""
    gram = d_rows.T @ d_rows
    lipschitz = np.linalg.eigvalsh(gram).max() + eta
    lr = lr or 1.0 / lipschitz
    s = np.zeros(d_rows.shape[1])
    for _ in range(iters):
        grad = gram @ s - d_rows.T @ b + eta * s
        new = s - lr * grad
        if np.abs(new - s).max() < 1e-14:
            return new
        s = new
    return s


def _trained_bundle(rng, count=6, k=4, res=BrdfResolution(8, 8, 8)):
    tensors = [make_random_tensor(rng, res=res, invalid_frac=0.05) for _ in range(count)]
    rm = corpus_mask(tensors)
    ref = compute_reference(tensors, rm)
    ids = [f"m{i}" for i in range(count)]
    mapped = [log_relative_map(b, ref, rm) for b in tensors]
    matrix = assemble_training_matrix(mapped, ids, rm)
    pca = train_pca(matrix, k)
    bundle = DictionaryBundle(pca, rm, ref, tuple(ids))
    return bundle, mapped


def test_measure_picks_rows_in_order():
    mapped = MappedBrdf(np.arange(30, dtype=float).reshape(3, 10), "ref")
    support = SupportSet(indices=[0, 1, 2])
    out = measure(mapped, support)
    assert np.array_equal(out.values, mapped.values[:, :3])
    reordered = measure(mapped, SupportSet(indices=[5, 2]))
    assert np.array_equal(reordered.values[0], [5.0, 2.0])


def test_measure_errors():
    mapped = MappedBrdf(np.zeros((3, 4)), "ref")
    with pytest.raises(IndexOutOfRangeError):
        measure(mapped, SupportSet(indices=[]))
    with pytest.raises(IndexOutOfRangeError):
        measure(mapped, SupportSet(indices=[4]))


def test_ridge_scalar_closed_form():
    s = ridge_solve(np.array([[1.0]]), np.array([1.0]), 40.0)
    assert s[0] == 1.0 / 41.0


def test_ridge_zero_eta_exact_solve(rng):
    d = rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    s = ridge_solve(d, b, 0.0)
    assert np.allclose(d @ s, b, atol=1e-9)


def test_ridge_zero_eta_singular(rng):
    col = rng.standard_normal(4)
    d = np.stack([col, col], axis=1)
    with pytest.raises(SingularMatrixError):
        ridge_solve(d, np.ones(4), 0.0)


def test_ridge_matches_gradient_descent_oracle(rng):
    for _ in range(5):
        d = rng.standard_normal((8, 4))
        b = rng.standard_normal(8)
        eta = float(rng.uniform(0.5, 50.0))
        closed = ridge_solve(d, b, eta)
        iterative = ridge_gradient_descent(d, b, eta)
        assert np.allclose(closed, iterative, atol=1e-6)


def test_ridge_multi_rhs_matches_columns(rng):
    d = rng.standard_normal((9, 4))
    b = rng.standard_normal((9, 5))
    for eta in (0.0, 3.0):
        joint = ridge_solve(d, b, eta)
        assert joint.shape == (4, 5)
        for j in range(5):
            assert np.allclose(joint[:, j], ridge_solve(d, b[:, j], eta),
                               rtol=0.0, atol=1e-12)
    with pytest.raises(ShapeMismatchError):
        ridge_solve(d, np.zeros((8, 2)), 1.0)
    with pytest.raises(ShapeMismatchError):
        ridge_solve(d, np.zeros((9, 2, 1)), 1.0)


def test_ridge_gradient_optimality(rng):
    d = rng.standard_normal((10, 5))
    b = rng.standard_normal(10)
    s = ridge_solve(d, b, 7.0)
    grad = 2.0 * (d.T @ (d @ s - b)) + 2.0 * 7.0 * s
    assert np.abs(grad).max() < 1e-8 * max(1.0, np.abs(s).max())


def test_ridge_shrinkage(rng):
    d = rng.standard_normal((10, 5))
    b = rng.standard_normal(10)
    norms = [np.linalg.norm(ridge_solve(d, b, eta)) for eta in (0.0, 1.0, 10.0, 100.0)]
    assert np.all(np.diff(norms) < 1e-12)


def test_synthesize_zero_coefficients(rng):
    bundle, _ = _trained_bundle(rng)
    result = synthesize(bundle.pca, np.zeros((3, bundle.pca.n_atoms)),
                        bundle.reference, bundle.row_map)
    assert np.allclose(result.mapped.values, bundle.pca.mean)
    expect_linear = log_relative_unmap(
        MappedBrdf(np.tile(bundle.pca.mean, (3, 1)), bundle.reference.key),
        bundle.reference,
    )
    got = result.tensor.values[:, bundle.row_map.grid_indices]
    assert np.allclose(got, expect_linear)


def test_synthesize_construction_identity(rng):
    bundle, _ = _trained_bundle(rng)
    coeffs = rng.standard_normal((3, bundle.pca.n_atoms))
    result = synthesize(bundle.pca, coeffs, bundle.reference, bundle.row_map)
    expect = bundle.pca.atoms @ coeffs.T + bundle.pca.mean[:, None]
    assert np.array_equal(result.mapped.values, expect.T)
    # cells outside the row map are re-marked invalid
    assert np.array_equal(result.tensor.mask, bundle.row_map.mask())


def test_synthesize_zero_pads_short_coefficients(rng):
    bundle, _ = _trained_bundle(rng, k=4)
    short = rng.standard_normal((3, 2))
    result = synthesize(bundle.pca, short, bundle.reference, bundle.row_map)
    assert result.coefficients.shape == (3, 4)
    assert np.all(result.coefficients[:, 2:] == 0.0)


def test_in_span_exact_recovery(rng):
    bundle, _ = _trained_bundle(rng, count=8, k=5)
    m = 5
    support = somp_select(bundle.pca.inverse, bundle.pca.coeffs, SampleBudget(m))
    x = rng.standard_normal((3, m))
    mapped_values = (bundle.pca.atoms[:, :m] @ x.T + bundle.pca.mean[:, None]).T
    truth = MappedBrdf(np.ascontiguousarray(mapped_values), bundle.reference.key)
    samples = measure(truth, support, material_id="in-span")
    result = reconstruct_full(samples, bundle, eta=0.0)
    mse = float(np.mean((result.mapped.values - truth.values) ** 2))
    assert mse <= 1e-8
    assert np.allclose(result.coefficients[:, :m], x, atol=1e-6)


def test_eta_regularization_changes_noisy_result(rng):
    bundle, mapped = _trained_bundle(rng, count=6, k=4)
    support = somp_select(bundle.pca.inverse, bundle.pca.coeffs, SampleBudget(4))
    noisy = MappedBrdf(
        mapped[0].values + 0.05 * rng.standard_normal(mapped[0].values.shape),
        mapped[0].provenance,
    )
    samples = measure(noisy, support)
    with_reg = reconstruct_full(samples, bundle, eta=40.0)
    without = reconstruct_full(samples, bundle, eta=0.0)
    assert not np.allclose(with_reg.coefficients, without.coefficients)


def test_reconstruct_shape_contract(rng):
    res = BrdfResolution(8, 8, 8)
    bundle, mapped = _trained_bundle(rng, count=8, k=5, res=res)
    support = somp_select(bundle.pca.inverse, bundle.pca.coeffs, SampleBudget(5))
    samples = measure(mapped[0], support)
    result = reconstruct_full(samples, bundle)
    assert result.tensor.values.shape == (3, res.grid_size)
    assert result.tensor.resolution == res
    assert result.ridge_residuals.shape == (3,)


def test_reconstruct_full_merl_resolution():
    # measurement-grade resolution: ~1.1M valid rows, chunked scans engaged
    res = BrdfResolution(90, 90, 180)
    corpus = gen_corpus(3, 3, res)
    tensors = [b for _, b in corpus]
    rm = corpus_mask(tensors)
    ref = compute_reference(tensors, rm)
    ids = [s.material_id for s, _ in corpus]
    mapped = [log_relative_map(b, ref, rm) for b in tensors]
    matrix = assemble_training_matrix(mapped, ids, rm)
    bundle = DictionaryBundle(train_pca(matrix, 6), rm, ref, tuple(ids))
    support = somp_select(bundle.pca.inverse, bundle.pca.coeffs, SampleBudget(6))
    result = reconstruct_full(measure(mapped[0], support), bundle)
    assert result.tensor.values.shape == (3, 90 * 90 * 180)
    assert result.tensor.resolution == res


def test_reconstruct_channel_independence(rng):
    bundle, mapped = _trained_bundle(rng, count=6, k=4)
    support = somp_select(bundle.pca.inverse, bundle.pca.coeffs, SampleBudget(4))
    samples = measure(mapped[1], support)
    joint = reconstruct_full(samples, bundle, eta=2.0)
    rows = list(support.indices)
    d_rows = bundle.pca.atoms[rows, :4]
    for c in range(3):
        alone = ridge_solve(d_rows, samples.values[c] - bundle.pca.mean[rows], 2.0)
        assert np.allclose(joint.coefficients[c], alone, atol=1e-12)


def test_reconstruct_provenance_mismatch(rng):
    bundle, mapped = _trained_bundle(rng)
    support = somp_select(bundle.pca.inverse, bundle.pca.coeffs, SampleBudget(3))
    stranger = MappedBrdf(mapped[0].values.copy(), "not-this-reference")
    samples = measure(stranger, support)
    with pytest.raises(ProvenanceMismatchError):
        reconstruct_full(samples, bundle)
