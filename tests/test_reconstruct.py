import tracemalloc

import numpy as np
import pytest

from sparsebrdf.dictionary import train_bundle
from sparsebrdf.errors import (
    IndexOutOfRangeError,
    InvalidSampleError,
    ProvenanceMismatchError,
    ShapeMismatchError,
    SingularMatrixError,
)
from sparsebrdf.mapping import MappedBrdf, log_relative_map, log_relative_unmap
from sparsebrdf.merl import BrdfResolution, corpus_mask, corpus_matrix, read_merl, write_merl
from sparsebrdf.reconstruct import (
    measure,
    measure_brdf,
    reconstruct_full,
    ridge_solve,
    synthesize,
)
from sparsebrdf.somp import SampleBudget, SupportSet, somp_select
from sparsebrdf.synthetic import gen_corpus

from conftest import make_random_tensor
from oracles import allocating_log_relative_map, allocating_synthesize, zero_padded_reconstruct


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
    ids = [f"m{i}" for i in range(count)]
    bundle = train_bundle(*corpus_matrix(list(zip(ids, tensors)), rm), rm, k)
    return bundle, [log_relative_map(b, bundle.reference, rm) for b in tensors]


def test_measure_picks_rows_in_order():
    mapped = MappedBrdf(np.arange(30, dtype=float).reshape(3, 10), "ref")
    support = SupportSet(indices=[0, 1, 2])
    out = measure(mapped, support)
    assert np.array_equal(out.values, mapped.values[:, :3])
    reordered = measure(mapped, SupportSet(indices=[5, 2]))
    assert np.array_equal(reordered.values[0], [5.0, 2.0])


@pytest.mark.parametrize("support", ["m-1", "m-k", "random"])
def test_measure_brdf_matches_whole_tensor_map(support, rng):
    # mapping the m support cells alone gives the bytes of mapping the whole
    # tensor and sampling it; the materials span the synthetic models'
    # range, specular peaks included
    corpus = [(spec.material_id, b)
              for spec, b in gen_corpus(7, 11, BrdfResolution(16, 16, 16))]
    row_map = corpus_mask(b for _, b in corpus)
    bundle = train_bundle(*corpus_matrix(corpus[:8], row_map), row_map, 6)
    n = bundle.pca.n_rows
    rows = {"m-1": [int(rng.integers(n))], "m-k": list(range(n - 6, n)),
            "random": [int(r) for r in rng.choice(n, size=11, replace=False)]}[support]
    for _, brdf in corpus[8:]:
        got = measure_brdf(brdf, SupportSet(indices=rows), bundle, material_id="x")
        want = measure(allocating_log_relative_map(brdf, bundle.reference, bundle.row_map),
                       SupportSet(indices=rows), material_id="x")
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.provenance, got.material_id) == (want.provenance, want.material_id)


def test_measure_brdf_errors(rng):
    bundle, _ = _trained_bundle(rng)
    rm = bundle.row_map
    brdf = make_random_tensor(rng, invalid_frac=0.0)
    with pytest.raises(ShapeMismatchError, match=r"n_theta_h=4.*n_theta_h=8"):
        measure_brdf(make_random_tensor(rng, res=BrdfResolution(4, 4, 4)),
                     SupportSet(indices=[0]), bundle)
    with pytest.raises(IndexOutOfRangeError):
        measure_brdf(brdf, SupportSet(indices=[]), bundle)
    with pytest.raises(IndexOutOfRangeError):
        measure_brdf(brdf, SupportSet(indices=[0, rm.n_valid]), bundle)
    with pytest.raises(IndexOutOfRangeError):
        measure_brdf(brdf, SupportSet(indices=[-1]), bundle)
    # only the support's cells must be valid
    mask = np.ones(rm.resolution.grid_size, dtype=bool)
    mask[rm.grid_indices[[3, 9]]] = False
    values = np.where(mask, brdf.values, -1.0)
    holey = type(brdf)(rm.resolution, values, mask)
    assert measure_brdf(holey, SupportSet(indices=[0, 4]), bundle).values.shape == (3, 2)
    with pytest.raises(InvalidSampleError,
                       match=rf"grid cell {rm.grid_indices[9]}, which support row 9"):
        measure_brdf(holey, SupportSet(indices=[0, 9, 3]), bundle)


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


def test_ridge_zero_eta_ill_conditioned_recovers_exact_solution(rng):
    # cond(D) = 1e7: the normal equations would square it to 1e14
    u, _ = np.linalg.qr(rng.standard_normal((30, 8)))
    v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    d = (u * np.logspace(0.0, -7.0, 8)) @ v.T
    x = rng.standard_normal((8, 3))
    for sol, want in ((ridge_solve(d, d @ x, 0.0), x),
                      (ridge_solve(d, d @ x[:, 0], 0.0), x[:, 0])):
        assert np.linalg.norm(sol - want) <= 1e-8 * np.linalg.norm(want)


def test_ridge_zero_eta_fewer_rows_than_atoms_is_singular(rng):
    with pytest.raises(SingularMatrixError):
        ridge_solve(rng.standard_normal((3, 5)), np.ones(3), 0.0)


def test_ridge_positive_eta_is_cholesky_of_normal_equations(rng):
    import scipy.linalg

    d = rng.standard_normal((12, 5))
    b = rng.standard_normal((12, 3))
    factor = scipy.linalg.cho_factor(d.T @ d + 2.5 * np.eye(5))
    assert np.array_equal(ridge_solve(d, b, 2.5), scipy.linalg.cho_solve(factor, d.T @ b))


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
    expect_linear, _ = log_relative_unmap(
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


@pytest.mark.parametrize("shift", [0.0, -3.0, -50.0])
def test_synthesize_matches_allocating_oracle(shift, rng):
    # shifts push some, or all, mapped values below the image of rho = 0
    bundle, _ = _trained_bundle(rng, k=4)
    pca = bundle.pca
    coeffs = rng.standard_normal((3, 4)) * 3.0
    coeffs[:, 0] += shift / np.abs(pca.atoms[:, 0]).mean()
    result = synthesize(pca, coeffs, bundle.reference, bundle.row_map)
    mapped, full, clamped = allocating_synthesize(pca, coeffs, bundle.reference,
                                                  bundle.row_map)
    assert result.mapped.values.tobytes() == mapped.tobytes()
    assert result.tensor.values.tobytes() == full.tobytes()
    assert result.clamped_fraction == clamped / (3 * bundle.row_map.n_valid)
    if shift == -50.0:
        assert result.clamped_fraction > 0.5
    elif shift == 0.0:
        assert result.clamped_fraction < 0.5


def test_reconstruct_reports_ridge_condition(rng):
    bundle, mapped = _trained_bundle(rng, count=8, k=5)
    support = somp_select(bundle.pca.inverse, bundle.pca.coeffs, SampleBudget(3))
    result = reconstruct_full(measure(mapped[0], support), bundle)
    svals = np.linalg.svd(bundle.pca.atoms[list(support.indices), :3], compute_uv=False)
    assert result.ridge_condition == pytest.approx(svals[0] / svals[-1], rel=1e-12)
    assert np.isnan(synthesize(bundle.for_budget(3).pca, result.coefficients,
                               bundle.reference, bundle.row_map).ridge_condition)


def test_reconstruct_and_write_peak_memory(tmp_path, rng):
    res = BrdfResolution(32, 32, 32)
    bundle, mapped = _trained_bundle(rng, count=6, k=5, res=res)
    samples = measure(mapped[0], SupportSet(indices=tuple(range(0, 50, 10))))
    del mapped
    out = tmp_path / "recon.binary"
    tensor_bytes = 3 * res.grid_size * 8
    tracemalloc.start()
    try:
        write_merl(reconstruct_full(samples, bundle).tensor, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read_merl(out).resolution == res
    # the mapped values, the unmapped copy and the tensor, then the tensor
    # and its stored copy; the whole-array temporaries of unmapping and
    # of gathering the cells to check or unscale them are gone
    assert peak < 3.6 * tensor_bytes, peak / tensor_bytes


def test_synthesize_rejects_short_coefficients(rng):
    bundle, _ = _trained_bundle(rng, k=4)
    with pytest.raises(ShapeMismatchError, match=r"expected \(3, 4\) coefficients"):
        synthesize(bundle.pca, rng.standard_normal((3, 2)), bundle.reference,
                   bundle.row_map)


@pytest.mark.parametrize("m", [1, 2, 5, 7, 8, 11])
@pytest.mark.parametrize("eta", [0.0, 40.0])
def test_reconstruct_matches_zero_padded_oracle(m, eta, rng):
    # m < k reads the m leading atoms of for_budget(m); the zero-padded
    # synthesis through all k atoms must give the same bytes
    res = BrdfResolution(8, 8, 16)
    bundle, mapped = _trained_bundle(rng, count=10, k=8, res=res)
    rows = rng.choice(bundle.pca.n_rows, size=m, replace=False)
    samples = measure(mapped[3], SupportSet(indices=[int(r) for r in rows]))
    result = reconstruct_full(samples, bundle, eta=eta)
    want_mapped, want_full, want_clamped = zero_padded_reconstruct(samples, bundle, eta)
    assert result.coefficients.shape == (3, min(m, 8))
    assert result.mapped.values.tobytes() == want_mapped.tobytes()
    assert result.tensor.values.tobytes() == want_full.tobytes()
    assert result.clamped_fraction == want_clamped / (3 * bundle.row_map.n_valid)


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
    rm = corpus_mask(b for _, b in corpus)
    bundle = train_bundle(*corpus_matrix([(s.material_id, b) for s, b in corpus], rm),
                          rm, 6)
    support = somp_select(bundle.pca.inverse, bundle.pca.coeffs, SampleBudget(6))
    result = reconstruct_full(measure_brdf(corpus[0][1], support, bundle), bundle)
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
