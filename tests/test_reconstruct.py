import struct
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebrdf import parallel
from sparsebrdf.dictionary import PcaDictionary, load_bundle, save_bundle, train_bundle
from sparsebrdf.errors import (
    IndexOutOfRangeError,
    InvalidSampleError,
    MerlFormatError,
    ProvenanceMismatchError,
    ShapeMismatchError,
    SingularMatrixError,
)
from sparsebrdf.mapping import MappedBrdf, log_relative_map, log_relative_unmap, map_cells
from sparsebrdf.merl import (
    BrdfResolution,
    BrdfTensor,
    RowMap,
    corpus_mask,
    corpus_matrix,
    open_merl,
    read_merl,
    write_merl,
)
from sparsebrdf.reconstruct import (
    measure,
    reconstruct_full,
    ridge_fit,
    ridge_solve,
    synthesize,
    write_reconstruction,
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


def _trained_bundle(rng, count=6, k=4, res=BrdfResolution(8, 8, 8), inner=False):
    """A k-atom bundle trained over count random tensors, and their mapped
    values; inner leaves the grid's first and last cells out of its rows."""
    tensors = [make_random_tensor(rng, res=res, invalid_frac=0.05) for _ in range(count)]
    rm = corpus_mask(tensors)
    if inner:
        cells = rm.grid_indices
        rm = RowMap(res, cells[(cells > 0) & (cells < res.grid_size - 1)])
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
    # mapping the m support cells alone, as reconstruct does with map_cells,
    # gives the bytes of mapping the whole tensor and sampling it; the
    # materials span the synthetic models' range, specular peaks included
    corpus = [(spec.material_id, b)
              for spec, b in gen_corpus(7, 11, BrdfResolution(16, 16, 16))]
    row_map = corpus_mask(b for _, b in corpus)
    bundle = train_bundle(*corpus_matrix(corpus[:8], row_map), row_map, 6)
    n = bundle.pca.n_rows
    rows = {"m-1": [int(rng.integers(n))], "m-k": list(range(n - 6, n)),
            "random": [int(r) for r in rng.choice(n, size=11, replace=False)]}[support]
    for _, brdf in corpus[8:]:
        got = map_cells(brdf, bundle.reference, bundle.row_map, rows)
        want = measure(allocating_log_relative_map(brdf, bundle.reference, bundle.row_map),
                       SupportSet(indices=rows))
        assert got.tobytes() == want.values.tobytes()


def test_measure_brdf_errors(rng):
    # map_cells refuses a BRDF of another resolution and an invalid sampled
    # cell; ridge_fit refuses a support with no row or a row outside [0, n)
    bundle, _ = _trained_bundle(rng)
    rm, ref = bundle.row_map, bundle.reference
    brdf = make_random_tensor(rng, invalid_frac=0.0)
    with pytest.raises(ShapeMismatchError, match=r"n_theta_h=4.*n_theta_h=8"):
        map_cells(make_random_tensor(rng, res=BrdfResolution(4, 4, 4)), ref, rm, [0])
    for rows in ([], [0, rm.n_valid], [-1]):
        with pytest.raises(IndexOutOfRangeError):
            ridge_fit(np.zeros((3, len(rows))), SupportSet(indices=rows), bundle, 40.0)
    # only the support's cells must be valid
    mask = np.ones(rm.resolution.grid_size, dtype=bool)
    mask[rm.grid_indices[[3, 9]]] = False
    values = np.where(mask, brdf.values, -1.0)
    holey = type(brdf)(rm.resolution, values, mask)
    assert map_cells(holey, ref, rm, [0, 4]).shape == (3, 2)
    with pytest.raises(InvalidSampleError,
                       match=rf"grid cell {rm.grid_indices[9]}, which support row 9"):
        map_cells(holey, ref, rm, [0, 9, 3])


# doubles a measured file may hold at any cell: NaN, infinities, sentinels,
# signed zeros and subnormals
_ODD_DOUBLES = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -0.0, 0.0, 5e-324,
                                -5e-324, 2.2250738585072014e-308 / 3, 1e300])
_PARITY_RES = BrdfResolution(2, 3, 4)


@pytest.fixture(scope="module")
def parity_bundle():
    rng = np.random.default_rng(5)
    tensors = [make_random_tensor(rng, res=_PARITY_RES, invalid_frac=0.2)
               for _ in range(4)]
    rm = corpus_mask(tensors)
    return train_bundle(*corpus_matrix(list(enumerate(tensors)), rm), rm, 2)


@st.composite
def _measured_file(draw, row_map):
    """A MERL file's bytes and a support of row_map's rows.  Each part is
    mostly well formed, so that later checks are reached: the resolution,
    the support's range and odd doubles, often at the support's cells."""
    usual = st.integers(0, 3).map(bool)  # True three times in four
    res = _PARITY_RES if draw(usual) else draw(st.sampled_from(
        [BrdfResolution(2, 3, 5), BrdfResolution(4, 3, 2), BrdfResolution(1, 1, 1)]))
    n, n_valid = res.grid_size, row_map.n_valid
    span = (0, n_valid - 1) if draw(usual) else (-2, n_valid + 1)
    rows = draw(st.lists(st.integers(*span), min_size=1, max_size=4, unique=True))
    payload = np.random.default_rng(draw(st.integers(0, 3))).uniform(0.0, 1500.0, (3, n))
    cells = [int(row_map.grid_indices[r]) % n for r in rows if 0 <= r < n_valid]
    at = st.tuples(st.integers(0, 2), st.one_of(st.sampled_from(cells or [0]),
                                                st.integers(0, n - 1)))
    for (channel, cell), value in draw(st.lists(st.tuples(at, _ODD_DOUBLES), max_size=4)):
        payload[channel, cell] = value
    data = struct.pack("<3i", res.n_theta_h, res.n_theta_d, res.n_phi_d)
    data += payload.astype("<f8").tobytes()
    return data[:len(data) - draw(st.sampled_from([0, 0, 0, 8]))], rows


def _measured(read, path, rows, bundle):
    """reconstruct's samples from the file read, or its error's type and
    message: the file is read, the rows checked, then their cells mapped."""
    try:
        return map_cells(read(path), bundle.reference, bundle.row_map,
                         SupportSet(indices=rows).rows(bundle.row_map.n_valid))
    except Exception as exc:  # noqa: BLE001 - any error must match the oracle's
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_open_merl_measures_as_read_merl(data, parity_bundle):
    # the support-cell read against the whole-tensor one: bit-equal values,
    # or the same first error
    merl_bytes, rows = data.draw(_measured_file(parity_bundle.row_map))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.binary"
        path.write_bytes(merl_bytes)
        want = _measured(read_merl, path, rows, parity_bundle)
        got = _measured(open_merl, path, rows, parity_bundle)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


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


def _write_oracle(row_map, full, clamped, path) -> float:
    """write_merl of an oracle's (3, grid_size) values, as a tensor over the
    row map, to path, and its clamped share of the valid values: the file
    and the value write_reconstruction must give."""
    write_merl(BrdfTensor(row_map.resolution, full, row_map.mask()), path)
    return clamped / (3 * row_map.n_valid)


def test_synthesize_zero_coefficients(rng, tmp_path):
    bundle, _ = _trained_bundle(rng)
    zeros = np.zeros((3, bundle.pca.n_atoms))
    mapped = synthesize(bundle.pca, zeros, bundle.reference)
    assert np.allclose(mapped.values, bundle.pca.mean)
    expect_linear, _ = log_relative_unmap(
        MappedBrdf(np.tile(bundle.pca.mean, (3, 1)), bundle.reference.key),
        bundle.reference,
    )
    write_reconstruction(bundle, zeros, tmp_path / "zero.binary")
    got = read_merl(tmp_path / "zero.binary").values[:, bundle.row_map.grid_indices]
    assert np.allclose(got, expect_linear)


def test_synthesize_construction_identity(rng, tmp_path):
    bundle, _ = _trained_bundle(rng)
    coeffs = rng.standard_normal((3, bundle.pca.n_atoms))
    mapped = synthesize(bundle.pca, coeffs, bundle.reference)
    expect = bundle.pca.atoms @ coeffs.T + bundle.pca.mean[:, None]
    assert np.array_equal(mapped.values, expect.T)
    # cells outside the row map are written invalid
    write_reconstruction(bundle, coeffs, tmp_path / "recon.binary")
    assert np.array_equal(read_merl(tmp_path / "recon.binary").mask, bundle.row_map.mask())


@pytest.mark.parametrize("shift", [0.0, -3.0, -50.0])
def test_synthesize_matches_allocating_oracle(shift, rng, tmp_path):
    # shifts push some, or all, mapped values below the image of rho = 0
    bundle, _ = _trained_bundle(rng, k=4)
    pca = bundle.pca
    coeffs = rng.standard_normal((3, 4)) * 3.0
    coeffs[:, 0] += shift / np.abs(pca.atoms[:, 0]).mean()
    mapped = synthesize(pca, coeffs, bundle.reference)
    want_mapped, full, clamped = allocating_synthesize(pca, coeffs, bundle.reference,
                                                       bundle.row_map)
    assert mapped.values.tobytes() == want_mapped.tobytes()
    want = _write_oracle(bundle.row_map, full, clamped, tmp_path / "want.binary")
    got = write_reconstruction(bundle, coeffs, tmp_path / "got.binary")
    assert (tmp_path / "got.binary").read_bytes() == (tmp_path / "want.binary").read_bytes()
    assert got == want
    if shift == -50.0:
        assert got > 0.5
    elif shift == 0.0:
        assert got < 0.5


def test_synthesize_overflow_is_merl_format_error(rng):
    # the unmap overflows to +inf, which check_reflectance rejects, and numpy
    # warns of nothing
    bundle, _ = _trained_bundle(rng, k=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MerlFormatError) as caught:
            synthesize(bundle.pca, np.full((3, 4), 1e300), bundle.reference)
    assert str(caught.value) == "valid cells must hold finite nonnegative reflectance"


def test_reconstruct_reports_ridge_condition(rng):
    bundle, mapped = _trained_bundle(rng, count=8, k=5)
    support = somp_select(bundle.pca.inverse, bundle.pca.coeffs, SampleBudget(3))
    fit = ridge_fit(measure(mapped[0], support).values, support, bundle, 40.0)
    svals = np.linalg.svd(bundle.pca.atoms[list(support.indices), :3], compute_uv=False)
    assert fit.condition == pytest.approx(svals[0] / svals[-1], rel=1e-12)


def test_reconstruct_full_peak_memory(rng, monkeypatch):
    res = BrdfResolution(32, 32, 32)
    bundle, mapped = _trained_bundle(rng, count=6, k=5, res=res)
    samples = measure(mapped[0], SupportSet(indices=tuple(range(0, 50, 10))))
    del mapped
    mapped_bytes = 3 * bundle.row_map.n_valid * 8
    # in one block, the mapped values and the block's (3, n_valid) buffer,
    # with the unmap's (n,) temporaries; in 1024-row blocks split between 2
    # workers, as in test_write_reconstruction_builds_no_tensor, the mapped
    # values and one block's buffer per worker, not a whole-array copy to
    # unmap.  No (3, grid_size) buffer either way
    for block, workers, bound in ((1 << 16, 1, 2.6), (1024, 2, 1.4)):
        monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", block)
        monkeypatch.setattr(parallel, "_WORKERS", workers)
        tracemalloc.start()
        try:
            result = reconstruct_full(samples, bundle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.mapped.values.shape == (3, bundle.row_map.n_valid)
        assert peak < bound * mapped_bytes, (block, peak / mapped_bytes)


def test_synthesize_rejects_short_coefficients(rng):
    bundle, _ = _trained_bundle(rng, k=4)
    with pytest.raises(ShapeMismatchError, match=r"expected \(3, 4\) coefficients"):
        synthesize(bundle.pca, rng.standard_normal((3, 2)), bundle.reference)


@pytest.mark.parametrize("m", [1, 2, 5, 7, 8, 11])
@pytest.mark.parametrize("eta", [0.0, 40.0])
def test_reconstruct_matches_zero_padded_oracle(m, eta, rng, tmp_path):
    # m < k reads the m leading atoms of for_budget(m); the zero-padded
    # synthesis through all k atoms must give the same bytes, mapped and
    # written
    res = BrdfResolution(8, 8, 16)
    bundle, mapped = _trained_bundle(rng, count=10, k=8, res=res)
    rows = rng.choice(bundle.pca.n_rows, size=m, replace=False)
    samples = measure(mapped[3], SupportSet(indices=[int(r) for r in rows]))
    result = reconstruct_full(samples, bundle, eta=eta)
    want_mapped, want_full, want_clamped = zero_padded_reconstruct(samples, bundle, eta)
    assert result.coefficients.shape == (3, min(m, 8))
    assert result.mapped.values.tobytes() == want_mapped.tobytes()
    want = _write_oracle(bundle.row_map, want_full, want_clamped, tmp_path / "want.binary")
    got = write_reconstruction(bundle.for_budget(m), result.coefficients,
                               tmp_path / "got.binary")
    assert (tmp_path / "got.binary").read_bytes() == (tmp_path / "want.binary").read_bytes()
    assert got == want


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


def test_reconstruct_shape_contract(rng, tmp_path):
    res = BrdfResolution(8, 8, 8)
    bundle, mapped = _trained_bundle(rng, count=8, k=5, res=res)
    support = somp_select(bundle.pca.inverse, bundle.pca.coeffs, SampleBudget(5))
    samples = measure(mapped[0], support)
    result = reconstruct_full(samples, bundle)
    assert result.mapped.values.shape == (3, bundle.row_map.n_valid)
    write_reconstruction(bundle, result.coefficients, tmp_path / "recon.binary")
    written = read_merl(tmp_path / "recon.binary")
    assert written.values.shape == (3, res.grid_size)
    assert written.resolution == res
    assert ridge_fit(samples.values, support, bundle, 40.0).residuals.shape == (3,)


def test_reconstruct_full_merl_resolution(tmp_path):
    # measurement-grade resolution: ~1.1M valid rows, chunked scans engaged
    res = BrdfResolution(90, 90, 180)
    corpus = gen_corpus(3, 3, res)
    rm = corpus_mask(b for _, b in corpus)
    bundle = train_bundle(*corpus_matrix([(s.material_id, b) for s, b in corpus], rm),
                          rm, 6)
    support = somp_select(bundle.pca.inverse, bundle.pca.coeffs, SampleBudget(6))
    mapped = log_relative_map(corpus[0][1], bundle.reference, bundle.row_map)
    result = reconstruct_full(measure(mapped, support), bundle)
    assert result.mapped.values.shape == (3, bundle.row_map.n_valid)
    write_reconstruction(bundle, result.coefficients, tmp_path / "recon.binary")
    written = open_merl(tmp_path / "recon.binary")
    assert written.stored.shape == (3, 90 * 90 * 180)
    assert written.resolution == res


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


def _written_or_error(write, path):
    """The bytes write(path) writes and what it returns, or its error's type
    and message; a failed write must leave no file.  No errstate is set:
    the write must warn of no overflow itself."""
    try:
        result = write(path)
    except MerlFormatError as exc:
        assert not path.exists()
        return type(exc), str(exc)
    return path.read_bytes(), result


def _mapped_or_error(pca, coefficients, ref):
    """The bytes of synthesize's mapped values, or its error's type and
    message."""
    try:
        return synthesize(pca, coefficients, ref).values.tobytes()
    except MerlFormatError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("block", [1, 7, 8, 24, 1 << 15], ids=lambda b: f"block-{b}")
@pytest.mark.parametrize("loaded", [False, True], ids=["trained", "loaded"])
def test_write_reconstruction_matches_synthesize_and_write_merl(block, loaded, tmp_path,
                                                               rng, monkeypatch):
    # blocks of 8 * block rows, since block starts must be multiples of 8:
    # over the 331 rows (330 loaded), 8, 56, 64 and 192 give many blocks,
    # the last of them ragged, and 262144 one.  Split between 1, 2 and 3
    # workers, over a trained bundle's (n, k) atoms and a loaded bundle's
    # atom-major file, whose m < k truncation reads the file's first rows.
    # The loaded bundle's rows leave out the grid's first and last cells, so
    # the first and the last block fill invalid cells on both sides of the
    # valid ones
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 8 * block)
    bundle, _ = _trained_bundle(rng, count=8, k=5, inner=loaded)
    cells, grid_size = bundle.row_map.grid_indices, bundle.row_map.resolution.grid_size
    assert cells[0] > 0 and (cells[-1] < grid_size - 1) == loaded
    assert bundle.row_map.n_valid % (8 * block) or 8 * block > bundle.row_map.n_valid
    if loaded:
        save_bundle(bundle, tmp_path / "bundle")
        bundle = load_bundle(tmp_path / "bundle")
    # float buffers come NaN-filled, so a cell that no block writes shows in
    # the file, whatever memory np.empty would have reused
    empty = np.empty

    def nan_filled(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_filled)
    for m in (5, 3):
        cut = bundle.for_budget(m)
        pca = cut.pca
        draws = {"random": rng.standard_normal((3, m)) * 3.0,
                 "zero": np.zeros((3, m)),
                 "overflow": np.full((3, m), 1e300)}
        for shift in (-3.0, -50.0):  # some, then most, values clamp
            draws[f"clamp{shift}"] = draws["random"].copy()
            draws[f"clamp{shift}"][:, 0] += shift / np.abs(pca.atoms[:, 0]).mean()
        for name, coeffs in draws.items():
            with np.errstate(over="ignore", invalid="ignore"):
                mapped, full, clamped = allocating_synthesize(pca, coeffs, cut.reference,
                                                              cut.row_map)
            want = _written_or_error(lambda path: _write_oracle(cut.row_map, full, clamped, path),
                                     tmp_path / f"want-{m}-{name}.binary")
            # synthesize's mapped values, or the write's error
            want_mapped = want if want[0] is MerlFormatError else mapped.tobytes()
            for workers in (1, 2, 3):
                monkeypatch.setattr(parallel, "_WORKERS", workers)
                got = _written_or_error(lambda path: write_reconstruction(cut, coeffs, path),
                                        tmp_path / f"got-{m}-{name}-{workers}.binary")
                assert got == want, (m, name, workers)
                assert _mapped_or_error(pca, coeffs, cut.reference) == want_mapped, (
                    m, name, workers)
            if name == "overflow":
                assert want == (MerlFormatError,
                                "valid cells must hold finite nonnegative reflectance")
            elif name == "clamp-50.0":
                assert want[1] > 0.5


def test_write_reconstruction_builds_no_tensor(tmp_path, rng, monkeypatch):
    # 1024-row blocks, a thirty-second of the grid, near the share of a
    # full-grid file a 65 536-row block holds (a twenty-second); the last of
    # the 24148 rows ragged, split between 2 workers
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 1024)
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    res = BrdfResolution(32, 32, 32)
    bundle, mapped = _trained_bundle(rng, count=6, k=5, res=res)
    save_bundle(bundle, tmp_path / "bundle")
    bundle = load_bundle(tmp_path / "bundle")
    support = SupportSet(indices=tuple(range(0, 50, 10)))
    fit = ridge_fit(measure(mapped[0], support).values, support, bundle, 40.0)
    del mapped
    tensor_bytes = 3 * res.grid_size * 8
    tracemalloc.start()
    try:
        write_reconstruction(bundle, fit.coefficients, tmp_path / "recon.binary")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the one (3, grid_size) buffer of stored values, and one block's per
    # worker
    assert peak < 1.2 * tensor_bytes, peak / tensor_bytes


def test_write_reconstruction_overflow_in_last_piece_leaves_no_file_or_thread(
        tmp_path, rng, monkeypatch):
    # the unmap overflows and the check fails on a pool thread only: the
    # caller raises the check's error once the workers are joined, writes
    # nothing and restores OpenBLAS's thread count.  The workers keep the
    # caller's errstate, so with warnings as errors the overflow raises no
    # RuntimeWarning
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 8)
    blas = [4]
    puts = []

    def put(count):
        puts.append(count)
        blas[0] = count

    monkeypatch.setattr(parallel, "_openblas_thread_calls", lambda: (lambda: blas[0], put))
    trained, _ = _trained_bundle(rng, count=8, k=5)
    pca = trained.pca
    coeffs = rng.standard_normal((3, 5))
    before = set(threading.enumerate())
    for workers in (2, 3):
        monkeypatch.setattr(parallel, "_WORKERS", workers)
        last = parallel._row_cuts(pca.n_rows)[-2]
        assert last > 0
        mean = pca.mean.copy()
        mean[last:] = 1e3
        bundle = replace(trained, pca=PcaDictionary(mean, pca.atoms, pca.coeffs, pca.sigma))

        def oracle(path):
            with np.errstate(over="ignore", invalid="ignore"):
                _, full, clamped = allocating_synthesize(bundle.pca, coeffs, bundle.reference,
                                                         bundle.row_map)
            return _write_oracle(bundle.row_map, full, clamped, path)

        want = _written_or_error(oracle, tmp_path / f"want-{workers}.binary")
        assert want == (MerlFormatError, "valid cells must hold finite nonnegative reflectance")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _written_or_error(lambda path: write_reconstruction(bundle, coeffs, path),
                                    tmp_path / f"got-{workers}.binary")
        assert got == want, workers
        assert set(threading.enumerate()) == before
        assert puts == [1, 4], puts
        puts.clear()
        # synthesize runs the same pass, and fails as the write does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MerlFormatError) as caught:
                synthesize(bundle.pca, coeffs, bundle.reference)
        assert (type(caught.value), str(caught.value)) == want, workers
        assert set(threading.enumerate()) == before
        assert puts == [1, 4], puts
        puts.clear()


def test_one_block_reconstruction_starts_no_pool(tmp_path, rng, monkeypatch):
    bundle, _ = _trained_bundle(rng, count=8, k=5)
    coeffs = rng.standard_normal((3, 5))
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 8)
    many = write_reconstruction(bundle, coeffs, tmp_path / "many.binary")
    before = set(threading.enumerate())

    def no_pool(*_):
        raise AssertionError("a one-block reconstruction started a pool")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 1 << 16)
    one = write_reconstruction(bundle, coeffs, tmp_path / "one.binary")
    assert set(threading.enumerate()) == before
    assert one == many
    assert (tmp_path / "one.binary").read_bytes() == (tmp_path / "many.binary").read_bytes()


def test_ridge_fit_is_reconstruct_full_s(rng):
    bundle, mapped = _trained_bundle(rng, count=8, k=5)
    for m in (3, 5, 7):
        samples = measure(mapped[1], SupportSet(indices=tuple(range(2, 2 + 9 * m, 9))))
        fit = ridge_fit(samples.values, samples.support, bundle, 40.0)
        result = reconstruct_full(samples, bundle, 40.0)
        assert fit.coefficients.tobytes() == result.coefficients.tobytes()
        # the fit's diagnostics are those of the reconstruction's sampled rows
        rows = list(samples.support.indices)
        fitted = result.mapped.values[:, rows]
        np.testing.assert_allclose(fit.residuals,
                                   np.sum((samples.values - fitted) ** 2, axis=1), rtol=1e-9)
        assert fit.condition == pytest.approx(
            np.linalg.cond(bundle.for_budget(m).pca.atoms[rows]), rel=1e-12)
