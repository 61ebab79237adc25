import ast
import graphlib
import hashlib
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sparsebrdf import dictionary, mapping, parallel
from sparsebrdf.dictionary import (
    DictionaryBundle,
    PcaDictionary,
    TrainingMatrix,
    assemble_training_matrix,
    load_bundle,
    save_bundle,
    train_bundle,
    train_pca,
)
from sparsebrdf.errors import (
    BundleFormatError,
    EmptyCorpusError,
    InconsistentCorpusError,
    InvalidKError,
    SingularMatrixError,
)
from sparsebrdf.mapping import (
    ReferenceBrdf,
    compute_reference,
    log_relative_map,
)
from sparsebrdf.merl import BrdfResolution, RowMap, corpus_mask, corpus_matrix
from sparsebrdf.somp import SampleBudget, select_support, support_record

from conftest import make_random_tensor, toy_row_map
from oracles import (
    dictionary_pseudo_inverse,
    full_copy_train_pca,
    stacked_reference,
    stacked_training_matrix,
)


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


def _trained_bundle(rng, count, k, res=BrdfResolution(8, 8, 8)):
    """The bundle train-dict trains from count random tensors."""
    tensors = [make_random_tensor(rng, res=res, invalid_frac=0.05) for _ in range(count)]
    rm = corpus_mask(tensors)
    ids = [f"m{i}" for i in range(count)]
    return train_bundle(*corpus_matrix(list(zip(ids, tensors)), rm), rm, k)


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
    assert matrix.entries.shape == (rm.n_valid, 3)
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
    trained = _trained_bundle(rng, 4, 5)
    pca, rm, ids = trained.pca, trained.row_map, trained.material_ids
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


def _saved_bundle(rng, directory, count, k):
    trained = _trained_bundle(rng, count, k)
    pca, rm, ids = trained.pca, trained.row_map, trained.material_ids
    bundle = DictionaryBundle(pca, rm, ReferenceBrdf(np.full(rm.n_valid, 0.25)), tuple(ids))
    save_bundle(bundle, directory)
    return bundle


def test_loaded_bundle_survives_overwrite(tmp_path, rng):
    # save_bundle renames new files over the old ones, so a bundle loaded
    # before keeps mapping its own files rather than a truncated one
    directory = tmp_path / "bundle"
    old = _saved_bundle(rng, directory, 4, 3)
    loaded = load_bundle(directory)
    arrays = (loaded.pca.mean, loaded.pca.atoms, loaded.pca.coeffs, loaded.pca.sigma,
              loaded.reference.values, loaded.row_map.grid_indices)
    assert all(type(a) is np.ndarray and not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        loaded.pca.atoms[0, 0] = 1.0
    new = _saved_bundle(rng, directory, 6, 5)
    assert load_bundle(directory).digest == new.digest != old.digest
    assert loaded.digest == old.digest
    assert np.array_equal(loaded.pca.atoms, old.pca.atoms)
    assert sorted(p.name for p in directory.iterdir()) == sorted(
        ["manifest.json"] + [f"{name}.bin" for name in
                             ("mean", "atoms", "coeffs", "sigma", "reference", "rows")])


@pytest.mark.parametrize("extra, loads", [(b"", True), (b"\0" * 7, True),
                                          (b"\0" * 8, False)])
def test_bundle_array_length_counts_whole_elements(tmp_path, rng, extra, loads):
    # a trailing partial element is ignored, a whole extra element is not
    bundle = _saved_bundle(rng, tmp_path, 4, 3)
    with open(tmp_path / "sigma.bin", "ab") as fh:
        fh.write(extra)
    if loads:
        assert load_bundle(tmp_path).digest == bundle.digest
    else:
        with pytest.raises(BundleFormatError, match=r"sigma.bin: holds 4 elements, "
                           r"manifest shape \[3\] needs 3"):
            load_bundle(tmp_path)


def _assert_pca_identical(pca, oracle):
    """Every PcaDictionary array equal bit for bit, in the same memory order."""
    for name in ("mean", "atoms", "coeffs", "sigma", "inverse"):
        got, want = getattr(pca, name), getattr(oracle, name)
        assert np.array_equal(got, want), name
        assert got.flags.c_contiguous == want.flags.c_contiguous, name
        assert got.flags.f_contiguous == want.flags.f_contiguous, name


@pytest.mark.parametrize("as_generator", [False, True])
def test_assemble_matches_stack_oracle(rng, as_generator):
    mapped, ids, rm = _mapped_corpus(rng, 5)
    source = (mb for mb in mapped) if as_generator else mapped
    matrix = assemble_training_matrix(source, iter(ids), rm)
    oracle = stacked_training_matrix(mapped, ids, rm)
    assert np.array_equal(matrix.entries, oracle.entries)
    assert matrix.entries.flags.c_contiguous
    assert matrix.labels == oracle.labels
    assert matrix.provenance == oracle.provenance


@pytest.mark.parametrize("n_mapped, n_ids", [(3, 4), (4, 3), (1, 0)])
def test_assemble_count_mismatch_either_way(rng, n_mapped, n_ids):
    mapped, ids, rm = _mapped_corpus(rng, 4)
    for source in (mapped[:n_mapped], (mb for mb in mapped[:n_mapped])):
        with pytest.raises(InconsistentCorpusError, match="one material id per"):
            assemble_training_matrix(source, ids[:n_ids], rm)


def test_assemble_empty_corpus(rng):
    _, _, rm = _mapped_corpus(rng, 1)
    with pytest.raises(InconsistentCorpusError, match="empty training corpus"):
        assemble_training_matrix(iter([]), [], rm)


def test_assemble_rejects_wrong_shape(rng):
    mapped, ids, rm = _mapped_corpus(rng, 2)
    short = mapped[1].__class__(mapped[1].values[:, :-1].copy(), mapped[1].provenance)
    with pytest.raises(InconsistentCorpusError, match="has shape"):
        assemble_training_matrix(iter([mapped[0], short]), ids, rm)


@pytest.mark.parametrize("n, t, ks", [
    (100, 10, (1, 2, 5, 9)),
    (3000, 24, (1, 2, 7, 20, 23)),
    (40000, 36, (1, 3, 20, 35)),
])
def test_train_pca_matches_full_copy_oracle(rng, n, t, ks):
    entries = np.exp(rng.standard_normal((n, t))) * rng.standard_normal((1, t))
    matrix = TrainingMatrix(entries, tuple(("m", "R") for _ in range(t)),
                            toy_row_map(n), "ref")
    for k in ks:
        _assert_pca_identical(train_pca(matrix, k), full_copy_train_pca(matrix, k))


@pytest.mark.parametrize("order", ["C", "F"])
def test_train_pca_leaves_entries_unchanged(rng, order):
    entries = np.asarray(np.exp(rng.standard_normal((500, 12))), order=order)
    before = entries.tobytes(order="A")
    matrix = TrainingMatrix(entries, tuple(("m", "R") for _ in range(12)),
                            toy_row_map(500), "ref")
    train_pca(matrix, 5)
    assert matrix.entries is entries and not entries.flags.writeable
    assert entries.tobytes(order="A") == before


def test_train_pca_rank_deficient_matches_oracle(rng):
    base = rng.standard_normal((200, 4))
    col = rng.standard_normal((200, 1))
    # 4 independent columns repeated, and identical columns, which centering
    # annihilates so that every singular value is an exact zero
    for entries, zeros in ((np.hstack([base, base, base]), False),
                           (np.tile(col, (1, 12)), True)):
        matrix = TrainingMatrix(entries, tuple(("m", "R") for _ in range(12)),
                                toy_row_map(200), "ref")
        for k in (1, 3, 6, 11):
            pca = train_pca(matrix, k)
            assert np.all(pca.sigma == 0.0) == zeros
            _assert_pca_identical(pca, full_copy_train_pca(matrix, k))
            if not zeros:
                # centring leaves 3 independent columns; through the Gram
                # matrix the null directions read sigma ~ 2e-8 sigma_max
                assert np.all(pca.sigma[:3] > 0.0)
                assert not pca.sigma[3:].any()
                assert not pca.atoms[:, 3:].any()
                assert not pca.inverse[3:].any()


def test_training_forms_no_inverse(rng):
    mapped, ids, rm = _mapped_corpus(rng, 4)
    assert "inverse" not in vars(train_pca(assemble_training_matrix(mapped, ids, rm), 5))
    tensors = [make_random_tensor(rng, invalid_frac=0.0) for _ in range(3)]
    rm = corpus_mask(tensors)
    bundle = train_bundle(*corpus_matrix(list(zip("abc", tensors)), rm), rm, 4)
    assert "inverse" not in vars(bundle.pca)


def test_dictionary_holds_given_atoms_atom_major(rng):
    # (n, k) C-order atoms are copied atom-major; atom-major ones are held
    # as they are
    atoms = rng.standard_normal((50, 4))
    pca = PcaDictionary(rng.standard_normal(50), atoms, rng.standard_normal((4, 6)),
                        np.ones(4))
    assert np.array_equal(pca.atoms, atoms)
    assert pca.atoms.T.flags.c_contiguous and not pca.atoms.flags.c_contiguous
    atom_major = np.ascontiguousarray(atoms.T)
    held = PcaDictionary(pca.mean, atom_major.T, pca.coeffs, pca.sigma).atoms
    assert held.base is atom_major


def test_every_dictionary_is_atom_major_with_a_c_order_inverse(rng, tmp_path):
    bundle = _trained_bundle(rng, 4, 6)
    save_bundle(bundle, tmp_path)
    trained = train_pca(assemble_training_matrix(*_mapped_corpus(rng, 4)), 6)
    for pca in (bundle.pca, trained, load_bundle(tmp_path).pca):
        for k in (6, 3, 1):
            truncated = pca.truncate(k)
            assert truncated.atoms.T.flags.c_contiguous, k
            assert truncated.inverse.flags.c_contiguous, k


@pytest.mark.parametrize("statistic", ["median", "mean"])
def test_train_bundle_matches_oracle_pipeline(rng, monkeypatch, statistic):
    # 7-row blocks, the last of them ragged, split between 1, 2 and 3
    # workers, each block's reference taken from copies of 3 rows at a time:
    # the fill, the pass and the sign fix give the oracles' bits
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 7)
    monkeypatch.setattr(mapping, "_REFERENCE_COPY_BYTES", 3 * 15 * 8)
    res = BrdfResolution(8, 8, 8)
    tensors = [make_random_tensor(rng, res=res, invalid_frac=0.05) for _ in range(5)]
    rm = RowMap(res, corpus_mask(tensors).grid_indices[:-1])
    assert rm.n_valid % 7  # 398 rows
    ids = [f"m{i}" for i in range(5)]
    ref = stacked_reference(tensors, rm, 2e-3, statistic)
    matrix = stacked_training_matrix(
        [log_relative_map(b, ref, rm) for b in tensors], ids, rm)
    want = full_copy_train_pca(matrix, 6)
    digest = DictionaryBundle(want, rm, ref, tuple(ids)).digest
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "_WORKERS", workers)
        bundle = train_bundle(*corpus_matrix(list(zip(ids, tensors)), rm), rm, 6,
                              epsilon=2e-3, statistic=statistic)
        assert np.array_equal(bundle.reference.values, ref.values), workers
        _assert_pca_identical(bundle.pca, want)
        assert bundle.digest == digest, workers


def test_one_block_training_starts_no_thread_and_more_leave_none(rng, monkeypatch):
    # a matrix of one block is filled and trained on the calling thread;
    # one of several blocks on both workers, which are joined on return
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    tensors = [make_random_tensor(rng, invalid_frac=0.05) for _ in range(5)]
    rm = corpus_mask(tensors)
    corpus = [(f"m{i}", b) for i, b in enumerate(tensors)]
    before = set(threading.enumerate())

    def no_pool(*_):
        raise AssertionError("a one-block matrix started a pool")

    with monkeypatch.context() as mp:
        mp.setattr(parallel, "ThreadPoolExecutor", no_pool)
        one = train_bundle(*corpus_matrix(corpus, rm), rm, 5)
    assert set(threading.enumerate()) == before

    runs = []
    run = parallel._run

    def recording(pool, task, cuts):
        threads = set()
        runs.append((len(cuts) - 1, threads))

        def recorded(*piece):
            threads.add(threading.get_ident())
            task(*piece)

        run(pool, recorded, cuts)

    monkeypatch.setattr(parallel, "_run", recording)
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 7)
    many = train_bundle(*corpus_matrix(corpus, rm), rm, 5)
    # the fill's five gathers and two group writes, the pass and the sign fix
    assert len(runs) == 5 + 2 + 1 + 1, len(runs)
    assert all(pieces == 2 and len(threads) == 2 and threading.get_ident() in threads
               for pieces, threads in runs)
    assert set(threading.enumerate()) == before
    assert np.array_equal(many.reference.values, one.reference.values)
    _assert_pca_identical(many.pca, one.pca)


def test_training_workers_under_rapid_switching_train_as_one(rng, monkeypatch):
    # more workers than cores, switching threads every microsecond: workers
    # write disjoint rows of the matrix, the group, the reference, the means
    # and the per-block sums, so a lost or crossed update would change a bit
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 7)
    tensors = [make_random_tensor(rng, invalid_frac=0.05) for _ in range(5)]
    rm = corpus_mask(tensors)
    corpus = [(f"m{i}", b) for i, b in enumerate(tensors)]
    monkeypatch.setattr(parallel, "_WORKERS", 1)
    want = train_bundle(*corpus_matrix(corpus, rm), rm, 5)
    monkeypatch.setattr(parallel, "_WORKERS", 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = train_bundle(*corpus_matrix(corpus, rm), rm, 5)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got.reference.values, want.reference.values)
    _assert_pca_identical(got.pca, want.pca)


@pytest.mark.parametrize("epsilon", [1e-3, 2e-2])
@pytest.mark.parametrize("statistic", ["median", "mean"])
def test_stage_functions_match_train_bundle(rng, statistic, epsilon):
    # the stage sequence the release criteria run gives the bundle train-dict
    # trains, bit for bit and in the same memory order
    tensors = [make_random_tensor(rng, invalid_frac=0.05) for _ in range(5)]
    rm = corpus_mask(tensors)
    ids = [f"m{i}" for i in range(5)]
    ref = compute_reference(tensors, rm, epsilon, statistic)
    matrix = assemble_training_matrix(
        [log_relative_map(b, ref, rm) for b in tensors], ids, rm)
    for k in (3, 5, 8):
        bundle = train_bundle(*corpus_matrix(list(zip(ids, tensors)), rm), rm, k,
                              epsilon=epsilon, statistic=statistic)
        assert bundle.reference.values.tobytes() == ref.values.tobytes()
        assert bundle.reference.key == matrix.provenance == ref.key
        _assert_pca_identical(train_pca(matrix, k), bundle.pca)


def test_train_bundle_peak_memory_bounded(rng):
    # 12 materials of 32^3: the training matrix is ~9 MB, far above the
    # interpreter's own allocations during the call
    res = BrdfResolution(32, 32, 32)
    tensors = [make_random_tensor(rng, res=res, invalid_frac=0.05) for _ in range(12)]
    rm = corpus_mask(tensors)
    corpus = [(f"m{i}", b) for i, b in enumerate(tensors)]
    matrix_bytes = rm.n_valid * 3 * len(corpus) * 8
    tracemalloc.start()
    try:
        bundle = train_bundle(*corpus_matrix(corpus, rm), rm, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bundle.pca.n_atoms == 10
    assert peak <= 3 * matrix_bytes, peak / matrix_bytes


def test_reference_copies_stay_small_at_a_paper_scale_fold(rng, monkeypatch):
    # 216 columns, as an 80-material fold trains on, in 8192-row blocks
    # split between 2 workers: a copy of a whole block would be 13.5 MiB per
    # worker, and each worker's copy is held to _REFERENCE_COPY_BYTES.  The
    # corpus matrix compute_reference gathers is the prebuilt one
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 8192)
    n, q = 20000, 216
    entries = rng.uniform(0.01, 1.0, (n, q))
    monkeypatch.setattr(mapping, "corpus_matrix", lambda corpus, row_map: (entries, []))
    row_map = toy_row_map(n)
    bound = 2 * mapping._REFERENCE_COPY_BYTES + (2 << 20)
    peak = _traced_peak(lambda: compute_reference(range(72), row_map))
    assert peak < bound, peak / bound
    peak = _traced_peak(
        lambda: train_bundle(entries, [f"m{i}" for i in range(72)], row_map, 4))
    assert peak < bound, peak / bound


def _tobytes_digest(bundle, chunk_bytes):
    """DictionaryBundle.digest computed serially through copies made by
    tobytes: SHA-256 over each saved array's shape (the atoms' as (k, n))
    and the SHA-256 of each piece of each of its rows, row by row, a 1-D
    array being one row, then epsilon."""
    h = hashlib.sha256()
    for arr in (bundle.pca.mean, bundle.pca.atoms.T, bundle.pca.coeffs,
                bundle.pca.sigma, bundle.row_map.grid_indices, bundle.reference.values):
        h.update(np.array(arr.shape, dtype="<i8").tobytes())
        step = max(1, chunk_bytes // arr.itemsize) * arr.itemsize
        for row in np.atleast_2d(arr):
            data = row.tobytes()
            for start in range(0, len(data), step):
                h.update(hashlib.sha256(data[start:start + step]).digest())
    h.update(np.float64(bundle.reference.epsilon).tobytes())
    return h.hexdigest()[:16]


def test_digest_matches_tobytes_formula(tmp_path, rng, monkeypatch):
    trained = _trained_bundle(rng, 4, 5)
    pca, rm, ids = trained.pca, trained.row_map, trained.material_ids
    bundle = DictionaryBundle(pca, rm, ReferenceBrdf(np.full(rm.n_valid, 0.25)),
                              tuple(ids))
    # atoms given atom-major are held as they are and hash alike
    atom_major = DictionaryBundle(
        PcaDictionary(pca.mean, np.ascontiguousarray(pca.atoms.T).T, pca.coeffs,
                      pca.sigma),
        rm, bundle.reference, tuple(ids))
    # strided rows, which no library-made bundle holds, hash alike too
    strided = DictionaryBundle(
        PcaDictionary(pca.mean, pca.atoms, np.asfortranarray(pca.coeffs), pca.sigma),
        rm, ReferenceBrdf(np.repeat(bundle.reference.values, 2)[::2]), tuple(ids))
    assert not strided.pca.coeffs.flags.c_contiguous
    assert not strided.reference.values.flags.c_contiguous
    save_bundle(bundle, tmp_path / "bundle")
    # one piece per row, then many pieces of a few elements each
    for chunk_bytes in (dictionary._DIGEST_CHUNK_BYTES, 100):
        monkeypatch.setattr(dictionary, "_DIGEST_CHUNK_BYTES", chunk_bytes)
        digests = []
        for b in (bundle, bundle.for_budget(2), atom_major, strided,
                  load_bundle(tmp_path / "bundle")):
            b = replace(b)  # a fresh object, whose digest is not cached
            assert b.digest == _tobytes_digest(b, chunk_bytes)
            digests.append(b.digest)
        assert digests[2] == digests[3] == digests[0]


def _random_bundle(rng, n, k=3, t=4):
    """A bundle of random arrays with n rows; the digest reads no more."""
    pca = PcaDictionary(rng.standard_normal(n), rng.standard_normal((n, k)),
                        rng.standard_normal((k, t)), np.sort(rng.random(k))[::-1].copy())
    return DictionaryBundle(pca, toy_row_map(n), ReferenceBrdf(rng.random(n) + 0.5), ())


@pytest.mark.parametrize("chunks", ["one", "exactly-c", "c-plus-one"])
def test_digest_is_the_same_at_any_worker_count(rng, monkeypatch, chunks):
    # 48 bytes hold 6 elements, so each n-long row (the 1-D arrays and each
    # of the 3 atoms) is one piece at n = 6, exactly c = 4 at n = 24, and
    # c + 1 at n = 25, the last one partial
    monkeypatch.setattr(dictionary, "_DIGEST_CHUNK_BYTES", 48)
    n = {"one": 6, "exactly-c": 24, "c-plus-one": 25}[chunks]
    bundle = _random_bundle(rng, n)
    digests = set()
    for workers in (1, 5):
        monkeypatch.setattr(parallel, "_WORKERS", workers)
        for b in (bundle, bundle.for_budget(2)):
            b = replace(b)
            assert b.digest == _tobytes_digest(b, 48)
            digests.add((b.pca.n_atoms, b.digest))
    assert len(digests) == 2


@pytest.mark.parametrize("n", [6, 25, 1000])
def test_loaded_digest_is_the_trained_one_at_any_worker_count(tmp_path, rng,
                                                              monkeypatch, n):
    # a bundle given C-order (n, k) atoms, which it holds atom-major, and the
    # loaded transpose of its atom-major file hash alike, whole and truncated
    monkeypatch.setattr(dictionary, "_DIGEST_CHUNK_BYTES", 48)
    bundle = _random_bundle(rng, n, k=5)
    save_bundle(bundle, tmp_path)
    assert np.fromfile(tmp_path / "atoms.bin").tobytes() == bundle.pca.atoms.T.tobytes()
    for workers in (1, 2, 5):
        monkeypatch.setattr(parallel, "_WORKERS", workers)
        loaded = load_bundle(tmp_path)
        assert not loaded.pca.atoms.flags.c_contiguous
        for m in (1, 3, 5):
            assert loaded.for_budget(m).digest == replace(bundle.for_budget(m)).digest


def test_digest_tells_shapes_apart(rng):
    # the same bytes in every array, with the coefficients read as (t, k)
    # instead of (k, t)
    bundle = _random_bundle(rng, 10, k=3, t=4)
    pca = bundle.pca
    other = replace(bundle, pca=PcaDictionary(pca.mean, pca.atoms,
                                              pca.coeffs.reshape(4, 3), pca.sigma))
    assert other.digest != bundle.digest


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_digest_copies_a_strided_truncation_a_chunk_at_a_time(rng, monkeypatch):
    chunk_bytes = 1 << 18
    monkeypatch.setattr(dictionary, "_DIGEST_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    n, m = 1 << 18, 4
    # given C-order (n, k) atoms, whose (n, m) truncation is a strided view
    # of the atom-major rows the dictionary holds
    bundle = _random_bundle(rng, n, k=8).for_budget(m)
    assert not bundle.pca.atoms.flags.c_contiguous
    peak = _traced_peak(lambda: bundle.digest)
    # a whole copy of the truncated atoms would be n * m * 8 bytes, 8 MiB
    assert peak <= 4 * chunk_bytes, peak / chunk_bytes


def test_loaded_truncation_is_hashed_with_no_copy(tmp_path, rng, monkeypatch):
    chunk_bytes = 1 << 18
    monkeypatch.setattr(dictionary, "_DIGEST_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    n, m = 1 << 18, 4
    save_bundle(_random_bundle(rng, n, k=8), tmp_path)
    bundle = load_bundle(tmp_path).for_budget(m)
    assert bundle.pca.atoms.T.flags.c_contiguous  # the file's first m rows
    peak = _traced_peak(lambda: bundle.digest)
    # one copied piece would be chunk_bytes; the threads' own allocations
    # take about a quarter of it
    assert peak < chunk_bytes / 2, peak / chunk_bytes


def test_save_bundle_transposes_through_a_bounded_buffer(tmp_path, rng, monkeypatch):
    chunk_bytes = 1 << 18
    monkeypatch.setattr(dictionary, "_DIGEST_CHUNK_BYTES", chunk_bytes)
    n, k = 1 << 18, 8
    # given C-order (n, k) atoms, which the file stores atom-major
    bundle = _random_bundle(rng, n, k=k)
    bundle.digest  # hashed before the save, as train-dict's manifest needs it
    peak = _traced_peak(lambda: save_bundle(bundle, tmp_path))
    # the transposed atoms would be n * k * 8 bytes, 16 MiB
    assert peak <= 2 * chunk_bytes, peak / chunk_bytes
    assert np.fromfile(tmp_path / "atoms.bin").tobytes() == bundle.pca.atoms.T.tobytes()
    assert load_bundle(tmp_path).digest == bundle.digest


def test_trained_bundle_is_hashed_and_saved_with_no_copy(tmp_path, rng, monkeypatch):
    chunk_bytes = 1 << 18
    monkeypatch.setattr(dictionary, "_DIGEST_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    n, k = 1 << 18, 8
    bundle = train_bundle(rng.random((n, 12)) + 0.5, ["a", "b", "c", "d"],
                          toy_row_map(n), k)
    truncated = bundle.for_budget(4)

    def hash_and_save():
        # the manifest needs the digest before the save, as train-dict's does
        bundle.digest, truncated.digest
        save_bundle(bundle, tmp_path)

    peak = _traced_peak(hash_and_save)
    # the bound a loaded bundle's digest keeps; a copy of the truncated
    # atoms would be n * 4 * 8 bytes, 8 MiB
    assert peak < chunk_bytes / 2, peak / chunk_bytes
    assert np.fromfile(tmp_path / "atoms.bin").tobytes() == bundle.pca.atoms.T.tobytes()
    assert load_bundle(tmp_path).digest == bundle.digest


def test_train_bundle_rejects_other_resolution_and_empty_corpus(rng):
    tensors = [make_random_tensor(rng, invalid_frac=0.0) for _ in range(3)]
    rm = corpus_mask(tensors)
    other = make_random_tensor(rng, res=BrdfResolution(4, 4, 4), invalid_frac=0.0)
    with pytest.raises(InconsistentCorpusError, match="resolution"):
        train_bundle(*corpus_matrix([("a", tensors[0]), ("b", other), ("c", tensors[1])],
                                    rm), rm, 2)
    with pytest.raises(EmptyCorpusError):
        train_bundle(*corpus_matrix([], rm), rm, 2)


@pytest.mark.parametrize("k", [6, 4, 1])
def test_loaded_inverse_matches_eager_formula(tmp_path, rng, k):
    trained = _trained_bundle(rng, 4, 6)
    pca, rm, ids = trained.pca, trained.row_map, trained.material_ids
    pca = PcaDictionary(pca.mean, pca.atoms, pca.coeffs,
                        np.concatenate([pca.sigma[:5], [0.0]]))
    bundle = DictionaryBundle(pca, rm, ReferenceBrdf(np.full(rm.n_valid, 0.25)), tuple(ids))
    save_bundle(bundle, tmp_path / "bundle")
    # the inverse load_bundle formed for every loaded bundle before it was
    # derived on first read; a truncated dictionary derives its own, which
    # holds the leading rows in C order, the order of the atom-major file
    loaded = load_bundle(tmp_path / "bundle").pca
    safe = np.where(loaded.sigma > 0.0, loaded.sigma, 1.0)
    u = loaded.atoms / safe
    eager = u.T * np.where(loaded.sigma > 0.0, 1.0 / safe, 0.0)[:, None]
    eager = np.ascontiguousarray(eager[:k])
    assert "inverse" not in vars(loaded)  # not formed on load
    inverse = loaded.truncate(k).inverse
    assert inverse.tobytes(order="A") == eager.tobytes(order="A")
    assert inverse.flags.f_contiguous == eager.flags.f_contiguous
    assert inverse.flags.c_contiguous == eager.flags.c_contiguous
    assert not inverse.flags.writeable
    assert not inverse[-1].any() if k == 6 else inverse[0].any()


def test_selection_and_record_never_derive_the_reference_key(tmp_path, rng):
    # select-samples loads a bundle, selects and records a support with no
    # mapped values, so the reference's hash of every value is never taken
    _saved_bundle(rng, tmp_path / "bundle", 4, 6)
    bundle = load_bundle(tmp_path / "bundle")
    support = select_support(bundle.for_budget(5).pca, SampleBudget(5))
    support_record(support, bundle, False)
    assert "key" not in vars(bundle.reference)
    assert bundle.reference.key == ReferenceBrdf(bundle.reference.values,
                                                 bundle.reference.epsilon).key
    assert "key" in vars(bundle.reference)


def test_package_imports_have_no_cycle():
    # every import of a package module, at module level or inside a function
    package = Path(dictionary.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for path in package.glob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if base in ("", "sparsebrdf"):  # from . import x
                    imported.update(alias.name for alias in node.names)
                elif node.level or base.startswith("sparsebrdf."):
                    imported.add(base.split(".")[-1])
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names
                                if alias.name.startswith("sparsebrdf."))
        graph[path.stem] = imported & modules
    assert graph["dictionary"] and graph["somp"] >= {"dictionary"}
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError
