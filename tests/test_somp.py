import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sparsebrdf.somp as somp_mod
from sparsebrdf import dictionary, parallel
from sparsebrdf.dictionary import DictionaryBundle, load_bundle, save_bundle, train_bundle
from sparsebrdf.errors import (
    BudgetTooLargeError,
    CoherenceBoundError,
    ConfigError,
    IndexOutOfRangeError,
    RankCollapseError,
    UnmappedRowError,
    ZeroColumnError,
)
from sparsebrdf.evaluate import SyntheticCorpusSpec, load_corpus
from sparsebrdf.mapping import ReferenceBrdf
from sparsebrdf.merl import BrdfResolution, RowMap, corpus_matrix
from sparsebrdf.somp import (
    ErrorThreshold,
    SampleBudget,
    SupportSet,
    cumulative_coherence,
    direction_table,
    select_support,
    somp_residual_bound,
    somp_select,
    stop_rules,
    support_to_directions,
)

from conftest import normalized_select, planted_instance, toy_row_map
from oracles import (
    allocating_correlation_scores,
    atom_select,
    build_subsampling_operator,
    correlation_scores,
    exact_somp,
    full_scan_somp,
    normalized_columns,
    residual_update,
)


def test_atom_select_identity_correlation():
    dinv = np.eye(3)
    residual = np.array([[0.1, 0.0], [-2.5, 2.5], [1.0, 1.0]])
    assert atom_select(dinv, residual) == 1


def test_atom_select_tie_breaks_low_index():
    dinv = np.eye(4)
    residual = np.array([[1.0], [2.0], [2.0], [0.5]])
    assert atom_select(dinv, residual) == 1
    assert atom_select(dinv, residual, exclude=[1]) == 2


def test_atom_select_matches_exhaustive_scan(rng):
    for _ in range(10):
        dinv = rng.standard_normal((8, 16))
        residual = rng.standard_normal((8, 5))
        scores = [np.abs(dinv[:, i] @ residual).sum() for i in range(16)]
        assert atom_select(dinv, residual) == int(np.argmax(scores))


def test_residual_update_empty_support(rng):
    coeffs = rng.standard_normal((4, 7))
    out = residual_update(np.eye(4), [], coeffs)
    assert np.array_equal(out, coeffs)


def test_residual_update_full_span_is_zero(rng):
    dinv = rng.standard_normal((4, 9))
    coeffs = rng.standard_normal((4, 6))
    out = residual_update(dinv, [0, 2, 5, 8], coeffs)
    assert np.abs(out).max() < 1e-10


def test_residual_update_matches_lstsq_oracle(rng):
    dinv = rng.standard_normal((10, 30))
    coeffs = rng.standard_normal((10, 4))
    support = [3, 17, 29]
    out = residual_update(dinv, support, coeffs)
    basis = dinv[:, support]
    sol, *_ = np.linalg.lstsq(basis, coeffs, rcond=None)
    oracle = coeffs - basis @ sol
    assert np.allclose(out, oracle, atol=1e-10)
    # projected residual is orthogonal to the selected columns
    assert np.abs(basis.T @ out).max() < 1e-8 * np.linalg.norm(coeffs)


def test_residual_update_rank_collapse(rng):
    col = rng.standard_normal(6)
    dinv = np.stack([col, col * (1 + 1e-15), rng.standard_normal(6)], axis=1)
    with pytest.raises(RankCollapseError):
        residual_update(dinv, [0, 1], np.eye(6))


def test_somp_identity_orders_by_row_energy():
    coeffs = np.zeros((6, 3))
    coeffs[2] = [0.5, 0.5, 0.5]
    coeffs[5] = [2.0, -2.0, 2.0]
    support = somp_select(np.eye(6), coeffs, SampleBudget(2))
    assert support.indices == [5, 2]
    assert support.residual_history[-1] < 1e-12


def test_somp_threshold_stops_at_span(rng):
    # tall dictionary: random columns are near-orthogonal, so the greedy
    # provably locks onto the generating span
    dinv = rng.standard_normal((32, 40))
    chosen = [4, 11, 17]
    coeffs = dinv[:, chosen] @ rng.standard_normal((3, 5))
    support = somp_select(dinv, coeffs, ErrorThreshold(1e-10, max_iters=10))
    assert len(support) == 3
    assert set(support.indices) == set(chosen)
    assert support.residual_history[-1] <= 1e-10


def test_somp_threshold_max_iters_above_min_k_n_stops_there(rng):
    # no pick after min(k, n) can widen the span, so a larger max_iters
    # stops where the default cap does instead of collapsing the rank
    dinv = rng.standard_normal((4, 12))
    coeffs = rng.standard_normal((4, 6))
    capped = somp_select(dinv, coeffs, ErrorThreshold(0.0))
    assert len(capped) == 4
    for max_iters in (4, 5, 100):
        assert somp_select(dinv, coeffs, ErrorThreshold(0.0, max_iters)) == capped
    assert len(somp_select(dinv, coeffs, ErrorThreshold(0.0, 3))) == 3


def test_somp_threshold_zero_signal():
    support = somp_select(np.eye(4), np.zeros((4, 2)), ErrorThreshold(0.0))
    assert support.indices == []


def test_somp_budget_too_large():
    with pytest.raises(BudgetTooLargeError):
        somp_select(np.eye(4), np.ones((4, 2)), SampleBudget(5))
    with pytest.raises(BudgetTooLargeError):
        SampleBudget(0)


@pytest.mark.parametrize("m_values, threshold, max_iters, rules", [
    (None, None, None, (SampleBudget(4), SampleBudget(6))),
    ((3,), None, None, (SampleBudget(3),)),
    (None, 0.5, 7, (ErrorThreshold(0.5, 7),)),
    ((), 0.5, None, (ErrorThreshold(0.5),)),
], ids=["default", "budget", "threshold", "threshold-empty-m"])
def test_stop_rules(m_values, threshold, max_iters, rules):
    assert stop_rules(m_values, threshold, max_iters, default=(4, 6)) == rules


@pytest.mark.parametrize("m_values, threshold, max_iters, error, message", [
    ((5,), 2.0, None, ConfigError, "m and threshold are two stop rules for one run"),
    (None, None, 3, ConfigError, "max_iters needs threshold"),
    ((), None, None, ConfigError, "at least one sample count required"),
    ((3, 0), None, None, BudgetTooLargeError, "sample budget must be >= 1, got 0"),
    ((5, 3, 5), None, None, ConfigError, r"each sample count may appear once, got \[5, 3, 5\]"),
    (None, -1.0, None, ConfigError, "threshold must be >= 0"),
], ids=["m-threshold", "max-iters", "no-m", "m-0", "m-repeat", "threshold-neg"])
def test_stop_rules_refuse(m_values, threshold, max_iters, error, message):
    with pytest.raises(error, match=message):
        stop_rules(m_values, threshold, max_iters, default=(4,))


def test_select_support_refuses_a_budget_above_k(rng):
    dinv = rng.standard_normal((3, 20))
    pca = type("Pca", (), {"n_atoms": 3, "inverse": dinv, "coeffs": np.eye(3)})
    assert len(select_support(pca, SampleBudget(3))) == 3
    with pytest.raises(BudgetTooLargeError, match="budget 4 exceeds the dictionary's 3"):
        select_support(pca, SampleBudget(4))


@pytest.fixture(scope="module")
def trained_pca():
    """The k = 10 dictionary of 12 synthetic 8^3 materials (seed 42)."""
    spec = SyntheticCorpusSpec(seed=42, count=12, resolution=BrdfResolution(8, 8, 8))
    corpus, row_map = load_corpus(None, spec)
    return train_bundle(*corpus_matrix(corpus, row_map), row_map, 10).pca


def test_trained_coefficients_have_orthonormal_rows(trained_pca):
    coeffs = trained_pca.coeffs
    assert np.abs(coeffs @ coeffs.T - np.eye(coeffs.shape[0])).max() <= 1e-13


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_support_leaves_the_residual_sqrt_k_minus_m(data, trained_pca):
    # S = V_k^T has orthonormal rows, so projecting it off any m-dimensional
    # span leaves sqrt(k - m), whichever rows span it
    pca = trained_pca
    k = pca.n_atoms
    m = data.draw(st.integers(1, k))
    rows = data.draw(st.lists(st.integers(0, pca.n_rows - 1), min_size=m, max_size=m,
                              unique=True))
    assume(np.linalg.cond(pca.inverse[:, rows]) < 1e8)  # the rows span m dimensions
    residual = residual_update(pca.inverse, rows, pca.coeffs)
    assert abs(np.linalg.norm(residual) - math.sqrt(k - m)) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(eps2=st.floats(0.05, 9.95).filter(lambda e: 0.05 <= e % 1.0 <= 0.95))
def test_threshold_stops_at_k_minus_floor_of_its_square(eps2, trained_pca):
    # eps^2 is kept off the integers, where sqrt(k - m) and eps tie to roundoff
    k = trained_pca.n_atoms
    support = select_support(trained_pca, ErrorThreshold(math.sqrt(eps2)))
    assert len(support) == k - math.floor(eps2)
    expected = [math.sqrt(k - i) for i in range(1, len(support) + 1)]
    assert np.allclose(support.residual_history, expected, rtol=0.0, atol=1e-13)


def test_somp_planted_support_smoke():
    recovered = 0
    for seed in range(10):
        dinv, coeffs, truth = planted_instance(seed)
        support = somp_select(dinv, coeffs, SampleBudget(5))
        if set(support.indices) == truth:
            recovered += 1
    assert recovered >= 9


def test_somp_residual_history_non_increasing(rng):
    dinv = rng.standard_normal((12, 40))
    coeffs = rng.standard_normal((12, 6))
    support = somp_select(dinv, coeffs, SampleBudget(10))
    hist = np.array([np.linalg.norm(coeffs)] + support.residual_history)
    assert np.all(np.diff(hist) <= 1e-10 * hist[0])


def test_somp_deterministic_and_exact_update_agrees(rng):
    dinv = rng.standard_normal((10, 50))
    coeffs = rng.standard_normal((10, 7))
    a = somp_select(dinv, coeffs, SampleBudget(6))
    b = somp_select(dinv, coeffs, SampleBudget(6))
    c = exact_somp(dinv, coeffs, 6)
    assert a.indices == b.indices == c.indices
    assert a.residual_history == b.residual_history
    assert np.allclose(a.residual_history, c.residual_history, atol=1e-10)


def test_somp_orthogonality_invariant(rng):
    dinv = rng.standard_normal((9, 25))
    coeffs = rng.standard_normal((9, 4))
    support = somp_select(dinv, coeffs, SampleBudget(5))
    residual = residual_update(dinv, support.indices, coeffs)
    sel = dinv[:, support.indices]
    assert np.abs(sel.T @ residual).max() <= 1e-8 * np.linalg.norm(coeffs)


def test_somp_greedy_step_optimality(rng):
    dinv = rng.standard_normal((8, 30))
    coeffs = rng.standard_normal((8, 5))
    support = somp_select(dinv, coeffs, SampleBudget(4))
    picked = []
    for j in support.indices:
        residual = residual_update(dinv, picked, coeffs)
        scores = np.abs(dinv.T @ residual).sum(axis=1)
        scores[picked] = -np.inf
        assert j == int(np.argmax(scores))
        picked.append(j)


@pytest.mark.parametrize("block", [7, 64, 1 << 14], ids=lambda b: f"block-{b}")
def test_normalized_scan_is_the_same_for_c_and_f_order_inverses(block, trained_pca,
                                                                  monkeypatch):
    # a dictionary lays atoms in any layout out atom-major, so both
    # normalized scans divide a C-order inverse as the whole-copy oracle does
    import sparsebrdf.somp as somp_mod

    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", block)
    dinv_c = trained_pca.inverse
    dinv_f = np.asfortranarray(dinv_c)
    assert dinv_f.flags.f_contiguous and dinv_c.flags.c_contiguous
    assert np.array_equal(normalized_columns(dinv_f), normalized_columns(dinv_c))
    for stop in (SampleBudget(4), SampleBudget(10), ErrorThreshold(2.5)):
        want = full_scan_somp(dinv_f, trained_pca.coeffs, stop, normalize_atoms=True)
        for dinv in (dinv_f, dinv_c):
            got = normalized_select(dinv, trained_pca.coeffs, stop)
            assert got.indices == want.indices, stop
            assert got.residual_history == want.residual_history, stop


def test_f_order_inverse_scores_as_its_c_order_copy(rng, monkeypatch):
    # somp_select reads a C-order copy of an inverse in another layout, and a
    # dictionary lays its atoms out atom-major: F-order sub-blocks of a
    # 16 384-column block score thousands of its columns differently in the
    # last bit at this k and t
    monkeypatch.setattr(parallel, "_WORKERS", 1)  # one scorer, calls in order
    score_block = somp_mod._score_block
    calls = []

    def recording(cols, residual, buf, out):
        score_block(cols, residual, buf, out)
        calls[-1].append(out.copy())

    monkeypatch.setattr(somp_mod, "_score_block", recording)
    k, t, n = 20, 12, 20_000
    dinv = rng.standard_normal((k, n))
    coeffs = rng.standard_normal((k, t))
    for normalize in (False, True):
        calls.clear()
        for layout in (np.asfortranarray, np.ascontiguousarray):
            calls.append([])
            select = normalized_select if normalize else somp_select
            select(layout(dinv), coeffs, SampleBudget(5))
        f_scores, c_scores = calls
        assert len(f_scores) == len(c_scores) > 5, normalize
        for i, (f, c) in enumerate(zip(f_scores, c_scores)):
            assert np.array_equal(f, c), (normalize, i, int(np.sum(f != c)))


def test_loaded_dictionary_selects_as_the_trained_one(trained_pca, tmp_path):
    # both derived inverses are C-ordered, and every support is the same
    n = trained_pca.n_rows
    save_bundle(DictionaryBundle(trained_pca, toy_row_map(n), ReferenceBrdf(np.ones(n)), ()),
                tmp_path)
    loaded = load_bundle(tmp_path).pca
    assert loaded.inverse.flags.c_contiguous and trained_pca.inverse.flags.c_contiguous
    for normalize in (False, True):
        for stop in (SampleBudget(6), ErrorThreshold(2.5)):
            assert (select_support(loaded, stop, normalize)
                    == select_support(trained_pca, stop, normalize)), (stop, normalize)


def test_normalized_scan_holds_no_copy_of_the_inverse(rng, monkeypatch):
    # k = 20 atoms of 2^16 rows in 32 scan blocks (the full grid has 67): the
    # raw inverse beside the normalized one would be another 10 MiB, and an
    # F-order copy to sum the norms over another
    import sparsebrdf.somp as somp_mod

    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 2048)
    k, n = 20, 1 << 16
    pca = dictionary.PcaDictionary(np.zeros(n), rng.standard_normal((k, n)).T,
                                   rng.standard_normal((k, 6)), np.linspace(2.0, 1.0, k))
    tracemalloc.start()
    try:
        support = select_support(pca, SampleBudget(3), normalize_atoms=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "inverse" not in vars(pca)  # the raw inverse was never derived
    # the normalized inverse, the bounds' n-vectors and a few blocks
    assert peak < 1.4 * 8 * k * n, peak / (8 * k * n)
    assert support == full_scan_somp(pca.inverse, pca.coeffs, SampleBudget(3),
                                     normalize_atoms=True)


def test_somp_normalize_toggle_runs(rng):
    dinv = rng.standard_normal((6, 20)) * rng.uniform(0.1, 10, size=20)
    coeffs = rng.standard_normal((6, 3))
    plain = somp_select(dinv, coeffs, SampleBudget(3))
    scaled = normalized_select(dinv, coeffs, SampleBudget(3))
    assert len(plain) == len(scaled) == 3


def test_subsampling_operator_basic():
    op = build_subsampling_operator(SupportSet(indices=[0]), 3)
    assert op.apply(np.array([7.0, 8.0, 9.0])).tolist() == [7.0]
    op = build_subsampling_operator(SupportSet(indices=[2, 0]), 3)
    assert op.apply(np.array([7.0, 8.0, 9.0])).tolist() == [9.0, 7.0]


def test_subsampling_operator_matrix_and_slicing(rng):
    d = rng.standard_normal((10, 4))
    support = SupportSet(indices=[7, 1, 4])
    op = build_subsampling_operator(support, 10)
    assert np.array_equal(op.apply(d), d[[7, 1, 4]])
    assert np.array_equal(op.as_matrix() @ d, d[[7, 1, 4]])


def test_subsampling_operator_errors():
    with pytest.raises(IndexOutOfRangeError):
        build_subsampling_operator(SupportSet(indices=[3]), 3)
    op = build_subsampling_operator(SupportSet(indices=[1]), 3)
    with pytest.raises(IndexOutOfRangeError):
        op.apply(np.zeros(4))


def test_support_set_rejects_duplicates():
    with pytest.raises(ValueError):
        SupportSet(indices=[1, 1])


def test_support_to_directions_identity_map():
    res = BrdfResolution(90, 90, 180)
    row_map = RowMap(res, np.arange(res.grid_size, dtype=np.int64))
    support = SupportSet(indices=[0, 5])
    dirs = support_to_directions(support, row_map)
    assert len(dirs) == 2
    th, td, pd = dirs[0].degrees()
    assert round(th) == 0 and round(td) == 0 and round(pd) == 0
    with pytest.raises(UnmappedRowError):
        support_to_directions(SupportSet(indices=[res.grid_size]), row_map)


def test_direction_table_format():
    res = BrdfResolution(90, 90, 180)
    row_map = RowMap(res, np.arange(res.grid_size, dtype=np.int64))
    dirs = support_to_directions(SupportSet(indices=[0, 100000]), row_map)
    table = direction_table(dirs)
    lines = table.splitlines()
    assert lines[0].split() == ["theta_h", "theta_d", "phi_d"]
    assert len(lines) == 3


def test_cumulative_coherence_orthonormal():
    assert cumulative_coherence(np.eye(5), 1) == 0.0
    assert cumulative_coherence(np.eye(5), 3) == 0.0


def test_cumulative_coherence_duplicate_column():
    col = np.array([1.0, 2.0, 3.0])
    dinv = np.stack([col, col, np.array([0.0, 0.0, 1.0])], axis=1)
    assert abs(cumulative_coherence(dinv, 1) - 1.0) < 1e-12


def test_cumulative_coherence_zero_column():
    dinv = np.zeros((3, 3))
    dinv[:, 0] = 1.0
    with pytest.raises(ZeroColumnError):
        cumulative_coherence(dinv, 1)


def test_cumulative_coherence_matches_bruteforce(rng):
    dinv = rng.standard_normal((8, 16))
    unit = dinv / np.linalg.norm(dinv, axis=0)
    gram = np.abs(unit.T @ unit)
    np.fill_diagonal(gram, 0.0)
    for m in (1, 2, 5, 15):
        expect = max(np.sort(gram[i])[::-1][:m].sum() for i in range(16))
        assert abs(cumulative_coherence(dinv, m) - expect) < 1e-12


def test_chunked_scan_matches_unchunked(rng, monkeypatch):
    import sparsebrdf.somp as somp_mod

    dinv = rng.standard_normal((6, 100))
    coeffs = rng.standard_normal((6, 4))
    whole = somp_select(dinv, coeffs, SampleBudget(5))
    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 7)
    pieces = somp_select(dinv, coeffs, SampleBudget(5))
    assert whole.indices == pieces.indices
    mu_whole = {m: cumulative_coherence(dinv, m) for m in (3, 99)}
    # 7-row correlation blocks
    monkeypatch.setattr(somp_mod, "_COHERENCE_BLOCK_BYTES", 7 * 8 * 100)
    for m, mu in mu_whole.items():
        assert abs(cumulative_coherence(dinv, m) - mu) < 1e-15


@pytest.mark.parametrize("block", [7, 100, 16384])
def test_buffered_scan_matches_allocating_scan(rng, monkeypatch, block):
    import sparsebrdf.somp as somp_mod

    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", block)
    residual = rng.standard_normal((6, 5))
    # C-order and F-order dinv: every dictionary derives the former, and
    # somp_select takes either
    for dinv in (rng.standard_normal((6, 100)), np.asfortranarray(rng.standard_normal((6, 100)))):
        scores = correlation_scores(dinv, residual)
        assert np.array_equal(scores, allocating_correlation_scores(dinv, residual, block))
        # the library's sub-blocks give the whole blocks' bits; at width 33 a
        # 100-column block leaves one column over
        for sub in (8, 16, 33, 1152):
            monkeypatch.setattr(somp_mod, "_SUB_BLOCK", sub)
            buf = np.empty((2 * sub - 1, 5))
            sub_scores = np.empty(100)
            for start in range(0, 100, block):
                stop = min(start + block, 100)
                somp_mod._score_block(dinv[:, start:stop], residual, buf,
                                      sub_scores[start:stop])
            assert np.array_equal(sub_scores, scores), sub


def test_residual_bound_values():
    assert somp_residual_bound(0.0, 3, 4, 1.0) == pytest.approx(math.sqrt(13.0))
    assert somp_residual_bound(0.25, 2, 4, 1.0) == pytest.approx(5.0)
    assert somp_residual_bound(0.25, 2, 4, 0.0) == 0.0
    with pytest.raises(CoherenceBoundError):
        somp_residual_bound(0.5, 2, 4, 1.0)


# (scoring sub-block width, worker count) pairs every pruned scan runs at
SCAN_LAYOUTS = [(sub, workers) for sub in (8, 16) for workers in (1, 2, 3)]


def assert_matches_full_scan(dinv, coeffs, stop, normalize_atoms=False):
    """The bound-pruned scan of somp_select, or with normalized atoms of
    select_support, picks what the full scan picks, bit for bit, or fails
    as it does, at every layout of SCAN_LAYOUTS, and scores the same blocks
    at each; returns the pruned support of the first."""
    select = normalized_select if normalize_atoms else somp_select
    try:
        want = full_scan_somp(dinv, coeffs, stop, normalize_atoms)
    except RankCollapseError:
        want = None
    # select_support refuses the empty support of a threshold at ||coeffs||
    refused = RankCollapseError if want is None else (
        ConfigError if normalize_atoms and not want.indices else None)
    supports = []
    for sub, workers in SCAN_LAYOUTS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(somp_mod, "_SUB_BLOCK", sub)
            mp.setattr(parallel, "_WORKERS", workers)
            if refused:
                with pytest.raises(refused):
                    select(dinv, coeffs, stop)
                continue
            got = select(dinv, coeffs, stop)
        assert got.indices == want.indices, (sub, workers)
        assert got.residual_history == want.residual_history, (sub, workers)
        assert got.blocks_scored <= got.blocks_total
        assert got.blocks_scored == (supports or [got])[0].blocks_scored, (sub, workers)
        supports.append(got)
    return supports[0] if supports else None


def tied_instance(rng, k=6, n=40, t=4):
    """Small-integer dinv, so that many scores tie exactly, with exact and
    sign-flipped duplicates of columns placed in other 7-column blocks."""
    dinv = rng.integers(-2, 3, size=(k, n)).astype(float)
    for a, b in ((1, 8), (3, 38), (13, 20), (6, 7)):
        dinv[:, b] = dinv[:, a] if b % 2 else -dinv[:, a]
    coeffs = rng.integers(-3, 4, size=(k, t)).astype(float)
    return dinv, coeffs


def test_pruned_scan_matches_full_scan_on_planted_ties(monkeypatch):
    import sparsebrdf.somp as somp_mod

    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 7)
    for seed in range(30):
        dinv, coeffs = tied_instance(np.random.default_rng(seed))
        for m in (1, 3, 6):
            assert_matches_full_scan(dinv, coeffs, SampleBudget(m))
            assert_matches_full_scan(dinv, coeffs, SampleBudget(m), normalize_atoms=True)
        assert_matches_full_scan(np.asfortranarray(dinv), coeffs, SampleBudget(6))


def test_pruned_scan_matches_full_scan_normalized(rng, monkeypatch):
    import sparsebrdf.somp as somp_mod

    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 7)
    for _ in range(10):
        dinv = rng.standard_normal((8, 60)) * rng.uniform(0.01, 100.0, size=60)
        coeffs = rng.standard_normal((8, 5))
        assert_matches_full_scan(dinv, coeffs, SampleBudget(8), normalize_atoms=True)


def test_pruned_scan_matches_full_scan_threshold_mode(rng, monkeypatch):
    import sparsebrdf.somp as somp_mod

    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 7)
    for _ in range(10):
        dinv = rng.standard_normal((8, 50))
        coeffs = rng.standard_normal((8, 6))
        for eps in (0.0, 0.5 * np.linalg.norm(coeffs)):
            for max_iters in (None, 3):
                assert_matches_full_scan(dinv, coeffs, ErrorThreshold(eps, max_iters))
                assert_matches_full_scan(dinv, coeffs, ErrorThreshold(eps, max_iters),
                                         normalize_atoms=True)
    # coefficients in the span of three columns from three blocks: the
    # residual drops below the threshold after they are picked
    dinv = rng.standard_normal((32, 40))
    coeffs = dinv[:, [4, 11, 17]] @ rng.standard_normal((3, 5))
    support = assert_matches_full_scan(dinv, coeffs, ErrorThreshold(1e-10, 10))
    assert sorted(support.indices) == [4, 11, 17]


def test_pruned_scan_zero_residual_picks_lowest_index(monkeypatch):
    import sparsebrdf.somp as somp_mod

    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 7)
    dinv = np.random.default_rng(0).standard_normal((5, 30))
    # every score ties at 0; each pick takes the lowest unselected column
    support = assert_matches_full_scan(dinv, np.zeros((5, 3)), SampleBudget(4))
    assert support.indices == [0, 1, 2, 3]
    assert support.blocks_scored == support.blocks_total


def test_pruned_scan_matches_full_scan_past_the_span(monkeypatch):
    import sparsebrdf.somp as somp_mod

    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 7)
    # coefficients in the span of r columns, with more columns in that span:
    # after r picks every score is roundoff, which only the slack covers
    for seed in range(150):
        rng = np.random.default_rng(seed)
        k, n, t, r = 6, int(rng.integers(8, 30)), 3, int(rng.integers(1, 5))
        dinv = rng.standard_normal((k, n))
        span = rng.choice(n, size=r, replace=False)
        others = np.setdiff1d(np.arange(n), span)
        for j in rng.choice(others, size=4, replace=False):
            dinv[:, j] = dinv[:, span] @ rng.standard_normal(r)
        coeffs = dinv[:, span] @ rng.standard_normal((r, t))
        for normalize in (False, True):
            assert_matches_full_scan(dinv, coeffs, SampleBudget(r + 2), normalize)


def test_pruned_scan_matches_full_scan_with_zero_inverse_rows(rng, monkeypatch):
    import sparsebrdf.somp as somp_mod

    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 7)
    for _ in range(10):
        # the rows of a zero singular value: sigma_max of the coefficients is
        # carried by the rest, and the last picks collapse
        dinv = rng.standard_normal((6, 45))
        dinv[4:] = 0.0
        coeffs = rng.standard_normal((6, 5))
        for m in (2, 4, 5):
            assert_matches_full_scan(dinv, coeffs, SampleBudget(m))
            assert_matches_full_scan(dinv, coeffs, SampleBudget(m), normalize_atoms=True)


def test_pruned_scan_skips_blocks_of_small_columns(rng, monkeypatch):
    import sparsebrdf.somp as somp_mod

    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 7)
    # column norms fall tenfold per block: the norm bound rules out all but
    # the first block
    dinv = rng.standard_normal((6, 70)) * 10.0 ** -(np.arange(70) // 7)
    coeffs = rng.standard_normal((6, 4))
    support = assert_matches_full_scan(dinv, coeffs, SampleBudget(3))
    assert support.blocks_total == 30
    assert support.blocks_scored < 10


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 7), n=st.integers(1, 40),
       t=st.integers(1, 6), block=st.integers(1, 12), m=st.integers(1, 7),
       integer=st.booleans(), normalize=st.booleans(), threshold=st.booleans(),
       fortran=st.booleans())
def test_pruned_scan_matches_full_scan_property(seed, k, n, t, block, m, integer,
                                                normalize, threshold, fortran):
    import sparsebrdf.somp as somp_mod

    rng = np.random.default_rng(seed)
    if integer:
        dinv = rng.integers(-1, 2, size=(k, n)).astype(float)
        coeffs = rng.integers(-2, 3, size=(k, t)).astype(float)
    else:
        dinv = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, size=n)
        coeffs = rng.standard_normal((k, t))
    if fortran:  # somp_select takes any layout; a dictionary's is C-ordered
        dinv = np.asfortranarray(dinv)
    stop = (ErrorThreshold(0.1 * np.linalg.norm(coeffs)) if threshold
            else SampleBudget(min(m, k, n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(somp_mod, "_SCAN_BLOCK", block)
        assert_matches_full_scan(dinv, coeffs, stop, normalize)


def test_multi_block_pick_and_advance_allocate_no_n_vector(rng, monkeypatch):
    # after set-up, a pick over several blocks and the bound's downdate work
    # in the scan's buffers, over a raw or a unit-column inverse; what is
    # allocated is of the blocks' count, below one n-vector of 1 MiB
    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 8192)
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    k, n, t = 4, 1 << 17, 3
    dinv = rng.standard_normal((k, n))
    coeffs = rng.standard_normal((k, t))
    for normalize in (False, True):
        scanned = normalized_columns(dinv) if normalize else dinv
        with somp_mod._BoundedScan(scanned, coeffs) as scan:
            assert scan.keeps_bounds
            tracemalloc.start()
            try:
                j = scan.pick(coeffs, [])
                basis = dinv[:, [j]] / np.linalg.norm(dinv[:, j])
                scan.advance(basis, coeffs - basis @ (basis.T @ coeffs))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 8 * n, (normalize, peak)


def test_multi_block_scan_runs_on_workers_and_leaves_none(rng, monkeypatch):
    # the scan's workers score blocks, and are joined when somp_select
    # returns or raises
    scorers = set()
    score_block = somp_mod._score_block

    def recording(*args):
        scorers.add(threading.get_ident())
        score_block(*args)

    monkeypatch.setattr(somp_mod, "_score_block", recording)
    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 7)
    monkeypatch.setattr(somp_mod, "_SUB_BLOCK", 2)
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    before = set(threading.enumerate())
    dinv = rng.standard_normal((6, 45))
    coeffs = rng.standard_normal((6, 5))
    somp_select(dinv, coeffs, SampleBudget(4))
    assert len(scorers) == 2 and threading.get_ident() in scorers
    assert set(threading.enumerate()) == before
    dinv[4:] = 0.0  # rank 4: the fifth pick collapses
    with pytest.raises(RankCollapseError):
        somp_select(dinv, coeffs, SampleBudget(5))
    assert set(threading.enumerate()) == before
    # a lone block is scored on the calling thread
    scorers.clear()
    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 45)
    somp_select(dinv, coeffs, SampleBudget(4))
    assert scorers == {threading.get_ident()}


def test_only_a_multi_block_scan_pins_blas(rng, monkeypatch):
    threads = [4]
    calls = []

    def put(count):
        calls.append(count)
        threads[0] = count

    monkeypatch.setattr(parallel, "_openblas_thread_calls", lambda: (lambda: threads[0], put))
    dinv = rng.standard_normal((6, 45))
    coeffs = rng.standard_normal((6, 5))
    somp_select(dinv, coeffs, SampleBudget(3))
    assert calls == []
    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 7)
    somp_select(dinv, coeffs, SampleBudget(3))
    assert calls == [1, 4]


def test_scan_workers_under_rapid_switching_pick_as_one(rng, monkeypatch):
    # more workers than cores, switching threads every microsecond: workers
    # write disjoint slices of the scores and of nu2, so a lost or crossed
    # update would change a pick, the residual or the blocks scored
    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 256)
    monkeypatch.setattr(somp_mod, "_SUB_BLOCK", 16)
    dinv = rng.standard_normal((8, 4000)) * rng.uniform(0.1, 10.0, size=4000)
    coeffs = rng.standard_normal((8, 6))
    monkeypatch.setattr(parallel, "_WORKERS", 1)
    selects = (somp_select, normalized_select)
    want = [select(dinv, coeffs, SampleBudget(8)) for select in selects]
    monkeypatch.setattr(parallel, "_WORKERS", 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for select, expected in zip(selects, want):
            got = select(dinv, coeffs, SampleBudget(8))
            assert got == expected and got.blocks_scored == expected.blocks_scored
    finally:
        sys.setswitchinterval(interval)


def test_inverse_and_starting_norms_are_derived_on_the_scan_workers(rng, monkeypatch):
    # over more than one scan block, and more than one row block, a
    # dictionary's inverse and the bound's starting column norms are derived
    # in column ranges cut at multiples of 8, one per worker: their bits are
    # one thread's, and the raw and the normalized supports are the full
    # scan's
    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 64)
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 64)
    k, n = 6, 1003
    atoms = rng.standard_normal((k, n)).T
    sigma = np.array([3.0, 2.0, 1.5, 0.7, 0.3, 0.0])
    coeffs = rng.standard_normal((k, 5))
    safe = np.where(sigma > 0.0, sigma, 1.0)[:, None]
    want = atoms.T / safe * np.where(sigma[:, None] > 0.0, 1.0 / safe, 0.0)
    supports = {normalize: full_scan_somp(want, coeffs, SampleBudget(4), normalize)
                for normalize in (False, True)}
    threads = set()
    run = parallel._run

    def recording(pool, task, cuts):
        def recorded(*piece):
            threads.add(threading.get_ident())
            task(*piece)

        run(pool, recorded, cuts)

    monkeypatch.setattr(parallel, "_run", recording)
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "_WORKERS", workers)
        pca = dictionary.PcaDictionary(np.zeros(n), atoms, coeffs, sigma)
        threads.clear()
        assert np.array_equal(pca.inverse, want), workers
        assert threading.get_ident() in threads and (len(threads) > 1) == (workers > 1)
        with somp_mod._BoundedScan(pca.inverse, coeffs) as scan:
            assert np.array_equal(scan.nu2, np.einsum("ij,ij->j", want, want)), workers
        for normalize, support in supports.items():
            assert select_support(pca, SampleBudget(4), normalize) == support, workers
    # a lone block's inverse is derived on the calling thread
    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", n)
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 1024)
    threads.clear()
    assert np.array_equal(dictionary.PcaDictionary(np.zeros(n), atoms, coeffs,
                                                   sigma).inverse, want)
    assert threads == {threading.get_ident()}


def test_bound_downdate_bits_do_not_depend_on_workers(rng, monkeypatch):
    # the bound GEMV's column ranges start at multiples of 8, so each g_j,
    # and so nu2_j, is what one GEMV over all n gives; a cut elsewhere
    # changes some g_j in the last bit
    monkeypatch.setattr(somp_mod, "_SCAN_BLOCK", 512)
    k, n = 20, 5003
    dinv = rng.standard_normal((k, n))
    coeffs = rng.standard_normal((k, 6))
    q = rng.standard_normal((k, 1))
    q /= np.linalg.norm(q)
    for normalize in (False, True):
        scanned = normalized_columns(dinv) if normalize else dinv
        states = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "_WORKERS", workers)
            with somp_mod._BoundedScan(scanned, coeffs) as scan:
                scan.advance(q, coeffs - q @ (q.T @ coeffs))
                states.append(np.concatenate([scan._g, scan.nu2]))  # g_j^2 and nu2_j
        assert all(np.array_equal(state, states[0]) for state in states[1:]), normalize
