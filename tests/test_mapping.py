import math

import numpy as np
import pytest

from sparsebrdf.errors import (
    ConfigError,
    EmptyCorpusError,
    InconsistentCorpusError,
    InvalidSampleError,
    ProvenanceMismatchError,
    ShapeMismatchError,
)
from sparsebrdf.mapping import (
    MappedBrdf,
    ReferenceBrdf,
    compute_reference,
    log_relative_map,
    log_relative_unmap,
)
from sparsebrdf.merl import BrdfResolution, BrdfTensor, corpus_mask

from conftest import make_random_tensor
from oracles import allocating_log_relative_map, stacked_reference, validity_mask

RES = BrdfResolution(8, 8, 8)


def _constant_tensor(value):
    n = RES.grid_size
    return BrdfTensor(RES, np.full((3, n), float(value)), np.ones(n, dtype=bool))


def test_reference_single_constant():
    brdf = _constant_tensor(0.5)
    rm = validity_mask(brdf)
    ref = compute_reference([brdf], rm)
    assert np.all(ref.values == 0.5)


def test_reference_is_median():
    tensors = [_constant_tensor(v) for v in (0.1, 0.2, 0.9)]
    rm = validity_mask(tensors[0])
    ref = compute_reference(tensors, rm)
    assert np.all(ref.values == 0.2)


def test_reference_floor():
    brdf = _constant_tensor(0.0)
    rm = validity_mask(brdf)
    ref = compute_reference([brdf], rm)
    assert np.all(ref.values == 1e-6)


def test_reference_mean_statistic():
    tensors = [_constant_tensor(v) for v in (0.1, 0.2, 0.9)]
    rm = validity_mask(tensors[0])
    ref = compute_reference(tensors, rm, statistic="mean")
    assert np.allclose(ref.values, (0.1 + 0.2 + 0.9) / 3)


@pytest.mark.parametrize("statistic", ["median", "mean"])
@pytest.mark.parametrize("count", [2, 3])  # 6 and 9 channels: even and odd medians
@pytest.mark.parametrize("block", [7, None])  # many row blocks, or one
def test_reference_blocks_match_stacked_oracle(rng, monkeypatch, statistic, count, block):
    from sparsebrdf import mapping, parallel

    if block is not None:
        # each block's statistic taken from copies of 3 rows, then of 1
        monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", block)
        monkeypatch.setattr(mapping, "_REFERENCE_COPY_BYTES", 3 * 3 * count * 8)
    tensors = [make_random_tensor(rng, res=RES, invalid_frac=0.1) for _ in range(count)]
    rm = corpus_mask(tensors)
    assert rm.n_valid % 7 != 0  # the last block is a partial one
    ref = compute_reference(iter(tensors), rm, epsilon=2e-3, statistic=statistic)
    oracle = stacked_reference(tensors, rm, 2e-3, statistic)
    assert np.array_equal(ref.values, oracle.values)
    assert ref.key == oracle.key


def test_reference_key_matches_tobytes_formula(rng):
    import hashlib

    values = rng.uniform(0.1, 1.0, size=40)[::2]  # a strided view
    ref = ReferenceBrdf(values, 2e-3)
    digest = hashlib.sha256()
    digest.update(np.float64(2e-3).tobytes())
    digest.update(np.ascontiguousarray(values).tobytes())
    assert ref.key == digest.hexdigest()[:16]


def test_reference_settings_are_checked_before_the_corpus_is_read():
    def unread():
        raise AssertionError("the training corpus was read")
        yield

    rm = validity_mask(_constant_tensor(1.0))
    with pytest.raises(ConfigError, match="unknown statistic 'mode'"):
        compute_reference(unread(), rm, statistic="mode")
    with pytest.raises(ConfigError, match="epsilon"):
        compute_reference(unread(), rm, epsilon=0.0)


def test_reference_empty_corpus():
    rm = validity_mask(_constant_tensor(1.0))
    with pytest.raises(EmptyCorpusError):
        compute_reference([], rm)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [4, 10])
def test_reference_rejects_other_resolution(rng, n):
    # a coarser tensor has fewer cells than the row map reaches, a finer one
    # has other cells at the same indices
    tensors = [make_random_tensor(rng, res=RES, invalid_frac=0.1) for _ in range(2)]
    rm = corpus_mask(tensors)
    other = make_random_tensor(rng, res=BrdfResolution(n, n, n), invalid_frac=0.1)
    with pytest.raises(InconsistentCorpusError, match=f"BRDF 1 has resolution .*{n}"):
        compute_reference([tensors[0], other, tensors[1]], rm)


def test_map_zero_at_reference():
    brdf = _constant_tensor(0.37)
    rm = validity_mask(brdf)
    ref = compute_reference([brdf], rm)
    mapped = log_relative_map(brdf, ref, rm)
    assert np.all(mapped.values == 0.0)


def test_map_hand_value_at_zero():
    # rho = 0, rho_ref = 1e-6, eps = 1e-3
    brdf = _constant_tensor(0.0)
    rm = validity_mask(brdf)
    ref = compute_reference([brdf], rm)
    mapped = log_relative_map(brdf, ref, rm)
    expect = math.log(1e-3 / (1e-3 + 1e-6))
    assert np.allclose(mapped.values, expect, rtol=1e-12)
    assert abs(expect + 9.995003330835332e-4) < 1e-15


def test_unmap_inverts_map(rng):
    brdf = make_random_tensor(rng, res=RES, invalid_frac=0.1)
    rm = validity_mask(brdf)
    ref = compute_reference([brdf], rm)
    mapped = log_relative_map(brdf, ref, rm)
    rho, _ = log_relative_unmap(mapped, ref)
    true = brdf.values[:, rm.grid_indices]
    assert np.allclose(rho, true, rtol=1e-12, atol=1e-15)


def test_unmap_zero_gives_reference():
    brdf = _constant_tensor(0.3)
    rm = validity_mask(brdf)
    ref = compute_reference([brdf], rm)
    mapped = MappedBrdf(np.zeros((3, rm.n_valid)), ref.key)
    rho, clamped = log_relative_unmap(mapped, ref)
    assert np.allclose(rho, 0.3)
    assert clamped == 0


def test_unmap_clamps_at_zero():
    brdf = _constant_tensor(0.3)
    rm = validity_mask(brdf)
    ref = compute_reference([brdf], rm)
    mapped = MappedBrdf(np.full((3, rm.n_valid), -50.0), ref.key)
    rho, clamped = log_relative_unmap(mapped, ref)
    assert np.all(rho == 0.0)
    assert clamped == rho.size


def test_map_is_strictly_increasing():
    ref = ReferenceBrdf(np.full(4, 0.2))
    rho = np.linspace(0.0, 3.0, 50)
    mapped = np.log((rho + ref.epsilon) / (ref.values[0] + ref.epsilon))
    assert np.all(np.diff(mapped) > 0.0)


def test_map_shape_mismatch():
    brdf = _constant_tensor(0.5)
    rm = validity_mask(brdf)
    ref = ReferenceBrdf(np.full(rm.n_valid - 1, 0.5))
    with pytest.raises(ShapeMismatchError):
        log_relative_map(brdf, ref, rm)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [4, 10])
def test_map_rejects_other_resolution(rng, n):
    tensors = [make_random_tensor(rng, res=RES, invalid_frac=0.1) for _ in range(2)]
    rm = corpus_mask(tensors)
    ref = compute_reference(tensors, rm)
    other = make_random_tensor(rng, res=BrdfResolution(n, n, n), invalid_frac=0.1)
    with pytest.raises(ShapeMismatchError, match="BRDF has resolution .* row map has"):
        log_relative_map(other, ref, rm)


@pytest.mark.filterwarnings("error")
def test_map_rejects_invalid_row_map_cell(rng):
    # a tensor invalid at cells the row map holds is refused, naming the
    # first such row, rather than mapped into NaNs
    tensors = [make_random_tensor(rng, res=RES, invalid_frac=0.1) for _ in range(2)]
    rm = corpus_mask(tensors)
    ref = compute_reference(tensors, rm)
    mask = tensors[0].mask.copy()
    mask[rm.grid_indices[[9, 4]]] = False
    holey = BrdfTensor(RES, np.where(mask, tensors[0].values, -1.0), mask)
    with pytest.raises(InvalidSampleError,
                       match=rf"grid cell {rm.grid_indices[4]}, which support row 4 "):
        log_relative_map(holey, ref, rm)


def test_unmap_provenance_mismatch():
    ref_a = ReferenceBrdf(np.full(4, 0.5))
    ref_b = ReferenceBrdf(np.full(4, 0.6))
    mapped = MappedBrdf(np.zeros((3, 4)), ref_a.key)
    with pytest.raises(ProvenanceMismatchError):
        log_relative_unmap(mapped, ref_b)


def test_map_in_place_matches_allocating_oracle(rng):
    # reflectance over eleven decades, zeros included, against a median
    # reference of the same corpus
    tensors = []
    for _ in range(4):
        values = 10.0 ** rng.uniform(-8.0, 3.0, size=(3, RES.grid_size))
        values[:, rng.random(RES.grid_size) < 0.05] = 0.0
        tensors.append(BrdfTensor(RES, values, np.ones(RES.grid_size, dtype=bool)))
    rm = corpus_mask(tensors)
    ref = compute_reference(tensors, rm, epsilon=1e-3)
    for b in tensors:
        mapped = log_relative_map(b, ref, rm)
        oracle = allocating_log_relative_map(b, ref, rm)
        assert mapped.values.tobytes() == oracle.values.tobytes()
        assert mapped.provenance == oracle.provenance
