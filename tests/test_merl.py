import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebrdf import merl, parallel
from sparsebrdf.errors import (
    DomainError,
    EmptyMaskError,
    IndexOutOfRangeError,
    MerlFormatError,
)
from sparsebrdf.evaluate import load_corpus
from sparsebrdf.merl import (
    MERL_SCALES,
    BrdfResolution,
    BrdfTensor,
    HalfAngleDirection,
    RowMap,
    bin_center_angles,
    corpus_mask,
    corpus_matrix,
    direction_to_index,
    index_to_direction,
    read_merl,
    write_merl,
)

from conftest import make_random_tensor
from oracles import (
    allocating_read_merl,
    gathering_tensor_check,
    per_channel_write_merl,
    per_material_corpus_matrix,
    row_of_grid,
    validity_mask,
)

RES8 = BrdfResolution(8, 8, 8)


def _write_raw(path, dims, payload):
    with open(path, "wb") as fh:
        fh.write(struct.pack("<3i", *dims))
        np.asarray(payload, dtype="<f8").tofile(fh)


def test_read_header_echo(tmp_path):
    n = 90 * 90 * 180
    path = tmp_path / "flat.binary"
    _write_raw(path, (90, 90, 180), np.full(3 * n, 750.0))
    brdf = read_merl(path)
    assert brdf.resolution == BrdfResolution(90, 90, 180)
    assert brdf.values.shape == (3, n)


def test_read_sentinel_preserved(tmp_path):
    n = RES8.grid_size
    payload = np.full((3, n), 10.0)
    payload[0, 5] = -1.0
    path = tmp_path / "b.binary"
    _write_raw(path, (8, 8, 8), payload.ravel())
    brdf = read_merl(path)
    assert not brdf.mask[5]
    assert brdf.values[0, 5] == -1.0
    assert brdf.mask.sum() == n - 1


def test_read_applies_scales(tmp_path):
    n = RES8.grid_size
    payload = np.full((3, n), 1500.0)
    path = tmp_path / "b.binary"
    _write_raw(path, (8, 8, 8), payload.ravel())
    brdf = read_merl(path)
    assert brdf.values[0, 0] == 1.0
    assert brdf.values[1, 0] == 1.15
    assert brdf.values[2, 0] == 1.66


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.binary"
    _write_raw(path, (0, 8, 8), [])
    with pytest.raises(MerlFormatError):
        read_merl(path)


def test_read_rejects_short_payload(tmp_path):
    path = tmp_path / "short.binary"
    _write_raw(path, (8, 8, 8), np.zeros(10))
    with pytest.raises(MerlFormatError):
        read_merl(path)


def _edge_payload(rng):
    """Stored doubles with every kind of cell the reader treats apart."""
    stored = rng.uniform(0.0, 1500.0, size=(3, RES8.grid_size))
    stored[0, 3] = np.nan  # NaN: masked, and written as the sentinel
    stored[1, 4] = -np.inf  # a negative kept verbatim
    stored[2, 5] = -2.5  # siblings of a negative get the sentinel
    stored[:, 6] = -0.0  # negative zero is valid
    stored[0, 7], stored[1, 7] = -3.0, -0.0
    stored[:, 8] = 5e-324  # subnormal
    stored[:, 9] = 0.0
    stored[1, 10] = 1e308  # scaled, stays finite
    return stored


@pytest.mark.parametrize("posinf", [False, True])
def test_read_merl_matches_allocating_reader(tmp_path, rng, posinf):
    stored = _edge_payload(rng)
    if posinf:
        stored[2, 11] = np.inf  # scales to +inf, which no valid cell may hold
    path = tmp_path / "edge.binary"
    _write_raw(path, (8, 8, 8), stored.ravel())
    if posinf:
        messages = []
        for reader in (read_merl, allocating_read_merl):
            with pytest.raises(MerlFormatError) as exc:
                reader(path)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0] == f"{path}: valid cells must hold finite nonnegative reflectance"
        return
    brdf, oracle = read_merl(path), allocating_read_merl(path)
    assert brdf.resolution == oracle.resolution
    assert brdf.values.tobytes() == oracle.values.tobytes()  # -0.0 included
    assert np.array_equal(brdf.mask, oracle.mask)
    assert not brdf.mask[[3, 4, 5, 7]].any() and brdf.mask[[6, 8, 9, 10]].all()
    rm = corpus_mask([path])
    assert rm.resolution == brdf.resolution
    assert np.array_equal(rm.mask(), brdf.mask)


@pytest.mark.parametrize("dims,payload,message", [
    ((0, 8, 8), [], "nonpositive header dims (0, 8, 8)"),
    ((8, 8, 8), np.zeros(10), "payload holds 10 doubles, expected 1536"),
    ((2, 2, 2), np.zeros(26), "payload holds 26 doubles, expected 24"),
    # a header-only file claiming 2000^3 cells would need 179 GiB to read
    ((2000, 2000, 2000), [], "payload holds 0 doubles, expected 24000000000"),
])
def test_mask_pass_rejects_as_read_merl(tmp_path, dims, payload, message):
    path = tmp_path / "bad.binary"
    _write_raw(path, dims, payload)
    for reader in (read_merl, lambda p: corpus_mask([p])):
        with pytest.raises(MerlFormatError, match=re.escape(message)):
            reader(path)
    path.write_bytes(b"\0" * 11)
    with pytest.raises(MerlFormatError, match="truncated header"):
        corpus_mask([path])


def test_trailing_partial_double_is_ignored(tmp_path):
    path = tmp_path / "tail.binary"
    _write_raw(path, (2, 2, 2), np.zeros(24))
    with open(path, "ab") as fh:
        fh.write(b"\0" * 4)
    assert read_merl(path).resolution == BrdfResolution(2, 2, 2)
    assert np.array_equal(corpus_mask([path]).grid_indices, np.arange(8))


def test_read_missing_file():
    with pytest.raises(OSError):
        read_merl("/nonexistent/brdf.binary")


def test_roundtrip_tensors_bit_exact(tmp_path, rng):
    for trial in range(20):
        brdf = make_random_tensor(rng)
        path = tmp_path / f"t{trial}.binary"
        write_merl(brdf, path)
        back = read_merl(path)
        assert back.resolution == brdf.resolution
        assert np.array_equal(back.mask, brdf.mask)
        assert np.array_equal(back.values, brdf.values)


def test_rewrite_reproduces_bytes(tmp_path, rng):
    brdf = make_random_tensor(rng)
    p1, p2 = tmp_path / "a.binary", tmp_path / "b.binary"
    write_merl(brdf, p1)
    write_merl(read_merl(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_all_valid_has_no_negatives(tmp_path, rng):
    brdf = make_random_tensor(rng, invalid_frac=0.0)
    path = tmp_path / "v.binary"
    write_merl(brdf, path)
    payload = np.fromfile(path, dtype="<f8", offset=12)
    assert payload.min() >= 0.0


def test_write_header_and_payload_size(tmp_path, rng):
    res = BrdfResolution(16, 16, 16)
    brdf = make_random_tensor(rng, res=res)
    path = tmp_path / "c.binary"
    write_merl(brdf, path)
    raw = path.read_bytes()
    assert struct.unpack("<3i", raw[:12]) == (16, 16, 16)
    assert len(raw) == 12 + 3 * 4096 * 8


def test_tensor_invariants_enforced():
    n = RES8.grid_size
    values = np.full((3, n), 1.0)
    mask = np.ones(n, dtype=bool)
    values[1, 3] = -2.0  # negative value on a valid cell
    with pytest.raises(MerlFormatError):
        BrdfTensor(RES8, values, mask)
    with pytest.raises(MerlFormatError, match=r"values shape \(3, 511\) does not match"):
        BrdfTensor(RES8, values[:, 1:], mask)
    with pytest.raises(MerlFormatError, match=r"mask shape \(511,\) does not match grid 512"):
        BrdfTensor(RES8, values, mask[1:])


def test_direction_to_index_origin():
    res = BrdfResolution(90, 90, 180)
    assert direction_to_index(HalfAngleDirection(0.0, 0.0, 0.0), res) == 0


def test_direction_to_index_theta_warp():
    # theta_h at the exact lower edge of warped bin 1
    res = BrdfResolution(90, 90, 180)
    d = HalfAngleDirection((np.pi / 2) * (1 / 90) ** 2, 0.0, 0.0)
    assert direction_to_index(d, res) == 16200


def test_direction_to_index_phi_bin():
    res = BrdfResolution(90, 90, 180)
    d = HalfAngleDirection(0.0, 0.0, np.pi * (179.5 / 180))
    assert direction_to_index(d, res) == 179


def test_direction_range_checks():
    res = BrdfResolution(90, 90, 180)
    with pytest.raises(DomainError):
        direction_to_index(HalfAngleDirection(np.pi / 2, 0.0, 0.0), res)
    with pytest.raises(DomainError):
        direction_to_index(HalfAngleDirection(0.0, -0.1, 0.0), res)
    with pytest.raises(DomainError):
        direction_to_index(HalfAngleDirection(0.0, 0.0, np.pi), res)


def test_index_direction_bijection_exhaustive():
    for idx in range(RES8.grid_size):
        d = index_to_direction(idx, RES8)
        assert direction_to_index(d, RES8) == idx


@pytest.mark.parametrize("res, stride", [(BrdfResolution(7, 5, 3), 1),
                                         (BrdfResolution(90, 90, 180), 997)])
def test_index_to_direction_is_bin_center_angles_at_its_cell(res, stride):
    angles = bin_center_angles(res)
    for idx in range(0, res.grid_size, stride):
        d = index_to_direction(idx, res)
        assert [type(v) for v in (d.theta_h, d.theta_d, d.phi_d)] == [float] * 3
        assert (np.array([d.theta_h, d.theta_d, d.phi_d]).tobytes()
                == np.array([a[idx] for a in angles]).tobytes()), idx


def test_index_to_direction_bounds():
    with pytest.raises(DomainError):
        index_to_direction(-1, RES8)
    with pytest.raises(DomainError):
        index_to_direction(RES8.grid_size, RES8)


def test_validity_mask_all_valid(rng):
    res = BrdfResolution(16, 16, 16)
    brdf = make_random_tensor(rng, res=res, invalid_frac=0.0)
    rm = validity_mask(brdf)
    assert rm.n_valid == 4096
    assert np.array_equal(rm.grid_indices, np.arange(4096))
    assert np.array_equal(row_of_grid(rm), np.arange(4096))


def test_validity_mask_sparse():
    n = RES8.grid_size
    values = np.full((3, n), -1.0)
    mask = np.zeros(n, dtype=bool)
    for g in (3, 7):
        mask[g] = True
        values[:, g] = 0.25
    brdf = BrdfTensor(RES8, values, mask)
    rm = validity_mask(brdf)
    assert rm.grid_indices.tolist() == [3, 7]
    assert row_of_grid(rm)[7] == 1
    assert row_of_grid(rm)[0] == -1


def test_validity_mask_empty():
    n = RES8.grid_size
    brdf = BrdfTensor(RES8, np.full((3, n), -1.0), np.zeros(n, dtype=bool))
    with pytest.raises(EmptyMaskError):
        validity_mask(brdf)
    with pytest.raises(EmptyMaskError, match="empty corpus"):
        corpus_mask([])


def test_corpus_mask_intersection(rng):
    a = make_random_tensor(rng, invalid_frac=0.2)
    b = make_random_tensor(rng, invalid_frac=0.2)
    rm = corpus_mask([a, b])
    expect = np.flatnonzero(a.mask & b.mask)
    assert np.array_equal(rm.grid_indices, expect)


def test_corpus_mask_of_tensors_and_paths_is_that_of_their_tensors(tmp_path, rng):
    tensors = [make_random_tensor(rng, invalid_frac=0.2) for _ in range(3)]
    paths = []
    for i, tensor in enumerate(tensors):
        paths.append(tmp_path / f"m{i}.binary")
        write_merl(tensor, paths[-1])
    expect = corpus_mask([read_merl(p) for p in paths])
    for sources in ([tensors[0], *paths[1:]], [paths[0], tensors[1], paths[2]]):
        rm = corpus_mask(sources)
        assert rm.resolution == expect.resolution
        assert np.array_equal(rm.grid_indices, expect.grid_indices)


def _fix_up_kinds(values, scale):
    """Masks of the values whose plain quotient misses on read-back and
    whose one-ulp neighbour above, or else below, reproduces them."""
    stored = values / scale
    miss = stored * scale != values
    up = miss & (np.nextafter(stored, np.inf) * scale == values)
    down = miss & ~up & (np.nextafter(stored, -np.inf) * scale == values)
    return up, down


def _assert_writes_like_oracle(tmp_path, brdf):
    new, old = tmp_path / "new.binary", tmp_path / "old.binary"
    write_merl(brdf, new)
    per_channel_write_merl(brdf, old)
    assert new.read_bytes() == old.read_bytes()
    return new


def _neighbours(centres, ulps):
    """The centres and their `ulps` neighbours on each side, the
    nonnegative ones only."""
    out = [centres]
    below = above = centres
    for _ in range(ulps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    out = np.concatenate(out)
    return out[out >= 0.0]


@pytest.mark.parametrize("scale", MERL_SCALES)
def test_write_matches_oracle_at_binade_edges(scale, tmp_path):
    # every power of two that is a double, and the values whose quotient
    # overflows or just fails to
    edges = np.concatenate([
        _neighbours(np.ldexp(1.0, np.arange(-1074, 1024)), 3),
        _neighbours(np.array([np.finfo(float).max * scale]), 16),
    ])
    with np.errstate(over="ignore"):
        up, down = _fix_up_kinds(edges, scale)
    # A quotient is within half an ulp of the exact one, so a neighbour's
    # product lies at least as far from the value; only the narrower
    # spacing just below a power of two could let the neighbour above round
    # back.  At the MERL scales no value needs either neighbour, so the
    # plain quotient write_merl stores is what the oracle's fix-up stores.
    assert not up.any() and not down.any()
    channel = int(np.flatnonzero(MERL_SCALES == scale)[0])
    n = edges.size
    values = np.full((3, n), 0.5)
    values[channel] = edges
    brdf = BrdfTensor(BrdfResolution(n, 1, 1), values, np.ones(n, dtype=bool))
    with np.errstate(over="ignore"):
        _assert_writes_like_oracle(tmp_path, brdf)


@pytest.mark.parametrize("case", ["negative-zero", "subnormal", "huge", "all-valid",
                                  "all-invalid", "sibling-invalid"])
def test_write_edge_values_match_oracle(case, tmp_path, rng):
    n = RES8.grid_size
    values = rng.uniform(0.0, 1500.0, size=(3, n)) * MERL_SCALES[:, None]
    mask = rng.random(n) >= 0.2
    if case == "negative-zero":
        values[:, ::5] = -0.0
    elif case == "subnormal":
        values[:, ::2] = rng.uniform(0.0, 1.0, size=(3, n // 2)) * 5e-324 * 2**40
        values[0, 1] = 5e-324
    elif case == "huge":
        values[:, ::4] = np.finfo(float).max * rng.uniform(0.5, 1.0, size=(3, n // 4))
        values[1, 2] = 1e300
    elif case == "all-valid":
        mask[:] = True
    elif case == "all-invalid":
        mask[:] = False
    values[:, ~mask] = -1.0
    if case == "sibling-invalid":
        # sentinels other than -1, and cells whose siblings carry the -1 a
        # read gives them, as from a file negative in one channel only
        values[0, ~mask] = -rng.uniform(0.5, 3.0, size=int((~mask).sum()))
        values[2, ~mask] = -0.25
    brdf = BrdfTensor(RES8, values, mask)
    with np.errstate(over="ignore"):
        path = _assert_writes_like_oracle(tmp_path, brdf)
    if case != "huge":
        assert np.array_equal(read_merl(path).values, values)


def test_write_sibling_invalid_file_rewrites_unchanged(tmp_path, rng):
    n = RES8.grid_size
    payload = rng.uniform(0.0, 1500.0, size=(3, n))
    payload[1, ::7] = -3.0  # invalid in green only
    raw = tmp_path / "raw.binary"
    _write_raw(raw, (8, 8, 8), payload)
    brdf = read_merl(raw)
    assert not brdf.mask[::7].any()
    path = _assert_writes_like_oracle(tmp_path, brdf)
    assert np.array_equal(read_merl(path).values, brdf.values)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.tuples(*[st.integers(1, 6)] * 3),
       invalid_frac=st.sampled_from([0.0, 0.3, 1.0]),
       decades=st.integers(-300, 300), exact=st.booleans())
def test_write_matches_oracle_property(seed, dims, invalid_frac, decades, exact):
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(seed)
    res = BrdfResolution(*dims)
    n = res.grid_size
    values = rng.uniform(0.0, 1.0, size=(3, n)) * 10.0 ** decades
    if exact:
        values *= MERL_SCALES[:, None]
    mask = rng.random(n) >= invalid_frac
    values[:, ~mask] = -rng.uniform(0.0, 2.0, size=(3, int((~mask).sum()))) - 1e-3
    brdf = BrdfTensor(res, values, mask)
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore"):
        _assert_writes_like_oracle(Path(tmp), brdf)


def _tensor_outcome(make):
    try:
        make()
    except MerlFormatError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, -0.0, 0.0, 2.5])
@pytest.mark.parametrize("where", ["valid", "invalid", "both"])
def test_tensor_checks_match_gathering_oracle(bad, where, rng):
    n = RES8.grid_size
    values = rng.uniform(0.0, 1.0, size=(3, n))
    mask = rng.random(n) >= 0.3
    values[:, ~mask] = -1.0
    cells = {"valid": np.flatnonzero(mask)[:2], "invalid": np.flatnonzero(~mask)[:2]}
    for side in (["valid", "invalid"] if where == "both" else [where]):
        values[1, cells[side][0]] = bad
        values[2, cells[side][1]] = bad
    got = _tensor_outcome(lambda: BrdfTensor(RES8, values.copy(), mask))
    expect = _tensor_outcome(lambda: gathering_tensor_check(values, mask))
    assert got == expect


def test_tensor_rejects_nan_sentinel(tmp_path):
    n = RES8.grid_size
    values = np.full((3, n), 0.5)
    mask = np.ones(n, dtype=bool)
    mask[:2] = False
    values[:, :2] = -1.0
    values[0, 1] = np.nan
    with pytest.raises(MerlFormatError, match="^invalid cells must hold negative sentinels$"):
        BrdfTensor(RES8, values, mask)


@pytest.mark.parametrize("mask_fill", [True, False])
def test_tensor_checks_all_valid_and_all_invalid(mask_fill):
    n = RES8.grid_size
    mask = np.full(n, mask_fill)
    good = np.full((3, n), 0.5 if mask_fill else -1.0)
    BrdfTensor(RES8, good, mask)
    bad = good.copy()
    bad[2, -1] = -good[2, -1]
    message = ("valid cells must hold finite nonnegative reflectance" if mask_fill
               else "invalid cells must hold negative sentinels")
    with pytest.raises(MerlFormatError, match=f"^{message}$"):
        BrdfTensor(RES8, bad, mask)


# stored doubles read_merl treats apart: NaN and -inf mark a cell invalid,
# +inf is an error at a valid cell only, -0.0 is valid
_EDGE_DOUBLES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1.0, 5e-324]


def _outcome(fill):
    try:
        entries, ids = fill()
    except MerlFormatError as exc:
        return type(exc), str(exc)
    return entries.tobytes(), ids


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.tuples(*[st.integers(1, 4)] * 3),
       t=st.integers(1, 9), edges=st.integers(0, 6))
def test_file_corpus_matrix_matches_per_material_oracle(seed, dims, t, edges):
    """t runs over 1, multiples of the group size and the rest; each file
    gets edge doubles at random cells and channels, so a cell may be invalid
    in one channel only, and a +inf may sit at a valid or an invalid cell,
    inside the corpus intersection or outside it."""
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(seed)
    n = BrdfResolution(*dims).grid_size
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(t):
            stored = rng.uniform(0.0, 1500.0, size=(3, n))
            cells = rng.integers(0, n, size=edges)
            stored[rng.integers(0, 3, size=edges), cells] = rng.choice(_EDGE_DOUBLES, edges)
            _write_raw(Path(tmp) / f"m{i}.binary", dims, stored.ravel())
        try:
            corpus, rm = load_corpus(tmp, None)
        except EmptyMaskError:
            return
        got = _outcome(lambda: corpus_matrix(corpus, rm))
        assert got == _outcome(lambda: per_material_corpus_matrix(corpus, rm))
        for workers in (1, 2):
            # 5-row blocks: a corpus of more than one is filled on the workers
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(parallel, "_WORKERS", workers)
                mp.setattr(parallel, "_REFERENCE_BLOCK", 5)
                assert _outcome(lambda: corpus_matrix(corpus, rm)) == got, workers
        if isinstance(got[0], bytes):  # the tensors fill as their files do
            tensors = [(mid, read_merl(path)) for mid, path in corpus]
            assert _outcome(lambda: corpus_matrix(tensors, rm)) == got


def test_first_malformed_file_fails_the_fill_at_any_worker_count(tmp_path, rng,
                                                                monkeypatch):
    # +inf at a valid cell of the second and the fourth of six files: the
    # fill names the second, as the per-material oracle does, however its
    # gathers are split, and joins its workers
    for i in range(6):
        stored = rng.uniform(0.0, 1500.0, size=(3, 64))
        if i in (1, 3):
            stored[i % 3, 10 * i] = np.inf
        _write_raw(tmp_path / f"m{i}.binary", (4, 4, 4), stored.ravel())
    corpus, rm = load_corpus(str(tmp_path), None)
    want = _outcome(lambda: per_material_corpus_matrix(corpus, rm))
    assert want[0] is MerlFormatError and "m1.binary" in want[1], want
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 5)
    before = set(threading.enumerate())
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "_WORKERS", workers)
        assert _outcome(lambda: corpus_matrix(corpus, rm)) == want, workers
        assert set(threading.enumerate()) == before, workers


@pytest.mark.parametrize("workers", [1, 2])
def test_file_corpus_matrix_reads_each_file_through_open_merl(tmp_path, rng,
                                                              monkeypatch, workers):
    for i in range(6):
        _write_raw(tmp_path / f"m{i}.binary", (4, 4, 4), rng.uniform(0.0, 1500.0, 192))
    corpus, rm = load_corpus(str(tmp_path), None)
    opened = []
    original = merl.open_merl

    def counting(path):
        opened.append(path)
        return original(path)

    monkeypatch.setattr(merl, "open_merl", counting)
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 5)
    monkeypatch.setattr(parallel, "_WORKERS", workers)
    entries, _ = corpus_matrix(corpus, rm)
    assert opened == [path for _, path in corpus]
    assert entries.tobytes() == per_material_corpus_matrix(corpus, rm)[0].tobytes()


def test_corpus_matrix_rejects_cells_outside_the_grid(rng):
    brdf = make_random_tensor(rng)
    for cells in ([0, RES8.grid_size], [-1, 3]):
        rm = RowMap(RES8, np.array(cells, dtype=np.int64))
        with pytest.raises(IndexOutOfRangeError, match="outside the 512-cell grid"):
            corpus_matrix([("a", brdf)], rm)
