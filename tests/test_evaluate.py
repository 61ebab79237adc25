import json
import math

import numpy as np
import pytest
from scipy import stats

from sparsebrdf import evaluate
from sparsebrdf.dictionary import train_bundle
from sparsebrdf.errors import (
    ConfigError,
    InvalidKError,
    InvalidMError,
    ProvenanceMismatchError,
    ShapeMismatchError,
    TooLargeError,
)
from sparsebrdf.evaluate import (
    ExperimentConfig,
    SyntheticCorpusSpec,
    brute_force_support,
    inverse_mse,
    kfold_split,
    mse_mapped,
    random_baseline,
    run_experiment,
    snapshot_hash,
    snr_db,
)
from sparsebrdf.mapping import MappedBrdf
from sparsebrdf.merl import BrdfResolution, corpus_matrix, write_merl
from sparsebrdf.reconstruct import measure, reconstruct_full
from sparsebrdf.somp import SampleBudget, somp_select
from sparsebrdf.synthetic import MaterialSpec, gen_brdf, gen_corpus

from conftest import duplicate_material_corpus, normalized_select
from oracles import correlation_scores, tensor_dict_experiment


def test_kfold_even_split():
    folds = kfold_split([f"m{i}" for i in range(10)], 5, seed=3)
    sizes = [len(f) for f in folds]
    assert sizes == [2, 2, 2, 2, 2]


def test_kfold_deterministic_and_disjoint():
    ids = [f"m{i}" for i in range(23)]
    a = kfold_split(ids, 4, seed=11)
    b = kfold_split(ids, 4, seed=11)
    assert a == b
    seen = [mid for fold in a for mid in fold]
    assert sorted(seen) == sorted(ids)
    assert max(len(f) for f in a) - min(len(f) for f in a) <= 1


def test_kfold_pigeonhole_sizes():
    folds = kfold_split([f"m{i}" for i in range(151)], 10, seed=0)
    assert {len(f) for f in folds} == {15, 16}


def test_kfold_invalid_k():
    with pytest.raises(InvalidKError):
        kfold_split(["a", "b"], 3, seed=0)
    with pytest.raises(InvalidKError):
        kfold_split(["a", "b", "c"], 1, seed=0)


def test_mse_identical_and_inverse():
    a = MappedBrdf(np.ones((3, 10)), "r")
    assert mse_mapped(a, a) == 0.0
    assert math.isinf(inverse_mse(0.0))
    assert inverse_mse(0.25) == 4.0


def test_mse_constant_difference():
    a = MappedBrdf(np.zeros((3, 50)), "r")
    b = MappedBrdf(np.full((3, 50), 0.1), "r")
    assert mse_mapped(a, b) == pytest.approx(0.01)
    assert mse_mapped(a, b) == mse_mapped(b, a)


def test_mse_matches_naive_loop(rng):
    av = rng.standard_normal((3, 40))
    bv = rng.standard_normal((3, 40))
    a, b = MappedBrdf(av, "r"), MappedBrdf(bv, "r")
    total = 0.0
    for c in range(3):
        for i in range(40):
            total += (av[c, i] - bv[c, i]) ** 2
    assert abs(mse_mapped(a, b) - total / 120.0) < 1e-12


def test_mse_provenance_guard():
    a = MappedBrdf(np.zeros((3, 5)), "r1")
    b = MappedBrdf(np.zeros((3, 5)), "r2")
    with pytest.raises(ProvenanceMismatchError):
        mse_mapped(a, b)
    with pytest.raises(ProvenanceMismatchError):
        snr_db(a, b)
    with pytest.raises(ShapeMismatchError, match=r"\(3, 5\) vs \(3, 4\)"):
        mse_mapped(a, MappedBrdf(np.zeros((3, 4)), "r1"))


def test_snr_db():
    ref = MappedBrdf(np.full((3, 10), 2.0), "r")
    recon = MappedBrdf(np.full((3, 10), 1.0), "r")
    assert snr_db(ref, recon) == pytest.approx(10 * math.log10(4.0))
    assert math.isinf(snr_db(ref, ref))


def test_random_baseline_contract():
    full = random_baseline(6, 6, seed=0)
    assert sorted(full.indices) == list(range(6))
    a = random_baseline(100, 10, seed=5)
    b = random_baseline(100, 10, seed=5)
    assert a.indices == b.indices
    assert len(set(a.indices)) == 10
    with pytest.raises(InvalidMError):
        random_baseline(5, 6, seed=0)


def test_random_baseline_uniformity():
    n, m = 4096, 10
    counts = np.zeros(n)
    for seed in range(1000):
        counts[random_baseline(n, m, seed=seed).indices] += 1
    # aggregate into 64 super-bins so expected counts are large enough
    binned = counts.reshape(64, 64).sum(axis=1)
    _, p = stats.chisquare(binned)
    assert p > 0.01


def test_brute_force_identity_case():
    coeffs = np.zeros((6, 3))
    coeffs[1] = 1.0
    coeffs[3] = -2.0
    support, residual = brute_force_support(np.eye(6), coeffs, 2)
    assert support == [1, 3]
    assert residual < 1e-12


def test_brute_force_m_equals_n(rng):
    dinv = rng.standard_normal((4, 6))
    coeffs = rng.standard_normal((4, 3))
    _, residual = brute_force_support(dinv, coeffs, 6)
    assert residual < 1e-10  # six generic columns span R^4


@pytest.mark.parametrize("m", [0, 7])
def test_brute_force_rejects_m_outside_1_to_n(m):
    with pytest.raises(InvalidMError, match=rf"m={m} outside \[1, 6\]"):
        brute_force_support(np.eye(6), np.ones((6, 2)), m)


def test_brute_force_enumeration_guard():
    with pytest.raises(TooLargeError):
        brute_force_support(np.zeros((4, 300)), np.zeros((4, 2)), 5)


def test_somp_never_beats_brute_force(rng):
    for _ in range(5):
        dinv = rng.standard_normal((8, 16))
        coeffs = rng.standard_normal((8, 4))
        support = somp_select(dinv, coeffs, SampleBudget(2))
        _, optimal = brute_force_support(dinv, coeffs, 2)
        assert support.residual_history[-1] >= optimal - 1e-9


SMALL_CONFIG = ExperimentConfig(
    synthetic=SyntheticCorpusSpec(seed=5, count=12, resolution=BrdfResolution(8, 8, 8)),
    m_values=(3, 5),
    folds=3,
    seed=9,
    random_trials=2,
)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(SMALL_CONFIG)


def test_experiment_row_counting(small_report):
    # per fold x m: |test| somp rows plus trials x |test| random rows
    test_sizes = [len(f) for f in kfold_split(
        [f"x{i}" for i in range(12)], 3, seed=0)]
    assert all(s == 4 for s in test_sizes)
    expect = 3 * 2 * (4 + 2 * 4)
    assert len(small_report.rows) == expect
    assert all(r["status"] == "ok" for r in small_report.rows)
    assert len(small_report.supports) == 3 * 2


def test_experiment_somp_rows_have_support(small_report):
    sup = small_report.supports[0]
    assert len(sup["rows"]) == sup["m"]
    assert len(sup["directions_deg"]) == sup["m"]
    assert all(len(d) == 3 for d in sup["directions_deg"])
    hist = sup["residual_history"]
    assert all(b <= a + 1e-10 for a, b in zip(hist, hist[1:]))


def test_experiment_training_residual_monotone_in_m(small_report):
    finals, inits = {}, {}
    for sup in small_report.supports:
        key = (sup["fold"], sup["m"])
        finals[key] = sup["residual_history"][-1]
        inits[key] = sup["initial_residual"]
    for fold in range(3):
        # increases beyond 1e-10 relative to the problem scale are failures
        scale = max(inits[(fold, 3)], inits[(fold, 5)])
        assert finals[(fold, 5)] <= finals[(fold, 3)] + 1e-10 * scale


def test_programming_error_in_reconstruction_escapes(monkeypatch):
    from sparsebrdf.errors import SingularMatrixError

    def singular(*_, **__):
        raise SingularMatrixError("planted: take the direct path")

    def planted(*_, **__):
        raise TypeError("planted programming error")

    monkeypatch.setattr(evaluate, "ridge_solve", singular)
    monkeypatch.setattr(evaluate, "reconstruct_full", planted)
    with pytest.raises(TypeError, match="planted programming error"):
        run_experiment(SMALL_CONFIG)


def test_experiment_deterministic_across_reruns(tmp_path):
    a = run_experiment(SMALL_CONFIG)
    b = run_experiment(SMALL_CONFIG)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.to_jsonl(pa)
    b.to_jsonl(pb)

    def normalize(path):
        out = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("seconds", None)
            out.append(json.dumps(rec, sort_keys=True))
        return "\n".join(out)

    assert normalize(pa) == normalize(pb)


def test_truncated_supports_do_not_depend_on_inverse_layout():
    # a truncated dictionary derives its inverse in C order; on the folds of
    # the criterion-3 config its F-order copy scans to the same bytes and
    # selects the same supports, with and without normalized atoms
    config = ExperimentConfig(synthetic=SyntheticCorpusSpec(
        seed=42, count=50, resolution=BrdfResolution(16, 16, 16)), folds=5, seed=7)
    corpus, row_map = evaluate.load_corpus(None, config.synthetic)
    linear, ids = corpus_matrix(corpus, row_map)
    folds = kfold_split(ids, config.folds,
                        evaluate._stream_seed(config.seed, evaluate._STREAM_FOLDS))
    for fold, test_ids in enumerate(folds):
        train_ids = [i for i in ids if i not in test_ids]
        cols = [3 * ids.index(i) + c for i in train_ids for c in range(3)]
        bundle = train_bundle(linear.take(cols, axis=1), train_ids, row_map, 20)
        for k in (5, 10):
            pca = bundle.for_budget(k).pca
            c_order = pca.inverse
            f_order = np.asfortranarray(c_order)
            assert c_order.flags.c_contiguous
            assert f_order.flags.f_contiguous and not f_order.flags.c_contiguous
            assert (correlation_scores(f_order, pca.coeffs).tobytes()
                    == correlation_scores(c_order, pca.coeffs).tobytes())
            for select in (somp_select, normalized_select):
                a, b = (select(dinv, pca.coeffs, SampleBudget(k))
                        for dinv in (f_order, c_order))
                assert a.indices == b.indices, (fold, k, select.__name__)
                assert a.residual_history == b.residual_history, (fold, k, select.__name__)


def test_experiment_summary_and_series(small_report, tmp_path):
    summary = small_report.summary()
    keys = {(rec["m"], rec["method"]) for rec in summary}
    assert keys == {(3, "somp"), (5, "somp"), (3, "random"), (5, "random")}
    small_report.series_csv(tmp_path / "series.csv")
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert lines[0] == "m,method,mean_mse,inverse_mean_mse"
    assert len(lines) == 1 + len(summary)


def test_experiment_threshold_stopping():
    config = ExperimentConfig(
        synthetic=SyntheticCorpusSpec(seed=5, count=12,
                                      resolution=BrdfResolution(8, 8, 8)),
        m_values=(),
        k_fixed=6,
        stop_threshold=1e-6,
        folds=3,
        seed=9,
        random_trials=1,
    )
    report = run_experiment(config)
    assert len(report.supports) == 3  # one threshold-grown support per fold
    for sup in report.supports:
        assert sup["residual_history"][-1] <= 1e-6
        assert sup["m"] == len(sup["rows"])
    assert all(r["status"] == "ok" for r in report.rows)


@pytest.mark.parametrize("sources", [{"corpus_dir": "corpus"}, {"synthetic": None}],
                         ids=["both", "neither"])
def test_experiment_config_takes_one_corpus_source(sources):
    with pytest.raises(ConfigError, match="exactly one corpus source must be set"):
        ExperimentConfig(**sources)


def test_threshold_mode_requires_fixed_k():
    import dataclasses

    with pytest.raises(ConfigError, match="threshold stopping requires k_fixed"):
        dataclasses.replace(SMALL_CONFIG, m_values=(), stop_threshold=1e-3)


def test_m_values_default_follows_the_stop_rule():
    import dataclasses

    spec = SyntheticCorpusSpec(seed=5, count=12, resolution=BrdfResolution(8, 8, 8))
    assert ExperimentConfig(synthetic=spec).snapshot()["m_values"] == [5, 10, 20]
    threshold = ExperimentConfig(synthetic=spec, k_fixed=6, stop_threshold=1e-3)
    assert threshold.snapshot()["m_values"] == []
    assert dataclasses.replace(threshold, seed=1).m_values == ()
    with pytest.raises(ConfigError, match="two stop rules for one run"):
        ExperimentConfig(synthetic=spec, m_values=(3,), k_fixed=6, stop_threshold=1e-3)


def test_max_iters_without_threshold_is_config_error():
    import dataclasses

    with pytest.raises(ConfigError, match="max_iters needs threshold; a budget "
                                          "selection would ignore it"):
        dataclasses.replace(SMALL_CONFIG, stop_max_iters=3)


def test_experiment_config_hash_stable():
    assert snapshot_hash(SMALL_CONFIG.snapshot()) == snapshot_hash(SMALL_CONFIG.snapshot())
    other = ExperimentConfig(
        synthetic=SyntheticCorpusSpec(seed=5, count=12,
                                      resolution=BrdfResolution(8, 8, 8)),
        m_values=(3, 5),
        folds=3,
        seed=10,
        random_trials=2,
    )
    assert snapshot_hash(other.snapshot()) != snapshot_hash(SMALL_CONFIG.snapshot())


def _direct_row_metrics(truth, support, bundle, eta):
    """Test-side oracle: full reconstruction, then the mapped-domain metrics."""
    try:
        recon = reconstruct_full(measure(truth, support), bundle, eta=eta)
    except Exception as exc:
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
    mse = mse_mapped(truth, recon.mapped)
    snr = snr_db(truth, recon.mapped)
    return {"status": "ok", "mse": mse, "inverse_mse": inverse_mse(mse), "snr_db": snr}


def _lambertian_corpus(directory):
    """Six constant (Lambertian) materials.  Their mapped values are constant
    over the rows, so one atom spans every held-out material exactly."""
    directory.mkdir()
    for i in range(6):
        spec = MaterialSpec(f"lam{i}", "lambertian",
                            albedo=(0.1 + 0.1 * i, 0.8 - 0.1 * i, 0.3 + 0.05 * i))
        write_merl(gen_brdf(spec, BrdfResolution(8, 8, 8)), directory / f"lam{i}.binary")
    return str(directory)


_R8 = SyntheticCorpusSpec(seed=5, count=12, resolution=BrdfResolution(8, 8, 8))
_ORACLE_CONFIGS = {
    "coupled": SMALL_CONFIG,
    "fixed-k": ExperimentConfig(synthetic=_R8, m_values=(2, 4), k_fixed=6, folds=3,
                                seed=4, random_trials=2),
    "threshold": ExperimentConfig(synthetic=_R8, m_values=(), k_fixed=6,
                                  stop_threshold=1e-6, folds=3, seed=9, random_trials=2),
    "normalize-atoms": ExperimentConfig(synthetic=_R8, m_values=(3, 5),
                                        normalize_atoms=True, folds=3, seed=2,
                                        random_trials=2),
    # ill-conditioned at eta = 0: some reconstructions overflow on unmap and
    # fail on the direct path, so must fail the same way here
    "eta0": ExperimentConfig(synthetic=SyntheticCorpusSpec(seed=4, count=15,
                                                           resolution=BrdfResolution(8, 8, 8)),
                             eta=0.0, m_values=(3, 6), folds=3, seed=2, random_trials=3),
    "eta0-in-span": None,  # built under tmp_path
    # held-out copies of the fold's reference: zero signal, -inf SNR
    "duplicate-material": None,  # built under tmp_path
}


@pytest.mark.parametrize("normalize_atoms", [False, True])
def test_fixed_k_supports_are_prefixes_of_the_largest_budget(normalize_atoms):
    # with k_fixed every budget of a fold selects from one bundle, and the
    # greedy loop's state does not depend on the budget
    config = ExperimentConfig(synthetic=_R8, m_values=(2, 4, 6), k_fixed=6, folds=3,
                              normalize_atoms=normalize_atoms, random_trials=1)
    records = {(rec["fold"], rec["m"]): rec for rec in run_experiment(config).supports}
    assert sorted(records) == [(f, m) for f in range(3) for m in (2, 4, 6)]
    for fold in range(3):
        whole = records[fold, 6]
        for m in (2, 4):
            for field in ("rows", "grid", "residual_history"):
                assert records[fold, m][field] == whole[field][:m], (fold, m, field)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_ORACLE_CONFIGS))
def test_closed_form_matches_direct_oracle(name, monkeypatch, tmp_path):
    config = _ORACLE_CONFIGS[name]
    if name == "eta0-in-span":
        config = ExperimentConfig(corpus_dir=_lambertian_corpus(tmp_path / "corpus"),
                                  synthetic=None, eta=0.0, m_values=(1,), folds=3,
                                  seed=3, random_trials=2)
    elif name == "duplicate-material":
        config = ExperimentConfig(corpus_dir=duplicate_material_corpus(tmp_path / "corpus"),
                                  synthetic=None, m_values=(2, 3), k_fixed=3, folds=3,
                                  random_trials=1)
    calls = []
    batched = evaluate._HeldOut.metrics

    def spy(self, support, eta):
        out = batched(self, support, eta)
        calls.append((list(self.mapped), support, self.bundle.for_budget(len(support)), eta,
                       out))
        return out

    direct_calls = []
    direct = evaluate._direct_metrics

    def count_direct(*args):
        direct_calls.append(args)
        return direct(*args)

    monkeypatch.setattr(evaluate._HeldOut, "metrics", spy)
    monkeypatch.setattr(evaluate, "_direct_metrics", count_direct)
    report = run_experiment(config)

    assert sum(len(out) for *_, out in calls) == len(report.rows)
    for mapped, support, bundle, eta, out in calls:
        assert len(out) == len(mapped)
        for truth, got in zip(mapped, out):
            want = _direct_row_metrics(truth, support, bundle, eta)
            assert got.keys() == want.keys()
            assert got["status"] == want["status"]
            if want["status"] == "error":
                assert got["error"] == want["error"]
                continue
            for key in ("mse", "inverse_mse", "snr_db"):
                if math.isinf(want[key]):
                    assert got[key] == ("inf" if want[key] > 0 else "-inf"), key
                else:
                    assert got[key] == pytest.approx(want[key], rel=1e-9, abs=0.0)
    if name == "duplicate-material":
        assert any(r["snr_db"] == "-inf" for r in report.rows)
    if name == "eta0-in-span":
        # in-span held-out materials cancel in closed form and are recomputed
        # through the direct path
        assert len(direct_calls) == len(report.rows)
        assert all(r["status"] == "ok" and r["mse"] < 1e-20 for r in report.rows)
    elif name != "eta0":
        assert not direct_calls


def _without_seconds(records) -> list:
    return [json.dumps({k: v for k, v in rec.items() if k != "seconds"}, sort_keys=True)
            for rec in records]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["coupled", "fixed-k", "threshold", "eta0",
                                  "eta0-in-span", "directory"])
def test_folds_match_tensor_dict_oracle(name, tmp_path):
    # the corpus matrix's column copies train and score each fold to the
    # bytes of gathering and mapping every material's tensor afresh; eta0
    # sends failing materials down the direct path, eta0-in-span every one
    if name == "eta0-in-span":
        config = ExperimentConfig(corpus_dir=_lambertian_corpus(tmp_path / "corpus"),
                                  synthetic=None, eta=0.0, m_values=(1,), folds=3,
                                  seed=3, random_trials=2)
    elif name == "directory":
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for spec, brdf in gen_corpus(42, 12, BrdfResolution(8, 8, 8)):
            write_merl(brdf, corpus / f"{spec.material_id}.binary")
        config = ExperimentConfig(corpus_dir=str(corpus), synthetic=None,
                                  m_values=(3, 5), folds=3, seed=1, random_trials=2)
    else:
        config = _ORACLE_CONFIGS[name]
    report = run_experiment(config)
    rows, supports = tensor_dict_experiment(config)
    assert _without_seconds(report.rows) == _without_seconds(rows)
    assert _without_seconds(report.supports) == _without_seconds(supports)
