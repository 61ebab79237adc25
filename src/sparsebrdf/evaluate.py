"""Cross-validated evaluation of sample selection and reconstruction.

The harness reproduces the evaluation protocol at desk scale: k-fold
cross-validation over a corpus, per-fold dictionary training on the train
split only, greedy sample selection, reconstruction of every held-out
material, and a uniform-random sample placement baseline run alongside.
Errors are mean squared differences in the mapped domain; the reciprocal
(higher is better) is what plots usually show.  The harness scores them in
closed form from per-fold projections (see ``_HeldOut``) rather than by
synthesizing each reconstruction; ``reconstruct_full`` stays the direct path
it falls back to.

All randomness flows from the single experiment seed through named
sub-streams, so identical configs reproduce identical reports.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .dictionary import train_bundle
from .errors import (
    ConfigError,
    InvalidKError,
    InvalidMError,
    ProvenanceMismatchError,
    ShapeMismatchError,
    SparseBrdfError,
    TooLargeError,
)
from .mapping import DEFAULT_EPSILON, MappedBrdf, check_mapping, map_in_place
from .merl import BrdfResolution, corpus_mask, corpus_matrix
from .parallel import _one_blas_thread
from .reconstruct import DEFAULT_ETA, check_eta, measure, reconstruct_full, ridge_solve
from .somp import (
    SampleBudget,
    SupportSet,
    select_support,
    stop_rules,
    support_record_fields,
)
from .synthetic import gen_corpus

# sub-stream tags hung off the experiment seed
_STREAM_FOLDS = 0
_STREAM_BASELINE = 1


def _stream_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def kfold_split(ids, k: int, seed: int) -> tuple:
    """k disjoint test folds covering ids, each a tuple of ids, their sizes
    differing by at most one."""
    ids = list(ids)
    if not 2 <= k <= len(ids):
        raise InvalidKError(f"fold count {k} outside [2, {len(ids)}]")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    return tuple(tuple(ids[i] for i in chunk) for chunk in np.array_split(perm, k))


def mse_mapped(a: MappedBrdf, b: MappedBrdf) -> float:
    """Mean squared difference over all valid cells and channels."""
    if a.provenance != b.provenance:
        raise ProvenanceMismatchError("operands mapped against different references")
    if a.values.shape != b.values.shape:
        raise ShapeMismatchError(f"{a.values.shape} vs {b.values.shape}")
    diff = a.values - b.values
    return float(np.mean(diff * diff))


def inverse_mse(mse: float) -> float:
    return math.inf if mse == 0.0 else 1.0 / mse


def _snr(signal: float, noise: float) -> float:
    """10 log10(signal / noise): +inf when noise is 0, else -inf when signal is 0."""
    if noise == 0.0:
        return math.inf
    if signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal / noise)


def snr_db(reference: MappedBrdf, recon: MappedBrdf) -> float:
    """10 log10 of signal energy over residual energy, in the mapped domain."""
    if reference.provenance != recon.provenance:
        raise ProvenanceMismatchError("operands mapped against different references")
    return _snr(float(np.sum(reference.values**2)),
                float(np.sum((reference.values - recon.values) ** 2)))


def random_baseline(valid_count: int, m: int, seed) -> SupportSet:
    """m distinct uniform row indices; deterministic under seed."""
    if not 1 <= m <= valid_count:
        raise InvalidMError(f"m={m} outside [1, {valid_count}]")
    rng = np.random.default_rng(seed)
    idx = rng.choice(valid_count, size=m, replace=False)
    return SupportSet(indices=[int(i) for i in idx])


_ENUM_LIMIT = 1_000_000


def brute_force_support(dinv: np.ndarray, coeffs: np.ndarray, m: int):
    """Exhaustive search for the globally optimal support of size m.

    Only feasible at tiny scale; serves as the ground-truth lower bound for
    the greedy solver.  Ties resolve to the lexicographically smallest
    subset.
    """
    dinv = np.asarray(dinv, dtype=np.float64)
    n = dinv.shape[1]
    if not 1 <= m <= n:
        raise InvalidMError(f"m={m} outside [1, {n}]")
    if math.comb(n, m) > _ENUM_LIMIT:
        raise TooLargeError(
            f"C({n}, {m}) exceeds the enumeration bound of {_ENUM_LIMIT}"
        )
    best_combo = None
    best_res = math.inf
    for combo in itertools.combinations(range(n), m):
        basis = dinv[:, combo]
        sol, *_ = np.linalg.lstsq(basis, coeffs, rcond=None)
        res = float(np.linalg.norm(coeffs - basis @ sol))
        if res < best_res:
            best_res = res
            best_combo = combo
    return list(best_combo), best_res


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    seed: int = 42
    count: int = 50
    resolution: BrdfResolution = BrdfResolution(16, 16, 16)

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"corpus count must be >= 1, got {self.count}")
        if self.seed < 0:
            raise ConfigError(f"corpus seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one evaluation run; hashable into artifacts.

    Selection runs in budget mode (one support per entry of m_values,
    (5, 10, 20) unless set) unless stop_threshold is set, in which case a
    single support is grown per fold until the training residual drops below
    the threshold, and m_values stays empty.  The atom count is k_fixed when
    set, else each m; threshold mode needs k_fixed, since there is no m to
    couple k to.
    """

    corpus_dir: str | None = None
    synthetic: SyntheticCorpusSpec | None = field(default_factory=SyntheticCorpusSpec)
    epsilon: float = DEFAULT_EPSILON
    reference_statistic: str = "median"
    m_values: tuple | None = None
    k_fixed: int | None = None
    eta: float = DEFAULT_ETA
    stop_threshold: float | None = None
    stop_max_iters: int | None = None
    folds: int = 5
    seed: int = 7
    random_trials: int = 20
    normalize_atoms: bool = False

    def __post_init__(self):
        if (self.corpus_dir is None) == (self.synthetic is None):
            raise ConfigError("exactly one corpus source must be set")
        check_mapping(self.epsilon, self.reference_statistic)
        if self.k_fixed is not None and self.k_fixed < 1:
            raise ConfigError(f"k_fixed must be >= 1, got {self.k_fixed}")
        rules = stop_rules(self.m_values, self.stop_threshold, self.stop_max_iters,
                           default=(5, 10, 20))
        object.__setattr__(self, "m_values", tuple(
            rule.m for rule in rules if isinstance(rule, SampleBudget)))
        if self.stop_threshold is not None and self.k_fixed is None:
            raise ConfigError("threshold stopping requires k_fixed")
        if self.k_fixed is not None and any(m > self.k_fixed for m in self.m_values):
            raise ConfigError(
                "the greedy selector cannot pick more samples than atoms; "
                f"m_values must stay <= k_fixed={self.k_fixed}"
            )
        check_eta(self.eta)
        if self.random_trials < 0 or self.folds < 2:
            raise ConfigError("need folds >= 2 and random_trials >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def selections(self) -> list:
        """(atom count, stop rule) of each support a fold selects: k_fixed
        atoms when set, which a threshold run always does, else m atoms for a
        budget of m."""
        rules = stop_rules(self.m_values, self.stop_threshold, self.stop_max_iters,
                           default=())
        return [(rule.m if self.k_fixed is None else self.k_fixed, rule)
                for rule in rules]

    def snapshot(self) -> dict:
        """Every field, in JSON-serializable form."""
        snap = {f.name: getattr(self, f.name) for f in fields(self)}
        snap["m_values"] = list(self.m_values)
        if self.synthetic is not None:
            res = self.synthetic.resolution
            snap["synthetic"] = {
                "seed": self.synthetic.seed,
                "count": self.synthetic.count,
                "resolution": [res.n_theta_h, res.n_theta_d, res.n_phi_d],
            }
        return snap


def snapshot_hash(snapshot: dict) -> str:
    """Short stable hash of a JSON-serializable configuration snapshot."""
    blob = json.dumps(snapshot, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ExperimentReport:
    """Per fold x material x m x method records plus the supports used."""

    config: dict
    rows: list
    supports: list

    @property
    def config_hash(self) -> str:
        return snapshot_hash(self.config)

    def to_jsonl(self, path) -> None:
        path = Path(path)
        with open(path, "w") as fh:
            fh.write(json.dumps({"record": "config", "hash": self.config_hash,
                                 "config": self.config}, sort_keys=True) + "\n")
            for sup in self.supports:
                fh.write(json.dumps({"record": "support", **sup}, sort_keys=True) + "\n")
            for row in self.rows:
                fh.write(json.dumps({"record": "result", **row}, sort_keys=True) + "\n")

    def summary(self) -> list:
        """Mean MSE / inverse MSE per (m, method) over folds and materials."""
        groups = {}
        for row in self.rows:
            if row.get("status") != "ok":
                continue
            groups.setdefault((row["m"], row["method"]), []).append(row["mse"])
        out = []
        for (m, method), mses in sorted(groups.items()):
            mean = float(np.mean(mses))
            out.append({
                "m": m,
                "method": method,
                "mean_mse": mean,
                "inverse_mean_mse": inverse_mse(mean),
                "count": len(mses),
            })
        return out

    def series_csv(self, path) -> None:
        """Inverse-MSE-versus-m series for external plotting."""
        lines = ["m,method,mean_mse,inverse_mean_mse"]
        for rec in self.summary():
            inv = rec["inverse_mean_mse"]
            inv_s = "inf" if math.isinf(inv) else f"{inv:.10g}"
            lines.append(f"{rec['m']},{rec['method']},{rec['mean_mse']:.10g},{inv_s}")
        Path(path).write_text("\n".join(lines) + "\n")


def load_corpus(corpus_dir, synthetic: SyntheticCorpusSpec | None):
    """The corpus as (material_id, source) pairs for corpus_matrix, and its
    corpus_mask: BrdfTensors generated from the synthetic spec if one is
    given, else the .binary files of corpus_dir in name order, masked by a
    pass that holds no tensor."""
    if synthetic is not None:
        corpus = [
            (s.material_id, b)
            for s, b in gen_corpus(synthetic.seed, synthetic.count, synthetic.resolution)
        ]
    else:
        corpus = [(p.stem, p) for p in sorted(Path(corpus_dir).glob("*.binary"))]
        if not corpus:
            raise ConfigError(f"no .binary MERL files under {corpus_dir}")
    return corpus, corpus_mask(source for _, source in corpus)


def _metrics(mse: float, snr: float) -> dict:
    inv = inverse_mse(mse)
    return {
        "status": "ok",
        "mse": mse,
        "inverse_mse": "inf" if math.isinf(inv) else inv,
        "snr_db": str(snr) if math.isinf(snr) else snr,  # "inf" or "-inf"
    }


def _direct_metrics(mapped_true: MappedBrdf, support: SupportSet, bundle, eta: float) -> dict:
    """Metrics of one held-out material through the full reconstruction."""
    try:
        recon = reconstruct_full(measure(mapped_true, support), bundle, eta=eta)
        return _metrics(mse_mapped(mapped_true, recon.mapped),
                        snr_db(mapped_true, recon.mapped))
    except (SparseBrdfError, ValueError) as exc:  # partial results keep a failure marker
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


# a closed-form error at most this fraction of the energies it is the
# difference of has lost too many digits and is recomputed directly
_CANCELLATION = 1e-8
# largest mapped value whose unmap cannot overflow to inf, with headroom
_UNMAP_LIMIT = float(np.log(np.finfo(np.float64).max)) - 1.0


class _HeldOut:
    """A fold's held-out materials, prepared for closed-form scoring.

    For a centred held-out channel r = x - mean and ridge coefficients s over
    the k leading atoms D_k, the mapped-domain residual energy is

        ||r - D_k s||^2 = ||r||^2 - 2 s^T (D_k^T r) + s^T (D_k^T D_k) s,

    so a support is scored from D^T r, D^T D and ||r||^2, computed once per
    fold over all k_max atoms.  D^T D is taken explicitly rather than as
    Sigma^2, so the identity holds where the atoms are not quite orthogonal.
    A truncated bundle shares the fold's mean and leading atoms and slices
    these terms.

    x holds the (3M, n) mapped held-out channels, material-major; it is left
    as it is, since the direct path reads each material's rows of it.  Its
    memory layout fixes the order the energies are summed in.  A support's
    solve centres the m columns of x it reads, so no centred x is kept.
    """

    def __init__(self, x: np.ndarray, bundle):
        self.bundle, pca = bundle, bundle.pca
        materials = x.shape[0] // 3
        self.n_cells = x.size // materials
        self.signal = np.sum((x * x).reshape(materials, -1), axis=1)
        self.x, self.mean = x, pca.mean
        centred = x - pca.mean
        self.energy = np.sum(centred * centred, axis=1)
        # both products sum over the n grid rows
        with _one_blas_thread():
            self.projections = centred @ pca.atoms  # (3M, k_max)
            self.gram = pca.atoms.T @ pca.atoms
        # unmap exponentiates a reconstruction's mapped value plus
        # log(reference + epsilon); that is at most mean_peak + |s| . atom_peak
        self.mean_peak = float(pca.mean.max()) + float(
            np.log(bundle.reference.values.max() + bundle.reference.epsilon))
        self.atom_peak = np.abs(pca.atoms).max(axis=0)

    @cached_property
    def mapped(self) -> list:
        """The held-out MappedBrdfs, built with the key when the direct path first runs."""
        return [MappedBrdf(self.x[i:i + 3], self.bundle.reference.key)
                for i in range(0, self.x.shape[0], 3)]

    def metrics(self, support: SupportSet, eta: float) -> list:
        """One metrics dict per held-out material for reconstructing it from
        support with the fold's bundle, cut to the support's budget.
        Materials whose closed form is unreliable, and every material when
        the ridge solve fails, go through the direct path, so errors carry
        its exact messages."""
        rows = list(support.indices)
        bundle = self.bundle.for_budget(len(rows))
        k = bundle.pca.n_atoms
        try:
            solution = ridge_solve(bundle.pca.atoms[rows],
                                   (self.x[:, rows] - self.mean[rows]).T, eta)  # (k, 3M)
        except (SparseBrdfError, ValueError):
            return [_direct_metrics(mb, support, bundle, eta) for mb in self.mapped]

        fit = np.sum(solution * (self.gram[:k, :k] @ solution), axis=0)
        cross = np.sum(solution.T * self.projections[:, :k], axis=1)
        per_material = (-1, 3)
        error = (self.energy - 2.0 * cross + fit).reshape(per_material).sum(axis=1)
        scale = (self.energy + fit).reshape(per_material).sum(axis=1)
        peak = (self.mean_peak + np.abs(solution).T @ self.atom_peak[:k]).reshape(
            per_material).max(axis=1)
        out = []
        for i in range(len(error)):
            if error[i] <= _CANCELLATION * scale[i] or peak[i] >= _UNMAP_LIMIT:
                out.append(_direct_metrics(self.mapped[i], support, bundle, eta))
            else:
                out.append(_metrics(float(error[i]) / self.n_cells,
                                    _snr(float(self.signal[i]), float(error[i]))))
        return out


def _evaluate_fold(config: ExperimentConfig, fold: int, test_ids: list,
                   bundle_full, held_out: _HeldOut, supports: list) -> list:
    """Select the fold's supports, appending their records to supports, and
    return the fold's result rows in report order, scoring test_ids through
    held_out.
    """
    row_map = bundle_full.row_map
    keyed = []  # (sort key, row)
    for k, stop in config.selections():
        bundle = bundle_full.for_budget(k)
        t0 = time.perf_counter()
        support = select_support(bundle.pca, stop, config.normalize_atoms)
        select_seconds = time.perf_counter() - t0
        m = len(support)
        supports.append({
            "fold": fold,
            "method": "somp",
            **support_record_fields(support, row_map),
            "initial_residual": float(np.linalg.norm(bundle.pca.coeffs)),
            "seconds": select_seconds,
        })
        trials = [("somp", None, support)] + [
            ("random", trial, random_baseline(
                row_map.n_valid, m,
                _stream_seed(config.seed, _STREAM_BASELINE, fold, m, trial)))
            for trial in range(config.random_trials)
        ]
        for method, trial, sup in trials:
            for mid, metrics in zip(test_ids, held_out.metrics(sup, config.eta)):
                keyed.append((
                    (m, method, mid, -1 if trial is None else trial),
                    {"fold": fold, "m": m, "method": method, "material": mid,
                     "trial": trial, **metrics},
                ))
    keyed.sort(key=lambda item: item[0])
    return [row for _, row in keyed]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full cross-validated selection/reconstruction experiment.

    Per fold of kfold_split: the mapping reference and dictionary are
    trained on the corpus ids outside the fold only; the greedy selector and
    the random baseline each produce supports per sample count; every
    held-out material is scored from each support.  Rows are ordered by
    (fold, m, method, material, trial).  The corpus is gathered once into
    its corpus_matrix, and each fold takes its training and held-out columns
    from that; no tensor is held.
    """
    corpus, row_map = load_corpus(config.corpus_dir, config.synthetic)
    linear, ids = corpus_matrix(corpus, row_map)
    del corpus
    first = {mid: 3 * i for i, mid in enumerate(ids)}  # each material's R column
    folds = kfold_split(ids, config.folds, _stream_seed(config.seed, _STREAM_FOLDS))

    k_max = max(k for k, _ in config.selections())
    supports = []
    rows = []
    for fold, test_ids in enumerate(folds):
        # take() copies the columns in C order, the layout corpus_matrix
        # fills, which fixes the order training sums in
        train_ids = [i for i in ids if i not in test_ids]
        bundle_full = train_bundle(
            linear.take([first[i] + c for i in train_ids for c in range(3)], axis=1),
            train_ids, row_map, k_max,
            epsilon=config.epsilon, statistic=config.reference_statistic)
        # the transpose of this C-order block is the F-order x _HeldOut sums
        # its energies over; a C-order copy of it would sum in another order
        held = linear.take([first[i] + c for i in test_ids for c in range(3)], axis=1)
        map_in_place(held, bundle_full.reference.values, bundle_full.reference.epsilon)
        rows.extend(_evaluate_fold(config, fold, test_ids, bundle_full,
                                   _HeldOut(held.T, bundle_full), supports))

    return ExperimentReport(
        config=config.snapshot(),
        rows=rows,
        supports=supports,
    )
