"""Optimal sample selection via Simultaneous Orthogonal Matching Pursuit.

Choosing m measurement locations out of n grid cells is a combinatorial
problem; this module solves its exact reformulation instead: find the m
columns of the dictionary inverse Dinv (k x n) whose span best captures the
coefficient matrix S (k x t) of the training corpus.  That is a classic
multiple-measurement-vector support recovery problem, solved greedily by
SOMP: each iteration picks the column with the largest total correlation
against the residual, then projects S onto the orthogonal complement of
everything selected so far.  The selected column indices are exactly the
rows of the training signal to measure.

The greedy loop is deterministic: correlation ties break toward the
smallest column index.

Each pick scores only the ``_SCAN_BLOCK``-column blocks that can still hold
it, in the manner of Minoux's accelerated greedy (*Accelerated greedy
algorithms for maximizing submodular set functions*, 1978), made safe by
explicit bounds since SOMP's objective is not submodular.  A column's score
is at most sqrt(t) sigma_max(residual) times its norm outside the selected
span, and those norms are kept by one GEMV per pick; a block is bounded
through the largest of them in it.  Blocks are scored in decreasing order of
their bound; the scan stops at the first block whose bound, plus a slack
taken from forward-error bounds, is strictly below the best score found.
Guarantee: the scores computed are bitwise those of a full scan (the same
GEMM, abs and row sum on the same block and sub-block boundaries), and every
column that could reach the best score is scored, so the picks, ties
included, and the residual history are identical to a full scan's.  The
scan scores one C-order array, the raw inverse or the unit-column one that
select_support, the one normalizer, derives, so the guarantee holds for any
input layout.

A block is scored in ``_SUB_BLOCK``-column sub-blocks, so that each
correlation buffer stays in cache.  With OpenBLAS on one thread, a
sub-block's scores were bitwise its whole block's on every C-ordered array
checked with t > 1 and k >= 5, up to t = 329; at k <= 4 and t > 192 a
sub-block can take OpenBLAS's small-matrix kernel, and a score then differ
in the last bit.  F-order sub-blocks took it at k = 20, t = 12, and scored
thousands of a block's columns differently.  Where there is more than
one block, the scan runs on one worker thread per CPU the process may run
on: each scored block's sub-blocks, each pick's bound GEMV and the bound's
starting column norms are split between them, with OpenBLAS pinned to one
thread so that no product's bits depend on how many threads run.  A lone
block is scored on the calling thread.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dictionary, parallel
from .errors import (
    BudgetTooLargeError,
    BundleFormatError,
    CoherenceBoundError,
    ConfigError,
    IndexOutOfRangeError,
    RankCollapseError,
    UnmappedRowError,
    ZeroColumnError,
)
from .merl import HalfAngleDirection, RowMap, index_to_direction

# column block size for correlation scans; bounds memory at wide n
_SCAN_BLOCK = 16384

# columns per scoring sub-block: its correlation buffer, 432 KB at t = 48,
# stays in L2.  A multiple of 384, so that OpenBLAS's kernels meet each
# column of a sub-block as they meet it in its whole block: 1024-column
# sub-blocks changed a few scores per block in the last bit at t > 192
_SUB_BLOCK = 1152

# size of cumulative_coherence's correlation block
_COHERENCE_BLOCK_BYTES = 128 << 20

# a NaN or overflowing atom value reaches the inverse column of its row
_NON_FINITE_COLUMN = "atoms must give inverse columns of finite norm"

# a pick whose component outside earlier picks is below norm / this is dependent
DEFAULT_COND_LIMIT = 1e12

SUPPORT_RECORD_VERSION = 3


@dataclass(frozen=True)
class SampleBudget:
    """Stop after exactly m selections."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise BudgetTooLargeError(f"sample budget must be >= 1, got {self.m}")


@dataclass(frozen=True)
class ErrorThreshold:
    """Stop once the residual Frobenius norm drops to epsilon.

    The printed greedy loop has no iteration cap; it stops after min(k, n)
    picks, or max_iters if fewer, since no later pick can widen the span.
    """

    epsilon: float
    max_iters: int | None = None

    def __post_init__(self):
        if not self.epsilon >= 0.0:  # NaN included
            raise ConfigError(f"threshold must be >= 0, got {self.epsilon}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")


StoppingRule = SampleBudget | ErrorThreshold


def stop_rules(m_values, threshold, max_iters, default) -> tuple:
    """The stop rule of each support a run selects: one ErrorThreshold when
    threshold is set, else one SampleBudget per m of m_values, or of default
    when m_values is None, each m given once."""
    if threshold is not None:
        if m_values:
            raise ConfigError("m and threshold are two stop rules for one run; set one")
        return (ErrorThreshold(threshold, max_iters),)
    if max_iters is not None:
        raise ConfigError("max_iters needs threshold; a budget selection would ignore it")
    m_values = default if m_values is None else m_values
    if not m_values:
        raise ConfigError("at least one sample count required")
    if len(set(m_values)) < len(m_values):
        raise ConfigError(f"each sample count may appear once, got {list(m_values)}")
    return tuple(SampleBudget(m) for m in m_values)


@dataclass
class SupportSet:
    """Ordered selected row indices with the residual after each iteration."""

    indices: list[int]
    residual_history: list[float] = field(default_factory=list)
    # scan blocks scored by the picks, and what a full scan would have scored
    blocks_scored: int = field(default=0, compare=False)
    blocks_total: int = field(default=0, compare=False)

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("support indices must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.indices)

    def rows(self, n: int) -> np.ndarray:
        """The indices, in selection order; at least one, each in [0, n)."""
        if len(self) == 0:
            raise IndexOutOfRangeError("empty support")
        # checked as Python ints, which an out-of-range record may overflow
        if any(i < 0 or i >= n for i in self.indices):
            raise IndexOutOfRangeError(f"support indices must lie in [0, {n})")
        return np.asarray(self.indices, dtype=np.int64)


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u the unit roundoff: the relative forward
    error bound of a sum or dot product of n float64 terms (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, section 3.1)."""
    u = np.finfo(np.float64).eps / 2
    return n * u / (1.0 - n * u)


def _score_block(cols: np.ndarray, residual: np.ndarray, buf: np.ndarray,
                 out: np.ndarray) -> None:
    """l1 norms of the correlation rows of a block of columns against the
    residual, written to out one ``_SUB_BLOCK``-column sub-block at a time
    through the reused (2 _SUB_BLOCK - 1, t) buffer buf: the last sub-block
    takes the columns left over."""
    width = cols.shape[1]
    cuts = parallel._cuts(width, _SUB_BLOCK, width)
    for start, stop in zip(cuts[:-1], cuts[1:]):
        corr = buf[:stop - start]
        np.matmul(cols[:, start:stop].T, residual, out=corr)
        np.abs(corr, out=corr)
        corr.sum(axis=1, out=out[start:stop])


class _BoundedScan:
    """SOMP's column scan over ``_SCAN_BLOCK`` blocks of the C-order float64
    array dinv, skipping the blocks that cannot hold the pick.  It scores
    dinv as it is: any normalization is settled before.

    Write s_j for the exact score ||R^T d_j||_1 of column d_j against the
    residual R that the loop computed.  Every unselected column obeys the norm
    bound s_j <= scale sqrt(nu2_j) + eta ||d_j||_2 of _norm_bound, where nu2_j
    tracks ||P_perp d_j||^2 and eta, one number per pick, absorbs every
    rounding error.  A pick bounds each block through its largest nu2_j and
    ||d_j||, scores blocks in decreasing order of that bound plus slack, and
    stops at the first block whose bound is strictly below the best score
    found.  Scores come from the full scan's GEMM, abs and row sum on the same
    block and sub-block boundaries, so they and the pick are bitwise the full
    scan's; a block that could tie the best is scanned, so ties still go to
    the lowest index.

    The scan is a context manager.  With more than one block, inside it a
    scored block's sub-blocks, and the column ranges of the bound GEMV and of
    the starting column norms, cut at multiples of 8, are split between one
    worker per CPU: the calling thread and a pool of the others.  OpenBLAS
    is pinned to one thread meanwhile.
    A lone block keeps no bounds and is scored on the calling thread.
    """

    def __init__(self, dinv: np.ndarray, coeffs: np.ndarray):
        k, n = dinv.shape
        t = coeffs.shape[1]
        self.dinv = dinv
        self.coeffs = coeffs
        self.starts = np.arange(0, n, _SCAN_BLOCK)
        self.blocks_scored = 0
        # every rounding error below is one of a dot product, a sum or a
        # Frobenius norm of at most k t + k + t terms, or of a few flops
        self.gamma = _gamma(k * t + k + t)
        self.root_t = math.sqrt(t)
        self.keeps_bounds = len(self.starts) > 1
        self.workers = parallel._WORKERS if self.keeps_bounds else 1
        self._pool = None
        self._stack = ExitStack()
        block = min(_SCAN_BLOCK, n)
        self._corr = [np.empty((min(2 * _SUB_BLOCK - 1, block), t))
                      for _ in range(self.workers)]
        self._scores = np.empty(block)
        # the bound GEMV's column ranges; starts at multiples of 8 keep each
        # column where it sits in the GEMV kernel's column groups in one
        # product over all n, so g's bits do not depend on the worker count
        self._ranges = parallel._cuts(n, 8, self.workers)

    def __enter__(self):
        # the pin and the pool are released if the bounds cannot be set up
        with ExitStack() as stack:
            if self.keeps_bounds:
                stack.enter_context(parallel._one_blas_thread())
            self._pool = stack.enter_context(parallel._pool(self.workers))
            if self.keeps_bounds:
                self._start_bounds()
            self._stack = stack.pop_all()
        return self

    def __exit__(self, *exc):
        self._pool = None
        self._stack.close()

    def _start_bounds(self) -> None:
        """The bounds before the first pick; a lone block keeps none, being
        scored at every pick, whatever its bound."""
        k, n = self.dinv.shape
        # ||P_perp d_j||^2, downdated by (q^T d_j)^2 as each direction q joins
        # the basis; kappa ||d_j||^2 bounds its accumulated rounding error.
        # Each column's sum is its own, over the ranges of the bound GEMV
        self.nu2 = np.empty(n)

        def norms(_, a, z):
            cols = self.dinv[:, a:z]
            np.einsum("ij,ij->j", cols, cols, out=self.nu2[a:z])

        parallel._run(self._pool, norms, self._ranges)
        self.kappa = self.gamma
        self.dmax = (np.sqrt(np.maximum.reduceat(self.nu2, self.starts))
                     * (1.0 + 2.0 * self.gamma))
        self.eta, self.scale = self._norm_bound(self.coeffs, np.zeros((k, 0)))
        self._g = np.empty(n)

    def _rho(self, residual: np.ndarray) -> float:
        """Upper bound on ||residual||_F."""
        return float(np.linalg.norm(residual)) * (1.0 + self.gamma)

    def pick(self, residual: np.ndarray, selected: list) -> int:
        """Index of the unselected column with the largest score, ties to the
        lowest index: the full scan's pick."""
        n = self.dinv.shape[1]
        order, block_bound = [0], [np.inf]
        if self.keeps_bounds:
            rho = self._rho(residual)
            # |computed score - s_j| <= eta_scan ||d_j||: gamma_k on each dot
            # product against |d_j|^T |r_c| <= ||d_j|| ||r_c||, gamma_t on the
            # row sum; the last 4 gamma covers rounding the block bound itself
            eta_scan = 2.0 * self.gamma * self.root_t * rho
            slack = self.eta + eta_scan + 4.0 * self.gamma * self.root_t * rho
            nu2 = np.maximum(np.maximum.reduceat(self.nu2, self.starts), 0.0)
            block_bound = self.scale * np.sqrt(nu2) + slack * self.dmax
            order = np.argsort(-block_bound, kind="stable")
        sel = np.asarray(selected, dtype=np.int64)
        best, best_j = -np.inf, -1
        for b in order:
            if block_bound[b] < best:
                break
            start = int(self.starts[b])
            stop = min(start + _SCAN_BLOCK, n)
            scores = self._scores[:stop - start]

            def score(i, a, z):
                _score_block(self.dinv[:, start + a:start + z], residual,
                             self._corr[i], scores[a:z])

            cuts = parallel._cuts(stop - start, _SUB_BLOCK, self.workers)
            parallel._run(self._pool, score, cuts)
            scores[sel[(sel >= start) & (sel < stop)] - start] = -np.inf
            i = int(np.argmax(scores))
            if np.isnan(scores[i]):  # a non-finite column, which _select refuses
                return start + i
            if scores[i] > best or (scores[i] == best and start + i < best_j):
                best, best_j = scores[i], start + i
            self.blocks_scored += 1
        return best_j

    def advance(self, basis: np.ndarray, residual: np.ndarray) -> None:
        """Carry the bound to residual, the residual once q, the last column
        of basis, joined the others: nu2_j drops by g_j^2, g_j = q^T d_j."""
        if not self.keeps_bounds:
            return
        q = basis[:, -1]

        def downdate(_, a, z):
            g = self._g[a:z]
            np.matmul(q, self.dinv[:, a:z], out=g)
            np.multiply(g, g, out=g)
            np.subtract(self.nu2[a:z], g, out=self.nu2[a:z])

        parallel._run(self._pool, downdate, self._ranges)
        # downdating: |g_j^2 - (q^T d_j)^2| <= gamma (2 + gamma) ||q||^2 ||d_j||^2,
        # and squaring and subtracting round by u each
        self.kappa += 3.0 * self.gamma * float(q @ q) * (1.0 + self.gamma)
        self.eta, self.scale = self._norm_bound(residual, basis)

    def _norm_bound(self, residual: np.ndarray, basis: np.ndarray) -> tuple:
        """(eta, scale) of the norm bound s_j <= scale sqrt(nu2_j) + eta ||d_j||,
        scale = sqrt(t) sigma_max(residual).

        With P_perp = I - Q Q^T for the computed basis Q, exactly
        R^T d = R^T P_perp d + (R^T Q) Q^T d, and
        ||P_perp d||^2 <= nu2 + (kappa + delta (1 + delta)) ||d||^2 where
        delta >= ||Q^T Q - I||_2 is measured, so that
        s_j <= sqrt(t) [sigma (sqrt(nu2_j) + sqrt(kappa + delta (1 + delta)) ||d_j||)
                        + ||R^T Q||_F sqrt(1 + delta) ||d_j||].
        sigma_max comes from a backward-stable SVD, within gamma rho.
        """
        gamma, p = self.gamma, basis.shape[1]
        rho = self._rho(residual)
        sigma = float(np.linalg.norm(residual, 2)) + gamma * rho
        gram = basis.T @ basis
        frob2 = float(np.trace(gram)) * (1.0 + 2.0 * gamma)
        delta = (float(np.linalg.norm(gram - np.eye(p))) + 2.0 * gamma * frob2) * (1.0 + gamma)
        omega = ((float(np.linalg.norm(residual.T @ basis)) * (1.0 + gamma)
                  + gamma * rho * math.sqrt(frob2)) * math.sqrt(1.0 + delta))
        # the last 4 gamma covers rounding scale sqrt(nu2)
        eta = self.root_t * (sigma * (math.sqrt(self.kappa + delta * (1.0 + delta))
                                      + 4.0 * gamma) + omega)
        return eta, self.root_t * sigma


def _unit_columns(dinv: np.ndarray) -> np.ndarray:
    """dinv with each column divided in place by its 2-norm, zero columns
    kept.  The norms are summed over an F-order copy of each scan block, so
    that they are the whole F-order array's column norms."""
    for start in range(0, dinv.shape[1], _SCAN_BLOCK):
        cols = dinv[:, start:start + _SCAN_BLOCK]
        with np.errstate(over="ignore"):  # a norm that overflows is refused below
            norms = np.linalg.norm(np.asfortranarray(cols), axis=0)
        if not np.all(norms < np.inf):  # NaN included
            raise BundleFormatError(_NON_FINITE_COLUMN)
        norms[norms == 0.0] = 1.0
        cols /= norms
    return dinv


def _select(scanned: np.ndarray, coeffs: np.ndarray, stop: StoppingRule,
            column) -> SupportSet:
    """The greedy loop: picks from the scan of the C-order array scanned,
    each pick's basis direction from column(j), dinv's raw column j, which
    must have a finite norm: else the bundle, not the training set, is at fault."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    k, n = scanned.shape
    if isinstance(stop, SampleBudget):
        if stop.m > min(k, n):
            raise BudgetTooLargeError(
                f"budget {stop.m} exceeds min(k, n) = {min(k, n)}"
            )
        max_steps = stop.m
        threshold = -1.0
    else:
        max_steps = min(k, n, stop.max_iters or k)
        threshold = stop.epsilon

    selected: list[int] = []
    history: list[float] = []
    basis = np.zeros((k, 0))
    residual = coeffs.copy()

    with _BoundedScan(scanned, coeffs) as scan:
        while len(selected) < max_steps:
            if threshold >= 0.0 and np.linalg.norm(residual) <= threshold:
                break
            j = scan.pick(residual, selected)
            selected.append(j)
            raw = column(j)
            with np.errstate(over="ignore"):  # a norm that overflows is refused here
                raw_norm = np.linalg.norm(raw)
            if not raw_norm < np.inf:  # NaN included
                raise BundleFormatError(_NON_FINITE_COLUMN)
            col = raw.copy()
            # orthogonalize twice; a second pass restores orthogonality lost
            # to cancellation in the first
            for _ in range(2):
                col -= basis @ (basis.T @ col)
            norm = np.linalg.norm(col)
            if norm <= raw_norm / DEFAULT_COND_LIMIT:
                raise RankCollapseError(
                    "selected columns became numerically dependent; the "
                    "training set cannot support more samples"
                )
            basis = np.hstack([basis, (col / norm)[:, None]])
            residual = coeffs - basis @ (basis.T @ coeffs)
            if len(selected) < max_steps:
                scan.advance(basis, residual)
            history.append(float(np.linalg.norm(residual)))

    return SupportSet(indices=selected, residual_history=history,
                      blocks_scored=scan.blocks_scored,
                      blocks_total=len(selected) * len(scan.starts))


def somp_select(dinv: np.ndarray, coeffs: np.ndarray, stop: StoppingRule) -> SupportSet:
    """Greedy support selection over the raw columns of dinv.

    Parameters
    ----------
    dinv : (k, n) dictionary inverse (or pseudo-inverse), in any layout; the
        scan reads a C-order copy of one in another.
    coeffs : (k, t) coefficient matrix shared by all training signals.
    stop : SampleBudget(m) or ErrorThreshold(epsilon).

    Returns the ordered support with the residual Frobenius norm recorded
    after every iteration.  Selection over unit-norm columns is
    select_support's, from a dictionary's atoms.
    """
    dinv = np.ascontiguousarray(dinv, dtype=np.float64)
    return _select(dinv, coeffs, stop, lambda j: dinv[:, j])


def select_support(pca, stop: StoppingRule, normalize_atoms: bool = False) -> SupportSet:
    """somp_select over a PcaDictionary's inverse and coefficients, refusing
    a budget above the atom count before the inverse is derived, and an
    empty support: only a threshold at or above the initial residual
    ||coeffs|| selects nothing, and no record or reconstruction can use it.

    It is the one selection over unit-norm columns.  With normalized atoms
    the raw inverse is never held: a fresh one is derived and divided in
    place, and each pick's raw column is derived from its atom row by the
    same formula, so it is bitwise inverse[:, j]."""
    if isinstance(stop, SampleBudget) and stop.m > pca.n_atoms:
        raise BudgetTooLargeError(
            f"sample budget {stop.m} exceeds the dictionary's {pca.n_atoms} atoms")
    if normalize_atoms:
        atoms, sigma = pca.atoms, pca.sigma
        unit = _unit_columns(dictionary._derived_inverse(atoms, sigma))
        support = _select(unit, pca.coeffs, stop,
                          lambda j: dictionary._derived_inverse(atoms[j:j + 1], sigma)[:, 0])
    else:
        support = somp_select(pca.inverse, pca.coeffs, stop)
    if len(support) == 0:
        raise ConfigError(
            f"threshold {stop.epsilon} is at or above the initial residual "
            f"{float(np.linalg.norm(pca.coeffs))}: no sample was selected"
        )
    return support


def support_to_directions(support: SupportSet, row_map: RowMap) -> list[HalfAngleDirection]:
    """Bin-center directions of the selected dense rows."""
    grid = row_map.grid_indices
    directions = []
    for row in support.indices:
        if row < 0 or row >= grid.size:
            raise UnmappedRowError(f"dense row {row} not covered by the row map")
        directions.append(index_to_direction(int(grid[row]), row_map.resolution))
    return directions


def support_record_fields(support: SupportSet, row_map: RowMap) -> dict:
    """The m, rows, grid, directions_deg and residual_history fields shared
    by the support record and the evaluation report."""
    return {
        "m": len(support),
        "rows": list(support.indices),
        "grid": [int(row_map.grid_indices[r]) for r in support.indices],
        "directions_deg": [
            [round(v, 3) for v in d.degrees()]
            for d in support_to_directions(support, row_map)
        ],
        "residual_history": [float(r) for r in support.residual_history],
    }


def support_record(support: SupportSet, bundle, normalize_atoms: bool) -> dict:
    """The record select-samples writes of a support selected from a
    DictionaryBundle.  It names the digest of bundle.for_budget(m), the
    bundle reconstruct reads the support with."""
    return {
        "version": SUPPORT_RECORD_VERSION,
        **support_record_fields(support, bundle.row_map),
        "bundle_digest": bundle.for_budget(len(support)).digest,
        "normalize_atoms": normalize_atoms,
    }


def read_support_record(path, bundle) -> tuple:
    """The support of a record and the truncation of bundle it was selected
    against, as (SupportSet, bundle.for_budget(m)).

    Raises ConfigError unless the record is a JSON object of the current
    version that names its bundle digest, whose m is an integer and whose
    rows hold m >= 1 distinct integers, and then unless that digest is the
    truncation's; the bundle is hashed only once the record passes.  Last,
    raises IndexOutOfRangeError unless each row is one of the bundle's."""
    try:
        record = json.loads(Path(path).read_text())
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ConfigError(f"support record {path} is not valid JSON: {exc}") from exc
    if not isinstance(record, dict) or record.get("version") != SUPPORT_RECORD_VERSION:
        raise ConfigError(f"support record {path} is not a version "
                          f"{SUPPORT_RECORD_VERSION} record")
    missing = [key for key in ("m", "rows", "bundle_digest") if key not in record]
    if missing:
        raise ConfigError(f"support record {path} lacks {', '.join(missing)}")
    rows = record["rows"]
    if not (type(record["m"]) is int and isinstance(rows, list)
            and all(type(r) is int for r in rows)
            and len(set(rows)) == len(rows) == record["m"] and rows):
        raise ConfigError(f"support record {path}: m must be an integer >= 1 and rows "
                          f"m distinct integers, got m={record['m']!r}")
    bundle = bundle.for_budget(record["m"])
    if record["bundle_digest"] != bundle.digest:
        raise ConfigError(
            f"support record was computed against bundle {record['bundle_digest']}, "
            f"got {bundle.digest}"
        )
    support = SupportSet(indices=rows)
    support.rows(bundle.pca.n_rows)
    return support, bundle


def direction_table(directions) -> str:
    """Human-facing table of directions in integer degrees."""
    lines = ["theta_h  theta_d  phi_d"]
    for d in directions:
        th, td, pd = d.degrees()
        lines.append(f"{round(th):>7d}  {round(td):>7d}  {round(pd):>5d}")
    return "\n".join(lines)


def cumulative_coherence(dinv: np.ndarray, m: int) -> float:
    """mu_1(m): max over atoms of the summed m largest cross-correlations.

    Columns are l2-normalized before correlating.  Small values certify that
    greedy selection stays close to the combinatorial optimum.
    """
    dinv = np.asarray(dinv, dtype=np.float64)
    n = dinv.shape[1]
    if not 1 <= m < n:
        raise ConfigError(f"m={m} must satisfy 1 <= m < n={n}")
    with np.errstate(over="ignore"):  # a norm that overflows is refused below
        norms = np.linalg.norm(dinv, axis=0)
    if not np.all((norms > 0.0) & (norms < np.inf)):  # NaN included
        raise ZeroColumnError("cannot normalize a column of zero or non-finite norm")
    unit = dinv / norms
    # rows of the (rows, n) correlation block, the scan's one large temporary
    rows = max(1, _COHERENCE_BLOCK_BYTES // (8 * n))
    best = 0.0
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        corr = unit[:, start:stop].T @ unit
        np.abs(corr, out=corr)
        corr[np.arange(stop - start), np.arange(start, stop)] = 0.0
        if m < n - 1:
            corr.partition(n - m, axis=1)
            corr = corr[:, n - m:]
        best = max(best, float(corr.sum(axis=1).max()))
    return best


def somp_residual_bound(mu1: float, m: int, t: int, optimal_err: float) -> float:
    """Worst-case ratio of the greedy residual to the combinatorial optimum.

    Valid only when mu_1(m) < 1/2; callers must treat a violated assumption
    as "bound not applicable" rather than a failure.
    """
    if mu1 >= 0.5:
        raise CoherenceBoundError(f"bound requires mu1(m) < 1/2, got {mu1}")
    factor = math.sqrt(1.0 + m * t * (1.0 - mu1) / (1.0 - 2.0 * mu1) ** 2)
    return factor * optimal_err
