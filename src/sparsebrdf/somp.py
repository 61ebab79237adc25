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
block GEMM, abs and row sum on the same block boundaries), and every column
that could reach the best score is scored, so the picks, ties included, and
the residual history are identical to a full scan's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BudgetTooLargeError,
    CoherenceBoundError,
    ConfigError,
    RankCollapseError,
    UnmappedRowError,
    ZeroColumnError,
)
from .merl import HalfAngleDirection, RowMap, index_to_direction

# column block size for correlation scans; bounds memory at wide n
_SCAN_BLOCK = 16384

# size of cumulative_coherence's correlation block
_COHERENCE_BLOCK_BYTES = 128 << 20

# a pick whose component outside earlier picks is below norm / this is dependent
DEFAULT_COND_LIMIT = 1e12

SUPPORT_RECORD_VERSION = 1


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

    The printed greedy loop has no iteration cap, so a guard defaulting to
    min(k, n) is applied.
    """

    epsilon: float
    max_iters: int | None = None

    def __post_init__(self):
        if not self.epsilon >= 0.0:  # NaN included
            raise ConfigError(f"threshold must be >= 0, got {self.epsilon}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")


StoppingRule = SampleBudget | ErrorThreshold


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


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u the unit roundoff: the relative forward
    error bound of a sum or dot product of n float64 terms (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, section 3.1)."""
    u = np.finfo(np.float64).eps / 2
    return n * u / (1.0 - n * u)


def _score_block(dinv: np.ndarray, residual: np.ndarray, start: int, stop: int,
                 buf: np.ndarray, out: np.ndarray) -> None:
    """l1 norms of the correlation rows of columns start:stop against the
    residual, written to out through the reused buffer buf."""
    corr = buf[:stop - start]
    np.matmul(dinv[:, start:stop].T, residual, out=corr)
    np.abs(corr, out=corr)
    corr.sum(axis=1, out=out)


class _BoundedScan:
    """SOMP's column scan over ``_SCAN_BLOCK`` blocks, skipping the blocks that
    cannot hold the pick.

    Write s_j for the exact score ||R^T d_j||_1 of column d_j against the
    residual R that the loop computed.  Every unselected column obeys the norm
    bound s_j <= scale sqrt(nu2_j) + eta ||d_j||_2 of _norm_bound, where nu2_j
    tracks ||P_perp d_j||^2 and eta, one number per pick, absorbs every
    rounding error.  A pick bounds each block through its largest nu2_j and
    ||d_j||, scores blocks in decreasing order of that bound plus slack, and
    stops at the first block whose bound is strictly below the best score
    found.  Scores come from the full scan's GEMM, abs and row sum on the same
    block boundaries, so they and the pick are bitwise the full scan's; a
    block that could tie the best is scanned, so ties still go to the lowest
    index.
    """

    def __init__(self, dinv: np.ndarray, coeffs: np.ndarray):
        k, n = dinv.shape
        t = coeffs.shape[1]
        self.dinv = dinv
        self.starts = np.arange(0, n, _SCAN_BLOCK)
        self.blocks_scored = 0
        # every rounding error below is one of a dot product, a sum or a
        # Frobenius norm of at most k t + k + t terms, or of a few flops
        self.gamma = _gamma(k * t + k + t)
        self.root_t = math.sqrt(t)
        block = min(_SCAN_BLOCK, n)
        self._corr = np.empty((block, t))
        self._scores = np.empty(block)
        self.keeps_bounds = len(self.starts) > 1
        if not self.keeps_bounds:
            return  # a lone block is scored at every pick, whatever its bound
        # ||P_perp d_j||^2, downdated by (q^T d_j)^2 as each direction q joins
        # the basis; kappa ||d_j||^2 bounds its accumulated rounding error
        self.nu2 = np.einsum("ij,ij->j", dinv, dinv)
        self.kappa = self.gamma
        self.dmax = (np.sqrt(np.maximum.reduceat(self.nu2, self.starts))
                     * (1.0 + 2.0 * self.gamma))
        self.eta, self.scale = self._norm_bound(coeffs, np.zeros((k, 0)))

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
            _score_block(self.dinv, residual, start, stop, self._corr, scores)
            scores[sel[(sel >= start) & (sel < stop)] - start] = -np.inf
            i = int(np.argmax(scores))
            if scores[i] > best or (scores[i] == best and start + i < best_j):
                best, best_j = scores[i], start + i
            self.blocks_scored += 1
        return best_j

    def advance(self, basis: np.ndarray, residual: np.ndarray) -> None:
        """Carry the bound to residual, the residual once q, the last column
        of basis, joined the others: nu2_j drops by (d_j^T q)^2."""
        if not self.keeps_bounds:
            return
        q = basis[:, -1]
        g = q @ self.dinv
        self.nu2 -= g * g
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


def somp_select(
    dinv: np.ndarray,
    coeffs: np.ndarray,
    stop: StoppingRule,
    normalize_atoms: bool = False,
) -> SupportSet:
    """Greedy support selection over the columns of dinv.

    Parameters
    ----------
    dinv : (k, n) dictionary inverse (or pseudo-inverse).
    coeffs : (k, t) coefficient matrix shared by all training signals.
    stop : SampleBudget(m) or ErrorThreshold(epsilon).
    normalize_atoms : scan correlations against unit-norm columns instead of
        raw ones.  Off by default; the projection step is unaffected either
        way since normalization does not change column spans.

    Returns the ordered support with the residual Frobenius norm recorded
    after every iteration.
    """
    dinv = np.asarray(dinv, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    k, n = dinv.shape
    if isinstance(stop, SampleBudget):
        if stop.m > min(k, n):
            raise BudgetTooLargeError(
                f"budget {stop.m} exceeds min(k, n) = {min(k, n)}"
            )
        max_steps = stop.m
        threshold = -1.0
    else:
        max_steps = stop.max_iters if stop.max_iters is not None else min(k, n)
        threshold = stop.epsilon

    scan_dinv = dinv
    if normalize_atoms:
        # summed in one order whatever dinv's memory layout, so that near-tied
        # normalized scores do not flip picks between layouts
        norms = np.linalg.norm(np.asfortranarray(dinv), axis=0)
        scan_dinv = dinv / np.where(norms > 0.0, norms, 1.0)

    scan = _BoundedScan(scan_dinv, coeffs)
    selected: list[int] = []
    history: list[float] = []
    basis = np.zeros((k, 0))
    residual = coeffs.copy()

    while len(selected) < max_steps:
        if threshold >= 0.0 and np.linalg.norm(residual) <= threshold:
            break
        j = scan.pick(residual, selected)
        selected.append(j)
        col = dinv[:, j].astype(np.float64, copy=True)
        # orthogonalize twice; a second pass restores orthogonality lost
        # to cancellation in the first
        for _ in range(2):
            col -= basis @ (basis.T @ col)
        norm = np.linalg.norm(col)
        if norm <= np.linalg.norm(dinv[:, j]) / DEFAULT_COND_LIMIT:
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


def select_support(pca, stop: StoppingRule, normalize_atoms: bool = False) -> SupportSet:
    """somp_select over a PcaDictionary's inverse and coefficients, refusing
    an empty support: only a threshold at or above the initial residual
    ||coeffs|| selects nothing, and no record or reconstruction can use it."""
    support = somp_select(pca.inverse, pca.coeffs, stop, normalize_atoms=normalize_atoms)
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


def read_support_record(path) -> dict:
    """Load a support record, raising ConfigError unless it is a JSON object
    of the current version that names its bundle digest and whose rows hold
    m >= 1 distinct integers."""
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
    if not (isinstance(rows, list) and all(type(r) is int for r in rows)
            and len(set(rows)) == len(rows) == record["m"] and rows):
        raise ConfigError(f"support record {path}: rows must hold m={record['m']} "
                          ">= 1 distinct integers")
    return record


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
    norms = np.linalg.norm(dinv, axis=0)
    if np.any(norms == 0.0):
        raise ZeroColumnError("cannot normalize a zero column")
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
