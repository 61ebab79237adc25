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
        if self.epsilon < 0.0:
            raise ValueError(f"threshold must be >= 0, got {self.epsilon}")


StoppingRule = SampleBudget | ErrorThreshold


@dataclass
class SupportSet:
    """Ordered selected row indices with the residual after each iteration."""

    indices: list[int]
    residual_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("support indices must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.indices)


def _correlation_scores(dinv: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """l1 norm of each column's correlation row against the residual."""
    n = dinv.shape[1]
    scores = np.empty(n)
    # one correlation buffer, reused by every block
    buf = np.empty((min(_SCAN_BLOCK, n), residual.shape[1]))
    for start in range(0, n, _SCAN_BLOCK):
        stop = min(start + _SCAN_BLOCK, n)
        corr = buf[:stop - start]
        np.matmul(dinv[:, start:stop].T, residual, out=corr)
        np.abs(corr, out=corr)
        corr.sum(axis=1, out=scores[start:stop])
    return scores


def atom_select(dinv: np.ndarray, residual: np.ndarray, exclude=()) -> int:
    """Index of the unselected column with the largest total correlation.

    Ties break toward the smallest index, which keeps the whole pursuit
    deterministic regardless of how the scan is parallelized.
    """
    scores = _correlation_scores(dinv, residual)
    for i in exclude:
        scores[i] = -np.inf
    return int(np.argmax(scores))


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

    selected: list[int] = []
    history: list[float] = []
    basis = np.zeros((k, 0))
    residual = coeffs.copy()

    while len(selected) < max_steps:
        if threshold >= 0.0 and np.linalg.norm(residual) <= threshold:
            break
        j = atom_select(scan_dinv, residual, exclude=selected)
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
        history.append(float(np.linalg.norm(residual)))

    return SupportSet(indices=selected, residual_history=history)


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
    m distinct integers."""
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
            and len(set(rows)) == len(rows) == record["m"]):
        raise ConfigError(f"support record {path}: rows must hold m={record['m']} "
                          "distinct integers")
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
        raise ValueError(f"m={m} must satisfy 1 <= m < n={n}")
    norms = np.linalg.norm(dinv, axis=0)
    if np.any(norms == 0.0):
        raise ZeroColumnError("cannot normalize a zero column")
    unit = dinv / norms
    best = 0.0
    for start in range(0, n, _SCAN_BLOCK):
        stop = min(start + _SCAN_BLOCK, n)
        corr = np.abs(unit[:, start:stop].T @ unit)
        corr[np.arange(stop - start), np.arange(start, stop)] = 0.0
        if m < n - 1:
            top = np.partition(corr, n - m, axis=1)[:, n - m:]
        else:
            top = corr
        best = max(best, float(top.sum(axis=1).max()))
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
