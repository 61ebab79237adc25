import math

import numpy as np
import pytest

from sparsebrdf.dictionary import PcaDictionary
from sparsebrdf.merl import MERL_SCALES, BrdfResolution, BrdfTensor, RowMap, write_merl
from sparsebrdf.somp import select_support
from sparsebrdf.synthetic import MaterialSpec, gen_brdf


def make_random_tensor(rng, res=BrdfResolution(8, 8, 8), invalid_frac=0.1):
    """Random well-formed tensor whose valid values are exact read-back
    images of stored doubles (value = stored * scale)."""
    n = res.grid_size
    stored = rng.uniform(0.0, 1500.0, size=(3, n))
    mask = rng.random(n) >= invalid_frac
    values = stored * MERL_SCALES[:, None]
    values[:, ~mask] = -1.0
    return BrdfTensor(res, values, mask)


def toy_row_map(n_rows):
    """Row map over a degenerate 1-D grid; enough for pure matrix tests."""
    return RowMap(BrdfResolution(n_rows, 1, 1), np.arange(n_rows, dtype=np.int64))


def duplicate_material_corpus(directory) -> str:
    """Eight copies of one grey Lambertian and four GGX materials at 8^3.  A
    fold whose training median is the Lambertian at every row maps each
    held-out copy to an all-zero signal."""
    directory.mkdir()
    res = BrdfResolution(8, 8, 8)
    for i in range(8):
        spec = MaterialSpec(f"lam{i}", "lambertian", albedo=(0.5, 0.5, 0.5))
        write_merl(gen_brdf(spec, res), directory / f"lam{i}.binary")
    for i in range(4):
        spec = MaterialSpec(f"ggx{i}", "ggx", albedo=(0.2 + 0.1 * i, 0.3, 0.4),
                            specular=(0.5, 0.5 - 0.1 * i, 0.3), roughness=0.2 + 0.15 * i)
        write_merl(gen_brdf(spec, res), directory / f"ggx{i}.binary")
    return str(directory)


def normalized_select(dinv, coeffs, stop):
    """select_support with normalized atoms over the columns of dinv: with
    atoms dinv^T and unit sigma, the dictionary's derived inverse and each
    pick's derived column are dinv's, bitwise."""
    k, n = dinv.shape
    pca = PcaDictionary(np.zeros(n), dinv.T, coeffs.copy(), np.ones(k))
    return select_support(pca, stop, normalize_atoms=True)


def planted_instance(seed, k=64, n=256, t=8, sparsity=5):
    """MMV instance whose coefficients lie exactly in the span of a known
    column subset, so the true support is unambiguous."""
    rng = np.random.default_rng(seed)
    dinv = rng.standard_normal((k, n))
    support = np.sort(rng.choice(n, size=sparsity, replace=False))
    mix = rng.standard_normal((sparsity, t))
    coeffs = dinv[:, support] @ mix
    return dinv, coeffs, set(int(i) for i in support)


def low_coherence_frame(k, n, seed, iters=300):
    """Unit-norm frame with small worst-case correlations.

    Alternating projection between the set of Gram matrices with clipped
    off-diagonals and the set of rank-k Gram matrices; converges near the
    sqrt((n-k)/(k(n-1))) lower bound on coherence.
    """
    rng = np.random.default_rng(seed)
    frame = rng.standard_normal((k, n))
    frame /= np.linalg.norm(frame, axis=0)
    target = math.sqrt((n - k) / (k * (n - 1))) * 1.05
    for _ in range(iters):
        gram = frame.T @ frame
        off = gram - np.diag(np.diag(gram))
        off = np.clip(off, -target, target)
        gram = off + np.eye(n)
        w, v = np.linalg.eigh(gram)
        w = np.clip(w[-k:], 0.0, None)
        frame = (v[:, -k:] * np.sqrt(w)).T
        frame /= np.linalg.norm(frame, axis=0)
    return frame


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
