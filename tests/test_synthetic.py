import math

import numpy as np
import pytest

import sparsebrdf.synthetic as synthetic
from sparsebrdf.errors import ParameterRangeError
from sparsebrdf.merl import BrdfResolution, index_to_direction
from sparsebrdf.synthetic import (
    MODELS,
    MaterialSpec,
    gen_brdf,
    gen_corpus,
    halfdiff_to_io,
)

from oracles import uncached_gen_brdf

RES = BrdfResolution(16, 16, 16)


def _spec(model: str) -> MaterialSpec:
    return MaterialSpec(f"{model}-spec", model, albedo=(0.3, 0.5, 0.7),
                        specular=(0.9, 0.6, 0.2), shininess=40.0, roughness=0.2, f0=0.6)


def _assert_same_tensor(got, want):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.mask, want.mask)


def test_lambertian_constant():
    spec = MaterialSpec("lam", "lambertian", albedo=(0.5, 0.5, 0.5))
    brdf = gen_brdf(spec, RES)
    vals = brdf.values[:, brdf.mask]
    assert np.allclose(vals, 0.5 / np.pi)


def test_blinn_phong_at_normal_incidence():
    spec = MaterialSpec("bp", "blinn-phong", albedo=(0.2, 0.2, 0.2),
                        specular=(0.8, 0.8, 0.8), shininess=10.0)
    brdf = gen_brdf(spec, RES)
    # first grid cell: theta_h is the bin-0 center, nearly specular
    d = index_to_direction(0, RES)
    expect = 0.2 / math.pi + 0.8 * (10.0 + 2.0) / (2.0 * math.pi) * math.cos(d.theta_h) ** 10.0
    assert brdf.mask[0]
    assert np.allclose(brdf.values[:, 0], expect, rtol=1e-12)


def test_ggx_matches_hand_evaluation():
    rough, f0 = 0.4, 0.9
    spec = MaterialSpec("g", "ggx", albedo=(0.1, 0.1, 0.1),
                        specular=(1.0, 1.0, 1.0), roughness=rough, f0=f0)
    brdf = gen_brdf(spec, RES)
    idx = 0  # near-normal configuration
    d = index_to_direction(idx, RES)
    wi, wo = halfdiff_to_io(np.array(d.theta_h), np.array(d.theta_d), np.array(d.phi_d))
    ci, co = wi[2], wo[2]
    ch, cd = math.cos(d.theta_h), math.cos(d.theta_d)
    a2 = rough**4
    ndf = a2 / (math.pi * (ch * ch * (a2 - 1.0) + 1.0) ** 2)
    fres = f0 + (1.0 - f0) * (1.0 - cd) ** 5
    g2 = 2.0 * ci * co / (
        co * math.sqrt(a2 + (1.0 - a2) * ci * ci)
        + ci * math.sqrt(a2 + (1.0 - a2) * co * co)
    )
    expect = 0.1 / math.pi + ndf * fres * g2 / (4.0 * ci * co)
    assert np.allclose(brdf.values[:, idx], expect, rtol=1e-12)


def test_reciprocity_of_half_angle_geometry(rng):
    # swapping incident and outgoing flips the difference azimuth by pi,
    # which the [0, pi) fold maps back to the same cell
    theta_h = rng.uniform(0.1, 1.4, 20)
    theta_d = rng.uniform(0.1, 1.4, 20)
    phi_d = rng.uniform(0.0, np.pi, 20)
    wi, wo = halfdiff_to_io(theta_h, theta_d, phi_d)
    h = wi + wo
    h /= np.linalg.norm(h, axis=-1, keepdims=True)
    assert np.allclose(np.sum(h * wi, axis=-1), np.sum(h * wo, axis=-1), atol=1e-12)
    assert np.allclose(np.linalg.norm(wi, axis=-1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(wo, axis=-1), 1.0, atol=1e-12)


def test_generated_values_nonnegative_and_deterministic():
    spec = MaterialSpec("g", "ggx", albedo=(0.3, 0.5, 0.7),
                        specular=(0.9, 0.8, 0.7), roughness=0.15, f0=0.95)
    a = gen_brdf(spec, RES)
    b = gen_brdf(spec, RES)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.mask, b.mask)
    assert a.values[:, a.mask].min() >= 0.0


def test_mask_is_geometry_only():
    corpus = gen_corpus(7, 5, RES)
    masks = [b.mask for _, b in corpus]
    for m in masks[1:]:
        assert np.array_equal(m, masks[0])
    assert 0 < masks[0].sum() < RES.grid_size


@pytest.mark.parametrize("res", [BrdfResolution(16, 16, 16), BrdfResolution(5, 7, 9),
                                 BrdfResolution(30, 30, 60)], ids=["16", "5x7x9", "30x30x60"])
@pytest.mark.parametrize("model", MODELS)
def test_gen_brdf_is_the_uncached_oracle_bit_for_bit(model, res):
    _assert_same_tensor(gen_brdf(_spec(model), res), uncached_gen_brdf(_spec(model), res))


def test_geometry_cache_keeps_one_resolution_and_evicts_it():
    synthetic._valid_geometry.cache_clear()
    a, b = BrdfResolution(8, 8, 8), BrdfResolution(10, 9, 12)
    for res in (a, b, a):
        for model in MODELS:
            _assert_same_tensor(gen_brdf(_spec(model), res), uncached_gen_brdf(_spec(model), res))
    info = synthetic._valid_geometry.cache_info()
    assert (info.misses, info.currsize) == (3, 1)


def test_cached_geometry_is_read_only():
    geometry = synthetic._valid_geometry(RES)
    assert len(geometry) == 5
    for array in geometry:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_gen_corpus_computes_the_geometry_once(monkeypatch):
    calls = []
    real = synthetic.halfdiff_to_io

    def counting(*angles):
        calls.append(1)
        return real(*angles)

    monkeypatch.setattr(synthetic, "halfdiff_to_io", counting)
    # a resolution no other test generates, so the cache cannot already hold it
    gen_corpus(3, 5, BrdfResolution(6, 7, 11))
    assert len(calls) == 1


def test_corpus_reproducible():
    a = gen_corpus(42, 8, RES)
    b = gen_corpus(42, 8, RES)
    assert [s.material_id for s, _ in a] == [s.material_id for s, _ in b]
    for (_, ta), (_, tb) in zip(a, b):
        assert np.array_equal(ta.values, tb.values)
    single = gen_corpus(1, 1, RES)
    assert len(single) == 1


def test_corpus_mixes_models():
    models = {s.model for s, _ in gen_corpus(3, 30, BrdfResolution(4, 4, 4))}
    assert models == {"lambertian", "blinn-phong", "ggx"}


def test_parameter_validation():
    with pytest.raises(ParameterRangeError):
        MaterialSpec("x", "phong")
    with pytest.raises(ParameterRangeError):
        MaterialSpec("x", "ggx", albedo=(1.5, 0.0, 0.0))
    with pytest.raises(ParameterRangeError):
        MaterialSpec("x", "ggx", roughness=0.0)
    with pytest.raises(ParameterRangeError):
        MaterialSpec("x", "blinn-phong", shininess=-1.0)
    for f0 in (-0.1, 1.5):
        with pytest.raises(ParameterRangeError, match=rf"f0 {f0} outside \[0, 1\]"):
            MaterialSpec("x", "ggx", f0=f0)
    with pytest.raises(ParameterRangeError):
        gen_corpus(0, 0, RES)
