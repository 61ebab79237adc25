"""Analytic BRDF generators for desk-scale testing and benchmarking."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterRangeError
from .merl import (
    INVALID_SENTINEL,
    MERL_SCALES,
    BrdfResolution,
    BrdfTensor,
    bin_center_angles,
)

MODELS = ("lambertian", "blinn-phong", "ggx")

# directions closer to the horizon than this cosine are masked invalid,
# mirroring the invalid entries of measured data
HORIZON_COS = 1e-4


@dataclass(frozen=True)
class MaterialSpec:
    material_id: str
    model: str
    albedo: tuple = (0.5, 0.5, 0.5)
    specular: tuple = (0.0, 0.0, 0.0)
    shininess: float = 32.0
    roughness: float = 0.3
    f0: float = 0.04

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterRangeError(f"unknown model {self.model!r}")
        for name, rgb in (("albedo", self.albedo), ("specular", self.specular)):
            if len(rgb) != 3 or any(not 0.0 <= v <= 1.0 for v in rgb):
                raise ParameterRangeError(f"{name} {rgb} outside [0, 1]^3")
        if self.shininess <= 0.0:
            raise ParameterRangeError(f"shininess {self.shininess} must be > 0")
        if not 0.0 < self.roughness <= 1.0:
            raise ParameterRangeError(f"roughness {self.roughness} outside (0, 1]")
        if not 0.0 <= self.f0 <= 1.0:
            raise ParameterRangeError(f"f0 {self.f0} outside [0, 1]")


def halfdiff_to_io(theta_h, theta_d, phi_d):
    """Incident/outgoing unit vectors for half-angle coordinates.

    The half vector is placed in the xz-plane (phi_h = 0; isotropy makes the
    choice free), the difference vector is rotated out of the half-vector
    frame, and the outgoing direction is the reflection of the incident one
    about the half vector.
    """
    sh, ch = np.sin(theta_h), np.cos(theta_h)
    sd, cd = np.sin(theta_d), np.cos(theta_d)
    dx = sd * np.cos(phi_d)
    dy = sd * np.sin(phi_d)
    dz = cd
    wi = np.stack([ch * dx + sh * dz, dy, -sh * dx + ch * dz], axis=-1)
    h = np.stack([sh, np.zeros_like(sh), ch], axis=-1)
    wo = 2.0 * np.sum(wi * h, axis=-1, keepdims=True) * h - wi
    return wi, wo


@lru_cache(maxsize=1)
def _valid_geometry(res: BrdfResolution) -> tuple:
    """The horizon mask and, at its valid cells, cos theta_h, cos_i, cos_o and
    (1 - cos theta_d)^5: all the models read of the grid, computed once per
    resolution and read-only, since every gen_brdf call at it shares them."""
    theta_h, theta_d, phi_d = bin_center_angles(res)
    wi, wo = halfdiff_to_io(theta_h, theta_d, phi_d)
    cos_i, cos_o = wi[:, 2], wo[:, 2]
    mask = (cos_i >= HORIZON_COS) & (cos_o >= HORIZON_COS)
    geometry = (mask, np.cos(theta_h[mask]), cos_i[mask], cos_o[mask],
                np.power(1.0 - np.cos(theta_d[mask]), 5.0))
    for array in geometry:
        array.setflags(write=False)
    return geometry


def _eval_channels(spec: MaterialSpec, cos_h, cos_i, cos_o, schlick):
    albedo = np.asarray(spec.albedo)[:, None]
    diffuse = albedo / np.pi * np.ones_like(cos_h)

    if spec.model == "lambertian":
        return diffuse

    specular = np.asarray(spec.specular)[:, None]
    if spec.model == "blinn-phong":
        # normalized lobe: (n+2)/(2 pi) cos^n(theta_h)
        n = spec.shininess
        lobe = (n + 2.0) / (2.0 * np.pi) * np.power(cos_h, n)
        return diffuse + specular * lobe

    # ggx: Trowbridge-Reitz distribution with alpha = roughness^2,
    # height-correlated Smith visibility and a Schlick Fresnel factor
    alpha2 = spec.roughness ** 4
    denom = cos_h * cos_h * (alpha2 - 1.0) + 1.0
    ndf = alpha2 / (np.pi * denom * denom)
    fresnel = spec.f0 + (1.0 - spec.f0) * schlick
    lam_i = cos_o * np.sqrt(alpha2 + (1.0 - alpha2) * cos_i * cos_i)
    lam_o = cos_i * np.sqrt(alpha2 + (1.0 - alpha2) * cos_o * cos_o)
    vis = 2.0 * cos_i * cos_o / (lam_i + lam_o)
    lobe = ndf * fresnel * vis / (4.0 * cos_i * cos_o)
    return diffuse + specular * lobe


def gen_brdf(spec: MaterialSpec, res: BrdfResolution) -> BrdfTensor:
    """Evaluate the analytic reflectance at every bin center.

    Bins whose reconstructed incident or outgoing direction dips below the
    horizon are masked invalid, so masking code paths see the same structure
    as measured data.  The mask depends only on the resolution, and is
    computed once per resolution with the cosines the models read.  Each
    value is one a MERL file can hold, as read_merl reads it back, so a
    written corpus evaluates exactly as the generated one.
    """
    mask, *cosines = _valid_geometry(res)
    values = np.full((3, res.grid_size), INVALID_SENTINEL)
    vals = _eval_channels(spec, *cosines)
    scale = MERL_SCALES[:, None]
    values[:, mask] = np.maximum(vals, 0.0) / scale * scale
    return BrdfTensor(res, values, mask)


def gen_corpus(seed: int, count: int, res: BrdfResolution):
    """Reproducible mixed-model corpus: list of (MaterialSpec, BrdfTensor)."""
    if count < 1:
        raise ParameterRangeError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(count):
        model = MODELS[int(rng.integers(0, len(MODELS)))]
        spec = MaterialSpec(
            material_id=f"mat{i:03d}-{model}",
            model=model,
            albedo=tuple(rng.uniform(0.05, 0.95, size=3).round(6)),
            specular=tuple(rng.uniform(0.05, 1.0, size=3).round(6)),
            shininess=float(np.exp(rng.uniform(np.log(8.0), np.log(256.0)))),
            roughness=float(rng.uniform(0.08, 1.0)),
            f0=float(rng.uniform(0.02, 1.0)),
        )
        corpus.append((spec, gen_brdf(spec, res)))
    return corpus
