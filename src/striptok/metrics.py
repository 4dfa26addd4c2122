"""Geometric evaluation metrics over sampled surfaces.

Normal consistency, Chamfer distance, Hausdorff distance, and F-score are
computed from bidirectional exact nearest neighbors between two sampled
point sets.  :func:`compare_meshes` runs one exact neighbor pass per pair
(two k-d trees, two queries) and shares it across all four metrics; each
metric function also computes the pass itself when called on its own.
Conventions pinned here because they vary across codebases:
Chamfer averages the two directed means, NC uses the absolute dot product
(winding-robust), and F-score counts points within the threshold
inclusively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .mesh_io import Mesh, split_quad_faces

DEFAULT_SAMPLES = 100_000
DEFAULT_TAU = 0.003


@dataclass
class SampleSet:
    points: np.ndarray
    normals: np.ndarray


@dataclass
class MetricReport:
    nc: float
    cd: float
    hd: float
    f1: float


def _triangles(mesh: Mesh) -> np.ndarray:
    if not len(mesh.faces):
        raise ValueError("mesh has no faces")
    return mesh.positions[split_quad_faces(mesh.faces)]


def sample_surface(mesh: Mesh, n: int = DEFAULT_SAMPLES, seed: int = 0) -> SampleSet:
    """Draw n area-weighted points with face normals; deterministic per seed.

    Quads are split along the (v1, v3) diagonal before sampling, as in the
    dual decode, so a quad decode samples exactly like its stride-1 decode.
    """
    corners = _triangles(mesh)
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    cross = np.cross(e1, e2)
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    total = areas.sum()
    if total <= 0.0:
        raise ValueError("zero-area mesh")

    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(areas), size=n, p=areas / total)
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    a = corners[chosen, 0]
    b = corners[chosen, 1]
    c = corners[chosen, 2]
    points = (
        a * (1.0 - r1)[:, None]
        + b * (r1 * (1.0 - r2))[:, None]
        + c * (r1 * r2)[:, None]
    )
    normals = cross[chosen]
    norms = np.linalg.norm(normals, axis=1)
    normals = normals / norms[:, None]
    return SampleSet(points=points, normals=normals)


def _nn(a: SampleSet, b: SampleSet):
    """Exact nearest neighbors both ways: (d_ab, i_ab, d_ba, i_ba)."""
    if len(a.points) == 0 or len(b.points) == 0:
        raise ValueError("empty sample set")
    d_ab, i_ab = cKDTree(b.points).query(a.points)
    d_ba, i_ba = cKDTree(a.points).query(b.points)
    return d_ab, i_ab, d_ba, i_ba


def chamfer_hausdorff(a: SampleSet, b: SampleSet, nn=None) -> tuple[float, float]:
    """(mean of the two directed NN means, max of the two directed maxima).

    ``nn`` is a precomputed ``(d_ab, i_ab, d_ba, i_ba)`` neighbor pass
    from a to b and back; computed here when omitted.
    """
    d_ab, _, d_ba, _ = _nn(a, b) if nn is None else nn
    cd = 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))
    hd = max(float(d_ab.max()), float(d_ba.max()))
    return cd, hd


def normal_consistency(a: SampleSet, b: SampleSet, nn=None) -> float:
    """Mean absolute normal dot product against nearest neighbors, both ways.

    ``nn`` is a precomputed ``(d_ab, i_ab, d_ba, i_ba)`` neighbor pass
    from a to b and back; computed here when omitted.
    """
    _, i_ab, _, i_ba = _nn(a, b) if nn is None else nn
    fwd = np.abs(np.einsum("ij,ij->i", a.normals, b.normals[i_ab])).mean()
    bwd = np.abs(np.einsum("ij,ij->i", b.normals, a.normals[i_ba])).mean()
    return 0.5 * (float(fwd) + float(bwd))


def _check_tau(tau: float) -> None:
    if not tau > 0.0:  # also rejects NaN
        raise ValueError("tau must be positive")


def f_score(a: SampleSet, b: SampleSet, tau: float = DEFAULT_TAU, nn=None) -> float:
    """Harmonic mean of precision/recall at distance threshold tau.

    ``nn`` is a precomputed ``(d_ab, i_ab, d_ba, i_ba)`` neighbor pass
    from a to b and back; computed here when omitted.
    """
    _check_tau(tau)
    d_ab, _, d_ba, _ = _nn(a, b) if nn is None else nn
    precision = float((d_ab <= tau).mean())
    recall = float((d_ba <= tau).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def compare_meshes(
    ref: Mesh,
    pred: Mesh,
    n: int = DEFAULT_SAMPLES,
    tau: float = DEFAULT_TAU,
    seed: int = 0,
) -> MetricReport:
    """Sample both meshes and compute the four geometric metrics.

    Arguments are checked before any sampling; one neighbor pass serves all
    four metrics.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_tau(tau)
    a = sample_surface(ref, n=n, seed=seed)
    b = sample_surface(pred, n=n, seed=seed)
    nn = _nn(a, b)
    cd, hd = chamfer_hausdorff(a, b, nn)
    return MetricReport(
        nc=normal_consistency(a, b, nn), cd=cd, hd=hd, f1=f_score(a, b, tau, nn)
    )
