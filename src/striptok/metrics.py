"""Geometric evaluation metrics over sampled surfaces.

Normal consistency, Chamfer distance, Hausdorff distance, and F-score are
computed from bidirectional exact nearest neighbors between two sampled
point sets.  :func:`compare_meshes` runs one exact neighbor pass per pair
(a k-d tree over each sample set, built once per set, and one query each
way) and shares it across all four metrics; each metric function also
computes the pass itself when called on its own.  Each side's points query
the other tree in the leaf order of their own tree, so neighboring queries
walk the same nodes, and the results are scattered back to sample order.
Given ``workers`` > 1 threads, the pass builds every tree it lacks at once,
one per thread (``cKDTree`` releases the GIL while it builds), and each
query splits its points into ``workers`` contiguous runs of that leaf
order, each gathered, queried and scattered back on its own thread.  Every
point is still searched on its own against an unchanged tree, so the
distances and tie-broken indices are those of one serial query in sample
order, at any thread count.  Sampling splits its rows across ``workers``
threads the same way: the face draw is ``Generator.choice``'s own (one
normalized cumulative sum, searched for one ``random(n)`` draw), so the
samples too are the same at any thread count.  Sample rows, query runs and
tree builds all run through :func:`~striptok.mesh_io.on_threads`, with the
calling thread as one of the threads.
Conventions pinned here because they vary across codebases:
Chamfer averages the two directed means, NC uses the absolute dot product
(winding-robust), and F-score counts points within the threshold
inclusively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .mesh_io import Mesh, _check_int, _check_tau, check_mesh, on_threads, split_quad_faces

DEFAULT_SAMPLES = 100_000
DEFAULT_TAU = 0.003


@dataclass(frozen=True)
class SampleSet:
    points: np.ndarray
    normals: np.ndarray

    @cached_property
    def tree(self) -> cKDTree:
        """The k-d tree over ``points``, built on first use and kept with the set."""
        return cKDTree(self.points)


@dataclass
class MetricReport:
    nc: float
    cd: float
    hd: float
    f1: float


def _triangles(mesh: Mesh) -> np.ndarray:
    """``(3, T, 3)``: the first, second and third corners of each triangle;
    ``ValueError`` on no faces or a mesh that fails ``check_mesh``."""
    if not len(mesh.faces):
        raise ValueError("mesh has no faces")
    check_mesh(mesh)
    return mesh.positions[split_quad_faces(mesh.faces).T]


def _check_workers(workers) -> int:
    return _check_int(workers, 1, "workers must be a positive int")


def _check_n(n) -> int:
    return _check_int(n, 1, "n must be a positive int", "n must be at least 1")


def _check_seed(seed) -> int:
    return _check_int(seed, 0, "seed must be a non-negative int")


def _on_rows(fn, n: int, workers: int) -> None:
    """Call ``fn(rows)`` on ``min(workers, n)`` contiguous slices that cover
    ``range(n)``, on as many threads, the calling thread among them."""
    parts = min(workers, n)
    bounds = [n * k // parts for k in range(parts + 1)]
    on_threads(lambda k: fn(slice(bounds[k], bounds[k + 1])), parts, parts)


def sample_surface(mesh: Mesh, n: int = DEFAULT_SAMPLES, seed: int = 0, workers: int = 1) -> SampleSet:
    """Draw n area-weighted points with face normals; deterministic per seed.

    Quads are split along the (v1, v3) diagonal before sampling, as in the
    dual decode, so a quad decode samples exactly like its stride-1 decode.
    Faces are drawn as ``Generator.choice(p=areas / total)`` draws them (the
    normalized cumulative sum searched for ``random(n)``); that search and
    the blend of each sample's corners run on ``workers`` threads, over
    contiguous rows, so the samples are the same at any number.  ``seed``
    must be a non-negative int (NumPy integers too, a bool not).
    """
    n, seed, workers = _check_n(n), _check_seed(seed), _check_workers(workers)
    corners = _triangles(mesh)
    # huge finite coordinates overflow here; the total below rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = corners[1] - corners[0]
        e2 = corners[2] - corners[0]
        cross = np.cross(e1, e2)
        norms = np.linalg.norm(cross, axis=1)
        areas = 0.5 * norms
        total = areas.sum()
    if not np.isfinite(total):
        raise ValueError("non-finite surface area")
    if total <= 0.0:
        raise ValueError("zero-area mesh")
    with np.errstate(divide="ignore", invalid="ignore"):  # a face of zero area is never drawn
        unit = cross / norms[:, None]

    cdf = np.cumsum(areas / total)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    points = np.empty((n, 3))
    normals = np.empty((n, 3))

    def draw(rows):
        chosen = cdf.searchsorted(u[rows], side="right")
        a, b, c = np.take(corners, chosen, axis=1)
        s, t = r1[rows], r2[rows]
        points[rows] = a * (1.0 - s)[:, None] + b * (s * (1.0 - t))[:, None] + c * (s * t)[:, None]
        normals[rows] = np.take(unit, chosen, axis=0)

    _on_rows(draw, n, workers)
    return SampleSet(points=points, normals=normals)


def _query(tree: cKDTree, s: SampleSet, workers: int):
    """Nearest neighbors in ``tree`` of the points of ``s``, in sample order.

    The points are queried in the leaf order of their own tree; each of
    ``workers`` threads gathers a contiguous run of that order, queries it
    and puts the results back where each point stands in ``s``.
    """
    order = s.tree.indices
    d = np.empty(len(order))
    i = np.empty(len(order), dtype=np.intp)

    def query(rows):
        at = order[rows]
        d[at], i[at] = tree.query(s.points[at])

    _on_rows(query, len(order), workers)
    return d, i


def _nn(a: SampleSet, b: SampleSet, workers: int = 1):
    """Exact nearest neighbors both ways: (d_ab, i_ab, d_ba, i_ba).

    ``workers`` is the number of threads the pass may run on; the results
    are the same at any number.
    """
    workers = _check_workers(workers)
    if len(a.points) == 0 or len(b.points) == 0:
        raise ValueError("empty sample set")
    # every missing tree at once, put where the ``tree`` cached_property
    # keeps them: building through it would run one build after the other,
    # since before Python 3.12 its lock is shared by every instance
    missing = [s for s in ((a,) if a is b else (a, b)) if "tree" not in vars(s)]

    def build(k):
        vars(missing[k])["tree"] = cKDTree(missing[k].points)

    on_threads(build, len(missing), workers)
    d_ab, i_ab = _query(b.tree, a, workers)
    d_ba, i_ba = _query(a.tree, b, workers)
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
    ref: Mesh | SampleSet,
    pred: Mesh,
    n: int = DEFAULT_SAMPLES,
    tau: float = DEFAULT_TAU,
    seed: int = 0,
    workers: int = 1,
) -> MetricReport:
    """Sample both meshes and compute the four geometric metrics.

    ``ref`` may also be ``sample_surface(ref, n, seed)`` itself, drawn once
    to score many predictions against one reference; its k-d tree is then
    built once too.  Arguments are checked before any sampling.  Sampling
    and one neighbor pass, which serves all four metrics, run on up to
    ``workers`` threads; the report is the same at any number.
    """
    n, seed, workers = _check_n(n), _check_seed(seed), _check_workers(workers)
    _check_tau(tau)
    if isinstance(ref, SampleSet):
        if len(ref.points) != n:
            raise ValueError(f"reference has {len(ref.points)} samples, not n={n}")
        a = ref
    else:
        a = sample_surface(ref, n=n, seed=seed, workers=workers)
    b = sample_surface(pred, n=n, seed=seed, workers=workers)
    nn = _nn(a, b, workers)
    cd, hd = chamfer_hausdorff(a, b, nn)
    return MetricReport(
        nc=normal_consistency(a, b, nn), cd=cd, hd=hd, f1=f_score(a, b, tau, nn)
    )
