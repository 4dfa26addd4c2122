"""Hierarchical coordinate quantization on a 512^3 grid.

Vertex positions are normalized into the unit cube, snapped to grid cells,
and split into a three-level code (c1, c2, c3) at 4/8/16 cells per axis and
level.  The grid resolution and level split are fixed; the axis combination
inside each level is x-major (x*k^2 + y*k + z).  :class:`QuantizedMesh`
holds int64 NumPy arrays, which every stage reads and writes as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh_io import IslandPartition, Mesh, first_occurrence, sort_rows, unique_first

GRID = 512
EPS = 1e-9


@dataclass(frozen=True)
class Transform:
    """Maps normalized [0,1]^3 coordinates back to model space.

    ``scale`` is in model units per normalized unit, so the inverse of the
    normalization applied to the mesh: model = normalized * scale + center.
    """

    center: tuple[float, float, float]
    scale: float


@dataclass
class QuantizedMesh:
    """Mesh snapped to the grid: ``(V, 3)`` grid keys, ``(F, d)`` key-index
    faces and ``(F,)`` dense island labels (zeros: one island), all int64.
    Faces follow the :class:`~striptok.mesh_io.Mesh` pad rule; a decode pads
    an odd stride-2 strip's last face."""

    vertex_keys: np.ndarray
    faces: np.ndarray
    island_of_face: np.ndarray
    transform: Transform
    dropped_degenerate: int = 0
    dropped_duplicate: int = 0

    @property
    def face_degree(self) -> int:
        return self.faces.shape[1] if len(self.faces) else 0

    def island_count(self) -> int:
        return int(self.island_of_face.max()) + 1 if len(self.island_of_face) else 0

    def check(self, n_input_faces: int) -> None:
        """Raise ``AssertionError`` unless kept + dropped faces == ``n_input_faces``."""
        if len(self.faces) + self.dropped_degenerate + self.dropped_duplicate != n_input_faces:
            raise AssertionError(
                f"input faces {n_input_faces} != kept {len(self.faces)}"
                f" + dropped degenerate {self.dropped_degenerate}"
                f" + dropped duplicate {self.dropped_duplicate}"
            )


# weight of each axis (row) within each level's code (column): x-major
_LEVEL_WEIGHTS = np.array([[16, 64, 256], [4, 8, 16], [1, 1, 1]], dtype=np.int64)


def encode_hier(grid) -> np.ndarray:
    """The ``(n, 3)`` codes (c1, c2, c3) of ``(n, 3)`` grid coordinates;
    :func:`decode_hier` is the inverse."""
    g = np.asarray(grid, dtype=np.int64).reshape(-1, 3)
    levels = np.stack([g >> 7, g >> 4 & 7, g & 15], axis=2)  # (n, axis, level)
    return (levels * _LEVEL_WEIGHTS).sum(axis=1)


def _level_table(bits: int, shift: int) -> np.ndarray:
    """Packed-key bits of every code of one level: ``bits`` bits per axis,
    combined x-major, that sit ``shift`` bits up in each grid coordinate."""
    c = np.arange(1 << 3 * bits, dtype=np.int64)
    m = (1 << bits) - 1
    return ((c >> 2 * bits & m) << (18 + shift)) | ((c >> bits & m) << (9 + shift)) | ((c & m) << shift)


_LEVEL_TABLES = (_level_table(2, 7), _level_table(3, 4), _level_table(4, 0))


def decode_hier(codes) -> np.ndarray:
    """Exact inverse of :func:`encode_hier` over an ``(n, 3)`` array of codes.

    Returns the grid coordinates as packed keys (:func:`pack_keys` layout).
    Each code must lie in its level's range.
    """
    h = np.asarray(codes, dtype=np.int64).reshape(-1, 3)
    t1, t2, t3 = _LEVEL_TABLES
    return t1[h[:, 0]] | t2[h[:, 1]] | t3[h[:, 2]]


def pack_keys(grid) -> np.ndarray:
    """Pack grid coordinates, an ``(n, 3)`` array, into one int64 each.

    The code is ``x << 18 | y << 9 | z``: one-to-one on the 512^3 grid, and
    ordered like the ``(x, y, z)`` tuples, so sorting codes sorts keys.
    """
    g = np.asarray(grid, dtype=np.int64).reshape(-1, 3)
    return g[:, 0] << 18 | g[:, 1] << 9 | g[:, 2]


KEY_BITS = 27  # of a pack_keys code: 9 per axis
_PACK_SHIFTS = np.array([18, 9, 0], dtype=np.int64)


def _unpack_keys(codes: np.ndarray) -> np.ndarray:
    return codes[:, None] >> _PACK_SHIFTS & (GRID - 1)


def distinct_faces(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The face rule, as ascending indices into ``rows``: ``nondegenerate``,
    the rows with no repeated entry (a -1 pad is an entry), and ``kept``,
    of those the first row of each corner set (its entries in any order)."""
    sets = np.sort(rows, axis=1)
    nondegenerate = (sets[:, 1:] != sets[:, :-1]).all(axis=1).nonzero()[0]
    order, heads = sort_rows(sets[nondegenerate])
    return nondegenerate, nondegenerate[np.sort(order[heads])]


def quantize_mesh(
    mesh: Mesh,
    partition: IslandPartition | None = None,
    transform: Transform | None = None,
) -> QuantizedMesh:
    """Normalize, snap to the grid, and deduplicate vertices and faces.

    Faces that collapse below their degree on the grid are dropped, as are
    duplicate faces (same unordered key set, first occurrence kept), by
    :func:`distinct_faces`.  Island labels are carried over; islands emptied
    by dropping are re-densified, and without a partition all are 0.

    Passing ``transform`` skips the bounding-box fit and normalizes through
    the given transform instead, which makes re-quantizing a dequantized
    mesh reproduce its keys exactly.

    The work is done on arrays of packed keys (:func:`pack_keys`), ranked
    densely, with the results of the per-face definition: keys are
    numbered by the rule in :mod:`striptok.mesh_io` over the corners of
    the kept faces, row-major, so the key table holds exactly the keys
    those faces use.  Normalization is ``(p - center) / scale`` per axis,
    and a coordinate snaps to cell ``int(c * GRID)`` clamped to
    ``[0, GRID - 1]`` (within ``EPS`` of the unit interval; farther out
    raises ``ValueError``).  Faces must share one degree: a mesh that mixes
    triangles and quads (padded rows) raises ``ValueError``.  Non-finite
    positions, or a transform that makes them non-finite, raise
    ``ValueError``.
    """
    if not len(mesh.faces):
        raise ValueError("empty mesh")
    if (mesh.faces < 0).any():
        raise ValueError("mixed triangle/quad faces: encoding takes faces of one degree")
    if partition is not None and len(partition.island_of_face) != len(mesh.faces):
        raise ValueError("partition does not match face count")
    points = mesh.positions
    if not np.isfinite(points).all():
        raise ValueError("non-finite vertex coordinate")
    if transform is None:
        if not len(points):
            raise ValueError("empty mesh")
        lo = points.min(axis=0)
        extent = (points.max(axis=0) - lo).max().item()
        if extent <= 0.0:
            raise ValueError("degenerate extent: all points identical")
        transform = Transform(tuple(lo.tolist()), extent)
    with np.errstate(all="ignore"):
        normalized = (points - np.asarray(transform.center)) / transform.scale
    if not np.isfinite(normalized).all():
        raise ValueError("non-finite vertex coordinate")

    out_of_range = (normalized < -EPS) | (normalized > 1.0 + EPS)
    if out_of_range.any():
        c = normalized.flat[np.argmax(out_of_range)]
        raise ValueError(f"normalized coordinate out of range: {float(c)!r}")
    grid = np.clip((normalized * GRID).astype(np.int64), 0, GRID - 1)

    # each vertex's key as its rank among the distinct keys: equal and
    # ordered as the keys are, and narrow enough that sort_rows packs a face
    distinct, _, rank = unique_first(pack_keys(grid))
    corners = rank[mesh.faces]
    nondegenerate, kept = distinct_faces(corners)
    if not len(nondegenerate):
        raise ValueError("all faces degenerate after quantization")
    corners = corners[kept]

    ids, first = first_occurrence(corners.reshape(-1))

    if partition is None:
        island_of_face = np.zeros(len(kept), dtype=np.int64)
    else:
        # asarray: a caller may pass the labels as a list (perfbench/workloads.py does)
        labels = np.asarray(partition.island_of_face)[kept]
        island_of_face = np.unique(labels, return_inverse=True)[1].reshape(-1)

    return QuantizedMesh(
        vertex_keys=_unpack_keys(distinct[corners.reshape(-1)[first]]),
        faces=ids.reshape(corners.shape),
        island_of_face=island_of_face,
        transform=transform,
        dropped_degenerate=len(mesh.faces) - len(nondegenerate),
        dropped_duplicate=len(nondegenerate) - len(kept),
    )


def dequantize_mesh(q: QuantizedMesh) -> Mesh:
    """Rebuild a model-space mesh from a quantized one (cell centers).

    Each key maps to the model-space center of its cell,
    ``(g + 0.5) / GRID * scale + center``, per axis.
    """
    t = q.transform
    positions = (q.vertex_keys + 0.5) / GRID * t.scale + np.asarray(t.center, dtype=np.float64)
    return Mesh(positions=positions, faces=q.faces)
