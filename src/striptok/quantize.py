"""Hierarchical coordinate quantization on a 512^3 grid.

Vertex positions are normalized into the unit cube, snapped to grid cells,
and split into a three-level code (c1, c2, c3) at 4/8/16 cells per axis and
level.  The grid resolution and level split are fixed; the axis combination
inside each level is x-major (x*k^2 + y*k + z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh_io import IslandPartition, Mesh

GRID = 512
EPS = 1e-9

GridCoord = tuple[int, int, int]
HierCode = tuple[int, int, int]


@dataclass(frozen=True)
class Transform:
    """Maps normalized [0,1]^3 coordinates back to model space.

    ``scale`` is in model units per normalized unit, so the inverse of the
    normalization applied to the mesh: model = normalized * scale + center.
    """

    center: tuple[float, float, float]
    scale: float

    def to_model(self, p):
        return (
            p[0] * self.scale + self.center[0],
            p[1] * self.scale + self.center[1],
            p[2] * self.scale + self.center[2],
        )

    def to_normalized(self, p):
        return (
            (p[0] - self.center[0]) / self.scale,
            (p[1] - self.center[1]) / self.scale,
            (p[2] - self.center[2]) / self.scale,
        )


IDENTITY_TRANSFORM = Transform((0.0, 0.0, 0.0), 1.0)


@dataclass
class QuantizedMesh:
    """Mesh snapped to the grid: deduplicated vertex keys plus key-index faces."""

    vertex_keys: list[GridCoord]
    faces: list[tuple[int, ...]]
    island_of_face: list[int] | None
    transform: Transform
    dropped_degenerate: int = 0
    dropped_duplicate: int = 0

    @property
    def face_degree(self) -> int:
        return len(self.faces[0]) if self.faces else 0

    def island_count(self) -> int:
        if self.island_of_face is None:
            return 1 if self.faces else 0
        return max(self.island_of_face) + 1 if self.island_of_face else 0


def normalize(mesh: Mesh) -> tuple[Mesh, Transform]:
    """Uniformly scale/translate the mesh so positions lie in [0,1]^3.

    The bounding-box minimum corner maps to the origin and the largest axis
    extent maps to unit length; aspect ratio is preserved.
    """
    if not mesh.positions:
        raise ValueError("empty mesh")
    xs = [p[0] for p in mesh.positions]
    ys = [p[1] for p in mesh.positions]
    zs = [p[2] for p in mesh.positions]
    lo = (min(xs), min(ys), min(zs))
    extent = max(max(xs) - lo[0], max(ys) - lo[1], max(zs) - lo[2])
    if extent <= 0.0:
        raise ValueError("degenerate extent: all points identical")
    t = Transform(lo, extent)
    positions = [t.to_normalized(p) for p in mesh.positions]
    out = Mesh(
        positions=positions,
        faces=list(mesh.faces),
        uv_coords=mesh.uv_coords,
        face_uvs=mesh.face_uvs,
    )
    return out, t


def to_grid(p) -> GridCoord:
    """Snap a normalized point to its grid cell; exact 1.0 clamps to cell 511."""
    out = []
    for c in p:
        if c < -EPS or c > 1.0 + EPS:
            raise ValueError(f"normalized coordinate out of range: {c!r}")
        g = int(c * GRID)
        if g < 0:
            g = 0
        elif g > GRID - 1:
            g = GRID - 1
        out.append(g)
    return (out[0], out[1], out[2])


def encode_hier(g: GridCoord) -> HierCode:
    """Split a grid coordinate into the three-level code (c1, c2, c3)."""
    a1 = (g[0] >> 7, g[1] >> 7, g[2] >> 7)
    a2 = ((g[0] >> 4) & 7, (g[1] >> 4) & 7, (g[2] >> 4) & 7)
    a3 = (g[0] & 15, g[1] & 15, g[2] & 15)
    c1 = a1[0] * 16 + a1[1] * 4 + a1[2]
    c2 = a2[0] * 64 + a2[1] * 8 + a2[2]
    c3 = a3[0] * 256 + a3[1] * 16 + a3[2]
    return (c1, c2, c3)


def decode_hier(h: HierCode) -> GridCoord:
    """Exact inverse of :func:`encode_hier`."""
    c1, c2, c3 = h
    gx = (c1 // 16) * 128 + (c2 // 64) * 16 + c3 // 256
    gy = ((c1 // 4) % 4) * 128 + ((c2 // 8) % 8) * 16 + (c3 // 16) % 16
    gz = (c1 % 4) * 128 + (c2 % 8) * 16 + c3 % 16
    return (gx, gy, gz)


def dequantize(g: GridCoord, t: Transform):
    """Map a grid cell back to model space at the cell center."""
    return t.to_model(((g[0] + 0.5) / GRID, (g[1] + 0.5) / GRID, (g[2] + 0.5) / GRID))


def pack_keys(grid) -> np.ndarray:
    """Pack grid coordinates, an ``(n, 3)`` array, into one int64 each.

    The code is ``x << 18 | y << 9 | z``: one-to-one on the 512^3 grid, and
    ordered like the ``(x, y, z)`` tuples, so sorting codes sorts keys.
    """
    g = np.asarray(grid, dtype=np.int64).reshape(-1, 3)
    return g[:, 0] << 18 | g[:, 1] << 9 | g[:, 2]


def _unpack_keys(codes: np.ndarray) -> np.ndarray:
    return np.stack([codes >> 18, (codes >> 9) & (GRID - 1), codes & (GRID - 1)], axis=1)


def sort_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows of a 2-D array, and run heads.

    ``heads[i]`` is True where ``rows[order][i]`` differs from the row before
    it, so each run of equal rows starts at a head, in original row order.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    heads = np.ones(len(rows), dtype=bool)
    heads[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, heads


def _tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of a 2-D int array as tuples of Python ints."""
    return list(zip(*rows.T.tolist()))


def quantize_mesh(
    mesh: Mesh,
    partition: IslandPartition | None = None,
    transform: Transform | None = None,
) -> QuantizedMesh:
    """Normalize, snap to the grid, and deduplicate vertices and faces.

    Faces that collapse below their degree on the grid are dropped, as are
    duplicate faces (same unordered key set, first occurrence kept).  Island
    labels are carried over; islands emptied by dropping are re-densified.

    Passing ``transform`` skips the bounding-box fit and normalizes through
    the given transform instead, which makes re-quantizing a dequantized
    mesh reproduce its keys exactly.

    The work is done on arrays of packed keys (:func:`pack_keys`), with the
    results of the per-face definition: keys are numbered in order of first
    occurrence over the corners of the non-degenerate faces, row-major, so
    the key table holds exactly the keys the kept faces use.  Normalization
    uses the float operations of :meth:`Transform.to_normalized` and snapping
    those of :func:`to_grid`, so keys and transform are bit-identical to the
    per-vertex definition.  Faces must share one degree (the :class:`Mesh`
    contract).  Non-finite positions, or a transform that makes them
    non-finite, raise ``ValueError``.
    """
    if not mesh.faces:
        raise ValueError("empty mesh")
    if partition is not None and len(partition.island_of_face) != len(mesh.faces):
        raise ValueError("partition does not match face count")
    points = np.asarray(mesh.positions).reshape(len(mesh.positions), 3)
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

    corners = pack_keys(grid)[np.asarray(mesh.faces)]
    sets = np.sort(corners, axis=1)
    degenerate = (sets[:, 1:] == sets[:, :-1]).any(axis=1)
    if degenerate.all():
        raise ValueError("all faces degenerate after quantization")
    kept = np.flatnonzero(~degenerate)
    corners, sets = corners[kept], sets[kept]

    codes, first, inverse = np.unique(corners, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    key_of_code = np.empty_like(by_first)
    key_of_code[by_first] = np.arange(len(by_first))
    faces = key_of_code[inverse.reshape(-1)].reshape(corners.shape)

    # of faces with equal key sets, the first (the run head) is kept
    order, heads = sort_rows(sets)
    unique = np.sort(order[heads])

    island_of_face: list[int] | None = None
    if partition is not None:
        labels = np.asarray(partition.island_of_face)[kept[unique]]
        island_of_face = np.unique(labels, return_inverse=True)[1].reshape(-1).tolist()

    return QuantizedMesh(
        vertex_keys=_tuples(_unpack_keys(codes[by_first])),
        faces=_tuples(faces[unique]),
        island_of_face=island_of_face,
        transform=transform,
        dropped_degenerate=len(mesh.faces) - len(kept),
        dropped_duplicate=len(kept) - len(unique),
    )


def dequantize_mesh(q: QuantizedMesh) -> Mesh:
    """Rebuild a model-space mesh from a quantized one (cell centers)."""
    positions = [dequantize(g, q.transform) for g in q.vertex_keys]
    return Mesh(positions=positions, faces=list(q.faces))
