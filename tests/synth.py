"""Synthetic meshes for the test corpus, plus structural oracles.

All generators produce consistently wound, index-welded meshes.  The
oracles here are deliberately independent of the library internals:
orientation and manifoldness are checked straight from edge traversals,
and UV islands can be recomputed by brute-force flood fill.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace

import numpy as np

from striptok import Mesh

from oracles import as_arrays, as_lists


def tri_grid(nx: int, nz: int) -> Mesh:
    """Planar grid in the xz plane, two triangles per cell.

    Diagonals all run the same way (column i, row j+1 to column i+1,
    row j), which lets a zipper traversal cross every cell boundary.
    """
    def vid(i, j):
        return i * (nz + 1) + j

    positions = [(float(i), 0.0, float(j)) for i in range(nx + 1) for j in range(nz + 1)]
    faces = []
    for j in range(nz):
        for i in range(nx):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j), vid(i + 1, j + 1)
            faces.append((a, b, c))
            faces.append((b, d, c))
    return as_arrays(Mesh(positions=positions, faces=faces))


def tri_ribbon(n: int) -> Mesh:
    """1 x n strip-friendly ribbon: 2n triangles that zip into one strip."""
    return tri_grid(n, 1)


def quad_grid(nx: int, nz: int) -> Mesh:
    """Planar quad grid wound so row strips zip along +x."""
    def vid(i, j):
        return i * (nz + 1) + j

    positions = [(float(i), 0.0, float(j)) for i in range(nx + 1) for j in range(nz + 1)]
    faces = []
    for j in range(nz):
        for i in range(nx):
            faces.append((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1), vid(i + 1, j)))
    return as_arrays(Mesh(positions=positions, faces=faces))


def quad_ribbon(n: int) -> Mesh:
    return quad_grid(n, 1)


_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0

_ICO_VERTS = [
    (-1.0, _ICO_T, 0.0), (1.0, _ICO_T, 0.0), (-1.0, -_ICO_T, 0.0), (1.0, -_ICO_T, 0.0),
    (0.0, -1.0, _ICO_T), (0.0, 1.0, _ICO_T), (0.0, -1.0, -_ICO_T), (0.0, 1.0, -_ICO_T),
    (_ICO_T, 0.0, -1.0), (_ICO_T, 0.0, 1.0), (-_ICO_T, 0.0, -1.0), (-_ICO_T, 0.0, 1.0),
]

_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(subdiv: int) -> Mesh:
    """Unit icosphere via midpoint subdivision (20 * 4^subdiv faces)."""
    def unit(p):
        n = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
        return (p[0] / n, p[1] / n, p[2] / n)

    verts = [unit(v) for v in _ICO_VERTS]
    faces = list(_ICO_FACES)
    for _ in range(subdiv):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a, b):
            key = (a, b) if a < b else (b, a)
            j = midpoint.get(key)
            if j is None:
                pa, pb = verts[a], verts[b]
                verts.append(unit(((pa[0] + pb[0]) / 2, (pa[1] + pb[1]) / 2, (pa[2] + pb[2]) / 2)))
                j = len(verts) - 1
                midpoint[key] = j
            return j

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return as_arrays(Mesh(positions=verts, faces=faces))


def torus(nmaj: int, nmin: int, radius: float = 2.0, tube: float = 0.7, quads: bool = True) -> Mesh:
    """Closed torus grid; y is the tube's vertical direction."""
    positions = []
    for i in range(nmaj):
        theta = 2.0 * math.pi * i / nmaj
        for j in range(nmin):
            phi = 2.0 * math.pi * j / nmin
            rho = radius + tube * math.cos(phi)
            positions.append((rho * math.cos(theta), tube * math.sin(phi), rho * math.sin(theta)))

    def vid(i, j):
        return (i % nmaj) * nmin + (j % nmin)

    faces = []
    for i in range(nmaj):
        for j in range(nmin):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j + 1), vid(i + 1, j)
            if quads:
                faces.append((a, b, c, d))
            else:
                faces.append((a, b, c))
                faces.append((a, c, d))
    return as_arrays(Mesh(positions=positions, faces=faces))


_L_POINTS = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (0, 1)]
_L_PERIMETER = [0, 1, 2, 3, 4, 5, 6, 7]
_L_CAP_TRIS = [
    (0, 1, 4), (0, 4, 7),
    (1, 2, 3), (1, 3, 4),
    (7, 4, 5), (7, 5, 6),
]


def l_solid(height: float = 1.0) -> Mesh:
    """Closed non-convex L-shaped prism, 28 triangles, outward winding."""
    n = len(_L_POINTS)
    positions = [(float(x), 0.0, float(z)) for x, z in _L_POINTS]
    positions += [(float(x), height, float(z)) for x, z in _L_POINTS]
    faces = []
    for a, b, c in _L_CAP_TRIS:
        faces.append((a, b, c))                     # bottom, normal -y
        faces.append((a + n, c + n, b + n))         # top, reversed
    for k in range(n):
        p = _L_PERIMETER[k]
        q = _L_PERIMETER[(k + 1) % n]
        faces.append((p, p + n, q + n))
        faces.append((p, q + n, q))
    return as_arrays(Mesh(positions=positions, faces=faces))


def non_manifold_fan() -> Mesh:
    """Three triangles sharing one edge (edge bounds three faces)."""
    positions = [
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
        (0.5, 1.0, 0.0), (0.5, 1.0, 0.7), (0.5, 1.0, -0.7),
    ]
    faces = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    return as_arrays(Mesh(positions=positions, faces=faces))


def shift(mesh: Mesh, dx=0.0, dy=0.0, dz=0.0) -> Mesh:
    return replace(mesh, positions=mesh.positions + np.array([dx, dy, dz]))


def concat(*meshes: Mesh) -> Mesh:
    """Disjoint union (no welding) of meshes without pads."""
    offsets = np.cumsum([0] + [len(m.positions) for m in meshes[:-1]])
    return Mesh(
        positions=np.concatenate([m.positions for m in meshes]),
        faces=np.concatenate([m.faces + off for m, off in zip(meshes, offsets.tolist())]),
    )


def with_uv_groups(mesh: Mesh, group_of_face: list[int]) -> Mesh:
    """Attach UVs so that the UV islands are exactly the given face groups.

    Each (vertex, group) pair gets its own uv index: faces of one group
    share uv indices at shared vertices, faces of different groups never
    do.  Groups must be edge-connected for the labels to be recoverable.
    """
    mesh = as_lists(mesh)
    uv_index: dict[tuple[int, int], int] = {}
    uv_coords: list[tuple[float, float]] = []
    face_uvs = []
    for face, g in zip(mesh.faces, group_of_face):
        fuv = []
        for v in face:
            j = uv_index.get((v, g))
            if j is None:
                j = len(uv_coords)
                uv_index[(v, g)] = j
                uv_coords.append(((j % 97) / 97.0, (j % 89) / 89.0))
            fuv.append(j)
        face_uvs.append(tuple(fuv))
    return as_arrays(replace(mesh, uv_coords=uv_coords, face_uvs=face_uvs))


def grown_regions(mesh: Mesh, seeds: int) -> list[int]:
    """Edge-connected face partition grown breadth-first from spread seeds."""
    adjacency = face_adjacency(mesh)
    nf = len(mesh.faces)
    seeds = min(seeds, nf)
    starts = [round(k * (nf - 1) / max(seeds - 1, 1)) for k in range(seeds)]
    starts = sorted(set(starts))
    labels = [-1] * nf
    frontiers = []
    for g, s in enumerate(starts):
        labels[s] = g
        frontiers.append([s])
    active = True
    while active:
        active = False
        for g, frontier in enumerate(frontiers):
            new_frontier = []
            for f in frontier:
                for nb in adjacency[f]:
                    if labels[nb] == -1:
                        labels[nb] = g
                        new_frontier.append(nb)
            frontiers[g] = new_frontier
            if new_frontier:
                active = True
    # orphaned faces (disconnected mesh parts) each get their own label
    next_label = len(starts)
    for f in range(nf):
        if labels[f] == -1:
            labels[f] = next_label
            next_label += 1
    return labels


def face_adjacency(mesh: Mesh) -> list[list[int]]:
    mesh = as_lists(mesh)
    edge_faces = defaultdict(list)
    for fi, face in enumerate(mesh.faces):
        n = len(face)
        for k in range(n):
            a, b = face[k], face[(k + 1) % n]
            edge_faces[(a, b) if a < b else (b, a)].append(fi)
    adjacency = [[] for _ in mesh.faces]
    for users in edge_faces.values():
        for i in users:
            for j in users:
                if i != j:
                    adjacency[i].append(j)
    return adjacency


# ---------------------------------------------------------------------------
# Oracles


def oracle_consistent_winding(mesh: Mesh) -> bool:
    """Every directed edge appears at most once, and opposite to its twin."""
    mesh = as_lists(mesh)
    seen = set()
    for face in mesh.faces:
        n = len(face)
        for k in range(n):
            e = (face[k], face[(k + 1) % n])
            if e in seen:
                return False
            seen.add(e)
    return True
