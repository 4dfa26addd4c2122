"""Greedy zipper-style strip extraction over a quantized mesh.

A strip is an ordered run of vertex keys; each step across the frontier
edge (the last two keys) appends one new vertex for triangles (stride 1)
or a swapped pair for quads (stride 2).  Seeds are the lowest unvisited
faces under a coordinate order, islands are traversed bottom-to-top along
the configured vertical axis, and strips never leave their island.
Faces are renumbered in seed order, and growth steps over face-edge
slots, each edge's slots within one island in one range
(:func:`mesh_io.sorted_edge_keys`).  A :class:`StripSet` holds the strips
as flat arrays, one strip's keys after another's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh_io import sorted_edge_keys
from .quantize import QuantizedMesh, Transform, sort_rows

_AXIS = {"x": 0, "y": 1, "z": 2}


def _rank_array(q: QuantizedMesh, up_axis: str) -> np.ndarray:
    """Rank of each vertex key (0 = lowest), comparing the vertical axis
    first, then the other two in cyclic order; equal keys rank in index
    order."""
    u = _AXIS[up_axis]
    keys = q.vertex_keys
    order = np.lexsort((keys[:, (u + 2) % 3], keys[:, (u + 1) % 3], keys[:, u]))
    ranks = np.empty_like(order)
    ranks[order] = np.arange(len(order))
    return ranks


@dataclass
class StripSet:
    """Strip ``i`` is ``keys[offsets[i]:offsets[i + 1]]``, in island ``islands[i]``;
    each island's strips are one run, the runs in the order islands are visited."""

    keys: np.ndarray  # (K,) int64 indices into vertex_keys, every strip's back to back
    offsets: np.ndarray  # (S + 1,) int64, from 0 to K
    islands: np.ndarray  # (S,) int64
    vertex_keys: np.ndarray  # (V, 3) grid keys, as QuantizedMesh.vertex_keys
    stride: int
    transform: Transform

    @property
    def strips(self) -> list[np.ndarray]:
        """Each strip's keys, as views of ``keys``."""
        return np.split(self.keys, self.offsets[1:-1]) if len(self.islands) else []

    def face_count(self) -> int:
        """Faces the strips decode to: ``m - 2`` for a stride-1 strip of ``m``
        keys, ``(m - 2) // 2 + m % 2`` (quads, then a trailing triangle) at
        stride 2, and none for a strip shorter than 3."""
        m = np.diff(self.offsets)
        m = m[m >= 3]
        return int((m - 2 if self.stride == 1 else (m - 2) // 2 + m % 2).sum())


def extract_strips(q: QuantizedMesh, stride: int, up_axis: str = "y") -> StripSet:
    """Decompose the mesh into ordered strips covering every face once.

    Islands are visited in ascending order of their lowest face; within an
    island the next seed is the lowest unvisited face.  A triangle seed is
    the face rotated so its lowest vertex comes first, which both keeps the
    initial frontier on the two highest keys and makes the decoded seed a
    rotation (never a reflection) of the stored face.  A quad seed is
    additionally swapped in its last two entries so that pair-wise decoding
    reassembles the stored cyclic order.  Growth crosses the frontier edge
    to the unvisited face of the same island there (ties on non-manifold
    edges go to the lowest face) and stops at boundaries and visited faces.
    A face that repeats a corner raises ``ValueError``.

    "Lowest face" compares sorted vertex-rank tuples, ties going to the
    lower face index.  The faces are renumbered once in seed order (island
    position, then lowest first), so the walk prefers the lower index.
    Slot ``f * d + j`` is edge ``j`` of face ``f``, from ``face[j]`` to
    ``face[j + 1]``; sorted by edge key, each edge's slots are in face
    order, those of one island in one range.  The frontier is the slot of
    the face entered last that holds the last two keys, and the next face
    is the first unvisited one in that slot's range.
    """
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    degree = 3 if stride == 1 else 4
    faces, nfaces, nkeys = q.faces, len(q.faces), len(q.vertex_keys)
    if not nfaces:
        empty = np.zeros(0, dtype=np.int64)
        return StripSet(empty, np.zeros(1, dtype=np.int64), empty, q.vertex_keys, stride, q.transform)
    if faces.shape[1] != degree or faces.min() < 0:
        # a -1 pads a triangle among quads
        found = faces.shape[1] if faces.shape[1] != degree else 3
        raise ValueError(f"stride {stride} requires degree-{degree} faces, found degree {found}")
    corners = np.sort(faces, axis=1)
    repeats = (corners[:, 1:] == corners[:, :-1]).any(axis=1)
    if repeats.any():
        bad = int(repeats.argmax())
        raise ValueError(f"face {bad} repeats a corner: {tuple(faces[bad].tolist())}")
    rank_arr = _rank_array(q, up_axis)
    order, heads = sort_rows(np.sort(rank_arr[faces], axis=1))

    # islands by their lowest face; equal lowest rank tuples (one key set in
    # two islands) keep the order in which the islands first appear
    _, first, island_idx = np.unique(q.island_of_face, return_index=True, return_inverse=True)
    island_idx = island_idx.reshape(-1)
    # an island's lowest face is its first in order, ranked by cumsum(heads)
    _, lowest = np.unique(island_idx[order], return_index=True)
    by_lowest = np.lexsort((first, np.cumsum(heads)[lowest]))
    position = np.argsort(by_lowest)[island_idx]  # each face's island position
    # renumber the faces in seed order: island position, then lowest first
    seeds = order[np.argsort(position[order], kind="stable")]
    faces, position = faces[seeds], position[seeds]
    # a seed starts at its lowest-ranked corner
    lowest_corner = np.argmin(rank_arr[faces], axis=1).tolist()

    # the slots across slot s's edge in s's island: slot_order[lo[s]:hi[s]]
    slot_order, edge_keys = sorted_edge_keys(faces, nkeys)
    slot_face = slot_order // degree
    slot_island = position[slot_face]
    head = np.r_[True, (edge_keys[1:] != edge_keys[:-1]) | (slot_island[1:] != slot_island[:-1])]
    group = np.cumsum(head) - 1
    bounds = np.r_[np.flatnonzero(head), len(head)]
    lo, hi = np.empty_like(slot_order), np.empty_like(slot_order)
    lo[slot_order], hi[slot_order] = bounds[group], bounds[group + 1]
    lo, hi = lo.tolist(), hi.tolist()
    slot_face, slot_j = slot_face.tolist(), (slot_order % degree).tolist()
    face_list = faces.tolist()

    visited = [False] * nfaces
    # every strip's keys back to back, with each strip's end and seed
    keys: list[int] = []
    ends: list[int] = []
    strip_seeds: list[int] = []
    for seed in range(nfaces):
        if visited[seed]:
            continue
        visited[seed] = True
        face, k = face_list[seed], lowest_corner[seed]
        keys += face[k:] + face[:k]
        if stride == 2:
            keys[-1], keys[-2] = keys[-2], keys[-1]
        slot = seed * degree + (k + stride) % degree
        while True:
            for c in range(lo[slot], hi[slot]):
                fi = slot_face[c]
                if not visited[fi]:
                    break
            else:
                break
            visited[fi] = True
            face, j = face_list[fi], slot_j[c]
            # entered across face[j], face[j + 1]
            if stride == 1:
                nxt = (j + 1) % 3 if face[(j + 1) % 3] == keys[-1] else (j + 2) % 3
                keys.append(face[j - 1])
            else:
                pair = [face[j - 1], face[j - 2]]
                keys += pair[::-1] if face[j] == keys[-1] else pair
                nxt = (j + 2) % 4
            slot = fi * degree + nxt
        ends.append(len(keys))
        strip_seeds.append(seed)

    return StripSet(
        keys=np.array(keys, dtype=np.int64),
        offsets=np.array([0] + ends, dtype=np.int64),
        islands=q.island_of_face[seeds[strip_seeds]].astype(np.int64, copy=False),
        vertex_keys=q.vertex_keys,
        stride=stride,
        transform=q.transform,
    )
