"""Greedy zipper-style strip extraction over a quantized mesh.

A strip is an ordered run of vertex keys; each step across the frontier
edge (the last two keys) appends one new vertex for triangles (stride 1)
or a swapped pair for quads (stride 2).  Seeds are the lowest unvisited
faces under a coordinate order, islands are traversed bottom-to-top along
the configured vertical axis, and strips never leave their island.  A step
enters only a face that runs along the frontier edge the other way from
the face it leaves, so a strip decodes to its faces' own windings.
Faces are renumbered in seed order, so an island's faces are one run, and
growth steps over face-edge slots sorted by edge key and direction: the
faces a step may enter are one range of them.  Every face outside the run
being walked reads as visited, so a strip keeps to its island.  NumPy
gathers the keys after the walk.  A :class:`StripSet` holds the strips as
flat arrays, one strip's keys after another's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .mesh_io import _edge_keys, _integer, first_occurrence, rank_rows, sort_rows, stable_order
from .quantize import QuantizedMesh, Transform, check_quantized

_AXIS = {"x": 0, "y": 1, "z": 2}


def _rank_array(q: QuantizedMesh, up_axis: str) -> np.ndarray:
    """Rank of each vertex key (0 = lowest), comparing the vertical axis
    first, then the other two in cyclic order; equal keys rank in index
    order."""
    u = _AXIS[up_axis]
    order, _ = sort_rows(q.vertex_keys[:, [u, (u + 1) % 3, (u + 2) % 3]])
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

    def check(self, n_faces: int) -> None:
        """Raise ``AssertionError`` unless the strips decode to ``n_faces`` faces."""
        if self.face_count() != n_faces:
            raise AssertionError(f"strips decode to {self.face_count()} faces, not {n_faces}")


def extract_strips(q: QuantizedMesh, stride: int, up_axis: str = "y") -> StripSet:
    """Decompose the mesh into ordered strips covering every face once.

    Islands are visited in ascending order of their lowest face; within an
    island the next seed is the lowest unvisited face.  A triangle seed is
    the face rotated so its lowest vertex comes first, which both keeps the
    initial frontier on the two highest keys and makes the decoded seed a
    rotation (never a reflection) of the stored face.  A quad seed is
    additionally swapped in its last two entries so that pair-wise decoding
    reassembles the stored cyclic order.  Growth crosses the frontier edge
    only into an unvisited face of the same island that runs along it the
    other way from the face it leaves (ties on non-manifold edges go to the
    lowest face), and stops at boundaries and visited faces.  The decoder
    winds each face by its strip position, so a strip holds only faces of
    one orientation, and a face wound against its neighbours starts its own
    strip.  A stride that is not the integer 1 or 2 (an integer by
    :func:`~striptok.mesh_io._integer`: a bool or ``2.0`` is none), an
    ``up_axis`` other than x, y or z, a mesh that fails
    :func:`~striptok.quantize.check_quantized`, faces not of the stride's
    degree, or a face that repeats a corner raise ``ValueError``.

    "Lowest face" compares sorted vertex-rank tuples, ties going to the
    lower face index.  The faces are renumbered once in seed order (island
    position, then lowest first), so the walk prefers the lower index.
    Slot ``f * d + j`` is edge ``j`` of face ``f``, from ``face[j]`` to
    ``face[j + 1]``.  The slots are sorted by edge key and direction,
    stably in face order, so the faces that may follow slot ``s`` are one
    range of the sorted slots: the adjacent group with ``s``'s key and the
    other direction.  The next face is the first unvisited one there, and
    faces of other islands count as visited.  Every step enters its face
    the same way, so the next frontier depends on the step's parity alone,
    not on the face's corners: at stride 1, edge ``j + 2`` after an odd
    step and ``j + 1`` after an even one; at stride 2, always ``j + 2``.
    The walk reads no key: it records a trail of seeds and entry slots, and
    the keys are gathered from the faces after it.
    """
    if _integer(stride) not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    if up_axis not in _AXIS:
        raise ValueError(f"up_axis must be x, y or z, got {up_axis!r}")
    check_quantized(q)
    degree = 3 if stride == 1 else 4
    faces, nfaces, nkeys = q.faces, len(q.faces), len(q.vertex_keys)
    if not nfaces:
        empty = np.zeros(0, dtype=np.int64)
        return StripSet(empty, np.zeros(1, dtype=np.int64), empty, q.vertex_keys, stride, q.transform)
    if faces.shape[1] != degree or faces.min() < 0:
        # a -1 pads a triangle among quads
        found = faces.shape[1] if faces.shape[1] != degree else 3
        raise ValueError(f"stride {stride} requires degree-{degree} faces, found degree {found}")
    # vertex ranks are a permutation, so a face repeats a corner where its sorted ranks do
    ranks = _rank_array(q, up_axis)[faces]
    corners = np.sort(ranks, axis=1)
    repeats = (corners[:, 1:] == corners[:, :-1]).any(axis=1)
    if repeats.any():
        bad = int(repeats.argmax())
        raise ValueError(f"face {bad} repeats a corner: {tuple(faces[bad].tolist())}")
    order, heads = sort_rows(corners)

    # islands by their lowest face, then (one key set in two islands) in the
    # order they first appear, which first_occurrence's ids ascend in
    island = first_occurrence(q.island_of_face)[0][order]
    # an island's lowest face is its first in order, grouped by cumsum(heads)
    ids, lowest = first_occurrence(island)
    position = rank_rows(np.stack([np.cumsum(heads)[lowest], island[lowest]], axis=1))[ids]
    # renumber the faces in seed order: island position, then lowest first
    resort, position = stable_order(position)
    seeds = order[resort]
    faces = faces[seeds]
    # a seed starts at its lowest-ranked corner
    lowest_corner = np.argmin(ranks[seeds], axis=1)

    # slots by edge key, then direction (up, face[j] < face[j + 1], before
    # down), stably in face order: an edge's up slots, then its down slots
    down = faces > np.roll(faces, -1, axis=1)
    slot_order, ordered = stable_order(2 * _edge_keys(faces, nkeys)[0] + down.reshape(-1))
    # the slots across slot s's edge that run the other way: slot_order[lo[s]:hi[s]]
    edge_key, down = np.divmod(ordered, 2)
    edge_head = np.r_[True, edge_key[1:] != edge_key[:-1]]
    edge = np.cumsum(edge_head) - 1
    starts = np.flatnonzero(edge_head)
    stops = np.r_[starts[1:], len(slot_order)]
    mids = (stops - np.add.reduceat(down, starts))[edge]
    lo, hi = np.empty_like(slot_order), np.empty_like(slot_order)
    lo[slot_order] = np.where(down, starts[edge], mids)
    hi[slot_order] = np.where(down, mids, stops[edge])

    # sorted slot c enters face face_at[c] across its edge j[c]; the range
    # the walk tries next, after an odd step and after an even one, and
    # from each seed.  The walk reads a few entries of each table, so they
    # are memoryviews, not lists.
    face_at, j = np.divmod(slot_order, degree)
    # slot j + shift of a face is slot_order plus a step taken by column j
    corner = np.arange(degree)
    exits = [slot_order + ((corner + shift) % degree - corner)[j] for shift in ((2, 1) if stride == 1 else (2,))]
    after = [(memoryview(lo[s]), memoryview(hi[s])) for s in exits]
    if stride == 2:  # both parities exit at j + 2
        after *= 2
    seed_slot = np.arange(nfaces) * degree + (lowest_corner + stride) % degree
    seed_lo, seed_hi = memoryview(lo[seed_slot]), memoryview(hi[seed_slot])
    entry_face = memoryview(face_at)

    # faces outside the island being walked read as visited: its run is cleared as the walk reaches it
    visited = [True] * nfaces
    # a seed as -1 - seed, a step as its sorted slot
    trail: list[int] = []
    for first, stop in pairwise(np.r_[0, np.cumsum(np.bincount(position))].tolist()):
        visited[first:stop] = [False] * (stop - first)
        for seed in range(first, stop):
            if visited[seed]:
                continue
            visited[seed] = True
            trail.append(-1 - seed)
            a, b, even = seed_lo[seed], seed_hi[seed], 0
            while True:
                for c in range(a, b):
                    if not visited[entry_face[c]]:
                        break
                else:
                    break
                visited[entry_face[c]] = True
                trail.append(c)
                nlo, nhi = after[even]
                a, b, even = nlo[c], nhi[c], even ^ 1

    # a seed's keys run from its lowest corner, the last two swapped at
    # stride 2; a step's are face[j - 1], then face[j - 2] at stride 2
    walk = np.array(trail, dtype=np.int64)
    is_seed = walk < 0
    strip_seeds = -1 - walk[is_seed]
    entered = walk[~is_seed, None]
    ends = np.cumsum(np.where(is_seed, degree, stride))
    heads_at = ends[is_seed] - degree
    keys = np.empty(ends[-1], dtype=np.int64)
    turn = np.array([0, 1, 2] if stride == 1 else [0, 1, 3, 2])
    cols = (lowest_corner[strip_seeds, None] + turn) % degree
    keys[heads_at[:, None] + np.arange(degree)] = faces[strip_seeds[:, None], cols]
    back = np.arange(1, stride + 1)
    keys[ends[~is_seed, None] - stride + np.arange(stride)] = faces[face_at[entered], (j[entered] - back) % degree]

    return StripSet(
        keys=keys,
        offsets=np.r_[heads_at, ends[-1]],
        islands=q.island_of_face[seeds[strip_seeds]].astype(np.int64, copy=False),
        vertex_keys=q.vertex_keys,
        stride=stride,
        transform=q.transform,
    )
