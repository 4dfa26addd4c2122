"""Exact comparison of a quantized mesh against its decoded reconstruction.

Both meshes become ``(F, d)`` arrays of key codes, each corner's rank among
both meshes' distinct packed grid keys
(:func:`~striptok.quantize.pack_keys`), -1 where a face has no corner (the
pad of a stride-2 decode's trailing triangle).  Faces are matched by their
unordered key sets: each row's distinct codes are sorted and both sides are
sorted as rows (:func:`~striptok.mesh_io.sort_rows`), so equal face
multisets line up row for row.  The source holds one face per key set, as
:func:`~striptok.quantize.quantize_mesh` returns it (a source that repeats
a key set raises ``ValueError``), so matched rows are one face on each
side.  A winding matches when the decoded row is a cyclic rotation of its
matched source row, and the island partitions match when the (source
label, decoded label) pairs over the matched faces form a bijection.  Only
the loop over rotations runs in Python.
"""

from __future__ import annotations

import numpy as np

from .mesh_io import sort_rows
from .quantize import GRID, QuantizedMesh, pack_keys


def _key_codes(source: QuantizedMesh, decoded: QuantizedMesh):
    """The rank of each mesh's vertex keys among both meshes' distinct keys:
    equal exactly where the keys are, ordered as they are, and narrow enough
    that ``sort_rows`` packs a face of 3 or 4 of them into one key."""
    keys = np.concatenate([source.vertex_keys, decoded.vertex_keys])
    if keys.size and (keys.min() < 0 or keys.max() >= GRID):
        # not grid keys, so packing could collide: rank them as rows instead
        codes = np.unique(keys, axis=0, return_inverse=True)[1]
    else:
        codes = np.unique(pack_keys(keys), return_inverse=True)[1]
    codes = codes.reshape(-1)
    n = len(source.vertex_keys)
    return codes[:n], codes[n:]


def _face_codes(q: QuantizedMesh, codes: np.ndarray, width: int) -> np.ndarray:
    """Each face corner's key code in ``width`` columns; pads are -1, and so
    are the columns that narrower faces lack."""
    faces = np.pad(q.faces, ((0, 0), (0, width - q.faces.shape[1])), constant_values=-1)
    return np.where(faces < 0, -1, codes[faces.clip(0)])


def _set_rows(faces: np.ndarray) -> np.ndarray:
    """Each face's distinct keys in ascending order, left-padded with -1."""
    rows = np.sort(faces, axis=1)
    repeated = rows[:, 1:] == rows[:, :-1]
    if repeated.any():
        rows[:, 1:][repeated] = -1
        rows.sort(axis=1)
    return rows


def _is_bijection(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the pairs ``(a[i], b[i])`` match a's values one-to-one with b's."""
    a_values, a = np.unique(a, return_inverse=True)
    b_values, b = np.unique(b, return_inverse=True)
    pairs = np.unique(a.reshape(-1) * len(b_values) + b.reshape(-1))
    return len(pairs) == len(a_values) == len(b_values)


def compare_quantized(source: QuantizedMesh, decoded: QuantizedMesh) -> tuple[bool, str]:
    """Check face multiset, winding, and island partition.

    Returns (ok, detail); detail names the first divergence.  Raises
    ``ValueError`` when the source repeats a face key set.  With one source
    face per key set, matching partitions also give each island the same
    vertex keys on both sides.
    """
    if not len(source.faces) and not len(decoded.faces):
        return True, ""
    src_codes, dec_codes = _key_codes(source, decoded)
    width = max(source.faces.shape[1], decoded.faces.shape[1])
    src, dec = _face_codes(source, src_codes, width), _face_codes(decoded, dec_codes, width)
    src_rows, dec_rows = _set_rows(src), _set_rows(dec)
    (src_order, src_head), (dec_order, dec_head) = sort_rows(src_rows), sort_rows(dec_rows)
    if not src_head.all():
        raise ValueError("source repeats a face key set")
    src_rows, dec_rows = src_rows[src_order], dec_rows[dec_order]
    if len(src_rows) != len(dec_rows) or not np.array_equal(src_rows, dec_rows):
        # key sets on both sides: the source's, and the decoded run heads
        both = np.concatenate([src_rows, dec_rows[dec_head]])
        common = len(both) - int(sort_rows(both)[1].sum())
        missing, extra = len(src_rows) - common, int(dec_head.sum()) - common
        detail = f"face multiset mismatch: {missing} missing, {extra} extra"
        return False, f"{detail} ({len(src_rows)} vs {len(dec_rows)} faces)"

    # equal rows: each source face is matched with the one decoded face of its key set
    ref, got = src[src_order], dec[dec_order]
    # rotate each source row within its corners; a trailing pad stays put
    corners = (ref >= 0).sum(axis=1, keepdims=True)
    cols = np.arange(width)
    wound = np.zeros(len(got), dtype=bool)
    for k in range(width):
        rotated = np.where(cols < corners, (cols + k) % corners, cols)
        wound |= (got == np.take_along_axis(ref, rotated, axis=1)).all(axis=1)
    if not wound.all():
        face = decoded.faces[dec_order[~wound].min()]
        keys = set(map(tuple, decoded.vertex_keys[face[face >= 0]].tolist()))
        return False, f"winding mismatch on face {sorted(keys)}"

    if not _is_bijection(source.island_of_face[src_order], decoded.island_of_face[dec_order]):
        return False, "island partition mismatch"
    return True, ""
