"""Exact comparison of a quantized mesh against its decoded reconstruction.

Both meshes become ``(F, d)`` arrays of key codes, each corner's rank among
both meshes' distinct vertex keys (:func:`~striptok.mesh_io.rank_rows`), -1
where a face has no corner (the pad of a stride-2 decode's trailing
triangle).  Faces are matched by their unordered key sets: each row's
distinct codes are sorted and both sides are sorted as rows
(:func:`~striptok.mesh_io.sort_rows`), so equal face multisets line up row
for row.  The source holds one face per key set, as
:func:`~striptok.quantize.quantize_mesh` returns it (a source that repeats
a key set raises ``ValueError``), so matched rows are one face on each
side.  A winding matches when the decoded row is a cyclic rotation of its
matched source row.  Each source row is rotated once, to start where it
holds the decoded row's first code, and compared in one pass; only the
rows this misses, as it can where a source row repeats that code, are
tried at every rotation.  The island partitions match when the (source
label, decoded label) pairs over the matched faces form a bijection: as
many distinct pairs as distinct labels on either side.  No loop runs per
face.
"""

from __future__ import annotations

import numpy as np

from .mesh_io import rank_rows, sort_rows
from .quantize import QuantizedMesh, check_quantized


def _key_codes(source: QuantizedMesh, decoded: QuantizedMesh):
    """The rank of each mesh's vertex keys among both meshes' distinct keys:
    equal exactly where the keys are, ordered as they are, and narrow enough
    that ``sort_rows`` packs a face of 3 or 4 of them into one key."""
    codes = rank_rows(np.concatenate([source.vertex_keys, decoded.vertex_keys]))
    n = len(source.vertex_keys)
    return codes[:n], codes[n:]


def _face_codes(q: QuantizedMesh, codes: np.ndarray, width: int) -> np.ndarray:
    """Each face corner's key code in ``width`` columns; pads are -1, and so
    are the columns that narrower faces lack."""
    faces = q.faces
    if faces.shape[1] < width:
        faces = np.pad(faces, ((0, 0), (0, width - faces.shape[1])), constant_values=-1)
    return np.append(codes, -1)[faces]  # a -1 pad reads the appended -1


def _set_rows(faces: np.ndarray) -> np.ndarray:
    """Each face's distinct keys in ascending order, left-padded with -1."""
    rows = np.sort(faces, axis=1)
    repeated = rows[:, 1:] == rows[:, :-1]
    if repeated.any():
        rows[:, 1:][repeated] = -1
        rows.sort(axis=1)
    return rows


def _rotated_equal(ref: np.ndarray, got: np.ndarray, start) -> np.ndarray:
    """Whether each ``got`` row is its ``ref`` row rotated within its corners
    to start at column ``start`` (per row or for all); a trailing pad stays put."""
    corners = (ref >= 0).sum(axis=1, keepdims=True)
    cols = np.arange(ref.shape[1])
    turned = np.where(cols < corners, (cols + start) % corners, cols)
    return (got == np.take_along_axis(ref, turned, axis=1)).all(axis=1)


def _is_bijection(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the pairs ``(a[i], b[i])`` match a's values one-to-one with
    b's: there are as many distinct pairs as distinct values on either side."""
    order, heads = sort_rows(np.stack([a, b], axis=1))
    a, b = a[order[heads]], b[order[heads]]  # the distinct pairs, ascending by a
    return len(a) == 1 + np.count_nonzero(a[1:] != a[:-1]) == len(np.unique(b))


def compare_quantized(source: QuantizedMesh, decoded: QuantizedMesh) -> tuple[bool, str]:
    """Check face multiset, winding, and island partition.

    Returns (ok, detail); detail names the first divergence.  Raises
    ``ValueError`` when either mesh fails
    :func:`~striptok.quantize.check_quantized` or the source repeats a face
    key set.  With one source face per key set, matching partitions also
    give each island the same vertex keys on both sides.  A decoded face is
    wound as its source face when it is any rotation of it, also where the
    source face repeats a key (``quantize_mesh`` keeps no such face, but a
    caller may pass one).
    """
    check_quantized(source)
    check_quantized(decoded)
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
    # rotate each source row so that the decoded row's first code comes first
    wound = _rotated_equal(ref, got, (ref == got[:, :1]).argmax(axis=1)[:, None])
    missed = np.flatnonzero(~wound)
    if len(missed):
        # a source row that repeats that code may match from another
        # occurrence of it: the rows missed are tried at every rotation
        for k in range(width):
            wound[missed] |= _rotated_equal(ref[missed], got[missed], k)
    if not wound.all():
        face = decoded.faces[dec_order[~wound].min()]
        keys = set(map(tuple, decoded.vertex_keys[face[face >= 0]].tolist()))
        return False, f"winding mismatch on face {sorted(keys)}"

    if not _is_bijection(source.island_of_face[src_order], decoded.island_of_face[dec_order]):
        return False, "island partition mismatch"
    return True, ""
