"""Exact comparison of a quantized mesh against its decoded reconstruction.

Both meshes become ``(F, d)`` arrays of packed grid keys
(:func:`~striptok.quantize.pack_keys`), -1 where a face has no corner (the
pad of a stride-2 decode's trailing triangle).  Faces are matched by their
unordered key sets: each row's distinct keys are sorted and both sides are
lexsorted, so equal face multisets line up row for row.  A winding matches
when the decoded row is a cyclic rotation of its matched source row, and the
island partitions match when the (source label, decoded label) pairs over
the matched faces form a bijection.  Only the loop over rotations runs in
Python.  Meshes that repeat a key set, which neither quantization nor
decoding produces, take a slower path that compares the label groups as
sets, with one Python step per label.
"""

from __future__ import annotations

import numpy as np

from .quantize import GRID, QuantizedMesh, pack_keys, sort_rows


def _key_codes(source: QuantizedMesh, decoded: QuantizedMesh):
    """One int64 per vertex key of each mesh, equal exactly where the keys are."""
    keys = np.concatenate([source.vertex_keys, decoded.vertex_keys])
    if keys.size and (keys.min() < 0 or keys.max() >= GRID):
        # not grid keys, so packing could collide: rank them jointly instead
        codes = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)
    else:
        codes = pack_keys(keys)
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


def _multiset_detail(src_sets: np.ndarray, dec_sets: np.ndarray, n_src: int, n_dec: int) -> str:
    """The mismatch message, from each side's distinct key-set rows."""
    both = np.concatenate([src_sets, dec_sets])
    common = len(both) - int(sort_rows(both)[1].sum())
    return (
        f"face multiset mismatch: {len(src_sets) - common} missing, {len(dec_sets) - common} extra "
        f"({n_src} vs {n_dec} faces)"
    )


def _labels(q: QuantizedMesh) -> np.ndarray:
    if q.island_of_face is None:
        return np.zeros(len(q.faces), dtype=np.int64)
    return q.island_of_face


def _is_bijection(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the pairs ``(a[i], b[i])`` match a's values one-to-one with b's."""
    a_values, a = np.unique(a, return_inverse=True)
    b_values, b = np.unique(b, return_inverse=True)
    pairs = np.unique(a.reshape(-1) * len(b_values) + b.reshape(-1))
    return len(pairs) == len(a_values) == len(b_values)


def _groups(labels: np.ndarray, values: np.ndarray) -> list[bytes]:
    """The distinct values under each label, sorted, as one bytes string per
    label; negative values (pads) are skipped."""
    labels, values = labels[values >= 0], values[values >= 0]
    labels = np.unique(labels, return_inverse=True)[1].reshape(-1)
    span = int(values.max()) + 1
    labels, values = np.divmod(np.unique(labels * span + values), span)
    return [v.tobytes() for v in np.split(values, np.flatnonzero(np.diff(labels)) + 1)]


def compare_quantized(source: QuantizedMesh, decoded: QuantizedMesh) -> tuple[bool, str]:
    """Check face multiset, winding, island partition, and per-island key sets.

    Returns (ok, detail); detail names the first divergence.
    """
    if not len(source.faces) and not len(decoded.faces):
        return True, ""
    src_codes, dec_codes = _key_codes(source, decoded)
    width = max(source.faces.shape[1], decoded.faces.shape[1])
    src, dec = _face_codes(source, src_codes, width), _face_codes(decoded, dec_codes, width)
    src_rows, dec_rows = _set_rows(src), _set_rows(dec)
    (src_order, head), (dec_order, dec_head) = sort_rows(src_rows), sort_rows(dec_rows)
    src_rows, dec_rows = src_rows[src_order], dec_rows[dec_order]
    if len(src_rows) != len(dec_rows) or not np.array_equal(src_rows, dec_rows):
        return False, _multiset_detail(src_rows[head], dec_rows[dec_head], len(src_rows), len(dec_rows))

    # matched rows hold the same key set on both sides; like a dict keyed by
    # key set, the last source face of a set is the one its windings must match
    set_id = np.cumsum(head) - 1
    run_end = np.flatnonzero(np.append(head[1:], True))
    ref, got = src[src_order[run_end[set_id]]], dec[dec_order]
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

    src_labels, dec_labels = _labels(source), _labels(decoded)
    if head.all():
        # one face per key set: the label partitions agree iff the labels of
        # matched faces correspond one-to-one, and then so do the key sets
        if not _is_bijection(src_labels[src_order], dec_labels[dec_order]):
            return False, "island partition mismatch"
        return True, ""

    # repeated key sets: labels can share faces, so compare the groups as sets
    if set(_groups(src_labels[src_order], set_id)) != set(_groups(dec_labels[dec_order], set_id)):
        return False, "island partition mismatch"
    src_keys = _groups(np.repeat(src_labels, width), src.reshape(-1))
    dec_keys = _groups(np.repeat(dec_labels, width), dec.reshape(-1))
    if sorted(src_keys) != sorted(dec_keys):
        return False, "per-island vertex key sets mismatch"
    return True, ""
