"""Token parsing and mesh reconstruction.

Both stages are total: structurally invalid tokens are discarded and
counted, never raised.  Parsing restores full three-level codes through a
prefix cache; decoding segments the vertex stream into strips at marker
events, welds coincident coordinates within each island, and assembles
faces at the requested stride.

Decoding works on the ``(n, 4)`` event array.  Strip heads are event 0
and every marker; a strip's island id is the number of island markers up
to its head (a cumulative sum), and the islands that keep a face are
renumbered densely at the end.  Kept vertices are numbered by
first occurrence of their ``(island, packed key)`` pair, so equal codes
weld within an island and never across two.  Faces are index arithmetic
on each strip's run of vertex ids, one row per face; at stride 2 a
trailing triangle is padded to four columns with -1, and the mesh keeps
that padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh_io import IslandPartition, split_quad_faces
from .quantize import QuantizedMesh, Transform, _unpack_keys, decode_hier, sort_rows
from .tokens import C2_BASE, C3_BASE, C1_T_BASE, TokenSequence, VOCAB_SIZE

EV_VERTEX = 0
EV_STRIP = 1
EV_ISLAND = 2

# a packed grid key takes 27 bits; the island id goes above them
_KEY_BITS = 27
_KEY_MASK = (1 << _KEY_BITS) - 1

# corner offsets from a face's first strip position, by face variant:
# stride 1 even/odd step (odd steps flip), stride 2 quad/trailing triangle
_CORNERS = {
    1: np.array([[0, 1, 2], [0, 2, 1]]),
    2: np.array([[0, 1, 3, 2], [0, 1, 2, 0]]),
}


@dataclass
class VertexStream:
    """Parsed events as an ``(n, 4)`` int64 array of (kind, c1, c2, c3) rows,
    with discard accounting.

    ``kind`` is EV_VERTEX / EV_STRIP / EV_ISLAND; marker events carry the
    full code of their seed vertex.  ``consumed_tokens + discarded`` always
    equals the input length (:meth:`check`).
    """

    events: np.ndarray
    discarded: int
    consumed_tokens: int

    def check(self, n_tokens: int) -> None:
        """Raise ``AssertionError`` unless consumed + discarded == ``n_tokens``."""
        if self.consumed_tokens + self.discarded != n_tokens:
            raise AssertionError(
                f"consumed_tokens {self.consumed_tokens} + discarded {self.discarded}"
                f" != {n_tokens} tokens"
            )


def parse_tokens(t: TokenSequence | list[int]) -> VertexStream:
    """Expand a token list into vertex events.

    A (c1, c2) cache supplies omitted prefixes.  A pending partial triple
    that cannot be extended by the incoming token is discarded (counted per
    token) and parsing resumes from the incoming token, so consecutive
    markers drop the earlier one; bare mid/fine tokens before any complete
    vertex and dangling prefixes at end of stream are discarded likewise.
    """
    tokens = t.tokens if isinstance(t, TokenSequence) else t
    flat: list[int] = []  # kind, c1, c2, c3 of each event in turn
    emit = flat.extend
    discarded = 0
    consumed = 0
    cache_c1 = -1
    cache_c2 = -1
    # pending state: 0 empty, 1 have c1, 2 have c1+c2, 3 have bare c2
    state = 0
    p_kind = 0
    p_c1 = 0
    p_c2 = 0

    for tok in tokens:
        if tok < 0 or tok >= VOCAB_SIZE:
            discarded += 1
            continue
        while True:
            if tok < C2_BASE:
                if state == 0:
                    if tok < C1_T_BASE:
                        p_kind, p_c1 = EV_VERTEX, tok
                    elif tok < 128:
                        p_kind, p_c1 = EV_STRIP, tok - 64
                    else:
                        p_kind, p_c1 = EV_ISLAND, tok - 128
                    state = 1
                    break
                discarded += 2 if state == 2 else 1
                state = 0
                continue
            if tok < C3_BASE:
                c2 = tok - C2_BASE
                if state == 0:
                    if cache_c1 >= 0:
                        p_c2 = c2
                        state = 3
                    else:
                        discarded += 1
                    break
                if state == 1:
                    p_c2 = c2
                    state = 2
                    break
                discarded += 2 if state == 2 else 1
                state = 0
                continue
            c3 = tok - C3_BASE
            if state == 2:
                emit((p_kind, p_c1, p_c2, c3))
                consumed += 3
                cache_c1, cache_c2 = p_c1, p_c2
                state = 0
                break
            if state == 3:
                emit((EV_VERTEX, cache_c1, p_c2, c3))
                consumed += 2
                cache_c2 = p_c2
                state = 0
                break
            if state == 0:
                if cache_c1 >= 0:
                    emit((EV_VERTEX, cache_c1, cache_c2, c3))
                    consumed += 1
                else:
                    discarded += 1
                break
            # state == 1: lone c1 before a fine token
            discarded += 1
            state = 0
            continue

    if state:
        discarded += 2 if state == 2 else 1
    events = np.array(flat, dtype=np.int64).reshape(-1, 4)
    return VertexStream(events=events, discarded=discarded, consumed_tokens=consumed)


@dataclass
class DecodeReport:
    """Drop/weld accounting: every token is either discarded at parse time,
    part of a dropped short strip, or a vertex of a kept strip; every implied
    face is either emitted, degenerate, or a duplicate (:meth:`check`)."""

    discarded_tokens: int = 0
    dropped_strips: int = 0
    dropped_strip_vertices: int = 0
    kept_strips: int = 0
    kept_strip_vertices: int = 0
    implied_faces: int = 0
    degenerate_faces: int = 0
    duplicate_faces: int = 0
    welds: int = 0

    def clean(self) -> bool:
        return not (
            self.discarded_tokens
            or self.dropped_strips
            or self.degenerate_faces
            or self.duplicate_faces
        )

    def check(self, n_events: int, n_faces: int) -> None:
        """Raise ``AssertionError`` unless the event and face counts balance.

        ``n_events`` is the length of the decoded stream's events and
        ``n_faces`` the number of faces the decode emitted.
        """
        if self.kept_strip_vertices + self.dropped_strip_vertices != n_events:
            raise AssertionError(
                f"events {n_events} != kept strip vertices {self.kept_strip_vertices}"
                f" + dropped strip vertices {self.dropped_strip_vertices}"
            )
        if self.implied_faces != n_faces + self.degenerate_faces + self.duplicate_faces:
            raise AssertionError(
                f"implied faces {self.implied_faces} != emitted {n_faces}"
                f" + degenerate {self.degenerate_faces} + duplicate {self.duplicate_faces}"
            )


def _nothing_kept(stride, transform, report):
    empty = np.zeros(0, dtype=np.int64)
    return (
        QuantizedMesh(empty.reshape(0, 3), empty.reshape(0, stride + 2), empty, transform),
        IslandPartition(island_of_face=empty, island_count=0),
        report,
    )


def _decode_impl(stream, stride, transform, drop_duplicates):
    # NumPy's array methods are used over its functions where both exist:
    # most calls see a few dozen events, where per-call overhead dominates
    report = DecodeReport(discarded_tokens=stream.discarded)
    events = stream.events
    n = len(events)
    if not n:
        return _nothing_kept(stride, transform, report)
    bounds = np.empty(n + 1, dtype=bool)  # strip heads, then the stream end
    np.not_equal(events[:, 0], EV_VERTEX, out=bounds[:n])
    bounds[0] = bounds[n] = True
    bounds = bounds.nonzero()[0]
    heads = bounds[:-1]
    lengths = bounds[1:] - heads
    keep = lengths >= 3
    report.dropped_strips = len(heads)
    report.dropped_strip_vertices = n
    if not keep.any():
        return _nothing_kept(stride, transform, report)

    # counting a leading island marker too shifts every id alike
    island = (events[:, 0] == EV_ISLAND).cumsum(dtype=np.int64)[heads[keep]]
    events = events[keep.repeat(lengths)]
    lengths = lengths[keep]
    n = len(events)
    report.kept_strips = len(lengths)
    report.kept_strip_vertices = n
    report.dropped_strips -= len(lengths)
    report.dropped_strip_vertices -= n

    # weld: a vertex's id is the position of the first kept event with its
    # (island, key) pair, so ids follow first occurrence
    island = island.repeat(lengths)
    pairs = island << _KEY_BITS | decode_hier(events[:, 1:])
    order = pairs.argsort(kind="stable")
    ordered = pairs[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    first = order[new]
    vid = np.empty_like(order)
    vid[order] = first[new.cumsum() - 1]
    report.welds = n - len(first)

    # a face starts at every strip position (every even one at stride 2)
    # with at least 3 vertices left; the corners are offsets from there
    left = lengths.cumsum().repeat(lengths) - np.arange(n)  # this vertex included
    pos = lengths.repeat(lengths) - left
    if stride == 1:
        start = (left >= 3).nonzero()[0]
        variant = pos[start] & 1
    else:
        start = ((left >= 3) & (pos & 1 == 0)).nonzero()[0]
        variant = (left[start] == 3).view(np.int8)
    rows = vid[start[:, None] + _CORNERS[stride][variant]]
    if stride == 2:
        rows[variant == 1, 3] = -1
    report.implied_faces = len(rows)

    sets = np.sort(rows, axis=1)
    ok = (sets[:, 1:] != sets[:, :-1]).all(axis=1).nonzero()[0]
    report.degenerate_faces = len(rows) - len(ok)
    if drop_duplicates:
        # of faces with equal index sets, the first (the run head) is kept
        order, first_of_set = sort_rows(sets[ok])
        ok = ok[np.sort(order[first_of_set])]
        report.duplicate_faces = len(rows) - report.degenerate_faces - len(ok)
    rows = rows[ok]

    # number the referenced vertices densely in id order; the -1 pad marks
    # and maps through the spare last slot
    used = np.zeros(n + 1, dtype=bool)
    used[rows] = True
    new_id = used.cumsum() - 1
    new_id[n] = -1

    # islands only grow along the faces, so a dense label counts the changes
    island = island[start[ok]]
    labels = np.zeros(len(island), dtype=np.int64)
    (island[1:] != island[:-1]).cumsum(out=labels[1:])
    partition = IslandPartition(labels, int(labels[-1]) + 1 if len(labels) else 0)
    mesh = QuantizedMesh(
        vertex_keys=_unpack_keys(pairs[used[:n]] & _KEY_MASK),
        faces=new_id[rows],
        island_of_face=labels,
        transform=transform,
    )
    return mesh, partition, report


def decode(
    stream: VertexStream, stride: int, transform: Transform
) -> tuple[QuantizedMesh, IslandPartition, DecodeReport]:
    """Rebuild a quantized mesh from a vertex stream.

    Strips shorter than three vertices are dropped; decoded faces with a
    repeated welded index and duplicate faces (same unordered index set)
    are dropped; everything dropped is counted in the report.  Welding
    merges identical coordinates within an island only.  Faces have
    ``stride + 2`` columns.
    """
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    return _decode_impl(stream, stride, transform, drop_duplicates=True)


def dual_decode_check(t: TokenSequence) -> bool:
    """True iff the stride-1 decode equals the diagonal split of the stride-2 decode.

    Duplicate-face dropping is disabled on both sides so the raw
    triangulations are compared face by face.
    """
    if t.header.source_stride != 2:
        raise ValueError("dual decode check requires a stride-2 sequence")
    stream = parse_tokens(t)
    tri, _, _ = _decode_impl(stream, 1, t.header.transform, drop_duplicates=False)
    quad, _, _ = _decode_impl(stream, 2, t.header.transform, drop_duplicates=False)
    same_keys = np.array_equal(tri.vertex_keys, quad.vertex_keys)
    return same_keys and np.array_equal(tri.faces, split_quad_faces(quad.faces))
