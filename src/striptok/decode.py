"""Token parsing and mesh reconstruction.

Both stages are total: structurally invalid tokens are discarded and
counted, never raised.  Parsing restores full three-level codes through a
prefix cache; decoding segments the vertex stream into strips at marker
events, welds coincident coordinates within each island, and assembles
faces at the requested stride.

The parse rule: ids outside the vocabulary, the integers ``[0, 4800)``,
are discarded and change nothing (a float is no id, not even ``64.0``),
and nothing before the first coarse, mid, fine run is kept.  From
that run on, every fine token ends exactly one event, by the two tokens
before it: after a coarse and a mid it is a full triple ``(kind, c1, c2,
c3)``; after a mid alone, a vertex with the cached ``c1``; otherwise a
vertex with the cached ``c1`` and ``c2``.  The cached ``c1`` is that of the
latest full triple, the cached ``c2`` that of the latest full triple or
mid+fine pair.  Every other token is discarded.  :func:`parse_tokens`
applies it to the whole stream at once: event types from the token classes
at each fine token and the two before it, cached codes as forward fills.

Decoding works on the ``(n, 4)`` event array.  Strip heads are event 0
and every marker; a strip's island id is the number of island markers up
to its head (a cumulative sum), and the islands that keep a face are
renumbered densely at the end.  Events with one ``(island, packed key)``
pair weld into one vertex, numbered by the rule in :mod:`striptok.mesh_io`:
equal codes weld within an island, never across two.  Faces are index
arithmetic on each strip's run of vertex ids, one row per face; at stride
2 a trailing triangle is padded to four columns with -1, and the mesh
keeps that padding unless it keeps no quad: then the all-pad column goes,
so the mesh has the three columns its OBJ reloads with.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .mesh_io import IslandPartition, _integer, first_occurrence, split_quad_faces
from .quantize import KEY_BITS, QuantizedMesh, Transform, _unpack_keys, decode_hier, distinct_faces
from .tokens import C1_GEO_BASE, C1_T_BASE, C2_BASE, C3_BASE, TokenSequence, VOCAB_SIZE, vocab_ids

EV_VERTEX = 0
EV_STRIP = 1
EV_ISLAND = 2

# the class of each token id: coarse (any of the three codebooks), mid,
# fine; a coarse id is kind * _C1_SIZE + code, codebooks in kind order from 0
_C1_SIZE = C1_T_BASE - C1_GEO_BASE
_COARSE, _MID, _FINE = b"cmf"
_CLASS = np.frombuffer(
    b"c" * C2_BASE + b"m" * (C3_BASE - C2_BASE) + b"f" * (VOCAB_SIZE - C3_BASE), dtype=np.uint8
)
_FIRST_TRIPLE = re.compile(b"cmf")

# the island id goes above a packed grid key's bits
_KEY_MASK = (1 << KEY_BITS) - 1

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
    """Expand a token list into vertex events by the module's parse rule.

    A full triple's kind comes from its coarse codebook; a vertex from the
    cache is ``EV_VERTEX``.  Every token is consumed by one event or
    discarded.
    """
    tokens = t.tokens if isinstance(t, TokenSequence) else t
    n_tokens = len(tokens)
    ids = vocab_ids(tokens)[0].astype(np.int64, copy=False)
    classes = _CLASS[ids]
    first = _FIRST_TRIPLE.search(classes.tobytes())
    if first is None:
        return VertexStream(np.zeros((0, 4), dtype=np.int64), n_tokens, 0)
    classes = classes[first.start() :]
    ids = ids[first.start() :]
    fine = (classes == _FINE).nonzero()[0]
    at_mid = fine - 1
    at_coarse = fine - 2
    mid = classes[at_mid] == _MID
    full = mid & (classes[at_coarse] == _COARSE)
    # each event takes its coarse and mid codes from the latest event that
    # read one; the first event is a full triple, so both are set from it on
    events = np.empty((len(fine), 4), dtype=np.int64)
    np.divmod(ids[np.maximum.accumulate(at_coarse * full)], _C1_SIZE, out=(events[:, 0], events[:, 1]))
    events[:, 0] *= full
    np.subtract(ids[np.maximum.accumulate(at_mid * mid)], C2_BASE, out=events[:, 2])
    np.subtract(ids[fine], C3_BASE, out=events[:, 3])
    consumed = len(fine) + int(np.count_nonzero(mid)) + int(np.count_nonzero(full))
    return VertexStream(events=events, discarded=n_tokens - consumed, consumed_tokens=consumed)


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

    # weld: events with one (island, key) pair are one vertex
    island = island.repeat(lengths)
    pairs = island << KEY_BITS | decode_hier(events[:, 1:])
    vid, first = first_occurrence(pairs)
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

    nondegenerate, distinct = distinct_faces(rows)
    ok = distinct if drop_duplicates else nondegenerate
    report.degenerate_faces = len(rows) - len(nondegenerate)
    report.duplicate_faces = len(nondegenerate) - len(ok)
    rows = rows[ok]
    if stride == 2 and len(rows) and (rows[:, 3] < 0).all():
        rows = rows[:, :3]  # no quad kept: a triangle mesh, as its OBJ reloads

    # number the referenced vertices densely in id order; the -1 pad marks
    # and maps through the spare last slot
    used = np.zeros(len(first) + 1, dtype=bool)
    used[rows] = True
    new_id = used.cumsum() - 1
    new_id[-1] = -1

    # islands only grow along the faces, so a dense label counts the changes
    island = island[start[ok]]
    labels = np.zeros(len(island), dtype=np.int64)
    (island[1:] != island[:-1]).cumsum(out=labels[1:])
    partition = IslandPartition(labels, int(labels[-1]) + 1 if len(labels) else 0)
    mesh = QuantizedMesh(
        vertex_keys=_unpack_keys(pairs[first[used[:-1]]] & _KEY_MASK),
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
    are dropped by :func:`~striptok.quantize.distinct_faces`; everything
    dropped is counted in the report.  Welding merges identical coordinates
    within an island only; :mod:`striptok.mesh_io` states how the welded
    vertices are numbered.  Faces have ``stride + 2`` columns, or 3 at
    stride 2 when no quad is kept (an empty decode has ``stride + 2``).  A
    stride other than the integer 1 or 2 (:func:`~striptok.mesh_io._integer`) raises ``ValueError``.
    """
    if _integer(stride) not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    return _decode_impl(stream, stride, transform, drop_duplicates=True)


def dual_decode_check(t: TokenSequence) -> bool:
    """True iff the stride-1 decode equals the diagonal split of the stride-2 decode.

    Duplicate-face dropping is disabled on both sides so the raw
    triangulations are compared face by face.
    """
    if _integer(t.header.source_stride) != 2:
        raise ValueError("dual decode check requires a stride-2 sequence")
    stream = parse_tokens(t)
    tri, _, _ = _decode_impl(stream, 1, t.header.transform, drop_duplicates=False)
    quad, _, _ = _decode_impl(stream, 2, t.header.transform, drop_duplicates=False)
    same_keys = np.array_equal(tri.vertex_keys, quad.vertex_keys)
    return same_keys and np.array_equal(tri.faces, split_quad_faces(quad.faces))
