"""Token parsing and mesh reconstruction.

Both stages are total: structurally invalid tokens are discarded and
counted, never raised.  Parsing restores full three-level codes through a
prefix cache; decoding segments the vertex stream into strips at marker
events, welds coincident coordinates within each island, and assembles
faces at the requested stride.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mesh_io import IslandPartition, split_quad_faces
from .quantize import QuantizedMesh, Transform, decode_hier
from .strips import Strip, strip_faces
from .tokens import C2_BASE, C3_BASE, C1_T_BASE, TokenSequence, VOCAB_SIZE

EV_VERTEX = 0
EV_STRIP = 1
EV_ISLAND = 2


@dataclass
class VertexStream:
    """Parsed events as (kind, c1, c2, c3) tuples with discard accounting.

    ``kind`` is EV_VERTEX / EV_STRIP / EV_ISLAND; marker events carry the
    full code of their seed vertex.  ``consumed_tokens + discarded`` always
    equals the input length.
    """

    events: list[tuple[int, int, int, int]]
    discarded: int
    consumed_tokens: int


def parse_tokens(t: TokenSequence | list[int]) -> VertexStream:
    """Expand a token list into vertex events.

    A (c1, c2) cache supplies omitted prefixes.  A pending partial triple
    that cannot be extended by the incoming token is discarded (counted per
    token) and parsing resumes from the incoming token, so consecutive
    markers drop the earlier one; bare mid/fine tokens before any complete
    vertex and dangling prefixes at end of stream are discarded likewise.
    """
    tokens = t.tokens if isinstance(t, TokenSequence) else t
    events: list[tuple[int, int, int, int]] = []
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
                events.append((p_kind, p_c1, p_c2, c3))
                consumed += 3
                cache_c1, cache_c2 = p_c1, p_c2
                state = 0
                break
            if state == 3:
                events.append((EV_VERTEX, cache_c1, p_c2, c3))
                consumed += 2
                cache_c2 = p_c2
                state = 0
                break
            if state == 0:
                if cache_c1 >= 0:
                    events.append((EV_VERTEX, cache_c1, cache_c2, c3))
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
    return VertexStream(events=events, discarded=discarded, consumed_tokens=consumed)


@dataclass
class DecodeReport:
    """Drop/weld accounting: every token is either discarded at parse time,
    part of a dropped short strip, or a vertex of a kept strip; every implied
    face is either emitted, degenerate, or a duplicate."""

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


def _segment(stream: VertexStream):
    """Group events into (island, codes) strips; stream start opens both."""
    strips: list[tuple[int, list[tuple[int, int, int]]]] = []
    island = 0
    current: list[tuple[int, int, int]] | None = None
    for kind, c1, c2, c3 in stream.events:
        if current is None:
            current = [(c1, c2, c3)]
            continue
        if kind == EV_ISLAND:
            strips.append((island, current))
            island += 1
            current = [(c1, c2, c3)]
        elif kind == EV_STRIP:
            strips.append((island, current))
            current = [(c1, c2, c3)]
        else:
            current.append((c1, c2, c3))
    if current is not None:
        strips.append((island, current))
    return strips


def _decode_impl(stream, stride, transform, drop_duplicates):
    report = DecodeReport(discarded_tokens=stream.discarded)
    vertex_keys: list[tuple[int, int, int]] = []
    weld_maps: dict[int, dict[tuple[int, int, int], int]] = {}
    faces: list[tuple[int, ...]] = []
    labels: list[int] = []
    seen: set[frozenset[int]] = set()

    for island, codes in _segment(stream):
        if len(codes) < 3:
            report.dropped_strips += 1
            report.dropped_strip_vertices += len(codes)
            continue
        report.kept_strips += 1
        report.kept_strip_vertices += len(codes)
        wmap = weld_maps.setdefault(island, {})
        idxs = []
        for code in codes:
            coord = decode_hier(code)
            j = wmap.get(coord)
            if j is None:
                j = len(vertex_keys)
                wmap[coord] = j
                vertex_keys.append(coord)
            else:
                report.welds += 1
            idxs.append(j)
        for face in strip_faces(Strip(keys=idxs, island=island, stride=stride)):
            report.implied_faces += 1
            if len(set(face)) < len(face):
                report.degenerate_faces += 1
                continue
            fset = frozenset(face)
            if fset in seen:
                if drop_duplicates:
                    report.duplicate_faces += 1
                    continue
            else:
                seen.add(fset)
            faces.append(face)
            labels.append(island)

    referenced = sorted({v for face in faces for v in face})
    remap = {old: new for new, old in enumerate(referenced)}
    vertex_keys = [vertex_keys[old] for old in referenced]
    faces = [tuple(remap[v] for v in face) for face in faces]

    present = sorted(set(labels))
    dense = {old: new for new, old in enumerate(present)}
    partition = IslandPartition(
        island_of_face=[dense[l] for l in labels], island_count=len(present)
    )
    mesh = QuantizedMesh(
        vertex_keys=vertex_keys,
        faces=faces,
        island_of_face=partition.island_of_face,
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
    merges identical coordinates within an island only.
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
    return tri.faces == split_quad_faces(quad.faces) and tri.vertex_keys == quad.vertex_keys
