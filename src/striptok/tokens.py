"""Token vocabulary, strip serialization with prefix sharing, and token files.

The 4800-id vocabulary packs three parallel coarse-level codebooks (plain
geometry, strip-transition, island-transition) ahead of the mid and fine
level ranges.  Consecutive vertices that share coarse/mid codes drop the
repeated prefix; transition markers are never compressed and reset the
sharing context.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .quantize import Transform, encode_hier
from .strips import StripSet, seed_order


@dataclass(frozen=True)
class VocabLayout:
    """Id ranges of the token vocabulary (half-open intervals)."""

    c1_geo: tuple[int, int] = (0, 64)
    c1_strip: tuple[int, int] = (64, 128)
    c1_island: tuple[int, int] = (128, 192)
    c2: tuple[int, int] = (192, 704)
    c3: tuple[int, int] = (704, 4800)
    total_size: int = 4800

    @property
    def ranges(self):
        return {
            "C1_GEO": self.c1_geo,
            "C1_T": self.c1_strip,
            "C1_UV": self.c1_island,
            "C2": self.c2,
            "C3": self.c3,
        }


VOCAB = VocabLayout()

C1_GEO_BASE = VOCAB.c1_geo[0]
C1_T_BASE = VOCAB.c1_strip[0]
C1_UV_BASE = VOCAB.c1_island[0]
C2_BASE = VOCAB.c2[0]
C3_BASE = VOCAB.c3[0]
VOCAB_SIZE = VOCAB.total_size


@dataclass
class TokenHeader:
    uv_mode: bool
    source_stride: int
    transform: Transform
    face_count: int


@dataclass
class TokenSequence:
    tokens: list[int]
    header: TokenHeader


def serialize(s: StripSet, uv_mode: bool = False) -> TokenSequence:
    """Emit the token sequence for a strip set.

    Every strip head is a marker triple (strip-transition, or
    island-transition for the first strip of each island in uv mode) and is
    never compressed.  Later vertices drop the coarse code when it matches
    the previous vertex, and the mid code too when both match.
    """
    if not s.strips:
        raise ValueError("empty strip set")
    codes = [encode_hier(k) for k in s.vertex_keys]
    tokens: list[int] = []
    prev: tuple[int, int] | None = None
    seen_islands: set[int] = set()
    for strip in s.strips:
        new_island = strip.island not in seen_islands
        seen_islands.add(strip.island)
        for j, key in enumerate(strip.keys):
            c1, c2, c3 = codes[key]
            if j == 0:
                base = C1_UV_BASE if (uv_mode and new_island) else C1_T_BASE
                tokens.extend((base + c1, C2_BASE + c2, C3_BASE + c3))
            elif prev == (c1, c2):
                tokens.append(C3_BASE + c3)
            elif prev is not None and prev[0] == c1:
                tokens.extend((C2_BASE + c2, C3_BASE + c3))
            else:
                tokens.extend((C1_GEO_BASE + c1, C2_BASE + c2, C3_BASE + c3))
            prev = (c1, c2)
    header = TokenHeader(
        uv_mode=uv_mode,
        source_stride=s.stride,
        transform=s.transform,
        face_count=s.face_count(),
    )
    return TokenSequence(tokens=tokens, header=header)


def baseline_serialize(q) -> TokenSequence:
    """Naive per-face encoding: 9 tokens per triangle, no sharing.

    Comparison denominator only; every vertex emits its full
    (plain c1, c2, c3) triple, faces in seed order.
    """
    if not q.faces:
        raise ValueError("empty mesh")
    if q.face_degree != 3:
        raise ValueError("baseline encoding expects a triangle mesh")
    codes = [encode_hier(k) for k in q.vertex_keys]
    tokens: list[int] = []
    for fi in seed_order(q):
        for v in q.faces[fi]:
            c1, c2, c3 = codes[v]
            tokens.extend((C1_GEO_BASE + c1, C2_BASE + c2, C3_BASE + c3))
    header = TokenHeader(
        uv_mode=False, source_stride=1, transform=q.transform, face_count=len(q.faces)
    )
    return TokenSequence(tokens=tokens, header=header)


@dataclass
class TokenStats:
    token_length: int
    transitions: int
    comp_rate: float
    level_shares: tuple[float, float, float]
    comp_rate_quad12: float = 0.0


def compression_stats(t: TokenSequence) -> TokenStats:
    """Length, marker count, and compression rate (tokens / (9 * faces)).

    ``level_shares`` is the fraction of coarse/mid/fine tokens;
    ``comp_rate_quad12`` is the 12-per-face variant for quad sources.
    """
    if t.header.face_count <= 0:
        raise ValueError("zero faces")
    n1 = n2 = n3 = transitions = 0
    for tok in t.tokens:
        if tok < C2_BASE:
            n1 += 1
            if C1_T_BASE <= tok < C2_BASE:
                transitions += 1
        elif tok < C3_BASE:
            n2 += 1
        else:
            n3 += 1
    total = len(t.tokens)
    shares = (n1 / total, n2 / total, n3 / total) if total else (0.0, 0.0, 0.0)
    return TokenStats(
        token_length=total,
        transitions=transitions,
        comp_rate=total / (9 * t.header.face_count),
        level_shares=shares,
        comp_rate_quad12=total / (12 * t.header.face_count),
    )


MAGIC = b"SATO"
VERSION = 1


class TokenFileError(ValueError):
    """Corrupt or unsupported token file."""


def write_tokens(t: TokenSequence, path) -> None:
    """Write the binary token file (magic, version, flags, header, u16 ids)."""
    flags = (1 if t.header.uv_mode else 0) | (2 if t.header.source_stride == 2 else 0)
    c = t.header.transform.center
    blob = bytearray()
    blob += MAGIC
    blob.append(VERSION)
    blob.append(flags)
    blob += struct.pack("<I", t.header.face_count)
    blob += struct.pack("<4d", c[0], c[1], c[2], t.header.transform.scale)
    blob += struct.pack("<I", len(t.tokens))
    blob += struct.pack(f"<{len(t.tokens)}H", *t.tokens)
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def read_tokens(path) -> TokenSequence:
    """Read a token file back; bit-exact inverse of :func:`write_tokens`.

    Raises :class:`TokenFileError` on anything ``write_tokens`` cannot
    produce: bad magic or version, a short or overlong payload, out-of-range
    ids, or a transform that would decode to non-finite positions.  The
    header ``face_count`` is not checked against the stream, since
    model-generated streams may legitimately disagree with it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 6 or data[:4] != MAGIC:
        raise TokenFileError("bad magic")
    version = data[4]
    if version != VERSION:
        raise TokenFileError(f"unsupported version {version}")
    flags = data[5]
    fixed = 6 + 4 + 32 + 4
    if len(data) < fixed:
        raise TokenFileError("truncated header")
    face_count = struct.unpack_from("<I", data, 6)[0]
    cx, cy, cz, scale = struct.unpack_from("<4d", data, 10)
    count = struct.unpack_from("<I", data, 42)[0]
    if len(data) < fixed + 2 * count:
        raise TokenFileError("truncated payload")
    if len(data) > fixed + 2 * count:
        raise TokenFileError(f"{len(data) - fixed - 2 * count} trailing bytes after payload")
    if not (math.isfinite(scale) and scale > 0.0):
        raise TokenFileError(f"bad transform scale {scale}")
    if not all(math.isfinite(v) for v in (cx, cy, cz)):
        raise TokenFileError(f"non-finite transform center {(cx, cy, cz)}")
    tokens = list(struct.unpack_from(f"<{count}H", data, fixed))
    if tokens and max(tokens) >= VOCAB_SIZE:
        bad = next(tok for tok in tokens if tok >= VOCAB_SIZE)
        raise TokenFileError(f"token id {bad} out of range")
    header = TokenHeader(
        uv_mode=bool(flags & 1),
        source_stride=2 if flags & 2 else 1,
        transform=Transform((cx, cy, cz), scale),
        face_count=face_count,
    )
    return TokenSequence(tokens=tokens, header=header)
