"""Token vocabulary, strip serialization with prefix sharing, and token files.

The 4800-id vocabulary packs three parallel coarse-level codebooks (plain
geometry, strip-transition, island-transition) ahead of the mid and fine
level ranges.  Consecutive vertices that share coarse/mid codes drop the
repeated prefix; transition markers are never compressed and reset the
sharing context.

Token ids travel as ``uint16`` NumPy arrays from :func:`serialize` to the
``.sato`` bytes and back; functions that take a sequence also accept a
list of ints.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .mesh_io import first_occurrence
from .quantize import Transform, encode_hier
from .strips import StripSet


# id ranges, each from its base to the next: coarse plain geometry [0, 64),
# strip-transition [64, 128) and island-transition [128, 192), mid
# [192, 704) and fine [704, 4800)
C1_GEO_BASE = 0
C1_T_BASE = 64
C1_UV_BASE = 128
C2_BASE = 192
C3_BASE = 704
VOCAB_SIZE = 4800


@dataclass
class TokenHeader:
    uv_mode: bool
    source_stride: int
    transform: Transform
    face_count: int


@dataclass
class TokenSequence:
    tokens: np.ndarray | list[int]  # (n,) uint16 from serialize and read_tokens
    header: TokenHeader


def serialize(s: StripSet, uv_mode: bool = False) -> TokenSequence:
    """Emit the token sequence for a strip set.

    Every strip head is a marker triple (strip-transition, or
    island-transition for the first strip of each island in uv mode) and is
    never compressed.  Later vertices drop the coarse code when it matches
    the previous vertex, and the mid code too when both match.
    """
    if not len(s.islands):
        raise ValueError("empty strip set")
    c1, c2, c3 = encode_hier(s.vertex_keys)[s.keys].T
    # an island's first strip is its first occurrence in strip order
    base = np.full(len(s.islands), C1_T_BASE)
    if uv_mode:
        base[first_occurrence(s.islands)[1]] = C1_UV_BASE
    starts = s.offsets[:-1]
    filled = starts < s.offsets[1:]
    heads, coarse = starts[filled], np.full(len(s.keys), C1_GEO_BASE)
    coarse[heads] = base[filled]
    # tokens per vertex: 3 at a head, else 1 if (c1, c2) repeats, 2 if only c1 does
    same1 = c1 == np.r_[-1, c1[:-1]]
    same2 = same1 & (c2 == np.r_[-1, c2[:-1]])
    same1[heads] = same2[heads] = False
    count = 3 - same1 - same2
    end = np.cumsum(count)
    tokens = np.empty(count.sum(), dtype=np.uint16)
    full, mid = count == 3, count >= 2
    tokens[end[full] - 3] = coarse[full] + c1[full]
    tokens[end[mid] - 2] = C2_BASE + c2[mid]
    tokens[end - 1] = C3_BASE + c3
    header = TokenHeader(
        uv_mode=uv_mode,
        source_stride=s.stride,
        transform=s.transform,
        face_count=s.face_count(),
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
    # classes: plain coarse, marker (strip or island), mid, fine
    level = np.searchsorted((C1_T_BASE, C2_BASE, C3_BASE), t.tokens, side="right")
    geo, transitions, n2, n3 = np.bincount(level, minlength=4).tolist()
    n1 = geo + transitions
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
# magic, version, flags, face count, center x/y/z, scale, token count
_HEADER = struct.Struct("<4sBBI4dI")


class TokenFileError(ValueError):
    """Corrupt or unsupported token file."""


def vocab_ids(tokens) -> tuple[np.ndarray, int | None]:
    """The ids among ``tokens`` in the vocabulary, the integers ``[0, VOCAB_SIZE)``
    (a float is none, not even ``64.0``), as an integer array in order, and
    the index of the first token that is no id (None if every one is)."""
    ids = np.asarray(tokens)
    if ids.dtype.kind in "biu":
        if not len(ids) or (ids.min() >= 0 and ids.max() < VOCAB_SIZE):
            return ids, None
        keep = (ids >= 0) & (ids < VOCAB_SIZE)
    else:  # floats (an empty list too), or an object array of ints beyond int64
        keep = np.array([isinstance(t, (int, np.integer)) and 0 <= t < VOCAB_SIZE for t in tokens], dtype=bool)
    return ids[keep].astype(np.int64), None if keep.all() else int(np.argmin(keep))


def _check_payload(tokens, transform: Transform) -> np.ndarray:
    """The ids as a ``uint16`` array, range-checked before the cast; raise
    :class:`TokenFileError` unless a token file can hold these ids and transform."""
    scale = transform.scale
    if not (math.isfinite(scale) and scale > 0.0):
        raise TokenFileError(f"bad transform scale {scale}")
    if not all(math.isfinite(v) for v in transform.center):
        raise TokenFileError(f"non-finite transform center {tuple(transform.center)}")
    ids, bad = vocab_ids(tokens)
    if bad is not None:
        raise TokenFileError(f"token id {tokens[bad]} out of range")
    return ids.astype(np.uint16)


def write_tokens(t: TokenSequence, path) -> None:
    """Write the binary token file (magic, version, flags, header, u16 ids);
    what :func:`read_tokens` would reject, or the header cannot hold,
    raises :class:`TokenFileError` and writes nothing."""
    ids = _check_payload(t.tokens, t.header.transform)
    if t.header.source_stride not in (1, 2):
        raise TokenFileError(f"source stride must be 1 or 2, got {t.header.source_stride}")
    face_count = t.header.face_count
    if not (isinstance(face_count, (int, np.integer)) and 0 <= face_count < 2**32):
        raise TokenFileError(f"face count {face_count} does not fit the header")
    flags = (1 if t.header.uv_mode else 0) | (2 if t.header.source_stride == 2 else 0)
    transform = t.header.transform
    head = _HEADER.pack(MAGIC, VERSION, flags, face_count, *transform.center, transform.scale, len(ids))
    with open(path, "wb") as fh:
        fh.write(head + ids.astype("<u2", copy=False).tobytes())


def read_tokens(path) -> TokenSequence:
    """Read a token file back; bit-exact inverse of :func:`write_tokens`.

    Raises :class:`TokenFileError` on anything ``write_tokens`` cannot
    produce: bad magic or version, unknown flags, a short or overlong payload,
    out-of-range ids, or a transform that would decode to non-finite
    positions.  The header ``face_count`` is not checked against the
    stream, since model-generated streams may legitimately disagree with it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 6 or data[:4] != MAGIC:
        raise TokenFileError("bad magic")
    version = data[4]
    if version != VERSION:
        raise TokenFileError(f"unsupported version {version}")
    fixed = _HEADER.size
    if len(data) < fixed:
        raise TokenFileError("truncated header")
    _, _, flags, face_count, cx, cy, cz, scale, count = _HEADER.unpack_from(data)
    if flags & ~3:  # bit 0 uv mode, bit 1 stride 2
        raise TokenFileError(f"unknown flag bits {flags:#04x}")
    if len(data) < fixed + 2 * count:
        raise TokenFileError("truncated payload")
    if len(data) > fixed + 2 * count:
        raise TokenFileError(f"{len(data) - fixed - 2 * count} trailing bytes after payload")
    transform = Transform((cx, cy, cz), scale)
    tokens = _check_payload(np.frombuffer(data, "<u2", count, fixed), transform)
    header = TokenHeader(
        uv_mode=bool(flags & 1),
        source_stride=2 if flags & 2 else 1,
        transform=transform,
        face_count=face_count,
    )
    return TokenSequence(tokens=tokens, header=header)
