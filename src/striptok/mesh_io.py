"""Wavefront OBJ loading/saving, UV-island extraction, and corpus filtering.

Only ``v``, ``vt`` and ``f`` records are interpreted; anything else is
skipped.  Faces are triangles or quads, mixed as the file has them.
Exported files group faces by island (``g island_<id>``) when a partition
is supplied.

:func:`load_obj` reads a file once and parses its records in bulk when
they are plain: each ``v``, ``vt`` and ``f`` line starts with its tag and
one space, ``v`` has 3 numbers, ``vt`` 2, and every ``f`` 3 or 4
positive, in-range corners of one form (triangles and quads may mix).
Everything else, and every error, goes through the per-line loop, which
alone words the errors and numbers the lines; both return the same
:class:`Mesh`.

Face adjacency (UV islands, the manifold check, and the strip walk in
``strips``) is read from one stably sorted table of packed undirected edge
keys, :func:`sorted_edge_keys`.

Every stable order from OBJ to tokens and back to the comparison is one
rule, :func:`stable_order` (rows: :func:`sort_rows`): NumPy's stable
argsort, taken from one ``np.sort`` of ``key << b | index`` where that fits.

Every numbering is one rule, :func:`first_occurrence`: equal keys share a
dense id, and ids count up in order of first occurrence.  It numbers
quantized vertices (one per grid cell), decoded vertices (one per welded
``(island, key)`` pair) and the islands of :func:`uv_islands`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import repeat

import numpy as np

FACE_COUNT_RANGE = (500, 16000)
ISLAND_COUNT_RANGE = (10, 300)
MAX_VERTEX_FACE_RATIO = 1.0


class ObjParseError(ValueError):
    """Malformed OBJ content; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Mesh:
    """Polygon mesh of NumPy arrays, with optional per-face UV indices.

    ``positions`` is ``(V, 3)`` float64 and ``faces`` ``(F, d)`` int64 of
    0-based position indices, ``d`` 3 or 4.  The pad rule, shared with
    :class:`~striptok.quantize.QuantizedMesh`: a triangle among quads is a
    4-column row padded with -1 in its last column.  ``uv_coords`` is
    ``(T, 2)`` float64 or None; ``face_uvs`` is None or parallels ``faces``
    (same shape and pads) with indices into ``uv_coords``.
    """

    positions: np.ndarray
    faces: np.ndarray
    uv_coords: np.ndarray | None = None
    face_uvs: np.ndarray | None = None

    @property
    def face_degree(self) -> int:
        return self.faces.shape[1] if len(self.faces) else 0


@dataclass
class IslandPartition:
    """Dense ``(F,)`` int64 face -> island labels; islands are connected face groups."""

    island_of_face: np.ndarray
    island_count: int


def _relative_index(raw: int, defined: int, lineno: int) -> int:
    """0-based index of a non-positive OBJ index.

    A relative (negative) index counts back from the last of the ``defined``
    records read so far (-1 is the latest); 0 is never valid.
    """
    if raw == 0:
        raise ObjParseError("index 0 (OBJ indices are 1-based)", lineno)
    if raw + defined < 0:
        raise ObjParseError(f"relative index {raw} before the first of {defined} records", lineno)
    return raw + defined


def load_obj(path) -> Mesh:
    """Parse an OBJ file into a Mesh (0-based indices, vn data ignored).

    Negative face indices are relative to the records defined so far.  The
    file is decoded as UTF-8 with universal newlines; a leading byte-order
    mark is dropped.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    mesh = _parse_bulk(text)
    return mesh if mesh is not None else _parse_lines(text)


def _parse_lines(text: str) -> Mesh:
    """The per-line loader: each record in file order, raising on the first
    malformed one.  Lines are numbered by ``\\n`` alone, as iterating the
    file numbers them."""
    positions: list[tuple[float, float, float]] = []
    uv_coords: list[tuple[float, float]] = []
    degrees: list[int] = []
    vidx: list[int] = []  # face corners, flat in file order
    tidx: list[int] = []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise ObjParseError("vertex needs 3 coordinates", lineno)
            try:
                p = (float(parts[1]), float(parts[2]), float(parts[3]))
            except ValueError:
                raise ObjParseError("bad vertex coordinate", lineno) from None
            if not all(math.isfinite(c) for c in p):
                raise ObjParseError("non-finite vertex coordinate", lineno)
            positions.append(p)
        elif tag == "vt":
            if len(parts) < 3:
                raise ObjParseError("uv needs 2 coordinates", lineno)
            try:
                uv_coords.append((float(parts[1]), float(parts[2])))
            except ValueError:
                raise ObjParseError("bad uv coordinate", lineno) from None
        elif tag == "f":
            corners = parts[1:]
            if len(corners) not in (3, 4):
                raise ObjParseError(
                    f"face of degree {len(corners)} (only 3 or 4 supported)", lineno
                )
            with_uv = 0
            for corner in corners:
                fields = corner.split("/")
                try:
                    v = int(fields[0])
                except ValueError:
                    raise ObjParseError(f"bad face corner {corner!r}", lineno) from None
                vidx.append(v - 1 if v > 0 else _relative_index(v, len(positions), lineno))
                if len(fields) > 1 and fields[1]:
                    try:
                        t = int(fields[1])
                    except ValueError:
                        raise ObjParseError(f"bad uv index in {corner!r}", lineno) from None
                    tidx.append(t - 1 if t > 0 else _relative_index(t, len(uv_coords), lineno))
                    with_uv += 1
            if with_uv and with_uv != len(corners):
                raise ObjParseError("face mixes corners with and without uv", lineno)
            if tidx and not with_uv:
                raise ObjParseError("face without uv after faces with uv", lineno)
            if with_uv and degrees and len(tidx) == with_uv:
                raise ObjParseError("face with uv after faces without uv", lineno)
            degrees.append(len(corners))
        # everything else (vn, g, s, o, usemtl, ...) is ignored

    faces = _rows(vidx, degrees, len(positions), "face index {} out of range ({} vertices)")
    face_uvs = _rows(tidx, degrees, len(uv_coords), "uv index {} out of range ({} uvs)") if tidx else None
    return Mesh(
        positions=np.array(positions, dtype=np.float64).reshape(-1, 3),
        faces=faces,
        uv_coords=np.array(uv_coords, dtype=np.float64).reshape(-1, 2) if uv_coords else None,
        face_uvs=face_uvs,
    )


def _rows(flat: list[int], degrees: list[int], count: int, message: str) -> np.ndarray:
    """:func:`_pad` of the 0-based corners ``flat``; raises ``ValueError`` on
    the first corner not below ``count``."""
    try:
        values = np.array(flat, dtype=np.int64)
    except OverflowError:  # past int64, so out of range: clamp to find the first
        values = np.minimum(np.array(flat, dtype=object), count).astype(np.int64)
    bad = np.flatnonzero(values >= count)
    if len(bad):
        raise ValueError(message.format(flat[bad[0]] + 1, count))
    return _pad(values, np.array(degrees, dtype=np.int64))


def _pad(values: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Face rows of the given degrees from their corners in file order, as
    one ``(F, d)`` int64 array with the -1 pad."""
    width = degrees.max(initial=3)
    if degrees.min(initial=width) == width:
        return values.reshape(-1, width)
    rows = np.full((len(degrees), width), -1, dtype=np.int64)
    rows[np.arange(rows.shape[1]) < degrees[:, None]] = values
    return rows


_TAGS = ("v", "vt", "f")
# a maximal run of lines that each start with one record tag and one space
_RUN = re.compile(r"^(vt?|f) [^\n]*(?:\n\1 [^\n]*)*", re.MULTILINE)
_NO_DIGITS = str.maketrans("", "", "0123456789")
# (separators of a corner, adjacent "//") -> (numbers per corner, has a uv index)
_CORNER_FORMS = {
    ("", False): (1, False),
    ("/", False): (2, True),
    ("//", True): (2, False),
    ("//", False): (3, True),
}


def _all_skipped(text: str) -> bool:
    """True if the per-line loop skips every line of ``text``."""
    for line in text.split("\n"):
        tag = line.split(None, 1)[:1]
        if tag and tag[0] in _TAGS:
            return False
    return True


def _block(runs: list[str]) -> tuple[list[str], int]:
    """The tokens of one tag's runs of lines, and the number of lines."""
    text = "\n".join(runs)
    return text.split(), text.count("\n") + 1 if runs else 0


def _floats(runs: list[str], width: int) -> np.ndarray | None:
    """The numbers of the records in ``runs`` as an ``(n, width)`` float64
    array, or None unless every line is its tag and ``width`` numbers that
    ``float`` parses."""
    tokens, n = _block(runs)
    if len(tokens) != n * (width + 1):
        return None
    # no tag parses as a float, so if the numbers parse, the n tags sit
    # where the count puts them: one at the start of each line
    del tokens[:: width + 1]
    try:
        return np.array(list(map(float, tokens)), dtype=np.float64).reshape(-1, width)
    except ValueError:
        return None


def _corners(runs: list[str]) -> tuple[np.ndarray, np.ndarray, bool] | None:
    """Face corners in file order as a ``(C, k)`` array of their ``k``
    numbers, the number of corners of each face, and whether the second
    number is a uv index; or None unless every line is ``f`` and 3 or 4
    corners, all in the first corner's form."""
    tokens, n = _block(runs)
    # each line starts with an "f" token; if no corner is or starts with
    # "f" (no corner of digits and "/" does), the tokens between two tags
    # are one line's corners
    d1, rem = divmod(len(tokens), n)
    if not rem and tokens[::d1].count("f") == n:
        del tokens[::d1]
        degrees = np.full(n, d1 - 1)
        payload = " ".join(tokens)
    elif tokens.count("f") == n:  # triangles and quads mixed
        lines = (" " + " ".join(tokens)).split(" f")[1:]
        degrees = np.fromiter(map(str.count, lines, repeat(" ")), dtype=np.int64)
        if degrees.sum() != len(tokens) - n:
            return None
        payload = "".join(lines)[1:]
    else:
        return None
    n_corners = int(degrees.sum())
    first = payload[: payload.find(" ")]
    separators = first.translate(_NO_DIGITS)
    adjacent = "//" in first
    form = _CORNER_FORMS.get((separators, adjacent))
    # every corner is digits between the first one's separators (the NumPy
    # parse is only fed digits, spaces and "/")
    if (
        form is None
        or degrees.min() < 3
        or degrees.max() > 4
        or not payload.isascii()
        or payload.translate(_NO_DIGITS) + " " != (separators + " ") * n_corners
        or (adjacent and payload.count("//") != n_corners)
    ):
        return None
    width, has_uv = form
    values = np.fromstring(payload.replace("/", " "), dtype=np.int64, sep=" ")
    # an empty number (other than the uv field of a//c) parses as nothing
    if len(values) != n_corners * width:
        return None
    return values.reshape(n_corners, width), degrees, has_uv


def _indices(values: np.ndarray, count: int) -> np.ndarray | None:
    """1-based indices made 0-based, or None unless all are in ``[1, count]``.
    An index too long for int64 parses as its maximum, so it is out of range
    too."""
    if values.min() < 1 or values.max() > count:
        return None
    return values - 1


def _parse_bulk(text: str) -> Mesh | None:
    """The mesh :func:`_parse_lines` returns for ``text``, or None.

    Parses all ``v``, ``vt`` and ``f`` records at once when each starts its
    line with the tag and one space; ``v`` has 3 numbers, ``vt`` 2, and
    every ``f`` 3 or 4 positive, in-range corners of one form (``a``,
    ``a/b``, ``a//c`` or ``a/b/c``).  Every other line must be one
    the per-line loop skips.  Any other file gives None; this never raises.
    """
    runs: dict[str, list[str]] = {tag: [] for tag in _TAGS}
    gaps = []
    last = 0
    for m in _RUN.finditer(text):
        gaps.append(text[last : m.start()])
        runs[m.group(1)].append(m.group(0))
        last = m.end()
    gaps.append(text[last:])
    if not _all_skipped("\n".join(gaps)):
        return None

    points = _floats(runs["v"], 3)
    uvs = _floats(runs["vt"], 2)
    if points is None or uvs is None or not np.isfinite(points).all():
        return None
    faces, face_uvs = np.zeros((0, 3), dtype=np.int64), None
    if runs["f"]:
        parsed = _corners(runs["f"])
        if parsed is None:
            return None
        corners, degrees, has_uv = parsed
        faces = _indices(corners[:, 0], len(points))
        face_uvs = _indices(corners[:, 1], len(uvs)) if has_uv else None
        if faces is None or (has_uv and face_uvs is None):
            return None
        faces = _pad(faces, degrees)
        face_uvs = _pad(face_uvs, degrees) if has_uv else None
    return Mesh(positions=points, faces=faces, uv_coords=uvs if len(uvs) else None, face_uvs=face_uvs)


def split_quad_faces(faces: np.ndarray) -> np.ndarray:
    """Triangulate quads along their (v1, v3) diagonal; triangles pass through.

    ``faces`` is an ``(F, d)`` array (a -1-padded row is a triangle); the
    result is ``(T, 3)``.  Face order is kept and each quad becomes
    ``(v0, v1, v3), (v1, v2, v3)``.  This is the split the dual decode is
    defined by (a stride-1 decode of a quad sequence equals it), and the one
    the metrics sample quads with.
    """
    if faces.shape[1] == 3:
        return faces
    halves = faces[:, [[0, 1, 3], [1, 2, 3]]]
    tri = faces[:, 3] < 0
    halves[tri, 0] = faces[tri, :3]
    return halves[np.stack([np.ones_like(tri), ~tri], axis=1)]


def _float_block(record: str, values: np.ndarray) -> str:
    """``record`` once per row of ``values``, each float as ``'%.9g'``.

    Equal bits share one formatted text, so -0.0 and 0.0 (and NaN payloads)
    stay apart, as formatting each value would keep them.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64).reshape(-1)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map("%.9g".__mod__, distinct.view(np.float64).tolist())), dtype=object)
    return record * len(values) % tuple(text[inverse].tolist())


def write_obj(mesh: Mesh, path, partition: IslandPartition | None = None) -> None:
    """Write a Mesh as OBJ text (9 significant digits, LF line endings).

    With a partition, faces are emitted grouped by ascending island id under
    ``g island_<id>`` records (stable within each island).  Each record
    block is one ``%`` format over all its values; ``'%.9g' % x`` and
    ``format(x, '.9g')`` share CPython's float formatter.  The ``v`` and
    ``vt`` blocks format each distinct float (by its bits) once and place
    the text by index: a decode has at most 512 values per axis.  Pads are
    skipped, so a padded row is written as a triangle.
    """
    if not len(mesh.positions) or not len(mesh.faces):
        raise ValueError("empty mesh")
    if partition is not None and len(partition.island_of_face) != len(mesh.faces):
        raise ValueError("partition does not match face count")

    blocks = [_float_block("v %s %s %s\n", mesh.positions)]
    values = mesh.faces
    corner = " %d"
    if mesh.uv_coords is not None and mesh.face_uvs is not None:
        blocks.append(_float_block("vt %s %s\n", mesh.uv_coords))
        values = np.stack([mesh.faces, mesh.face_uvs], axis=2)
        corner = " %d/%d"
    real = mesh.faces >= 0
    if partition is not None:
        order, labels = stable_order(partition.island_of_face)
        values, real = values[order], real[order]
    degrees = real.sum(axis=1).tolist()
    formats = {d: "f" + corner * d + "\n" for d in set(degrees)}
    lines = list(map(formats.__getitem__, degrees))
    if partition is not None:
        heads = np.flatnonzero(np.diff(labels, prepend=-1))
        for i, label in zip(heads.tolist(), labels[heads].tolist()):
            lines[i] = f"g island_{label}\n" + lines[i]
    # OBJ indices are 1-based
    blocks.append("".join(lines) % tuple((values[real] + 1).ravel().tolist()))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(blocks))


# Below this many keys (or rows) NumPy's own stable sorts win: the packed
# sort's fixed cost of a dozen array calls exceeds the sort itself.
PACKED_SORT_MIN = 512


def stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sorted_keys)`` of a 1-D integer array: exactly
    ``np.argsort(keys, kind="stable")`` and ``keys[order]``.

    When there are at least :data:`PACKED_SORT_MIN` int64 keys, every key
    is non-negative and ``max << b`` fits in int64, with ``b`` the bits of
    ``len(keys) - 1``, one ``np.sort`` of ``key << b | index`` gives both:
    the index breaks ties, so equal keys keep their input order, and a mask
    and a shift read them back.  Any other input falls back to the stable
    argsort.
    """
    n = len(keys)
    shift = (n - 1).bit_length()
    packs = n >= PACKED_SORT_MIN and keys.dtype == np.int64 and keys.min() >= 0
    if packs and int(keys.max()) >> (63 - shift) == 0:
        packed = np.sort(keys << shift | np.arange(n))
        return packed & ((1 << shift) - 1), packed >> shift
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def unique_first(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)`` of a 1-D
    int64 array, through :func:`stable_order`: the distinct keys ascending,
    the index of each one's first occurrence, and each key's position among
    them."""
    order, ordered = stable_order(keys)
    heads = np.ones(len(keys), dtype=bool)
    heads[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(heads) - 1
    return ordered[heads], order[heads], inverse


def first_occurrence(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, first)`` of a 1-D int64 array: ``ids`` numbers equal keys
    alike, densely from 0 in order of first occurrence, and id ``j`` first
    occurs at ``first[j]``, so ``first`` ascends."""
    _, first, inverse = unique_first(keys)
    by_first = first.argsort()  # distinct indices: any sort ranks them alike
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(first))
    return rank[inverse], first[by_first]


def sort_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows of a 2-D integer array, and run heads.

    ``heads[i]`` is True where ``rows[order][i]`` differs from the row before
    it, so each run of equal rows starts at a head, in original row order.
    The order is ``np.lexsort(rows.T[::-1])``'s.  With at least
    :data:`PACKED_SORT_MIN` int64 rows whose ``d`` columns of ``b`` bits
    fit in 63, ``b`` the bits of the array's ``max - min``,
    :func:`stable_order` sorts each row packed into one key, ``(col - min)
    << b`` column by column; other rows fall back to ``np.lexsort``.
    """
    heads = np.ones(len(rows), dtype=bool)
    if len(rows) >= PACKED_SORT_MIN and rows.dtype == np.int64:
        lo = int(rows.min())
        bits = (int(rows.max()) - lo).bit_length()
        if rows.shape[1] * bits <= 63:
            cols = (rows - lo).T
            keys = cols[0]
            for col in cols[1:]:
                keys = keys << bits | col
            order, ordered = stable_order(keys)
            heads[1:] = ordered[1:] != ordered[:-1]
            return order, heads
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    heads[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, heads


def sorted_edge_keys(faces: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed undirected keys of every face edge, in stable sorted order.

    ``faces`` is an ``(F, d)`` array of node ids in ``[0, n)``, with the -1
    pad of :class:`Mesh`.  Edge ``k`` of face ``f`` joins corners ``k`` and
    ``k + 1`` (mod the face's degree) and is entry ``f * d + k`` of the
    flattened edge list; a padded row has its three triangle edges, and its
    pad starts none.  An edge's key is ``min * n + max`` of its two nodes,
    so both directions of an edge share one key.  Returns ``(order, keys)``:
    the edge indices sorted by key, and the sorted keys.  Equal keys keep
    ascending edge, so face, order: the preference order of
    :func:`~striptok.strips.extract_strips`, which numbers faces by it.
    The order is :func:`stable_order`'s, so it packs each key with its
    index and falls back to a stable argsort when that overflows.
    """
    b = np.roll(faces, -1, axis=1)
    edges = None
    if (faces < 0).any():
        # a padded row's third edge closes on its first corner
        b = np.where(b < 0, faces[:, :1], b)
        edges = np.flatnonzero(faces >= 0)
    keys = (np.minimum(faces, b) * n + np.maximum(faces, b)).reshape(-1)
    if edges is None:
        return stable_order(keys)
    order, ordered = stable_order(keys[edges])
    return edges[order], ordered


def _component_roots(n: int, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Lowest node id of each node's connected component under edges ``u``-``w``.

    Min-label propagation: every edge hooks the root of its higher label
    under the lower one, then pointer jumping flattens the forest, until
    both ends of every edge have one root.
    """
    root = np.arange(n)
    while True:
        ru, rw = root[u], root[w]
        split = ru != rw
        if not split.any():
            return root
        ru, rw = ru[split], rw[split]
        np.minimum.at(root, np.maximum(ru, rw), np.minimum(ru, rw))
        while True:
            jumped = root[root]
            if (jumped == root).all():
                break
            root = jumped


def uv_islands(mesh: Mesh) -> IslandPartition:
    """Partition faces into UV islands.

    Two faces are joined iff they share a 3D edge and reference identical uv
    indices at both endpoints of that edge; islands are the connected
    components of that relation, numbered by :func:`first_occurrence` of
    their lowest face.
    """
    if mesh.face_uvs is None:
        raise ValueError("mesh has no uv indices; use single_island instead")
    faces, fuvs = mesh.faces, mesh.face_uvs
    nfaces = len(faces)
    if faces.shape != fuvs.shape or ((faces < 0) != (fuvs < 0)).any():
        raise ValueError("face_uvs does not match faces")
    if not nfaces:
        return IslandPartition(island_of_face=np.zeros(0, dtype=np.int64), island_count=0)

    # one node per distinct (vertex, uv) corner; pads stay -1
    t0 = fuvs.min()
    packed = (faces - faces.min()) * (fuvs.max() - t0 + 1) + (fuvs - t0)
    uniq, nodes = np.unique(packed, return_inverse=True)
    nodes = np.where(faces < 0, -1, nodes.reshape(faces.shape))
    order, keys = sorted_edge_keys(nodes, len(uniq))

    # faces of neighbouring equal keys share that (vertex, uv) edge
    same = np.flatnonzero(keys[1:] == keys[:-1])
    degree = faces.shape[1]
    roots = _component_roots(nfaces, order[same] // degree, order[same + 1] // degree)
    labels, first = first_occurrence(roots)
    return IslandPartition(island_of_face=labels, island_count=len(first))


def single_island(mesh: Mesh) -> IslandPartition:
    """Trivial partition placing every face in island 0."""
    return IslandPartition(island_of_face=np.zeros(len(mesh.faces), dtype=np.int64), island_count=1)


def _merged_faces(mesh: Mesh) -> tuple[np.ndarray, int]:
    """Faces remapped through exact duplicate-position merging (pads kept),
    and the merged vertex count.

    Positions merge iff their bytes are equal; ``+ 0.0`` first turns -0.0
    into 0.0, so the two merge, as equal floats do.
    """
    points = np.ascontiguousarray(mesh.positions) + 0.0
    rows = points.view(np.dtype((np.void, points.itemsize * 3))).reshape(-1)
    uniq, remap = np.unique(rows, return_inverse=True)
    return np.where(mesh.faces < 0, -1, remap.reshape(-1)[mesh.faces]), len(uniq)


def _edge_manifold(faces: np.ndarray, n: int) -> bool:
    """True iff no edge key of ``faces`` occurs more than twice.

    Edges whose two ends are one vertex are skipped.
    """
    if not faces.size:
        return True
    _, keys = sorted_edge_keys(faces, n)
    keys = keys[keys // n != keys % n]
    return not (keys[2:] == keys[:-2]).any()


def is_edge_manifold(mesh: Mesh) -> bool:
    """True iff every edge bounds at most two faces after duplicate merge."""
    return _edge_manifold(*_merged_faces(mesh))


@dataclass
class FilterResult:
    accepted: bool
    reason: str | None = None


def corpus_filter(mesh: Mesh, partition: IslandPartition | None = None) -> FilterResult:
    """Apply the training-corpus admission rules.

    Checks, in order: edge-manifoldness after exact duplicate-vertex merge,
    face count in [500, 16000], merged vertex/face ratio <= 1.0, and island
    count in [10, 300] when a partition is supplied.  Rejection names the
    first failing rule; it is a value, not an error.
    """
    merged, vertex_count = _merged_faces(mesh)
    if not _edge_manifold(merged, vertex_count):
        return FilterResult(False, "manifold")

    nfaces = len(mesh.faces)
    if not FACE_COUNT_RANGE[0] <= nfaces <= FACE_COUNT_RANGE[1]:
        return FilterResult(False, "face_count")

    if nfaces == 0 or vertex_count / nfaces > MAX_VERTEX_FACE_RATIO:
        return FilterResult(False, "vertex_face_ratio")

    if partition is not None:
        if not ISLAND_COUNT_RANGE[0] <= partition.island_count <= ISLAND_COUNT_RANGE[1]:
            return FilterResult(False, "island_count")

    return FilterResult(True)
