"""Wavefront OBJ loading/saving, UV-island extraction, and corpus filtering.

Only ``v``, ``vt`` and ``f`` records are interpreted; anything else is
skipped.  Faces must be all triangles or all quads; mixed files are
rejected.  Exported files group faces by island (``g island_<id>``) when a
partition is supplied.

:func:`load_obj` reads a file once and parses its records in bulk when
they are plain: each ``v``, ``vt`` and ``f`` line starts with its tag and
one space, ``v`` has 3 numbers, ``vt`` 2, and every ``f`` the same 3 or 4
positive, in-range corners of one form.  Everything else, including every
error, goes through the per-line loop, which alone words the errors and
numbers the lines; both return the same :class:`Mesh`.

Face adjacency (UV islands, the manifold check, and the strip walk in
``strips``) is read from one stably sorted table of packed undirected edge
keys, :func:`sorted_edge_keys`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add

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
    """Polygon mesh with optional per-face UV indices.

    ``faces`` are 0-based position-index tuples, all of degree 3 or all of
    degree 4.  ``face_uvs``, when present, parallels ``faces`` and indexes
    into ``uv_coords``.
    """

    positions: list[tuple[float, float, float]]
    faces: list[tuple[int, ...]]
    uv_coords: list[tuple[float, float]] | None = None
    face_uvs: list[tuple[int, ...]] | None = None

    @property
    def face_degree(self) -> int:
        return len(self.faces[0]) if self.faces else 0


@dataclass
class IslandPartition:
    """Dense face -> island labels; islands are connected face groups."""

    island_of_face: list[int]
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
    faces: list[tuple[int, ...]] = []
    face_uvs: list[tuple[int, ...]] = []
    degree: int | None = None

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
            if degree is None:
                degree = len(corners)
            elif degree != len(corners):
                raise ObjParseError("mixed triangle/quad faces", lineno)
            vidx = []
            tidx = []
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
            if tidx and len(tidx) != len(vidx):
                raise ObjParseError("face mixes corners with and without uv", lineno)
            if face_uvs and not tidx:
                raise ObjParseError("face without uv after faces with uv", lineno)
            if tidx and faces and not face_uvs:
                raise ObjParseError("face with uv after faces without uv", lineno)
            faces.append(tuple(vidx))
            if tidx:
                face_uvs.append(tuple(tidx))
        # everything else (vn, g, s, o, usemtl, ...) is ignored

    npos = len(positions)
    for face in faces:
        for v in face:
            if v >= npos:
                raise ValueError(f"face index {v + 1} out of range ({npos} vertices)")
    if face_uvs:
        nuv = len(uv_coords)
        for fuv in face_uvs:
            for t in fuv:
                if t >= nuv:
                    raise ValueError(f"uv index {t + 1} out of range ({nuv} uvs)")

    return Mesh(
        positions=positions,
        faces=faces,
        uv_coords=uv_coords if uv_coords else None,
        face_uvs=face_uvs if face_uvs else None,
    )


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


def _floats(runs: list[str], width: int) -> list[float] | None:
    """The numbers of the records in ``runs``, flat, or None unless every
    line is its tag and ``width`` numbers that ``float`` parses."""
    tokens, n = _block(runs)
    if len(tokens) != n * (width + 1):
        return None
    # no tag parses as a float, so if the numbers parse, the n tags sit
    # where the count puts them: one at the start of each line
    del tokens[:: width + 1]
    try:
        return list(map(float, tokens))
    except ValueError:
        return None


def _corners(runs: list[str]) -> tuple[np.ndarray, bool] | None:
    """Face corners as an ``(F, d, k)`` array of their ``k`` numbers, and
    whether the second number is a uv index; or None unless every line is
    ``f`` and a uniform 3 or 4 corners, all in the first corner's form."""
    tokens, n = _block(runs)
    d1, rem = divmod(len(tokens), n)
    # no corner of digits and "/" is an "f", so if the corners check out,
    # the n tags sit one at the start of each line
    if rem or d1 not in (4, 5) or tokens[::d1].count("f") != n:
        return None
    del tokens[::d1]
    separators = tokens[0].translate(_NO_DIGITS)
    adjacent = "//" in tokens[0]
    form = _CORNER_FORMS.get((separators, adjacent))
    payload = " ".join(tokens)
    # every corner is digits between the first one's separators (the NumPy
    # parse is only fed digits, spaces and "/")
    if (
        form is None
        or not payload.isascii()
        or payload.translate(_NO_DIGITS) + " " != (separators + " ") * len(tokens)
        or (adjacent and payload.count("//") != len(tokens))
    ):
        return None
    width, has_uv = form
    values = np.fromstring(payload.replace("/", " "), dtype=np.int64, sep=" ")
    # an empty number (other than the uv field of a//c) parses as nothing
    if len(values) != len(tokens) * width:
        return None
    return values.reshape(n, d1 - 1, width), has_uv


def _indices(values: np.ndarray, count: int) -> list[tuple[int, ...]] | None:
    """1-based indices as 0-based tuples, or None unless all are in
    ``[1, count]``.  An index too long for int64 parses as its maximum, so
    it is out of range too."""
    if values.min() < 1 or values.max() > count:
        return None
    return row_tuples(values - 1)


def _parse_bulk(text: str) -> Mesh | None:
    """The mesh :func:`_parse_lines` returns for ``text``, or None.

    Parses all ``v``, ``vt`` and ``f`` records at once when each starts its
    line with the tag and one space; ``v`` has 3 numbers, ``vt`` 2, and
    every ``f`` the same 3 or 4 positive, in-range corners of one form
    (``a``, ``a/b``, ``a//c`` or ``a/b/c``).  Every other line must be one
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
    positions = list(zip(*[iter(points)] * 3))
    uv_coords = list(zip(*[iter(uvs)] * 2))
    faces, face_uvs = [], None
    if runs["f"]:
        parsed = _corners(runs["f"])
        if parsed is None:
            return None
        corners, has_uv = parsed
        faces = _indices(corners[:, :, 0], len(positions))
        face_uvs = _indices(corners[:, :, 1], len(uv_coords)) if has_uv else None
        if faces is None or (has_uv and face_uvs is None):
            return None
    return Mesh(
        positions=positions,
        faces=faces,
        uv_coords=uv_coords if uv_coords else None,
        face_uvs=face_uvs,
    )


def split_quad_faces(faces):
    """Triangulate quads along their (v1, v3) diagonal; triangles pass through.

    Face order is kept and each quad becomes ``(v0, v1, v3), (v1, v2, v3)``.
    This is the split the dual decode is defined by (a stride-1 decode of a
    quad sequence equals it), and the one the metrics sample quads with.
    """
    out = []
    for f in faces:
        if len(f) == 4:
            out.append((f[0], f[1], f[3]))
            out.append((f[1], f[2], f[3]))
        else:
            out.append(f)
    return out


def write_obj(mesh: Mesh, path, partition: IslandPartition | None = None) -> None:
    """Write a Mesh as OBJ text (9 significant digits, LF line endings).

    With a partition, faces are emitted grouped by ascending island id under
    ``g island_<id>`` records (stable within each island).  Each record
    block is one ``%`` format over all its values; ``'%.9g' % x`` and
    ``format(x, '.9g')`` share CPython's float formatter.
    """
    if not mesh.positions or not mesh.faces:
        raise ValueError("empty mesh")
    if partition is not None and len(partition.island_of_face) != len(mesh.faces):
        raise ValueError("partition does not match face count")

    blocks = ["v %.9g %.9g %.9g\n" * len(mesh.positions) % tuple(chain.from_iterable(mesh.positions))]
    values = mesh.faces
    corner = " %d"
    if mesh.uv_coords is not None and mesh.face_uvs is not None:
        blocks.append("vt %.9g %.9g\n" * len(mesh.uv_coords) % tuple(chain.from_iterable(mesh.uv_coords)))
        values = [tuple(chain.from_iterable(zip(f, t))) for f, t in zip(mesh.faces, mesh.face_uvs)]
        corner = " %d/%d"
    degrees = list(map(len, mesh.faces))
    formats = {d: "f" + corner * d + "\n" for d in set(degrees)}
    lines = list(map(formats.__getitem__, degrees))
    if partition is not None:
        labels = np.asarray(partition.island_of_face)
        order = np.argsort(labels, kind="stable")
        labels = labels[order]
        heads = [0] + (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
        order = order.tolist()
        lines = [lines[i] for i in order]
        values = [values[i] for i in order]
        for i in heads:
            lines[i] = f"g island_{partition.island_of_face[order[i]]}\n" + lines[i]
    # OBJ indices are 1-based
    blocks.append("".join(lines) % tuple(map(add, chain.from_iterable(values), repeat(1))))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(blocks))


def row_tuples(rows: np.ndarray) -> list[tuple]:
    """The rows of a 2-D array as tuples of Python scalars; a 4-column face
    row padded with -1 (a triangle among quads) becomes a 3-tuple."""
    out = list(zip(*rows.T.tolist()))
    if rows.shape[1] == 4:
        for i in (rows[:, 3] < 0).nonzero()[0].tolist():
            out[i] = out[i][:3]
    return out


def face_array(faces) -> np.ndarray:
    """Faces of one degree as an ``(F, d)`` int64 array (``(0, 0)`` if empty)."""
    return np.asarray(faces, dtype=np.int64).reshape(len(faces), len(faces[0]) if len(faces) else 0)


def sorted_edge_keys(faces: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed undirected keys of every face edge, in stable sorted order.

    ``faces`` is an ``(F, d)`` array of node ids in ``[0, n)``.  Edge ``k`` of
    face ``f`` joins corners ``k`` and ``k + 1`` (mod ``d``) and is entry
    ``f * d + k`` of the flattened edge list; its key is ``min * n + max``
    of its two nodes, so both directions of an edge share one key.  Returns
    ``(order, keys)``: the edge indices sorted by key, and the sorted keys.
    Equal keys keep ascending edge (so face) order.
    """
    b = np.roll(faces, -1, axis=1)
    keys = (np.minimum(faces, b) * n + np.maximum(faces, b)).reshape(-1)
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


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
    components of that relation, numbered in order of their lowest face.
    """
    if mesh.face_uvs is None:
        raise ValueError("mesh has no uv indices; use single_island instead")
    nfaces = len(mesh.faces)
    faces, fuvs = face_array(mesh.faces), face_array(mesh.face_uvs)
    if faces.shape != fuvs.shape:
        raise ValueError("face_uvs does not match faces")
    if not nfaces:
        return IslandPartition(island_of_face=[], island_count=0)

    # one node per distinct (vertex, uv) corner
    t0 = fuvs.min()
    packed = (faces - faces.min()) * (fuvs.max() - t0 + 1) + (fuvs - t0)
    uniq, nodes = np.unique(packed, return_inverse=True)
    order, keys = sorted_edge_keys(nodes.reshape(faces.shape), len(uniq))

    # faces of neighbouring equal keys share that (vertex, uv) edge
    same = np.flatnonzero(keys[1:] == keys[:-1])
    degree = faces.shape[1]
    roots = _component_roots(nfaces, order[same] // degree, order[same + 1] // degree)
    labels = np.unique(roots, return_inverse=True)[1].reshape(-1)
    return IslandPartition(island_of_face=labels.tolist(), island_count=int(labels.max()) + 1)


def single_island(mesh: Mesh) -> IslandPartition:
    """Trivial partition placing every face in island 0."""
    return IslandPartition(island_of_face=[0] * len(mesh.faces), island_count=1)


def _merged_faces(mesh: Mesh) -> tuple[np.ndarray, int]:
    """Faces as an ``(F, d)`` array remapped through exact duplicate-position
    merging, and the merged vertex count.

    Positions merge iff their bytes are equal; ``+ 0.0`` first turns -0.0
    into 0.0, so the two merge, as equal float tuples do.
    """
    points = np.asarray(mesh.positions, dtype=np.float64).reshape(len(mesh.positions), 3) + 0.0
    rows = np.ascontiguousarray(points).view(np.dtype((np.void, points.itemsize * 3))).reshape(-1)
    uniq, remap = np.unique(rows, return_inverse=True)
    return remap.reshape(-1)[face_array(mesh.faces)], len(uniq)


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
