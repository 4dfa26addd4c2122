"""Wavefront OBJ loading/saving, UV-island extraction, and corpus filtering.

Only ``v``, ``vt`` and ``f`` records are interpreted; anything else is
skipped.  Faces are triangles or quads, mixed as the file has them.
Exported files group faces by island (``g island_<id>``) when a partition
is supplied.

:func:`load_obj` reads a file once and parses its records in bulk when
they are plain: each ``v``, ``vt`` and ``f`` line starts with its tag and
one space, ``v`` has 3 numbers, ``vt`` 2, and every ``f`` the same 3 or 4
positive, in-range corners of one form.  Everything else, including every
file that mixes triangles and quads and every error, goes through the
per-line loop, which alone words the errors and numbers the lines; both
return the same :class:`Mesh`.

Face adjacency (UV islands, the manifold check, and the strip walk in
``strips``) is read from one stably sorted table of packed undirected edge
keys, :func:`sorted_edge_keys`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

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
    """Face rows of the given degrees from their 0-based corners in file
    order, as one ``(F, d)`` int64 array with the -1 pad; raises
    ``ValueError`` on the first corner not below ``count``."""
    try:
        values = np.array(flat, dtype=np.int64)
    except OverflowError:  # past int64, so out of range: clamp to find the first
        values = np.minimum(np.array(flat, dtype=object), count).astype(np.int64)
    bad = np.flatnonzero(values >= count)
    if len(bad):
        raise ValueError(message.format(flat[bad[0]] + 1, count))
    deg = np.array(degrees, dtype=np.int64)
    rows = np.full((len(deg), deg.max(initial=3)), -1, dtype=np.int64)
    rows[np.arange(rows.shape[1]) < deg[:, None]] = values
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
    faces, face_uvs = np.zeros((0, 3), dtype=np.int64), None
    if runs["f"]:
        parsed = _corners(runs["f"])
        if parsed is None:
            return None
        corners, has_uv = parsed
        faces = _indices(corners[:, :, 0], len(points))
        face_uvs = _indices(corners[:, :, 1], len(uvs)) if has_uv else None
        if faces is None or (has_uv and face_uvs is None):
            return None
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


def write_obj(mesh: Mesh, path, partition: IslandPartition | None = None) -> None:
    """Write a Mesh as OBJ text (9 significant digits, LF line endings).

    With a partition, faces are emitted grouped by ascending island id under
    ``g island_<id>`` records (stable within each island).  Each record
    block is one ``%`` format over all its values; ``'%.9g' % x`` and
    ``format(x, '.9g')`` share CPython's float formatter.  Pads are skipped,
    so a padded row is written as a triangle.
    """
    if not len(mesh.positions) or not len(mesh.faces):
        raise ValueError("empty mesh")
    if partition is not None and len(partition.island_of_face) != len(mesh.faces):
        raise ValueError("partition does not match face count")

    blocks = ["v %.9g %.9g %.9g\n" * len(mesh.positions) % tuple(mesh.positions.ravel().tolist())]
    values = mesh.faces
    corner = " %d"
    if mesh.uv_coords is not None and mesh.face_uvs is not None:
        blocks.append("vt %.9g %.9g\n" * len(mesh.uv_coords) % tuple(mesh.uv_coords.ravel().tolist()))
        values = np.stack([mesh.faces, mesh.face_uvs], axis=2)
        corner = " %d/%d"
    real = mesh.faces >= 0
    if partition is not None:
        order = np.argsort(partition.island_of_face, kind="stable")
        labels = partition.island_of_face[order]
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


def sorted_edge_keys(faces: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed undirected keys of every face edge, in stable sorted order.

    ``faces`` is an ``(F, d)`` array of node ids in ``[0, n)``, with the -1
    pad of :class:`Mesh`.  Edge ``k`` of face ``f`` joins corners ``k`` and
    ``k + 1`` (mod the face's degree) and is entry ``f * d + k`` of the
    flattened edge list; a padded row has its three triangle edges, and its
    pad starts none.  An edge's key is ``min * n + max`` of its two nodes,
    so both directions of an edge share one key.  Returns ``(order, keys)``:
    the edge indices sorted by key, and the sorted keys.  Equal keys keep
    ascending edge (so face) order.
    """
    b = np.roll(faces, -1, axis=1)
    edges = None
    if (faces < 0).any():
        # a padded row's third edge closes on its first corner
        b = np.where(b < 0, faces[:, :1], b)
        edges = np.flatnonzero(faces >= 0)
    keys = (np.minimum(faces, b) * n + np.maximum(faces, b)).reshape(-1)
    order = np.argsort(keys, kind="stable") if edges is None else edges[np.argsort(keys[edges], kind="stable")]
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
    labels = np.unique(roots, return_inverse=True)[1].reshape(-1)
    return IslandPartition(island_of_face=labels, island_count=int(labels.max()) + 1)


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
