"""Wavefront OBJ loading/saving, UV-island extraction, and corpus filtering.

Only ``v``, ``vt`` and ``f`` records are interpreted; anything else is
skipped.  Faces are triangles or quads, mixed as the file has them.
Exported files group faces by island (``g island_<id>``) when a partition
is supplied.

:func:`load_obj` reads a file once and parses its records in bulk when
they are plain: each ``v``, ``vt`` and ``f`` line starts with its tag and
one space, ``v`` has 3 numbers, ``vt`` 2, and every ``f`` 3 or 4
positive, in-range corners of one form (triangles and quads may mix),
parted by any whitespace.  Everything else, and every error, goes through
the per-line loop, which alone words the errors and numbers the lines;
both return the same :class:`Mesh`.

:func:`write_obj` makes no Python object per number or line: each record
block is one ``uint8`` matrix of ASCII rows, NUL-padded, whose non-NUL
bytes are the block's text.  Floats are formatted once per distinct bit
pattern and indices read from a decimal table.  It raises ``ValueError``,
before it opens the file, on a mesh that fails :func:`check_mesh`: the
array contract of a :class:`Mesh`, which every function that takes a
caller's mesh checks first.

Face adjacency is read from packed undirected edge keys,
:func:`_edge_keys`.  UV islands join the faces of equal keys and the
manifold check counts them, so neither needs an order among equal keys;
the strip walk in ``strips`` sorts them with each edge's direction, stably
in face order, and keeps to an island by what it has visited.

Every stable order from OBJ to tokens and back to the comparison is one
rule, :func:`stable_order` (rows: :func:`sort_rows`): NumPy's stable
argsort, taken from one ``np.sort`` of ``key << b | index`` where that fits.

Dense ids have two rules, both through that order: equal keys share an id,
and ids count up in value order (:func:`rank_rows`: grid cells, ``(vertex,
uv)`` corners, merged positions, island labels) or in order of first
occurrence (:func:`first_occurrence`: quantized and decoded vertices, and
the islands of :func:`uv_islands`).

:func:`on_threads` is the package's one thread runner, with the calling
thread as one of its threads: the CLI runs a lone process's files on it,
and ``metrics`` its sample rows, query runs and missing tree builds.
"""

from __future__ import annotations

import itertools
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
_TO_SPACES = str.maketrans("f/", "  ")
# separators of a corner -> (numbers per corner, has a uv index); "//" is
# a//c when every corner has "//", else a/b/c
_CORNER_FORMS = {"": (1, False), "/": (2, True), "//": (3, True)}


def _all_skipped(text: str) -> bool:
    """True if the per-line loop skips every line of ``text``."""
    for line in text.split("\n"):
        tag = line.split(None, 1)[:1]
        if tag and tag[0] in _TAGS:
            return False
    return True


def _floats(runs: list[str], width: int) -> np.ndarray | None:
    """The numbers of the records in ``runs`` as an ``(n, width)`` float64
    array, or None unless every line is its tag and ``width`` numbers that
    ``float`` parses."""
    text = "\n".join(runs)
    tokens, n = text.split(), text.count("\n") + 1 if runs else 0
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
    corners, all in the first corner's form.

    Corners may be parted by any whitespace the per-line loop splits on,
    trailing whitespace included: when the lines are not ``f`` and single
    spaced corners, they are checked again with their whitespace runs made
    single spaces, as the loop's ``str.split`` reads them.
    """
    text = "\n".join(runs)
    parsed = _face_records(text)
    if parsed is None:
        parsed = _face_records("\n".join(" ".join(line.split()) for line in text.split("\n")))
    return parsed


def _face_records(text: str) -> tuple[np.ndarray, np.ndarray, bool] | None:
    """:func:`_corners` of ``f`` lines with single spaces.

    Without its digits, each line must be ``"f" + (" " + separators) *
    degree``, degree 3 or 4, with the first corner's separators, so every
    corner is digits between them; each line's degree is read from its
    length.  Then one ``np.fromstring`` reads every number, with ``f`` and
    ``/`` as spaces.
    """
    skeleton = text.translate(_NO_DIGITS)
    separators = skeleton[2 : skeleton.find(" ", 2)]
    if separators not in _CORNER_FORMS:
        return None
    forms = {"f" + (" " + separators) * degree: degree for degree in (3, 4)}
    n = skeleton.count("\n") + 1
    for form, degree in forms.items():
        if skeleton == "\n".join(itertools.repeat(form, n)):  # one degree: no split
            degrees = np.full(n, degree)
            break
    else:
        skeletons = skeleton.split("\n")
        if not forms.keys() >= set(skeletons):
            return None
        degrees = (np.fromiter(map(len, skeletons), dtype=np.int64, count=n) - 1) // (len(separators) + 1)
    n_corners = int(degrees.sum())
    width, has_uv = (2, False) if separators == "//" and text.count("//") == n_corners else _CORNER_FORMS[separators]
    values = np.fromstring(text.translate(_TO_SPACES), dtype=np.int64, sep=" ")
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
    ``a/b``, ``a//c`` or ``a/b/c``).  An ``f`` line's corners may be parted
    by runs of any whitespace ``str.split`` splits on, and be followed by
    more; :func:`_corners` checks its lines by their skeleton, the text
    without digits.  Every other line must be one the per-line loop skips.
    Any other file gives None; this never raises.
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


def _lines(n: int, *columns) -> bytes:
    """The text of ``n`` lines, each the ASCII bytes of ``columns`` side by side.

    A column is one ``bytes`` constant for every line, or an array with one
    row of ``uint8`` bytes per line (trailing axes are flattened).  NUL
    bytes are dropped, so a row's text ends where its padding starts.
    """
    rows = np.concatenate(
        [
            np.broadcast_to(np.frombuffer(c, np.uint8), (n, len(c))) if isinstance(c, bytes) else c.reshape(n, -1)
            for c in columns
        ],
        axis=1,
    )
    return rows.tobytes().translate(None, b"\0")


def _text_table(texts: list[str]) -> np.ndarray:
    """ASCII ``texts`` as the rows of a ``uint8`` matrix, NUL-padded to the longest."""
    return np.array(texts, dtype=np.bytes_).view(np.uint8).reshape(len(texts), -1)


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``(n, k, w)`` bytes of ``' %.9g'`` for each float of an ``(n, k)`` array.

    Each distinct bit pattern is formatted once, so -0.0 and 0.0 (and NaN
    payloads) stay apart, as formatting each value would keep them.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits.ravel(), return_inverse=True)
    table = _text_table(list(map(" %.9g".__mod__, distinct.view(np.float64).tolist())))
    return np.take(table, inverse.reshape(bits.shape), axis=0)


def _index_table(count: int, separator: str) -> np.ndarray:
    """Bytes of ``separator`` and the 1-based OBJ index, one row per 0-based
    index plus one: row ``i + 1`` spells index ``i``, and row 0 is empty, so
    a -1 pad looked up at ``pad + 1`` writes nothing.

    The digit of place ``10**p`` cycles through 0-9, each repeated ``10**p``
    times, and is a leading zero (NUL) in the first ``10**p`` rows.
    """
    width = len(str(count))
    table = np.zeros((count + 1, 1 + width), dtype=np.uint8)
    table[1:, 0] = ord(separator)
    for place in range(width):
        step = 10**place
        cycle = np.repeat(np.arange(ord("0"), ord("9") + 1, dtype=np.uint8), step)
        table[step:, width - place] = np.tile(cycle, -(-(count + 1) // len(cycle)))[step : count + 1]
    return table


def _check_corners(indices: np.ndarray, count: int, name: str) -> None:
    """Raise ``ValueError`` unless ``indices`` is an ``(F, 3)`` or ``(F, 4)``
    integer array with every entry in ``[0, count)``, but for -1 pads in the
    last of 4 columns."""
    if indices.ndim != 2 or indices.shape[1] not in (3, 4):
        raise ValueError(f"{name} must have 3 or 4 columns, got shape {indices.shape}")
    if not np.issubdtype(indices.dtype, np.integer):
        raise ValueError(f"{name} must be an integer array, got dtype {indices.dtype}")
    low = np.zeros(indices.shape[1], dtype=np.int64)
    low[3:] = -1
    bad = (indices < low) | (indices >= count)
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        raise ValueError(
            f"{name} row {row} is {indices[row].tolist()}: each index must be in [0, {count}),"
            " and a -1 pad may stand only in the last of 4 columns"
        )


def _check_labels(labels, nfaces: int, mismatch: str) -> None:
    """Raise ``ValueError`` unless ``labels`` is a 1-D integer array of
    ``nfaces`` island labels; a wrong length raises ``mismatch``, formatted
    with the label and face counts."""
    if not isinstance(labels, np.ndarray) or labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("partition labels must be a 1-D integer array")
    if len(labels) != nfaces:
        raise ValueError(mismatch.format(len(labels), nfaces))


def check_mesh(mesh: Mesh, labels: np.ndarray | None = None) -> None:
    """Raise ``ValueError`` unless ``mesh`` holds the arrays :class:`Mesh`
    describes, so :func:`load_obj` would read it back as given.

    ``positions`` is ``(V, 3)`` and finite; ``faces`` is an integer ``(F,
    3)`` or ``(F, 4)`` array of indices in ``[0, V)`` but for the -1 pad;
    ``uv_coords`` is None or ``(T, 2)``; ``face_uvs`` is None, or with
    ``uv_coords`` an integer array of indices in ``[0, T)`` with the shape
    and the pads of ``faces``.  ``labels``, when given, are an island
    partition's: a 1-D integer array of one label per face.
    """
    if labels is not None:
        _check_labels(labels, len(mesh.faces), "partition does not match face count")
    if mesh.positions.ndim != 2 or mesh.positions.shape[1] != 3:
        raise ValueError(f"positions must be (V, 3), got shape {mesh.positions.shape}")
    if not np.isfinite(mesh.positions).all():
        raise ValueError("non-finite vertex coordinate")
    _check_corners(mesh.faces, len(mesh.positions), "faces")
    if mesh.face_uvs is not None and mesh.uv_coords is None:
        raise ValueError("face_uvs without uv_coords")
    if mesh.uv_coords is not None and (mesh.uv_coords.ndim != 2 or mesh.uv_coords.shape[1] != 2):
        raise ValueError(f"uv_coords must be (T, 2), got shape {mesh.uv_coords.shape}")
    if mesh.face_uvs is not None:
        _check_corners(mesh.face_uvs, len(mesh.uv_coords), "face_uvs")
        if not np.array_equal(mesh.face_uvs < 0, mesh.faces < 0):
            raise ValueError("face_uvs must have the shape and the pads of faces")


def write_obj(mesh: Mesh, path, partition: IslandPartition | None = None) -> None:
    """Write a Mesh as OBJ text (9 significant digits, LF line endings).

    With a partition, faces are emitted grouped by ascending island id under
    ``g island_<id>`` records (stable within each island).  Pads are
    skipped, so a padded row is written as a triangle.

    Each record block (``v``, ``vt``, ``f``) is built as one ``uint8``
    matrix of ASCII with a row per line, NUL where a line is shorter than
    its row, and written as its non-NUL bytes.  Each distinct float (by its
    bits) is formatted once with ``'%.9g'`` (CPython's formatter, as
    ``format(x, '.9g')``) and placed by index; a decode has at most 512
    values per axis.  Face indices are looked up in one decimal table per
    index space, and each ``g`` line is formatted once per island.

    ``uv_coords`` without ``face_uvs``, as :func:`load_obj` returns an OBJ
    whose faces name no uvs, writes its ``vt`` records and plain corners.

    Raises ``ValueError``, before the file is opened, on a mesh with no
    positions or faces, or one that fails :func:`check_mesh` with the
    partition's labels.
    """
    if not len(mesh.positions) or not len(mesh.faces):
        raise ValueError("empty mesh")
    check_mesh(mesh, None if partition is None else partition.island_of_face)
    has_uvs = mesh.face_uvs is not None

    blocks = [_lines(len(mesh.positions), b"v", _float_cells(mesh.positions), b"\n")]
    faces, face_uvs = mesh.faces, mesh.face_uvs
    groups = np.empty((len(faces), 0), dtype=np.uint8)
    if partition is not None:
        order, labels = stable_order(partition.island_of_face)
        faces, face_uvs = faces[order], face_uvs[order] if has_uvs else None
        starts = np.flatnonzero(np.concatenate([[True], labels[1:] != labels[:-1]]))
        titles = _text_table([f"g island_{label}\n" for label in labels[starts].tolist()])
        groups = np.zeros((len(faces), titles.shape[1]), dtype=np.uint8)
        groups[starts] = titles  # NUL on every row that does not open an island
    corners = np.take(_index_table(len(mesh.positions), " "), faces + 1, axis=0)
    if mesh.uv_coords is not None and len(mesh.uv_coords):
        blocks.append(_lines(len(mesh.uv_coords), b"vt", _float_cells(mesh.uv_coords), b"\n"))
    if has_uvs:
        slashes = np.take(_index_table(len(mesh.uv_coords), "/"), face_uvs + 1, axis=0)
        corners = np.concatenate([corners, slashes], axis=2)
    blocks.append(_lines(len(faces), groups, b"f", corners, b"\n"))

    with open(path, "wb") as fh:
        fh.writelines(blocks)


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


def first_occurrence(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, first)`` of a 1-D int64 array: ``ids`` numbers equal keys
    alike, densely from 0 in order of first occurrence, and id ``j`` first
    occurs at ``first[j]``, so ``first`` ascends."""
    order, ordered = stable_order(keys)
    heads = np.ones(len(keys), dtype=bool)
    heads[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(heads)
    first = order[starts]  # a stable order puts each key's first index at the head of its run
    is_first = np.zeros(len(keys), dtype=bool)
    is_first[first] = True
    number = np.cumsum(is_first) - 1  # numbers the first indices in input order
    ids = np.empty_like(order)
    ids[order] = np.repeat(number[first], np.diff(starts, append=len(keys)))
    return ids, np.flatnonzero(is_first)


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


def rank_rows(rows: np.ndarray) -> np.ndarray:
    """Each row's rank among the distinct rows of a 2-D integer array:
    exactly ``np.unique(rows, axis=0, return_inverse=True)[1]``, as int64,
    ranked through :func:`sort_rows`."""
    order, heads = sort_rows(rows)
    ranks = np.empty(len(rows), dtype=np.int64)
    ranks[order] = np.cumsum(heads) - 1
    return ranks


def on_threads(fn, n: int, threads: int) -> None:
    """Call ``fn(i)`` once for each ``i < n`` on ``min(threads, n)`` threads,
    the calling thread among them: each takes the next index from one shared
    counter.  Below two threads no pool starts, and ``concurrent.futures``
    is imported only when one does; an item's error is re-raised once every
    thread has returned."""
    taken = itertools.count()  # one next() is one atomic step under the GIL

    def take():
        while (i := next(taken)) < n:
            fn(i)

    helpers = min(threads, n) - 1
    if helpers < 1:
        take()
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(helpers) as pool:
        others = [pool.submit(take) for _ in range(helpers)]
        take()
    for other in others:
        other.result()  # re-raises a helper's error


def _check_tau(tau: float) -> None:
    """``ValueError`` unless the F-score threshold ``tau`` is positive; here,
    not in ``metrics``, so the CLI checks ``--tau`` without loading SciPy."""
    if not tau > 0.0:  # also rejects NaN
        raise ValueError("tau must be positive")


def _edge_keys(faces: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Packed undirected keys of the face edges that exist, in edge order,
    and their indices into the flattened edge list (None when every edge
    exists).

    ``faces`` is an ``(F, d)`` array of node ids in ``[0, n)``, with the -1
    pad of :class:`Mesh`.  Edge ``k`` of face ``f`` joins corners ``k`` and
    ``k + 1`` (mod the face's degree) and is entry ``f * d + k`` of the
    flattened edge list; a padded row has its three triangle edges, and its
    pad starts none.  An edge's key is ``min * n + max`` of its two nodes,
    so both directions of an edge share one key.
    """
    b = np.roll(faces, -1, axis=1)
    edges = None
    if (faces < 0).any():
        # a padded row's third edge closes on its first corner
        b = np.where(b < 0, faces[:, :1], b)
        edges = np.flatnonzero(faces >= 0)
    keys = (np.minimum(faces, b) * n + np.maximum(faces, b)).reshape(-1)
    return (keys, None) if edges is None else (keys[edges], edges)


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
    their lowest face.  A mesh without uv indices is one island (none
    without faces).  A mesh that fails :func:`check_mesh` raises
    ``ValueError``.
    """
    check_mesh(mesh)
    faces, fuvs = mesh.faces, mesh.face_uvs
    nfaces = len(faces)
    if fuvs is None or not nfaces:
        return IslandPartition(island_of_face=np.zeros(nfaces, dtype=np.int64), island_count=min(nfaces, 1))

    # one node per distinct (vertex, uv) corner; pads stay -1
    nodes = rank_rows(np.stack([faces.reshape(-1), fuvs.reshape(-1)], axis=1))
    nodes = np.where(faces < 0, -1, nodes.reshape(faces.shape))
    keys, edges = _edge_keys(nodes, int(nodes.max()) + 1)
    order, keys = stable_order(keys)
    face = (order if edges is None else edges[order]) // faces.shape[1]

    # faces of neighbouring equal keys share that (vertex, uv) edge
    same = np.flatnonzero(keys[1:] == keys[:-1])
    roots = _component_roots(nfaces, face[same], face[same + 1])
    labels, first = first_occurrence(roots)
    return IslandPartition(island_of_face=labels, island_count=len(first))


def _merged_faces(mesh: Mesh) -> tuple[np.ndarray, int]:
    """Faces remapped through exact duplicate-position merging (pads kept),
    and the merged vertex count.

    Positions merge iff their bytes are equal; ``+ 0.0`` first turns -0.0
    into 0.0, so the two merge, as equal floats do.  Each column of the
    positions' bits is ranked by ``np.unique`` (negative bits do not pack),
    and :func:`rank_rows` ranks the rows of those narrow ranks.  The mesh
    must have passed :func:`check_mesh`.
    """
    bits = (np.asarray(mesh.positions, dtype=np.float64) + 0.0).view(np.int64)
    ranks = np.stack([np.unique(column, return_inverse=True)[1] for column in bits.T], axis=1)
    merged = np.append(rank_rows(ranks), -1)  # a -1 pad reads the appended -1
    return merged[mesh.faces], int(merged.max()) + 1


def _edge_manifold(faces: np.ndarray, n: int) -> bool:
    """True iff no edge key of ``faces`` occurs more than twice.

    Edges whose two ends are one vertex are skipped.
    """
    if not faces.size:
        return True
    keys = np.sort(_edge_keys(faces, n)[0])
    keys = keys[keys // n != keys % n]
    return not (keys[2:] == keys[:-2]).any()


def is_edge_manifold(mesh: Mesh) -> bool:
    """True iff every edge bounds at most two faces after duplicate merge.
    A mesh that fails :func:`check_mesh` raises ``ValueError``."""
    check_mesh(mesh)
    return _edge_manifold(*_merged_faces(mesh))


@dataclass
class FilterResult:
    accepted: bool
    reason: str | None = None


def corpus_filter(mesh: Mesh, partition: IslandPartition | None = None) -> FilterResult:
    """Apply the training-corpus admission rules.

    Checks, in order: edge-manifoldness after exact duplicate-vertex merge,
    face count in [500, 16000], merged vertex/face ratio <= 1.0, and island
    count, the distinct labels of a supplied partition, in [10, 300].
    Rejection names the first failing rule; it is a value, not an error.
    A mesh and partition labels that fail :func:`check_mesh` raise
    ``ValueError`` before any rule is applied.
    """
    check_mesh(mesh, None if partition is None else partition.island_of_face)
    merged, vertex_count = _merged_faces(mesh)
    if not _edge_manifold(merged, vertex_count):
        return FilterResult(False, "manifold")

    nfaces = len(mesh.faces)
    if not FACE_COUNT_RANGE[0] <= nfaces <= FACE_COUNT_RANGE[1]:
        return FilterResult(False, "face_count")

    if nfaces == 0 or vertex_count / nfaces > MAX_VERTEX_FACE_RATIO:
        return FilterResult(False, "vertex_face_ratio")

    if partition is not None:
        islands = len(np.unique(partition.island_of_face))
        if not ISLAND_COUNT_RANGE[0] <= islands <= ISLAND_COUNT_RANGE[1]:
            return FilterResult(False, "island_count")

    return FilterResult(True)
