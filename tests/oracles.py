"""Reference implementations the array code in ``striptok`` is checked against.

These are the original per-face Python versions of
``verify.compare_quantized``, ``quantize.quantize_mesh``,
``mesh_io.uv_islands``, ``mesh_io.is_edge_manifold`` and
``strips.extract_strips`` (with ``vertex_ranks`` and ``seed_order``), and the
per-token and per-vertex codec path: ``quantize.encode_hier``,
``quantize.decode_hier``, ``decode.parse_tokens``, ``decode._decode_impl``
and ``mesh_io.write_obj``, kept unchanged apart from their imports.  The
per-point helpers they are built on (``normalize``, ``to_grid``,
``dequantize``, ``key_order``, ``strip_faces``, and the two float maps that
were ``Transform`` methods) live here too: nothing in ``striptok`` calls
them.  The package's NumPy versions must return the same results;
``tests/test_verify.py``, ``tests/test_quantize.py``,
``tests/test_topology.py`` and ``tests/test_decode_oracle.py`` assert that.
The oracle ``parse_tokens`` fills ``VertexStream.events`` with a list of
tuples, which the oracle ``_decode_impl`` reads.

The oracles work on :class:`Mesh`, :class:`QuantizedMesh` and
:class:`IslandPartition` in list form: positions, keys and faces as lists of
tuples, labels as a list.  :func:`as_lists` turns the package's arrays into
that form, and :func:`as_arrays` builds the arrays from it; tests build
meshes in list form and pass them through :func:`as_arrays`.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import replace

import numpy as np

from striptok.decode import EV_ISLAND, EV_STRIP, EV_VERTEX, DecodeReport, VertexStream
from striptok.mesh_io import IslandPartition, Mesh
from striptok.quantize import EPS, GRID, QuantizedMesh, Transform
from striptok.strips import _AXIS, Strip, StripSet
from striptok.tokens import C1_T_BASE, C2_BASE, C3_BASE, TokenSequence, VOCAB_SIZE

GridCoord = tuple[int, int, int]
HierCode = tuple[int, int, int]


# --- list form of a Mesh, a QuantizedMesh and an IslandPartition


def row_tuples(rows: np.ndarray) -> list[tuple]:
    """The rows of a 2-D array as tuples of Python scalars; a 4-column face
    row padded with -1 (a triangle among quads) becomes a 3-tuple."""
    out = list(zip(*rows.T.tolist()))
    if rows.shape[1] == 4:
        for i in (rows[:, 3] < 0).nonzero()[0].tolist():
            out[i] = out[i][:3]
    return out


def face_array(faces) -> np.ndarray:
    """Faces as an ``(F, d)`` int64 array: of mixed degree, padded to four
    columns with -1; no faces give ``(0, 3)``."""
    if isinstance(faces, np.ndarray):
        return faces.astype(np.int64)
    width = max(map(len, faces), default=3)
    rows = [tuple(f) + (-1,) * (width - len(f)) for f in faces]
    return np.array(rows, dtype=np.int64).reshape(-1, width)


def _points(rows, width: int) -> np.ndarray:
    return np.array(rows, dtype=np.float64).reshape(-1, width)


def _labels(labels) -> np.ndarray:
    return np.array(labels, dtype=np.int64).reshape(-1)


def _maybe(fn, value, *args):
    return None if value is None else fn(value, *args)


def as_lists(x):
    """A :class:`Mesh`, :class:`QuantizedMesh` or :class:`IslandPartition` in
    the oracles' list form; a -1-padded triangle row becomes a 3-tuple."""
    if isinstance(x, IslandPartition):
        return replace(x, island_of_face=x.island_of_face.tolist())
    if isinstance(x, Mesh):
        return replace(
            x,
            positions=row_tuples(x.positions),
            faces=row_tuples(x.faces),
            uv_coords=_maybe(row_tuples, x.uv_coords),
            face_uvs=_maybe(row_tuples, x.face_uvs),
        )
    labels = _maybe(np.ndarray.tolist, x.island_of_face)
    return replace(x, vertex_keys=row_tuples(x.vertex_keys), faces=row_tuples(x.faces), island_of_face=labels)


def as_arrays(x):
    """A :class:`Mesh`, :class:`QuantizedMesh` or :class:`IslandPartition`,
    in list form, as the package's arrays (faces as :func:`face_array`)."""
    if isinstance(x, IslandPartition):
        return replace(x, island_of_face=_labels(x.island_of_face))
    if isinstance(x, Mesh):
        return replace(
            x,
            positions=_points(x.positions, 3),
            faces=face_array(x.faces),
            uv_coords=_maybe(_points, x.uv_coords, 2),
            face_uvs=_maybe(face_array, x.face_uvs),
        )
    return replace(
        x,
        vertex_keys=np.array(x.vertex_keys, dtype=np.int64).reshape(-1, 3),
        faces=face_array(x.faces),
        island_of_face=_maybe(_labels, x.island_of_face),
    )


def mesh_signature(mesh: Mesh):
    """Dtype, shape and bytes of each array of ``mesh`` (None stays None):
    equal exactly when the meshes are."""
    fields = (mesh.positions, mesh.faces, mesh.uv_coords, mesh.face_uvs)
    return tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in fields)


# --- per-point helpers: quantize.normalize, to_grid, dequantize and
# strips.key_order, strip_faces, and the former Transform methods


def to_model(t: Transform, p):
    return (
        p[0] * t.scale + t.center[0],
        p[1] * t.scale + t.center[1],
        p[2] * t.scale + t.center[2],
    )


def to_normalized(t: Transform, p):
    return (
        (p[0] - t.center[0]) / t.scale,
        (p[1] - t.center[1]) / t.scale,
        (p[2] - t.center[2]) / t.scale,
    )


def normalize(mesh: Mesh) -> tuple[Mesh, Transform]:
    """Uniformly scale/translate the mesh so positions lie in [0,1]^3.

    The bounding-box minimum corner maps to the origin and the largest axis
    extent maps to unit length; aspect ratio is preserved.
    """
    if not mesh.positions:
        raise ValueError("empty mesh")
    xs = [p[0] for p in mesh.positions]
    ys = [p[1] for p in mesh.positions]
    zs = [p[2] for p in mesh.positions]
    lo = (min(xs), min(ys), min(zs))
    extent = max(max(xs) - lo[0], max(ys) - lo[1], max(zs) - lo[2])
    if extent <= 0.0:
        raise ValueError("degenerate extent: all points identical")
    t = Transform(lo, extent)
    positions = [to_normalized(t, p) for p in mesh.positions]
    out = Mesh(
        positions=positions,
        faces=list(mesh.faces),
        uv_coords=mesh.uv_coords,
        face_uvs=mesh.face_uvs,
    )
    return out, t


def to_grid(p) -> GridCoord:
    """Snap a normalized point to its grid cell; exact 1.0 clamps to cell 511."""
    out = []
    for c in p:
        if c < -EPS or c > 1.0 + EPS:
            raise ValueError(f"normalized coordinate out of range: {c!r}")
        g = int(c * GRID)
        if g < 0:
            g = 0
        elif g > GRID - 1:
            g = GRID - 1
        out.append(g)
    return (out[0], out[1], out[2])


def dequantize(g: GridCoord, t: Transform):
    """Map a grid cell back to model space at the cell center."""
    return to_model(t, ((g[0] + 0.5) / GRID, (g[1] + 0.5) / GRID, (g[2] + 0.5) / GRID))


def key_order(coord: GridCoord, up_axis: str = "y"):
    """Sort key for grid coordinates: vertical axis first, then the other two."""
    u = _AXIS[up_axis]
    return (coord[u], coord[(u + 1) % 3], coord[(u + 2) % 3])


def strip_faces(s: Strip) -> list[tuple[int, ...]]:
    """Faces implied by a strip's key run.

    Stride 1 emits one triangle per step with every second one flipped to
    keep a consistent orientation.  Stride 2 emits one quad per appended
    pair, (v[2i], v[2i+1], v[2i+3], v[2i+2]), and decodes a trailing
    unpaired vertex as a triangle.
    """
    k = s.keys
    m = len(k)
    faces: list[tuple[int, ...]] = []
    if m < 3:
        return faces
    if s.stride == 1:
        for i in range(m - 2):
            if i % 2 == 0:
                faces.append((k[i], k[i + 1], k[i + 2]))
            else:
                faces.append((k[i], k[i + 2], k[i + 1]))
    else:
        j = 0
        while j + 3 < m:
            faces.append((k[j], k[j + 1], k[j + 3], k[j + 2]))
            j += 2
        if m % 2 == 1:
            faces.append((k[m - 3], k[m - 2], k[m - 1]))
    return faces


# --- verify.compare_quantized -------------------------------------------


def _face_coord_sets(q: QuantizedMesh):
    return [frozenset(q.vertex_keys[v] for v in face) for face in q.faces]


def _face_coord_tuples(q: QuantizedMesh):
    return [tuple(q.vertex_keys[v] for v in face) for face in q.faces]


def _is_rotation(a: tuple, b: tuple) -> bool:
    if len(a) != len(b):
        return False
    n = len(a)
    return any(a == tuple(b[(k + i) % n] for i in range(n)) for k in range(n))


def _grouping(face_sets, labels):
    groups = defaultdict(set)
    for fs, l in zip(face_sets, labels):
        groups[l].add(fs)
    return {frozenset(g) for g in groups.values()}


def _island_key_sets(q: QuantizedMesh):
    labels = q.island_of_face if q.island_of_face is not None else [0] * len(q.faces)
    used = defaultdict(set)
    for face, l in zip(q.faces, labels):
        for v in face:
            used[l].add(q.vertex_keys[v])
    return used, labels


def compare_quantized(source: QuantizedMesh, decoded: QuantizedMesh) -> tuple[bool, str]:
    """Check face multiset, winding, island partition, and per-island key sets.

    Returns (ok, detail); detail names the first divergence.
    """
    src_sets = _face_coord_sets(source)
    dec_sets = _face_coord_sets(decoded)
    if Counter(src_sets) != Counter(dec_sets):
        missing = set(src_sets) - set(dec_sets)
        extra = set(dec_sets) - set(src_sets)
        return False, (
            f"face multiset mismatch: {len(missing)} missing, {len(extra)} extra "
            f"({len(src_sets)} vs {len(dec_sets)} faces)"
        )

    by_set = dict(zip(src_sets, _face_coord_tuples(source)))
    for fs, ft in zip(dec_sets, _face_coord_tuples(decoded)):
        if not _is_rotation(ft, by_set[fs]):
            return False, f"winding mismatch on face {sorted(fs)}"

    src_used, src_labels = _island_key_sets(source)
    dec_used, dec_labels = _island_key_sets(decoded)
    if _grouping(src_sets, src_labels) != _grouping(dec_sets, dec_labels):
        return False, "island partition mismatch"
    if Counter(map(frozenset, src_used.values())) != Counter(map(frozenset, dec_used.values())):
        return False, "per-island vertex key sets mismatch"

    return True, ""


# --- quantize.quantize_mesh ----------------------------------------------


def quantize_mesh(
    mesh: Mesh,
    partition: IslandPartition | None = None,
    transform: Transform | None = None,
) -> QuantizedMesh:
    """Normalize, snap to the grid, and deduplicate vertices and faces.

    Faces that collapse below their degree on the grid are dropped, as are
    duplicate faces (same unordered key set, first occurrence kept).  Island
    labels are carried over; islands emptied by dropping are re-densified.

    Passing ``transform`` skips the bounding-box fit and normalizes through
    the given transform instead, which makes re-quantizing a dequantized
    mesh reproduce its keys exactly.
    """
    if not mesh.faces:
        raise ValueError("empty mesh")
    if partition is not None and len(partition.island_of_face) != len(mesh.faces):
        raise ValueError("partition does not match face count")
    if transform is None:
        normalized, transform = normalize(mesh)
    else:
        normalized = Mesh([to_normalized(transform, p) for p in mesh.positions], mesh.faces)

    grid_of_vertex = [to_grid(p) for p in normalized.positions]

    key_index: dict[GridCoord, int] = {}
    vertex_keys: list[GridCoord] = []
    faces: list[tuple[int, ...]] = []
    labels: list[int] = []
    seen_face_sets: set[frozenset[int]] = set()
    dropped_degenerate = 0
    dropped_duplicate = 0

    for fi, face in enumerate(mesh.faces):
        coords = [grid_of_vertex[v] for v in face]
        if len(set(coords)) < len(face):
            dropped_degenerate += 1
            continue
        idxs = []
        for c in coords:
            j = key_index.get(c)
            if j is None:
                j = len(vertex_keys)
                key_index[c] = j
                vertex_keys.append(c)
            idxs.append(j)
        fset = frozenset(idxs)
        if fset in seen_face_sets:
            dropped_duplicate += 1
            continue
        seen_face_sets.add(fset)
        faces.append(tuple(idxs))
        if partition is not None:
            labels.append(partition.island_of_face[fi])

    if not faces:
        raise ValueError("all faces degenerate after quantization")

    # Keys referencing only dropped faces never get created above, so the key
    # table already holds exactly the referenced keys.
    island_of_face: list[int] | None = None
    if partition is not None:
        remap = {old: new for new, old in enumerate(sorted(set(labels)))}
        island_of_face = [remap[l] for l in labels]

    return QuantizedMesh(
        vertex_keys=vertex_keys,
        faces=faces,
        island_of_face=island_of_face,
        transform=transform,
        dropped_degenerate=dropped_degenerate,
        dropped_duplicate=dropped_duplicate,
    )


# --- mesh_io.uv_islands, mesh_io.is_edge_manifold ------------------------


def _uv_edge_map(mesh: Mesh):
    """Map each (vertex, uv) endpoint pair of a face edge to the faces using it."""
    edges: dict[tuple, list[int]] = defaultdict(list)
    for fi, (face, fuv) in enumerate(zip(mesh.faces, mesh.face_uvs)):
        n = len(face)
        for k in range(n):
            a = (face[k], fuv[k])
            b = (face[(k + 1) % n], fuv[(k + 1) % n])
            key = (a, b) if a <= b else (b, a)
            edges[key].append(fi)
    return edges


def uv_islands(mesh: Mesh) -> IslandPartition:
    """Partition faces into UV islands.

    Two faces are joined iff they share a 3D edge and reference identical uv
    indices at both endpoints of that edge; islands are the connected
    components of that relation.
    """
    if mesh.face_uvs is None:
        raise ValueError("mesh has no uv indices; use single_island instead")

    adjacency: dict[int, list[int]] = defaultdict(list)
    for users in _uv_edge_map(mesh).values():
        if len(users) > 1:
            for i in users:
                for j in users:
                    if i != j:
                        adjacency[i].append(j)

    nfaces = len(mesh.faces)
    labels = [-1] * nfaces
    count = 0
    for start in range(nfaces):
        if labels[start] != -1:
            continue
        queue = deque([start])
        labels[start] = count
        while queue:
            f = queue.popleft()
            for g in adjacency[f]:
                if labels[g] == -1:
                    labels[g] = count
                    queue.append(g)
        count += 1
    return IslandPartition(island_of_face=labels, island_count=count)


def _merged_faces(mesh: Mesh):
    """Faces remapped through exact duplicate-position merging."""
    index_of: dict[tuple[float, float, float], int] = {}
    remap = []
    for p in mesh.positions:
        j = index_of.get(p)
        if j is None:
            j = len(index_of)
            index_of[p] = j
        remap.append(j)
    merged = [tuple(remap[v] for v in face) for face in mesh.faces]
    return merged, len(index_of)


def is_edge_manifold(mesh: Mesh) -> bool:
    """True iff every edge bounds at most two faces after duplicate merge."""
    merged, _ = _merged_faces(mesh)
    edge_faces: dict[tuple[int, int], int] = defaultdict(int)
    for face in merged:
        n = len(face)
        for k in range(n):
            a, b = face[k], face[(k + 1) % n]
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            edge_faces[key] += 1
            if edge_faces[key] > 2:
                return False
    return True


# --- strips.extract_strips ----------------------------------------------


def vertex_ranks(q: QuantizedMesh, up_axis: str = "y") -> list[int]:
    """Rank of each vertex key under :func:`key_order` (0 = lowest)."""
    order = sorted(range(len(q.vertex_keys)), key=lambda i: key_order(q.vertex_keys[i], up_axis))
    ranks = [0] * len(q.vertex_keys)
    for r, i in enumerate(order):
        ranks[i] = r
    return ranks


def _face_sort_keys(q: QuantizedMesh, ranks: list[int]):
    return [tuple(sorted(ranks[v] for v in face)) for face in q.faces]


def seed_order(q: QuantizedMesh, island: int | None = None, up_axis: str = "y") -> list[int]:
    """Face indices ordered by their sorted vertex-rank tuples (lowest first)."""
    ranks = vertex_ranks(q, up_axis)
    fkeys = _face_sort_keys(q, ranks)
    if island is None:
        ids = range(len(q.faces))
    else:
        if q.island_of_face is None:
            if island != 0:
                raise ValueError(f"island {island} does not exist")
            ids = range(len(q.faces))
        else:
            ids = [i for i, l in enumerate(q.island_of_face) if l == island]
            if not ids:
                raise ValueError(f"island {island} does not exist")
    return sorted(ids, key=lambda i: fkeys[i])


def _rotate_min_first(face: tuple[int, ...], ranks: list[int]) -> list[int]:
    k = min(range(len(face)), key=lambda i: ranks[face[i]])
    return [face[(k + i) % len(face)] for i in range(len(face))]


def _edge_key(a: int, b: int):
    return (a, b) if a < b else (b, a)


def _build_edge_map(q: QuantizedMesh):
    e2f: dict[tuple[int, int], list[int]] = defaultdict(list)
    for fi, face in enumerate(q.faces):
        n = len(face)
        for k in range(n):
            e2f[_edge_key(face[k], face[(k + 1) % n])].append(fi)
    return e2f


def _quad_new_pair(face: tuple[int, ...], e0: int, e1: int) -> tuple[int, int]:
    """The quad's two non-frontier vertices, ordered (next to e0, next to e1)."""
    i = face.index(e0)
    if face[(i + 1) % 4] == e1:
        return face[(i - 1) % 4], face[(i + 2) % 4]
    return face[(i + 1) % 4], face[(i - 2) % 4]


def extract_strips(q: QuantizedMesh, stride: int, up_axis: str = "y") -> StripSet:
    """Decompose the mesh into ordered strips covering every face once.

    Islands are visited in ascending order of their lowest face; within an
    island the next seed is the lowest unvisited face.  A triangle seed is
    the face rotated so its lowest vertex comes first, which both keeps the
    initial frontier on the two highest keys and makes the decoded seed a
    rotation (never a reflection) of the stored face.  A quad seed is
    additionally swapped in its last two entries so that pair-wise decoding
    reassembles the stored cyclic order.  Growth crosses the frontier edge
    to the unvisited face there (ties on non-manifold edges go to the
    lowest face) and stops at boundaries and visited faces.
    """
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    degree = 3 if stride == 1 else 4
    for face in q.faces:
        if len(face) != degree:
            raise ValueError(
                f"stride {stride} requires degree-{degree} faces, found degree {len(face)}"
            )

    ranks = vertex_ranks(q, up_axis)
    fkeys = _face_sort_keys(q, ranks)
    e2f = _build_edge_map(q)
    labels = q.island_of_face if q.island_of_face is not None else [0] * len(q.faces)

    faces_of_island: dict[int, list[int]] = defaultdict(list)
    for fi, l in enumerate(labels):
        faces_of_island[l].append(fi)
    islands_in_order = sorted(faces_of_island, key=lambda l: min(fkeys[f] for f in faces_of_island[l]))

    visited = [False] * len(q.faces)
    strips: list[Strip] = []

    def next_face(e0: int, e1: int, island: int):
        best = None
        for fi in e2f.get(_edge_key(e0, e1), ()):
            if visited[fi] or labels[fi] != island:
                continue
            if best is None or fkeys[fi] < fkeys[best]:
                best = fi
        return best

    for island in islands_in_order:
        queue = sorted(faces_of_island[island], key=lambda f: fkeys[f])
        for seed in queue:
            if visited[seed]:
                continue
            keys = _rotate_min_first(q.faces[seed], ranks)
            if stride == 2:
                keys[-1], keys[-2] = keys[-2], keys[-1]
            visited[seed] = True
            while True:
                e0, e1 = keys[-2], keys[-1]
                fi = next_face(e0, e1, island)
                if fi is None:
                    break
                face = q.faces[fi]
                if stride == 1:
                    keys.append(next(v for v in face if v != e0 and v != e1))
                else:
                    keys.extend(_quad_new_pair(face, e0, e1))
                visited[fi] = True
            strips.append(Strip(keys=keys, island=island, stride=stride))

    return StripSet(
        strips=strips,
        vertex_keys=q.vertex_keys,
        islands_in_order=islands_in_order,
        stride=stride,
        transform=q.transform,
    )


# --- codec: quantize.encode_hier, quantize.decode_hier, decode.parse_tokens,
# decode._decode_impl


def encode_hier(g: GridCoord) -> HierCode:
    """Split a grid coordinate into the three-level code (c1, c2, c3)."""
    a1 = (g[0] >> 7, g[1] >> 7, g[2] >> 7)
    a2 = ((g[0] >> 4) & 7, (g[1] >> 4) & 7, (g[2] >> 4) & 7)
    a3 = (g[0] & 15, g[1] & 15, g[2] & 15)
    c1 = a1[0] * 16 + a1[1] * 4 + a1[2]
    c2 = a2[0] * 64 + a2[1] * 8 + a2[2]
    c3 = a3[0] * 256 + a3[1] * 16 + a3[2]
    return (c1, c2, c3)


def decode_hier(h: HierCode) -> GridCoord:
    """Exact inverse of :func:`encode_hier`."""
    c1, c2, c3 = h
    gx = (c1 // 16) * 128 + (c2 // 64) * 16 + c3 // 256
    gy = ((c1 // 4) % 4) * 128 + ((c2 // 8) % 8) * 16 + (c3 // 16) % 16
    gz = (c1 % 4) * 128 + (c2 % 8) * 16 + c3 % 16
    return (gx, gy, gz)


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


# --- mesh_io.write_obj ----------------------------------------------------


def write_obj(mesh: Mesh, path, partition: IslandPartition | None = None) -> None:
    """Write a Mesh as OBJ text (9 significant digits, LF line endings).

    With a partition, faces are emitted grouped by ascending island id under
    ``g island_<id>`` records (stable within each island).
    """
    if not mesh.positions or not mesh.faces:
        raise ValueError("empty mesh")
    if partition is not None and len(partition.island_of_face) != len(mesh.faces):
        raise ValueError("partition does not match face count")

    def fmt(x: float) -> str:
        return format(x, ".9g")

    lines = []
    for p in mesh.positions:
        lines.append(f"v {fmt(p[0])} {fmt(p[1])} {fmt(p[2])}")
    if mesh.uv_coords is not None and mesh.face_uvs is not None:
        for t in mesh.uv_coords:
            lines.append(f"vt {fmt(t[0])} {fmt(t[1])}")

        def face_line(fi):
            face = mesh.faces[fi]
            fuv = mesh.face_uvs[fi]
            return "f " + " ".join(f"{v + 1}/{t + 1}" for v, t in zip(face, fuv))

    else:

        def face_line(fi):
            return "f " + " ".join(str(v + 1) for v in mesh.faces[fi])

    if partition is None:
        for fi in range(len(mesh.faces)):
            lines.append(face_line(fi))
    else:
        by_island: dict[int, list[int]] = defaultdict(list)
        for fi, isl in enumerate(partition.island_of_face):
            by_island[isl].append(fi)
        for isl in sorted(by_island):
            lines.append(f"g island_{isl}")
            for fi in by_island[isl]:
                lines.append(face_line(fi))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
