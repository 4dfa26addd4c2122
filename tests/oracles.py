"""Reference implementations the array code in ``striptok`` is checked against.

These are the original per-face Python versions of
``verify.compare_quantized``, ``quantize.quantize_mesh``,
``mesh_io.uv_islands``, ``mesh_io.is_edge_manifold`` and
``strips.extract_strips`` (with ``vertex_ranks`` and ``seed_order``), kept
unchanged apart from their imports.  The package's NumPy versions must
return the same results; ``tests/test_verify.py``, ``tests/test_quantize.py``
and ``tests/test_topology.py`` assert that.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque

from striptok.mesh_io import IslandPartition, Mesh
from striptok.quantize import GridCoord, QuantizedMesh, Transform, normalize, to_grid
from striptok.strips import Strip, StripSet, key_order


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
        normalized = Mesh([transform.to_normalized(p) for p in mesh.positions], mesh.faces)

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
