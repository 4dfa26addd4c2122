"""Reference implementations the array code in ``striptok`` is checked against.

These are the original per-face Python versions of
``verify.compare_quantized`` and ``quantize.quantize_mesh``, kept unchanged
apart from their imports.  The package's NumPy versions must return the same
results; ``tests/test_oracles.py`` asserts that.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from striptok.mesh_io import IslandPartition, Mesh
from striptok.quantize import GridCoord, QuantizedMesh, Transform, normalize, to_grid


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
