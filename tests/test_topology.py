"""Array topology (``uv_islands``, ``is_edge_manifold``, ``extract_strips``,
vertex ranks, ``seed_order``) against the per-face references in ``oracles``."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from striptok import IDENTITY_TRANSFORM, Mesh, QuantizedMesh, extract_strips, quantize_mesh, seed_order, uv_islands
from striptok.mesh_io import is_edge_manifold, sorted_edge_keys
from striptok.strips import StripSet, _rank_array

import oracles
from oracles import as_arrays, as_lists, row_tuples
import synth
from strategies import random_grids, random_surfaces

AXES = ("x", "y", "z")


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared with the oracle's
        return type(exc)


def _island_ids(q: QuantizedMesh):
    return sorted(set(q.island_of_face)) if q.island_of_face is not None else [0]


def assert_strips_match(q: QuantizedMesh, stride: int):
    """Strips, island order, ranks and seed orders equal the oracle's on every up axis.

    ``q`` is in list form, as the oracles take it; the package gets its arrays.
    """
    arrays = as_arrays(q)
    assert as_lists(arrays) == q
    for axis in AXES:
        got = _outcome(extract_strips, arrays, stride, axis)
        if isinstance(got, StripSet):
            assert got.vertex_keys is arrays.vertex_keys
            got = replace(got, vertex_keys=row_tuples(got.vertex_keys))
        assert got == _outcome(oracles.extract_strips, q, stride, axis)
        assert _rank_array(arrays, axis).tolist() == oracles.vertex_ranks(q, axis)
        assert seed_order(arrays, None, axis) == oracles.seed_order(q, None, axis)
        for island in _island_ids(q) + [-1]:
            assert _outcome(seed_order, arrays, island, axis) == _outcome(oracles.seed_order, q, island, axis)


def assert_mesh_topology_matches(mesh: Mesh):
    """The package on ``mesh`` equals the per-face oracles on its list form."""
    lists = as_lists(mesh)
    assert is_edge_manifold(mesh) == oracles.is_edge_manifold(lists)
    if mesh.face_uvs is not None:
        got = uv_islands(mesh)
        assert got.island_of_face.dtype == np.int64 and got.island_of_face.shape == (len(mesh.faces),)
        assert as_lists(got) == oracles.uv_islands(lists)


@given(st.one_of(random_grids(), random_surfaces()))
@settings(max_examples=60, deadline=None)
def test_random_meshes_match_oracles(case):
    mesh, stride = case
    assert_mesh_topology_matches(mesh)
    partition = uv_islands(mesh) if mesh.face_uvs is not None else None
    assert_strips_match(as_lists(quantize_mesh(mesh, partition)), stride)


@st.composite
def hand_built(draw):
    """A ``QuantizedMesh`` of random faces over a few, possibly repeated, keys.

    Faces may repeat a key (degenerate), repeat an edge, and repeat key sets
    in the same or in different islands; island labels are sparse.
    """
    degree = draw(st.sampled_from([3, 4]))
    coord = st.integers(0, 3)
    keys = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=8))
    vertex = st.integers(0, len(keys) - 1)
    faces = draw(st.lists(st.tuples(*[vertex] * degree), max_size=14))
    labels = draw(
        st.one_of(st.none(), st.lists(st.sampled_from([0, 2, 5]), min_size=len(faces), max_size=len(faces)))
    )
    return QuantizedMesh(keys, faces, labels, IDENTITY_TRANSFORM), 1 if degree == 3 else 2


@given(hand_built())
@settings(max_examples=300, deadline=None)
def test_hand_built_meshes_match_oracles(case):
    # includes the oracle's own failures on degenerate faces (same exception type)
    assert_strips_match(*case)


def test_non_manifold_fan():
    fan = synth.non_manifold_fan()
    assert not is_edge_manifold(fan)
    assert_mesh_topology_matches(fan)
    for groups in ([0, 0, 0], [0, 1, 0], [0, 1, 2]):
        tagged = synth.with_uv_groups(fan, groups)
        assert_mesh_topology_matches(tagged)
        assert_strips_match(as_lists(quantize_mesh(tagged, uv_islands(tagged))), 1)
    assert_strips_match(as_lists(quantize_mesh(fan)), 1)


def test_duplicate_key_sets_in_different_islands():
    # faces 1 and 3 share the key set {0, 1, 2}, the lowest face of both
    # islands: the island seen first goes first, not the one whose lowest
    # face has the lower index
    keys = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1), (2, 2, 2)]
    faces = [(0, 1, 3), (2, 1, 0), (3, 4, 1), (0, 1, 2)]
    for labels, expected in (([1, 0, 0, 1], [1, 0]), ([0, 1, 1, 0], [0, 1])):
        q = QuantizedMesh(keys, faces, labels, IDENTITY_TRANSFORM)
        assert oracles.extract_strips(q, 1).islands_in_order == expected
        assert_strips_match(q, 1)


def test_degenerate_faces():
    keys = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    for faces in ([(0, 0, 1), (0, 1, 2)], [(0, 1, 2), (2, 1, 1), (1, 3, 2)], [(0, 0, 0)], [(0, 1, 0), (1, 0, 2)]):
        assert_strips_match(QuantizedMesh(keys, faces, None, IDENTITY_TRANSFORM), 1)
    for faces in ([(0, 1, 1, 2)], [(0, 1, 3, 2), (1, 3, 3, 2)], [(0, 1, 0, 1), (0, 1, 3, 2)]):
        assert_strips_match(QuantizedMesh(keys, faces, None, IDENTITY_TRANSFORM), 2)


def test_quad_that_repeats_an_edge():
    # (0, 1, 2, 1) has edge {1, 2} twice and edge {0, 1} twice
    positions = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0), (2.0, 0.0, 0.0)]
    faces = [(0, 1, 2, 1), (0, 1, 2, 3), (1, 4, 2, 3)]
    mesh = as_arrays(Mesh(positions, faces))
    assert_mesh_topology_matches(mesh)
    assert_mesh_topology_matches(synth.with_uv_groups(mesh, [0, 0, 1]))
    keys = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (2, 0, 0)]
    assert_strips_match(QuantizedMesh(keys, faces, None, IDENTITY_TRANSFORM), 2)


def test_signed_zero_positions_merge():
    # vertex 3 repeats vertex 0 as -0.0: merged, the shared edge bounds 3 faces
    positions = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-0.0, 0.0, -0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)]
    fan = Mesh(positions, [(0, 1, 2), (3, 1, 4), (0, 1, 5)])
    assert not oracles.is_edge_manifold(fan)
    assert_mesh_topology_matches(as_arrays(fan))
    assert_mesh_topology_matches(as_arrays(Mesh(positions, [(0, 1, 2), (3, 1, 4)])))


def test_collapsed_edges_are_skipped():
    # three faces whose first two corners merge into one point: the collapsed
    # edge occurs three times but is not an edge, so the mesh is manifold
    p = (0.0, 0.0, 0.0)
    positions = [p, p, (1.0, 0.0, 0.0), p, p, (0.0, 1.0, 0.0), p, p, (0.0, 0.0, 1.0)]
    mesh = as_arrays(Mesh(positions, [(0, 1, 2), (3, 4, 5), (6, 7, 8)]))
    assert is_edge_manifold(mesh)
    assert_mesh_topology_matches(mesh)


def test_empty_mesh():
    empty = as_arrays(Mesh([], [], [], []))
    assert uv_islands(empty).island_count == 0
    assert_mesh_topology_matches(empty)
    assert_strips_match(QuantizedMesh([], [], None, IDENTITY_TRANSFORM), 1)
    assert_strips_match(QuantizedMesh([], [], [], IDENTITY_TRANSFORM), 2)


def test_face_uvs_must_parallel_faces():
    positions = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)]
    for faces, face_uvs in (
        ([(0, 1, 2), (2, 1, 0)], [(0, 0, 0)]),
        ([(0, 1, 2), (0, 1, 3, 2)], [(0, 0, 0, 0), (0, 0, 0, 0)]),  # pads differ
    ):
        mesh = as_arrays(Mesh(positions, faces, [(0.0, 0.0)], face_uvs))
        with pytest.raises(ValueError, match="face_uvs"):
            uv_islands(mesh)


# --- mixed triangle/quad meshes: a triangle is a row padded with -1


def test_padded_row_has_its_three_triangle_edges():
    faces = np.array([[0, 1, 2, 3], [4, 5, 6, -1]])
    order, keys = sorted_edge_keys(faces, 10)
    # edge f * 4 + k joins corners k and k + 1; the pad (edge 7) starts none
    edges = dict(zip(order.tolist(), (divmod(k, 10) for k in keys.tolist())))
    assert edges == {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (0, 3), 4: (4, 5), 5: (5, 6), 6: (4, 6)}
    assert keys.tolist() == sorted(keys.tolist())


@st.composite
def mixed_meshes(draw):
    """Random triangles and quads over a few, possibly coincident, positions
    (so faces repeat edges and collapse), with or without uv indices."""
    coord = st.sampled_from([0.0, -0.0, 1.0, 2.0])
    positions = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=8))
    vertex = st.integers(0, len(positions) - 1)
    face = st.one_of(st.tuples(*[vertex] * 3), st.tuples(*[vertex] * 4))
    faces = draw(st.lists(face, min_size=1, max_size=12))
    mesh = Mesh(positions, faces)
    if draw(st.booleans()):
        uv = st.integers(0, 3)
        mesh = replace(mesh, uv_coords=[(0.0, 0.0)] * 4, face_uvs=[draw(st.tuples(*[uv] * len(f))) for f in faces])
    return as_arrays(mesh)


@st.composite
def split_quad_grids(draw):
    """A quad grid with random quads split into two triangles in place, and
    random faces removed, with or without UV islands."""
    nx, nz = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    base = synth.quad_grid(nx, nz)
    faces = []
    for a, b, c, d in base.faces.tolist():
        if draw(st.booleans()):
            faces += [(a, b, c), (a, c, d)]
        else:
            faces.append((a, b, c, d))
    holes = draw(st.sets(st.integers(0, len(faces) - 1), max_size=len(faces) - 1))
    mesh = as_arrays(Mesh(base.positions, [f for i, f in enumerate(faces) if i not in holes]))
    regions = draw(st.one_of(st.none(), st.integers(1, 6)))
    if regions is not None:
        mesh = synth.with_uv_groups(mesh, synth.grown_regions(mesh, regions))
    return mesh


@given(st.one_of(mixed_meshes(), split_quad_grids()))
@settings(max_examples=200, deadline=None)
def test_mixed_meshes_match_oracles(mesh):
    assert_mesh_topology_matches(mesh)
