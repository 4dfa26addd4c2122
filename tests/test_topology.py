"""Array topology (``uv_islands``, ``is_edge_manifold``, ``extract_strips``,
vertex ranks, ``seed_order``) against the per-face references in ``oracles``."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from striptok import IDENTITY_TRANSFORM, Mesh, QuantizedMesh, extract_strips, quantize_mesh, seed_order, uv_islands
from striptok.mesh_io import is_edge_manifold, row_tuples
from striptok.strips import StripSet, _rank_array

import oracles
from oracles import as_arrays, as_lists
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
    assert is_edge_manifold(mesh) == oracles.is_edge_manifold(mesh)
    if mesh.face_uvs is not None:
        got = uv_islands(mesh)
        assert got == oracles.uv_islands(mesh)
        assert all(type(l) is int for l in got.island_of_face)


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
    mesh = Mesh(positions, [(0, 1, 2, 1), (0, 1, 2, 3), (1, 4, 2, 3)])
    assert_mesh_topology_matches(mesh)
    assert_mesh_topology_matches(synth.with_uv_groups(mesh, [0, 0, 1]))
    keys = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (2, 0, 0)]
    assert_strips_match(QuantizedMesh(keys, mesh.faces, None, IDENTITY_TRANSFORM), 2)


def test_signed_zero_positions_merge():
    # vertex 3 repeats vertex 0 as -0.0: merged, the shared edge bounds 3 faces
    positions = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-0.0, 0.0, -0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)]
    fan = Mesh(positions, [(0, 1, 2), (3, 1, 4), (0, 1, 5)])
    assert not oracles.is_edge_manifold(fan)
    assert_mesh_topology_matches(fan)
    assert_mesh_topology_matches(Mesh(positions, [(0, 1, 2), (3, 1, 4)]))


def test_collapsed_edges_are_skipped():
    # three faces whose first two corners merge into one point: the collapsed
    # edge occurs three times but is not an edge, so the mesh is manifold
    p = (0.0, 0.0, 0.0)
    positions = [p, p, (1.0, 0.0, 0.0), p, p, (0.0, 1.0, 0.0), p, p, (0.0, 0.0, 1.0)]
    mesh = Mesh(positions, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    assert is_edge_manifold(mesh)
    assert_mesh_topology_matches(mesh)


def test_empty_mesh():
    empty = Mesh([], [], [], [])
    assert uv_islands(empty).island_count == 0
    assert_mesh_topology_matches(empty)
    assert_strips_match(QuantizedMesh([], [], None, IDENTITY_TRANSFORM), 1)
    assert_strips_match(QuantizedMesh([], [], [], IDENTITY_TRANSFORM), 2)


def test_face_uvs_must_parallel_faces():
    mesh = Mesh([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [(0, 1, 2), (2, 1, 0)], [(0.0, 0.0)], [(0, 0, 0)])
    with pytest.raises(ValueError, match="face_uvs"):
        uv_islands(mesh)
