"""Randomized and degenerate-input stress tests for the full pipeline."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from striptok import (
    Mesh,
    decode_tokens,
    encode_mesh,
    dequantize_mesh,
    extract_strips,
    load_obj,
    quantize_mesh,
    read_tokens,
    serialize,
    uv_islands,
    write_obj,
    write_tokens,
)
from striptok.mesh_io import is_edge_manifold
from striptok.verify import compare_quantized

import oracles
from oracles import as_arrays, as_lists, strip_faces, strip_lists
import synth
from strategies import random_grids, random_surfaces


def random_heightfield(nx, nz, seed, quads=False):
    rng = random.Random(seed)
    base = synth.quad_grid(nx, nz) if quads else synth.tri_grid(nx, nz)
    positions = [(p[0], rng.uniform(0.0, 0.3 * max(nx, nz)), p[2]) for p in base.positions.tolist()]
    return Mesh(positions=np.array(positions), faces=base.faces)


def face_multiset(q):
    q = as_lists(q)
    return Counter(frozenset(q.vertex_keys[v] for v in f) for f in q.faces)


def assert_round_trip(mesh, stride, partition=None, up_axis="y"):
    """``mesh`` through ``encode_mesh`` and ``decode_tokens``: the decode is
    clean and exact, and re-encoding it in the stream's uv mode gives back
    the stream, header included (one mesh, one sequence).  Returns the
    encoder's quantized mesh."""
    q, _, seq = encode_mesh(mesh, stride, partition, up_axis)
    decoded, _, report = decode_tokens(seq)
    assert report.clean()
    assert compare_quantized(q, decoded) == (True, "")
    again = serialize(extract_strips(decoded, stride, up_axis), uv_mode=seq.header.uv_mode)
    assert np.array_equal(again.tokens, seq.tokens) and again.header == seq.header
    return q


@pytest.mark.parametrize("seed", range(6))
def test_random_heightfield_round_trip(seed):
    mesh = random_heightfield(9 + seed, 7 + seed, seed)
    tagged = synth.with_uv_groups(mesh, synth.grown_regions(mesh, 2 + seed % 4))
    assert_round_trip(tagged, 1, uv_islands(tagged))


@pytest.mark.parametrize("seed", range(4))
def test_random_quad_heightfield_round_trip(seed):
    assert_round_trip(random_heightfield(8 + seed, 6 + seed, 100 + seed, quads=True), 2)


@given(random_grids(), st.sampled_from("xyz"))
@settings(max_examples=50, deadline=None)
def test_random_grid_round_trip_property(case, up_axis):
    mesh, stride = case
    assert_round_trip(mesh, stride, uv_islands(mesh) if mesh.face_uvs is not None else None, up_axis)


@given(random_surfaces(), st.sampled_from("xyz"))
@settings(max_examples=50, deadline=None)
def test_random_surface_round_trip_property(case, up_axis):
    # jittered spheres and tori with holes: boundaries, non-grid valences
    mesh, stride = case
    assert is_edge_manifold(mesh) == oracles.is_edge_manifold(as_lists(mesh))
    partition = None
    if mesh.face_uvs is not None:
        partition = uv_islands(mesh)
        assert as_lists(partition) == oracles.uv_islands(as_lists(mesh))
    assert_round_trip(mesh, stride, partition, up_axis)


def test_inconsistent_winding_still_covered():
    base = synth.tri_grid(6, 6)
    faces = base.faces.copy()
    faces[::3] = faces[::3, [0, 2, 1]]
    mesh = Mesh(positions=base.positions, faces=faces)
    assert not synth.oracle_consistent_winding(mesh)
    q, ss, _ = encode_mesh(mesh, 1)
    keys = as_lists(q).vertex_keys
    got = Counter(
        frozenset(keys[v] for v in f)
        for strip, _ in strip_lists(ss)
        for f in strip_faces(strip, 1)
    )
    assert got == face_multiset(q)


def test_heavy_quantization_collapse_round_trip():
    # 700 columns over 512 cells: adjacent columns collide, slivers drop,
    # and the surviving mesh still round-trips exactly
    base = synth.tri_ribbon(700)
    q = assert_round_trip(Mesh(positions=base.positions * [1.0, 1.0, 100.0], faces=base.faces), 1)
    assert q.dropped_degenerate > 0
    assert len(q.faces) > 500


def test_total_collapse_raises():
    # a ribbon thinner than one grid cell degenerates entirely
    with pytest.raises(ValueError, match="degenerate"):
        quantize_mesh(synth.tri_ribbon(700))


def test_file_format_round_trip_closes_loop(tmp_path):
    # tokens -> .sato -> tokens -> mesh -> .obj -> mesh -> same grid keys
    mesh = synth.with_uv_groups(synth.icosphere(2), synth.grown_regions(synth.icosphere(2), 3))
    seq = encode_mesh(mesh, 1, uv_islands(mesh))[2]

    token_path = tmp_path / "m.sato"
    write_tokens(seq, token_path)
    seq2 = read_tokens(token_path)
    assert np.array_equal(seq2.tokens, seq.tokens)

    decoded, islands, report = decode_tokens(seq2)
    assert report.clean()
    obj_path = tmp_path / "m.obj"
    write_obj(dequantize_mesh(decoded), obj_path, islands)

    # 9-significant-digit text keeps every position inside its grid cell;
    # the reloaded OBJ has no UVs, so re-quantization welds island borders
    # globally and only the face geometry can be compared
    reloaded = load_obj(obj_path)
    requantized = quantize_mesh(reloaded, transform=decoded.transform)
    assert face_multiset(requantized) == face_multiset(decoded)
    assert set(as_lists(requantized).vertex_keys) == set(as_lists(decoded).vertex_keys)


def test_single_face_meshes():
    tri = as_arrays(Mesh(positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], faces=[(0, 1, 2)]))
    assert_round_trip(tri, 1)
    quad = as_arrays(
        Mesh(positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.0, 0.0, 1.0)], faces=[(0, 1, 2, 3)])
    )
    assert_round_trip(quad, 2)


def test_disconnected_components_round_trip():
    mesh = synth.concat(
        synth.tri_grid(3, 3),
        synth.shift(synth.icosphere(1), dx=8.0),
        synth.shift(synth.tri_ribbon(5), dz=8.0),
    )
    assert_round_trip(mesh, 1)
