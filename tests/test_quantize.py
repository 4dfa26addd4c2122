from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from striptok import (
    IDENTITY_TRANSFORM,
    IslandPartition,
    Mesh,
    Transform,
    decode_hier,
    dequantize,
    dequantize_mesh,
    encode_hier,
    normalize,
    quantize_mesh,
    to_grid,
)

import oracles
import synth


def cube_mesh(lo=-2.0, hi=2.0):
    positions = [
        (lo, lo, lo), (hi, lo, lo), (lo, hi, lo), (hi, hi, lo),
        (lo, lo, hi), (hi, lo, hi), (lo, hi, hi), (hi, hi, hi),
    ]
    faces = [(0, 1, 3), (0, 3, 2), (4, 6, 7), (4, 7, 5)]
    return Mesh(positions=positions, faces=faces)


class TestNormalize:
    def test_unit_cube_is_identity(self):
        mesh = cube_mesh(0.0, 1.0)
        out, t = normalize(mesh)
        assert t.center == (0.0, 0.0, 0.0)
        assert t.scale == 1.0
        assert out.positions == mesh.positions

    def test_centered_cube_scale(self):
        mesh = cube_mesh(-2.0, 2.0)
        out, t = normalize(mesh)
        # oracle: recompute the bounding box of the output
        for axis in range(3):
            vals = [p[axis] for p in out.positions]
            assert min(vals) >= 0.0 and max(vals) <= 1.0
        assert t.scale == 4.0  # model units per normalized unit
        assert t.center == (-2.0, -2.0, -2.0)
        # normalization applied a factor of 1/4; transform inverts it
        for orig, now in zip(mesh.positions, out.positions):
            assert t.to_model(now) == pytest.approx(orig, abs=1e-12)

    def test_degenerate_extent(self):
        mesh = Mesh(positions=[(1.0, 1.0, 1.0)] * 3, faces=[(0, 1, 2)])
        with pytest.raises(ValueError, match="degenerate extent"):
            normalize(mesh)

    def test_empty_mesh(self):
        with pytest.raises(ValueError, match="empty"):
            normalize(Mesh(positions=[], faces=[]))


class TestToGrid:
    def test_origin(self):
        assert to_grid((0.0, 0.0, 0.0)) == (0, 0, 0)

    def test_upper_corner_clamps(self):
        assert to_grid((1.0, 1.0, 1.0)) == (511, 511, 511)

    def test_direct_evaluation(self):
        # oracle: floor(p * 512) per axis = (256, 128, 511)
        assert to_grid((0.5, 0.25, 0.999)) == (256, 128, 511)

    def test_epsilon_tolerance(self):
        assert to_grid((-1e-10, 0.0, 1.0 + 1e-10)) == (0, 0, 511)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            to_grid((1.1, 0.0, 0.0))
        with pytest.raises(ValueError):
            to_grid((0.0, -0.1, 0.0))


def decode_one(h):
    """The grid coordinate of one code, through the array :func:`decode_hier`."""
    (key,) = decode_hier([h]).tolist()
    return (key >> 18, key >> 9 & 511, key & 511)


class TestHierCodes:
    def test_zero(self):
        assert encode_hier((0, 0, 0)) == (0, 0, 0)
        assert decode_one((0, 0, 0)) == (0, 0, 0)

    def test_top_corner(self):
        # per-axis split of 511 is (3, 7, 15); combined x-major
        assert encode_hier((511, 511, 511)) == (63, 511, 4095)
        assert decode_one((63, 511, 4095)) == (511, 511, 511)

    def test_x_128(self):
        assert encode_hier((128, 0, 0)) == (16, 0, 0)

    def test_per_axis_exhaustive(self):
        # all 512 values along each axis round-trip and stay in level ranges
        for v in range(512):
            for g in ((v, 0, 0), (0, v, 0), (0, 0, v)):
                h = encode_hier(g)
                assert 0 <= h[0] < 64 and 0 <= h[1] < 512 and 0 <= h[2] < 4096
                assert decode_one(h) == g

    def test_random_round_trip(self):
        rng = random.Random(7)
        for _ in range(10_000):
            g = (rng.randrange(512), rng.randrange(512), rng.randrange(512))
            assert decode_one(encode_hier(g)) == g

    @given(st.tuples(*[st.integers(0, 511)] * 3))
    def test_bijection_property(self, g):
        h = encode_hier(g)
        assert decode_one(h) == g


class TestDequantize:
    def test_cell_center(self):
        assert dequantize((0, 0, 0), IDENTITY_TRANSFORM) == (0.5 / 512,) * 3

    def test_grid_round_trip(self):
        rng = random.Random(3)
        for _ in range(1000):
            g = (rng.randrange(512), rng.randrange(512), rng.randrange(512))
            assert to_grid(dequantize(g, IDENTITY_TRANSFORM)) == g

    def test_scale_linearity(self):
        doubled = Transform((0.0, 0.0, 0.0), 2.0)
        a = dequantize((100, 20, 3), IDENTITY_TRANSFORM)
        b = dequantize((100, 20, 3), doubled)
        assert b == tuple(2 * c for c in a)

    def test_error_bound(self):
        # quantization error within half a cell in the infinity norm
        rng = random.Random(11)
        bound = 0.5 / 512 + 1e-12
        for _ in range(10_000):
            p = (rng.random(), rng.random(), rng.random())
            q = dequantize(to_grid(p), IDENTITY_TRANSFORM)
            assert max(abs(a - b) for a, b in zip(p, q)) <= bound


class TestQuantizeMesh:
    def test_cell_centered_mesh_lossless(self):
        mesh = synth.tri_grid(4, 4)
        q = quantize_mesh(mesh)
        assert len(q.faces) == len(mesh.faces)
        assert q.dropped_degenerate == 0 and q.dropped_duplicate == 0

    def test_coincident_faces_deduplicated(self):
        base = synth.tri_grid(2, 2)
        faces = list(base.faces) + [base.faces[0]]
        q = quantize_mesh(Mesh(positions=base.positions, faces=faces))
        assert q.dropped_duplicate == 1
        assert len(q.faces) == len(base.faces)

    def test_sliver_collapses(self):
        # a triangle smaller than one grid cell after normalization collapses
        eps = 0.4 / 512
        positions = [
            (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 1.0, 0.0),
            (0.2, 0.5, 0.0), (0.2 + eps, 0.5, 0.0), (0.2, 0.5 + eps, 0.0),
        ]
        faces = [(0, 1, 2), (3, 4, 5)]
        q = quantize_mesh(Mesh(positions=positions, faces=faces))
        assert q.dropped_degenerate == 1
        assert len(q.faces) == 1

    def test_all_degenerate_error(self):
        eps = 0.1 / 512
        positions = [(0.0, 0.0, 0.0), (eps, 0.0, 0.0), (0.0, eps, 0.0), (10.0, 10.0, 10.0)]
        with pytest.raises(ValueError, match="degenerate"):
            quantize_mesh(Mesh(positions=positions, faces=[(0, 1, 2)]))

    def test_idempotent_with_transform_reuse(self):
        mesh = synth.icosphere(1)
        q = quantize_mesh(mesh)
        again = quantize_mesh(dequantize_mesh(q), transform=q.transform)
        assert again.vertex_keys == q.vertex_keys
        assert again.faces == q.faces

    def test_island_labels_carried_and_densified(self):
        base = synth.tri_grid(2, 2)
        # duplicate one face so an island could empty out
        mesh = Mesh(positions=base.positions, faces=list(base.faces) + [base.faces[-1]])
        tagged = synth.with_uv_groups(mesh, [0] * len(base.faces) + [1])
        from striptok import uv_islands

        partition = uv_islands(tagged)
        assert partition.island_count == 2
        q = quantize_mesh(tagged, partition)
        # the duplicate face (sole member of island 1) was dropped
        assert q.dropped_duplicate == 1
        assert q.island_of_face == [0] * len(base.faces)
        assert q.island_count() == 1


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 5])
    def test_bounding_box_path(self, bad, where):
        mesh = synth.tri_grid(3, 3)
        positions = list(mesh.positions)
        positions[where] = (positions[where][0], bad, positions[where][2])
        with pytest.raises(ValueError, match="^non-finite vertex coordinate$"):
            quantize_mesh(Mesh(positions=positions, faces=mesh.faces))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [0, 5])
    def test_transform_path(self, bad, where):
        mesh = synth.tri_grid(3, 3)
        q = quantize_mesh(mesh)
        positions = list(mesh.positions)
        positions[where] = (bad, positions[where][1], positions[where][2])
        with pytest.raises(ValueError, match="^non-finite vertex coordinate$"):
            quantize_mesh(Mesh(positions=positions, faces=mesh.faces), transform=q.transform)

    @pytest.mark.parametrize("scale", [math.nan, 0.0])
    def test_transform_makes_points_non_finite(self, scale):
        mesh = synth.tri_grid(3, 3)
        with pytest.raises(ValueError, match="^non-finite vertex coordinate$"):
            quantize_mesh(mesh, transform=Transform((0.0, 0.0, 0.0), scale))


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and text of the ``ValueError`` it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def coarse_meshes(draw):
    """Jittered grids on a coarse grid, so vertices share cells and faces collapse.

    An unreferenced far vertex stretches the bounding box: with one grid cell
    spanning up to a few grid steps, faces degenerate or coincide.  Some
    faces are repeated, and island labels are sparse, so dropping can empty
    islands.
    """
    quads = draw(st.booleans())
    nx, nz = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    base = synth.quad_grid(nx, nz) if quads else synth.tri_grid(nx, nz)
    jitter = st.floats(-0.5, 0.5)
    positions = [
        (p[0] + draw(jitter), draw(st.floats(0.0, 2.0)), p[2] + draw(jitter)) for p in base.positions
    ]
    positions.append((draw(st.floats(8.0, 2000.0)), 0.0, 0.0))
    faces = list(base.faces)
    for i in draw(st.lists(st.integers(0, len(faces) - 1), max_size=4)):
        faces.append(faces[i][::-1] if draw(st.booleans()) else faces[i])
    mesh = Mesh(positions=positions, faces=faces)
    partition = None
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 6).map(lambda l: 3 * l), min_size=len(faces), max_size=len(faces)))
        partition = IslandPartition(labels, len(set(labels)))
    return mesh, partition


def _assert_same(got, want, n_faces):
    assert got == want  # dataclass equality: keys, faces, labels, transform, drop counts
    assert len(got.faces) + got.dropped_degenerate + got.dropped_duplicate == n_faces
    assert all(type(c) is int for key in got.vertex_keys for c in key)
    assert all(type(v) is int for face in got.faces for v in face)
    assert got.island_of_face is None or all(type(l) is int for l in got.island_of_face)
    assert all(type(k) is tuple for k in got.vertex_keys) and all(type(f) is tuple for f in got.faces)


@given(coarse_meshes())
@settings(max_examples=50, deadline=None)
def test_quantize_matches_oracle(case):
    mesh, partition = case
    got = _outcome(quantize_mesh, mesh, partition)
    assert got == _outcome(oracles.quantize_mesh, mesh, partition)
    if isinstance(got, tuple):
        return
    _assert_same(got, oracles.quantize_mesh(mesh, partition), len(mesh.faces))

    # the transform path: re-quantizing the dequantized mesh
    again = dequantize_mesh(got)
    labels = IslandPartition(got.island_of_face, got.island_count()) if partition else None
    redo = quantize_mesh(again, labels, transform=got.transform)
    _assert_same(redo, oracles.quantize_mesh(again, labels, transform=got.transform), len(again.faces))
    assert redo.vertex_keys == got.vertex_keys and redo.faces == got.faces


@given(coarse_meshes(), st.floats(0.25, 4.0), st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_quantize_out_of_range_matches_oracle(case, scale, shift):
    mesh, partition = case
    transform = Transform((shift, shift, shift), scale)
    got = _outcome(quantize_mesh, mesh, partition, transform=transform)
    assert got == _outcome(oracles.quantize_mesh, mesh, partition, transform=transform)
