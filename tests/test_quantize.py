from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from striptok import (
    IslandPartition,
    Mesh,
    Transform,
    decode_hier,
    dequantize_mesh,
    encode_hier,
    quantize_mesh,
    uv_islands,
)
from striptok.quantize import distinct_faces

import oracles
from oracles import IDENTITY_TRANSFORM, as_arrays, as_lists, dequantize, normalize, pack_keys, to_grid
import synth


def cube_mesh(lo=-2.0, hi=2.0):
    """A list-form mesh, as the oracle ``normalize`` takes it."""
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
            assert oracles.to_model(t, now) == pytest.approx(orig, abs=1e-12)

    def test_degenerate_extent(self):
        mesh = Mesh(positions=[(1.0, 1.0, 1.0)] * 3, faces=[(0, 1, 2)])
        with pytest.raises(ValueError, match="degenerate extent"):
            normalize(mesh)
        with pytest.raises(ValueError, match="^degenerate extent: all points identical$"):
            quantize_mesh(as_arrays(mesh))

    def test_empty_mesh(self):
        with pytest.raises(ValueError, match="empty"):
            normalize(Mesh(positions=[], faces=[]))
        tri = synth.tri_grid(1, 1)
        with pytest.raises(ValueError, match="^empty mesh$"):
            quantize_mesh(Mesh(tri.positions, tri.faces[:0]))


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


def encode_one(g):
    """The code of one grid coordinate, through the array :func:`encode_hier`."""
    (code,) = encode_hier([g]).tolist()
    return tuple(code)


class TestHierCodes:
    def test_zero(self):
        assert encode_one((0, 0, 0)) == (0, 0, 0)
        assert decode_one((0, 0, 0)) == (0, 0, 0)

    def test_top_corner(self):
        # per-axis split of 511 is (3, 7, 15); combined x-major
        assert encode_one((511, 511, 511)) == (63, 511, 4095)
        assert decode_one((63, 511, 4095)) == (511, 511, 511)

    def test_x_128(self):
        assert encode_one((128, 0, 0)) == (16, 0, 0)

    def test_per_axis_exhaustive(self):
        # all 512 values along each axis round-trip and stay in level ranges
        for v in range(512):
            for g in ((v, 0, 0), (0, v, 0), (0, 0, v)):
                h = encode_one(g)
                assert 0 <= h[0] < 64 and 0 <= h[1] < 512 and 0 <= h[2] < 4096
                assert decode_one(h) == g

    def test_random_round_trip(self):
        grid = np.random.default_rng(7).integers(0, 512, (10_000, 3))
        assert decode_hier(encode_hier(grid)).tolist() == pack_keys(grid).tolist()

    @given(st.tuples(*[st.integers(0, 511)] * 3))
    def test_bijection_property(self, g):
        h = encode_one(g)
        assert decode_one(h) == g

    def test_every_coordinate_of_each_axis_matches_oracle(self):
        rng = np.random.default_rng(5)
        for axis in range(3):
            grid = rng.integers(0, 512, (512, 3))
            grid[:, axis] = np.arange(512)
            codes = encode_hier(grid)
            assert codes.dtype == np.int64 and codes.shape == (512, 3)
            assert codes.tolist() == [list(oracles.encode_hier(tuple(g))) for g in grid.tolist()]

    @given(hnp.arrays(np.int64, st.tuples(st.integers(0, 40), st.just(3)), elements=st.integers(0, 511)))
    @settings(max_examples=100, deadline=None)
    def test_array_form_matches_oracle(self, grid):
        codes = encode_hier(grid)
        assert codes.dtype == np.int64 and codes.shape == grid.shape
        assert codes.tolist() == [list(oracles.encode_hier(tuple(g))) for g in grid.tolist()]


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
        faces = base.faces[[*range(len(base.faces)), 0]]
        q = quantize_mesh(Mesh(positions=base.positions, faces=faces))
        assert q.dropped_duplicate == 1
        assert len(q.faces) == len(base.faces)
        q.check(len(faces))

    def test_check_names_the_identity(self):
        q = quantize_mesh(synth.tri_grid(2, 2))
        q.check(8)
        with pytest.raises(
            AssertionError, match=r"input faces 9 != kept 8 \+ dropped degenerate 0 \+ dropped duplicate 0"
        ):
            q.check(9)

    def test_sliver_collapses(self):
        # a triangle smaller than one grid cell after normalization collapses
        eps = 0.4 / 512
        positions = [
            (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 1.0, 0.0),
            (0.2, 0.5, 0.0), (0.2 + eps, 0.5, 0.0), (0.2, 0.5 + eps, 0.0),
        ]
        faces = [(0, 1, 2), (3, 4, 5)]
        q = quantize_mesh(as_arrays(Mesh(positions=positions, faces=faces)))
        assert q.dropped_degenerate == 1
        assert len(q.faces) == 1

    def test_all_degenerate_error(self):
        eps = 0.1 / 512
        positions = [(0.0, 0.0, 0.0), (eps, 0.0, 0.0), (0.0, eps, 0.0), (10.0, 10.0, 10.0)]
        with pytest.raises(ValueError, match="degenerate"):
            quantize_mesh(as_arrays(Mesh(positions=positions, faces=[(0, 1, 2)])))

    def test_idempotent_with_transform_reuse(self):
        mesh = synth.icosphere(1)
        q = quantize_mesh(mesh)
        again = quantize_mesh(dequantize_mesh(q), transform=q.transform)
        assert np.array_equal(again.vertex_keys, q.vertex_keys)
        assert np.array_equal(again.faces, q.faces)

    def test_island_labels_carried_and_densified(self):
        base = synth.tri_grid(2, 2)
        # duplicate one face so an island could empty out
        mesh = Mesh(positions=base.positions, faces=base.faces[[*range(len(base.faces)), -1]])
        tagged = synth.with_uv_groups(mesh, [0] * len(base.faces) + [1])
        partition = uv_islands(tagged)
        assert partition.island_count == 2
        q = quantize_mesh(tagged, partition)
        # the duplicate face (sole member of island 1) was dropped
        assert q.dropped_duplicate == 1
        assert q.island_of_face.tolist() == [0] * len(base.faces)
        assert q.island_count() == 1


def assert_arrays(q, n_keys, n_faces, degree):
    """The array contract of a ``QuantizedMesh``: int64 fields of these shapes."""
    assert q.vertex_keys.dtype == np.int64 and q.vertex_keys.shape == (n_keys, 3)
    assert q.faces.dtype == np.int64 and q.faces.shape == (n_faces, degree)
    assert q.island_of_face.dtype == np.int64 and q.island_of_face.shape == (n_faces,)


class TestArrayContract:
    @pytest.mark.parametrize("quads", [False, True])
    def test_without_partition(self, quads):
        mesh = synth.quad_grid(3, 2) if quads else synth.tri_grid(3, 2)
        q = quantize_mesh(mesh)
        assert_arrays(q, 12, len(mesh.faces), 4 if quads else 3)
        assert q.island_of_face.tolist() == [0] * len(mesh.faces)
        assert q.face_degree == (4 if quads else 3) and q.island_count() == 1

    def test_uv_partition(self):
        mesh = synth.with_uv_groups(synth.tri_grid(4, 4), [f // 8 for f in range(32)])
        q = quantize_mesh(mesh, uv_islands(mesh))
        assert_arrays(q, 25, 32, 3)
        assert q.island_of_face.tolist() == [f // 8 for f in range(32)]
        assert q.island_count() == 4

    def test_dropped_faces(self):
        eps = 0.4 / 512
        positions = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.2, 0.5, 0.0), (0.2 + eps, 0.5, 0.0)]
        mesh = as_arrays(Mesh(positions, [(0, 1, 2), (3, 4, 2), (1, 2, 0)]))
        q = quantize_mesh(mesh, as_arrays(IslandPartition([4, 2, 7], 3)))
        assert_arrays(q, 3, 1, 3)
        assert q.island_of_face.tolist() == [0] and q.island_count() == 1
        assert (q.dropped_degenerate, q.dropped_duplicate) == (1, 1)


class TestMixedFaces:
    def test_encoder_rejects_mixed_faces_in_one_place(self):
        positions = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0), (2.0, 0.0, 0.0)]
        mesh = as_arrays(Mesh(positions=positions, faces=[(0, 1, 2, 3), (1, 4, 2)]))
        assert mesh.faces.tolist() == [[0, 1, 2, 3], [1, 4, 2, -1]]
        message = "^mixed triangle/quad faces: encoding takes faces of one degree$"
        for partition in (None, uv_islands(mesh)):
            with pytest.raises(ValueError, match=message):
                quantize_mesh(mesh, partition)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 5])
    def test_bounding_box_path(self, bad, where):
        mesh = synth.tri_grid(3, 3)
        positions = mesh.positions.copy()
        positions[where, 1] = bad
        with pytest.raises(ValueError, match="^non-finite vertex coordinate$"):
            quantize_mesh(Mesh(positions=positions, faces=mesh.faces))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [0, 5])
    def test_transform_path(self, bad, where):
        mesh = synth.tri_grid(3, 3)
        q = quantize_mesh(mesh)
        positions = mesh.positions.copy()
        positions[where, 0] = bad
        with pytest.raises(ValueError, match="^non-finite vertex coordinate$"):
            quantize_mesh(Mesh(positions=positions, faces=mesh.faces), transform=q.transform)

    @pytest.mark.parametrize("scale", [math.nan, 0.0])
    def test_transform_makes_points_non_finite(self, scale):
        mesh = synth.tri_grid(3, 3)
        with pytest.raises(ValueError, match="^non-finite vertex coordinate$"):
            quantize_mesh(mesh, transform=Transform((0.0, 0.0, 0.0), scale))


@st.composite
def face_rows(draw):
    """Rows of 3 or 4 small entries, -1 pads among them, that repeat entries
    and hold permuted copies of earlier rows."""
    width = draw(st.sampled_from([3, 4]))
    rows = draw(st.lists(st.lists(st.integers(-1, 5), min_size=width, max_size=width), max_size=20))
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=6)):
            rows.insert(draw(st.integers(i + 1, len(rows))), draw(st.permutations(rows[i])))
    return np.array(rows, dtype=np.int64).reshape(-1, width)


@given(face_rows())
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.array([[0, 1, 2, -1], [2, 0, 1, -1], [0, 1, 2, 3], [-1, 2, 1, 0], [0, 1, -1, -1]]))
@settings(max_examples=200, deadline=None)
def test_distinct_faces_matches_oracle(rows):
    nondegenerate, kept = distinct_faces(rows)
    assert (nondegenerate.tolist(), kept.tolist()) == oracles.distinct_faces(rows.tolist())


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
        (p[0] + draw(jitter), draw(st.floats(0.0, 2.0)), p[2] + draw(jitter)) for p in base.positions.tolist()
    ]
    positions.append((draw(st.floats(8.0, 2000.0)), 0.0, 0.0))
    faces = base.faces.tolist()
    for i in draw(st.lists(st.integers(0, len(faces) - 1), max_size=4)):
        faces.append(faces[i][::-1] if draw(st.booleans()) else faces[i])
    mesh = Mesh(positions=positions, faces=faces)
    partition = None
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 6).map(lambda l: 3 * l), min_size=len(faces), max_size=len(faces)))
        partition = IslandPartition(labels, len(set(labels)))
    return mesh, partition


def _both(fn, oracle, mesh, partition, **kwargs):
    """``fn`` on the arrays of a list-form mesh and partition, and ``oracle``
    on the lists, each as :func:`_outcome`."""
    arrays = as_arrays(mesh), partition and as_arrays(partition)
    return _outcome(fn, *arrays, **kwargs), _outcome(oracle, mesh, partition, **kwargs)


def _assert_same(got, want, n_faces):
    assert_arrays(got, len(want.vertex_keys), len(want.faces), got.faces.shape[1])
    assert as_lists(got) == want  # dataclass equality: keys, faces, labels, transform, drop counts
    got.check(n_faces)


@given(coarse_meshes())
@settings(max_examples=50, deadline=None)
def test_quantize_matches_oracle(case):
    mesh, partition = case
    got, want = _both(quantize_mesh, oracles.quantize_mesh, mesh, partition)
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
        return
    _assert_same(got, want, len(mesh.faces))

    # the transform path: re-quantizing the dequantized mesh
    again = dequantize_mesh(got)
    labels = IslandPartition(got.island_of_face, got.island_count()) if partition else None
    redo = quantize_mesh(again, labels, transform=got.transform)
    want = oracles.quantize_mesh(as_lists(again), labels and as_lists(labels), transform=got.transform)
    _assert_same(redo, want, len(again.faces))
    assert np.array_equal(redo.vertex_keys, got.vertex_keys) and np.array_equal(redo.faces, got.faces)


@given(coarse_meshes(), st.floats(0.25, 4.0), st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_quantize_out_of_range_matches_oracle(case, scale, shift):
    mesh, partition = case
    transform = Transform((shift, shift, shift), scale)
    got, want = _both(quantize_mesh, oracles.quantize_mesh, mesh, partition, transform=transform)
    assert (as_lists(got) if not isinstance(got, tuple) else got) == want
