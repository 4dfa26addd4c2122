from __future__ import annotations

import json
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import striptok.metrics as metrics
from striptok import (
    Mesh,
    SampleSet,
    chamfer_hausdorff,
    compare_meshes,
    decode_tokens,
    dequantize_mesh,
    encode_mesh,
    f_score,
    normal_consistency,
    sample_surface,
    write_obj,
)
import striptok.cli as cli
from striptok.cli import main
from striptok.mesh_io import load_obj, split_quad_faces

import oracles
from oracles import as_arrays, nearest_neighbors
import synth


def brute_nn(a, b):
    """O(n^2) nearest-neighbor oracle: distances and indices from a to b."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    idx = d2.argmin(axis=1)
    return np.sqrt(d2[np.arange(len(a)), idx]), idx


def point_set(points, normal=(0.0, 1.0, 0.0)):
    pts = np.asarray(points, dtype=np.float64)
    nrm = np.tile(np.asarray(normal, dtype=np.float64), (len(pts), 1))
    return SampleSet(points=pts, normals=nrm)


def cube_surface():
    """Closed unit cube as 12 triangles."""
    positions = [
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (0.0, 1.0, 1.0),
    ]
    quads = [
        (0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
        (2, 3, 7, 6), (1, 2, 6, 5), (0, 4, 7, 3),
    ]
    faces = []
    for a, b, c, d in quads:
        faces += [(a, b, c), (a, c, d)]
    return as_arrays(Mesh(positions=positions, faces=faces))


@st.composite
def sampled_meshes(draw):
    """Small meshes of random triangles or quads, some of them of zero
    area, whose surface has area."""
    v = draw(st.integers(3, 10))
    coord = st.floats(-10.0, 10.0)
    positions = draw(arrays(np.float64, (v, 3), elements=coord))
    degree = draw(st.sampled_from([3, 4]))
    faces = draw(arrays(np.int64, st.tuples(st.integers(1, 20), st.just(degree)), elements=st.integers(0, v - 1)))
    mesh = Mesh(positions=positions, faces=faces)
    corners = positions[split_quad_faces(faces)]
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    assume(np.linalg.norm(cross, axis=1).sum() > 0.0)  # also 0 where the squares underflow
    return mesh


def strip_of_triangles(areas):
    """Triangle ``i`` spans x in [3i, 3i + 1] and has area exactly ``areas[i]``."""
    corners = np.zeros((len(areas), 3, 3))
    corners[:, :, 0] = 3.0 * np.arange(len(areas))[:, None]
    corners[:, 1, 0] += 1.0
    corners[:, 2, 1] = 2.0 * areas
    return Mesh(positions=corners.reshape(-1, 3), faces=np.arange(3 * len(areas)).reshape(-1, 3))


SAMPLE_COUNTS = st.sampled_from([1, 2, 3, 7, 1000])


class TestSampling:
    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-150, 1e150)), min_size=1, max_size=40),
        st.integers(0, 2**64 - 1),
        SAMPLE_COUNTS,
        st.integers(1, 4),
    )
    def test_face_draw_is_generator_choice(self, areas, seed, n, workers):
        areas = np.array(areas)
        assume(areas.any())
        s = sample_surface(strip_of_triangles(areas), n=n, seed=seed, workers=workers)
        want = np.random.default_rng(seed).choice(len(areas), size=n, p=areas / areas.sum())
        assert np.array_equal(np.rint(s.points[:, 0] / 3.0), want)

    @given(sampled_meshes(), st.integers(0, 2**64 - 1), SAMPLE_COUNTS, st.integers(1, 4))
    def test_samples_match_oracle(self, mesh, seed, n, workers):
        s = sample_surface(mesh, n=n, seed=seed, workers=workers)
        points, normals = oracles.sample_surface(mesh, n, seed)
        assert s.points.tobytes() == points.tobytes()
        assert s.normals.tobytes() == normals.tobytes()

    def test_area_weighted_counts(self):
        # unit square as two equal triangles: each side gets ~n/2 samples
        mesh = as_arrays(
            Mesh(
                positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.0, 0.0, 1.0)],
                faces=[(0, 1, 2), (0, 2, 3)],
            )
        )
        n = 10_000
        s = sample_surface(mesh, n=n, seed=1)
        # membership by which side of the x=z diagonal the point falls on
        first = int((s.points[:, 0] >= s.points[:, 2]).sum())
        assert abs(first - n / 2) <= 3.0 * math.sqrt(n / 4)

    def test_planar_samples_coplanar(self):
        mesh = synth.tri_grid(4, 4)
        s = sample_surface(mesh, n=5000, seed=2)
        assert np.abs(s.points[:, 1]).max() <= 1e-9
        assert np.allclose(np.abs(s.normals[:, 1]), 1.0)

    def test_deterministic_per_seed(self):
        mesh = synth.icosphere(1)
        a = sample_surface(mesh, n=1000, seed=9)
        b = sample_surface(mesh, n=1000, seed=np.int64(9))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.normals, b.normals)
        c = sample_surface(mesh, n=1000, seed=10)
        assert not np.array_equal(a.points, c.points)

    def test_quads_split_on_v1_v3(self):
        # a bent quad: its two diagonals give different triangle pairs
        mesh = as_arrays(
            Mesh(
                positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, 0.0)],
                faces=[(0, 1, 2, 3)],
            )
        )
        s = sample_surface(mesh, n=2000, seed=0)
        assert len(s.points) == 2000
        assert np.allclose(np.linalg.norm(s.normals, axis=1), 1.0, atol=1e-12)
        # (v0, v1, v3) lies in z = 0; (v1, v2, v3) has normal (-1, -1, 1) / sqrt(3)
        on_v013 = np.all(np.isclose(s.normals, [0.0, 0.0, 1.0], atol=1e-12), axis=1)
        on_v123 = np.all(np.isclose(s.normals, np.array([-1.0, -1.0, 1.0]) / math.sqrt(3.0), atol=1e-12), axis=1)
        assert np.all(on_v013 | on_v123)
        assert on_v013.any() and on_v123.any()
        assert np.all(s.points[on_v013, 2] == 0.0)

    def test_quad_decode_samples_like_its_stride1_decode(self):
        _, _, seq = encode_mesh(synth.torus(16, 10), 2)
        quad, _, _ = decode_tokens(seq)
        tri, _, _ = decode_tokens(seq, 1)
        a = sample_surface(dequantize_mesh(quad), n=5000, seed=3)
        b = sample_surface(dequantize_mesh(tri), n=5000, seed=3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.normals, b.normals)

    def test_split_keeps_face_order_and_padded_triangles(self):
        faces = np.array([[0, 1, 2, 3], [4, 5, 6, -1], [7, 8, 9, 10]])
        want = [[0, 1, 3], [1, 2, 3], [4, 5, 6], [7, 8, 10], [8, 9, 10]]
        assert split_quad_faces(faces).tolist() == want
        tris = np.array([[0, 1, 2], [2, 1, 3]])
        assert np.array_equal(split_quad_faces(tris), tris)
        assert split_quad_faces(np.zeros((0, 4), dtype=np.int64)).shape == (0, 3)

    def test_mixed_mesh_samples_like_its_split(self):
        # a quad plus a padded triangle samples as its three triangles
        positions = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.5), (0.0, 1.0, 0.0), (2.0, 0.0, 1.0)]
        mixed = as_arrays(Mesh(positions=positions, faces=[(0, 1, 2, 3), (1, 4, 2)]))
        split = as_arrays(Mesh(positions=positions, faces=[(0, 1, 3), (1, 2, 3), (1, 4, 2)]))
        a, b = sample_surface(mixed, n=500, seed=2), sample_surface(split, n=500, seed=2)
        assert np.array_equal(a.points, b.points) and np.array_equal(a.normals, b.normals)

    def test_faces_of_zero_area_are_never_drawn_and_warn_nothing(self):
        # (0, 0, 1) repeats a corner; (4, 5, 3) has a cross product of
        # (0, 0, 5e-324), whose norm underflows to 0
        positions = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 5e-324, 0.0), (0.0, 0.0, 0.0)]
        mesh = as_arrays(Mesh(positions=positions, faces=[(0, 0, 1), (0, 1, 2), (4, 5, 3)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sample_surface(mesh, n=1000, seed=3, workers=2)
        assert np.array_equal(s.normals, np.tile([0.0, 0.0, 1.0], (1000, 1)))
        points, _ = oracles.sample_surface(mesh, 1000, 3)
        assert s.points.tobytes() == points.tobytes()

    def test_zero_area_error(self):
        mesh = as_arrays(Mesh(positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], faces=[(0, 1, 2)]))
        with pytest.raises(ValueError, match="zero-area"):
            sample_surface(mesh, n=10)

    def test_no_faces_error(self):
        grid = synth.tri_grid(2, 2)
        with pytest.raises(ValueError, match="^mesh has no faces$"):
            sample_surface(Mesh(grid.positions, grid.faces[:0]), n=10)

    def test_overflowing_area_error(self, tmp_path):
        # finite coordinates whose cross products overflow to inf
        path = tmp_path / "huge.obj"
        path.write_text("v 0 0 0\nv 1e200 0 0\nv 0 0 1e200\nf 1 2 3\n")
        mesh = load_obj(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite surface area"):
                sample_surface(mesh, n=10)

    @pytest.mark.parametrize(
        "n, message",
        [(0, "n must be at least 1"), (-1, "n must be at least 1"),
         (2.5, "n must be a positive int"), (True, "n must be a positive int"), (None, "n must be a positive int")],
        ids=["0", "-1", "2.5", "True", "None"],
    )
    def test_n_below_one_error(self, monkeypatch, n, message):
        # n is read as workers is, before any sampling
        mesh = synth.icosphere(1)
        with pytest.raises(ValueError, match=message):
            sample_surface(mesh, n=n)
        sampled = []
        monkeypatch.setattr(metrics, "sample_surface", lambda *a, **k: sampled.append(1))
        with pytest.raises(ValueError, match=message):
            compare_meshes(mesh, mesh, n=n)
        assert sampled == []

    @pytest.mark.parametrize("seed", [None, True, 1.5, -1], ids=["None", "True", "1.5", "-1"])
    def test_seed_not_a_non_negative_int_error(self, monkeypatch, seed):
        # seed is read as n is, before any sampling
        mesh = synth.icosphere(1)
        with pytest.raises(ValueError, match="^seed must be a non-negative int$"):
            sample_surface(mesh, n=10, seed=seed)
        sampled = []
        monkeypatch.setattr(metrics, "sample_surface", lambda *a, **k: sampled.append(1))
        with pytest.raises(ValueError, match="^seed must be a non-negative int$"):
            compare_meshes(mesh, mesh, n=10, seed=seed)
        assert sampled == []

    def test_unit_normals(self):
        s = sample_surface(synth.icosphere(2), n=3000, seed=4)
        assert np.abs(np.linalg.norm(s.normals, axis=1) - 1.0).max() <= 1e-6


class TestChamferHausdorff:
    def test_identical_sets_zero(self):
        s = sample_surface(synth.icosphere(1), n=2000, seed=3)
        cd, hd = chamfer_hausdorff(s, s)
        assert cd == 0.0 and hd == 0.0

    def test_singletons(self):
        a = point_set([(0.0, 0.0, 0.0)])
        b = point_set([(3.0, 4.0, 0.0)])
        cd, hd = chamfer_hausdorff(a, b)
        assert cd == pytest.approx(5.0)
        assert hd == pytest.approx(5.0)

    def test_offset_cubes(self):
        n = 10_000
        a = sample_surface(cube_surface(), n=n, seed=0)
        shifted = synth.shift(cube_surface(), dx=0.01)
        b = sample_surface(shifted, n=n, seed=1)
        _, hd = chamfer_hausdorff(a, b)
        spacing = math.sqrt(6.0 / n)
        assert abs(hd - 0.01) <= 2.0 * spacing
        assert hd >= 0.0099

    def test_cd_le_hd(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = point_set(rng.random((200, 3)))
            b = point_set(rng.random((150, 3)))
            cd, hd = chamfer_hausdorff(a, b)
            assert cd <= hd

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        a = point_set(rng.random((2000, 3)))
        b = point_set(rng.random((2000, 3)))
        d_ab, _ = brute_nn(a.points, b.points)
        d_ba, _ = brute_nn(b.points, a.points)
        cd, hd = chamfer_hausdorff(a, b)
        assert cd == pytest.approx(0.5 * (d_ab.mean() + d_ba.mean()), rel=0, abs=1e-12)
        assert hd == pytest.approx(max(d_ab.max(), d_ba.max()), rel=0, abs=1e-12)

    def test_empty_error(self):
        a = point_set([(0.0, 0.0, 0.0)])
        empty = SampleSet(points=np.zeros((0, 3)), normals=np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            chamfer_hausdorff(a, empty)


class TestNormalConsistency:
    def test_identical(self):
        s = sample_surface(synth.icosphere(1), n=1000, seed=0)
        assert normal_consistency(s, s) == pytest.approx(1.0)

    def test_flipped_normals(self):
        pts = np.random.default_rng(0).random((500, 3))
        a = point_set(pts, normal=(0.0, 1.0, 0.0))
        b = SampleSet(points=pts.copy(), normals=-a.normals.copy())
        assert normal_consistency(a, b) == pytest.approx(1.0)

    def test_two_patch_oracle(self):
        # patch 1 around origin (normal +y), patch 2 far away (normal +x);
        # either side pairs to the matching patch, so nc comes from the
        # brute-force oracle over mixed normals
        rng = np.random.default_rng(8)
        p1 = rng.random((40, 3)) * 0.5
        p2 = rng.random((40, 3)) * 0.5 + 100.0
        a_pts = np.vstack([p1, p2])
        a_nrm = np.vstack([np.tile((0.0, 1.0, 0.0), (40, 1)), np.tile((1.0, 0.0, 0.0), (40, 1))])
        b_pts = a_pts + 0.001
        b_nrm = np.vstack([np.tile((0.0, 1.0, 0.0), (40, 1)), np.tile((0.0, 1.0, 0.0), (40, 1))])
        a = SampleSet(points=a_pts, normals=a_nrm)
        b = SampleSet(points=b_pts, normals=b_nrm)

        _, i_ab = brute_nn(a_pts, b_pts)
        _, i_ba = brute_nn(b_pts, a_pts)
        fwd = np.abs((a_nrm * b_nrm[i_ab]).sum(axis=1)).mean()
        bwd = np.abs((b_nrm * a_nrm[i_ba]).sum(axis=1)).mean()
        expected = 0.5 * (fwd + bwd)
        assert normal_consistency(a, b) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5)  # half the pairs are orthogonal


class TestFScore:
    def test_identical_sets(self):
        s = sample_surface(synth.icosphere(1), n=500, seed=0)
        assert f_score(s, s, tau=1e-9) == 1.0

    def test_disjoint_sets(self):
        a = point_set([(0.0, 0.0, 0.0)])
        b = point_set([(10.0, 0.0, 0.0)])
        assert f_score(a, b, tau=0.003) == 0.0

    def test_two_thirds_construction(self):
        # precision 1/2, recall 1 -> f1 = 2/3 exactly
        a = point_set([(0.05, 0.0, 0.0), (5.0, 0.0, 0.0)])
        b = point_set([(0.0, 0.0, 0.0)])
        assert f_score(a, b, tau=0.1) == pytest.approx(2.0 / 3.0)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = point_set(rng.random((120, 3)))
            b = point_set(rng.random((90, 3)))
            taus = [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 2.0]
            scores = [f_score(a, b, tau=t) for t in taus]
            assert scores == sorted(scores)

    def test_invalid_tau(self):
        a = point_set([(0.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            f_score(a, a, tau=0.0)


class TestInvariance:
    def _random_rotation(self, rng):
        m = rng.normal(size=(3, 3))
        q, r = np.linalg.qr(m)
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q

    def test_rigid_invariance(self):
        rng = np.random.default_rng(17)
        base_a = synth.icosphere(1)
        base_b = synth.shift(synth.icosphere(1), dx=0.02)
        ref = compare_meshes(base_a, base_b, n=4000, tau=0.01, seed=5)
        for _ in range(3):
            rot = self._random_rotation(rng)
            shift = rng.normal(size=3)

            def apply(mesh):
                return Mesh(positions=mesh.positions @ rot.T + shift, faces=mesh.faces)

            got = compare_meshes(apply(base_a), apply(base_b), n=4000, tau=0.01, seed=5)
            assert got.nc == pytest.approx(ref.nc, rel=1e-6, abs=1e-9)
            assert got.cd == pytest.approx(ref.cd, rel=1e-6, abs=1e-9)
            assert got.hd == pytest.approx(ref.hd, rel=1e-6, abs=1e-9)
            assert got.f1 == pytest.approx(ref.f1, rel=1e-6)

    def test_self_comparison_exact(self):
        mesh = synth.icosphere(2)
        report = compare_meshes(mesh, mesh, n=2000, seed=7)
        assert report.nc == 1.0 and report.cd == 0.0 and report.hd == 0.0 and report.f1 == 1.0


@pytest.fixture()
def kdtree_count(monkeypatch):
    """Counts k-d trees built through ``striptok.metrics.cKDTree``."""
    built = []

    class CountingKDTree(metrics.cKDTree):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(metrics, "cKDTree", CountingKDTree)
    return built


def near_pair():
    """A reference and a jittered copy: close, but no sample lands on its twin."""
    ref = synth.icosphere(2)
    rng = np.random.default_rng(21)
    pts = ref.positions + rng.normal(scale=0.01, size=(len(ref.positions), 3))
    return ref, Mesh(positions=pts, faces=ref.faces)


class TestSharedNeighbors:
    def test_compare_equals_standalone_functions(self):
        ref, pred = near_pair()
        report = compare_meshes(ref, pred, n=3000, tau=0.01, seed=4)
        a = sample_surface(ref, n=3000, seed=4)
        b = sample_surface(pred, n=3000, seed=4)
        cd, hd = chamfer_hausdorff(a, b)
        assert 0.0 < report.cd < report.hd and 0.0 < report.f1 < 1.0
        assert report.cd == cd and report.hd == hd
        assert report.nc == normal_consistency(a, b)
        assert report.f1 == f_score(a, b, tau=0.01)

    def test_one_pass_builds_two_trees(self, kdtree_count):
        ref, pred = near_pair()
        compare_meshes(ref, pred, n=2000, seed=1)
        assert len(kdtree_count) == 2

    def test_sampled_reference_scores_like_its_mesh(self, kdtree_count):
        ref, pred = near_pair()
        a = sample_surface(ref, n=2000, seed=6)
        first = compare_meshes(a, pred, n=2000, tau=0.01, seed=6)
        assert compare_meshes(a, pred, n=2000, tau=0.01, seed=6) == first
        assert len(kdtree_count) == 3  # the reference's tree is built once
        assert compare_meshes(ref, pred, n=2000, tau=0.01, seed=6) == first
        with pytest.raises(ValueError, match="2000 samples, not n=1000"):
            compare_meshes(a, pred, n=1000)

    def test_precomputed_neighbors_match(self):
        ref, pred = near_pair()
        a = sample_surface(ref, n=2000, seed=2)
        b = sample_surface(pred, n=2000, seed=3)
        nn = metrics._nn(a, b)
        assert chamfer_hausdorff(a, b, nn) == chamfer_hausdorff(a, b)
        assert normal_consistency(a, b, nn) == normal_consistency(a, b)
        assert f_score(a, b, 0.01, nn) == f_score(a, b, 0.01)

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--tau", "0", "tau must be positive"), ("--tau", "nan", "tau must be positive"),
         ("--samples", "0", "n must be at least 1")],
    )
    def test_bad_arguments_fail_before_sampling(self, tmp_path, monkeypatch, kdtree_count, flag, value, message):
        # the CLI rejects at parse time (exit 2) what compare_meshes rejects
        sampled = []
        monkeypatch.setattr(metrics, "sample_surface", lambda *a, **k: sampled.append(1))
        mesh = tmp_path / "ico.obj"
        write_obj(synth.icosphere(1), mesh)
        report = tmp_path / "m.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(mesh), "--ref", str(mesh), flag, value, "--report", str(report)])
        assert exc.value.code == 2 and not report.exists()
        argument = {"tau": float(value)} if flag == "--tau" else {"n": int(value)}
        with pytest.raises(ValueError, match=message):
            compare_meshes(load_obj(mesh), load_obj(mesh), **argument)
        assert sampled == [] and kdtree_count == []

    @pytest.mark.parametrize("workers", [0, -1, 2.0, None, True, np.int64(0)])
    def test_bad_workers_fail_before_sampling(self, monkeypatch, kdtree_count, workers):
        ref, pred = near_pair()
        a, b = point_set([(0.0, 0.0, 0.0)]), point_set([(1.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match="workers must be a positive int"):
            sample_surface(ref, n=100, workers=workers)
        with pytest.raises(ValueError, match="workers must be a positive int"):
            metrics._nn(a, b, workers)
        sampled = []
        monkeypatch.setattr(metrics, "sample_surface", lambda *a, **k: sampled.append(1))
        with pytest.raises(ValueError, match="workers must be a positive int"):
            compare_meshes(ref, pred, n=100, workers=workers)
        assert sampled == [] and kdtree_count == []


@st.composite
def tie_heavy_pairs(draw):
    """Two point sets on a small integer lattice, scaled: duplicate points
    within and across the sets, and many equidistant neighbors.  The second
    set may sit on the lattice shifted by half a step along some axes, where
    every point has several nearest neighbors at exactly one distance."""
    span = draw(st.integers(0, 5))
    sizes = st.integers(1, 120)
    a = draw(arrays(np.int64, st.tuples(sizes, st.just(3)), elements=st.integers(0, span)))
    b = draw(arrays(np.int64, st.tuples(sizes, st.just(3)), elements=st.integers(0, span)))
    if draw(st.booleans()):  # some of a's points in b too
        b = np.vstack([b, a[: draw(st.integers(0, len(a)))]])
    shift = np.array(draw(st.tuples(*[st.sampled_from([0.0, 0.5])] * 3)))
    step = draw(st.sampled_from([1.0, 0.1, 3.7]))
    return point_set(a * step), point_set((b + shift) * step)


class TestNeighborPass:
    @given(tie_heavy_pairs())
    def test_matches_sample_order_queries(self, pair):
        a, b = pair
        got, want = metrics._nn(a, b), nearest_neighbors(a, b)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert [g.dtype for g in got] == [w.dtype for w in want]

    @given(tie_heavy_pairs())
    def test_threaded_pass_matches_sample_order_queries(self, pair):
        want = nearest_neighbors(*pair)
        for workers in (2, 3, 4):
            a, b = (SampleSet(s.points, s.normals) for s in pair)  # no tree built yet
            got = metrics._nn(a, b, workers=workers)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert [g.dtype for g in got] == [w.dtype for w in want]

    def test_numpy_integer_workers(self):
        ref, pred = near_pair()
        want = compare_meshes(ref, pred, n=500, workers=2)
        assert compare_meshes(ref, pred, n=500, workers=np.int64(2)) == want

    def test_threaded_pass_builds_each_tree_once(self, kdtree_count):
        rng = np.random.default_rng(3)
        a, b = point_set(rng.random((300, 3))), point_set(rng.random((200, 3)))
        first = metrics._nn(a, b, workers=2)
        assert "tree" in vars(a) and "tree" in vars(b) and len(kdtree_count) == 2
        again = metrics._nn(a, b, workers=2)
        assert len(kdtree_count) == 2
        assert all(np.array_equal(f, g) for f, g in zip(first, again))
        metrics._nn(a, a, workers=2)
        assert len(kdtree_count) == 2

    def test_passes_on_two_threads_build_their_trees_at_once(self, monkeypatch):
        # two inputs scored at once against one built reference, as a lone
        # CLI process runs them: each build waits for the other, so builds
        # run one after the other (through the ``tree`` cached_property,
        # whose lock before Python 3.12 is every instance's) break the barrier
        rng = np.random.default_rng(6)
        ref = point_set(rng.random((300, 3)))
        ref.tree
        preds = [point_set(rng.random((200, 3))) for _ in range(2)]
        meet = threading.Barrier(2, timeout=5)
        build = metrics.cKDTree

        def meeting_build(points):
            meet.wait()
            return build(points)

        monkeypatch.setattr(metrics, "cKDTree", meeting_build)
        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(lambda pred: metrics._nn(ref, pred, workers=1), preds))
        for pred, nn in zip(preds, got):
            assert all(np.array_equal(g, w) for g, w in zip(nn, nearest_neighbors(ref, pred)))

    def test_threads_beyond_the_cores_on_a_short_switch_interval(self):
        # every thread writes its own rows of shared arrays; a row written
        # twice or not at all would show against the one-thread results
        ref, pred = near_pair()
        want = sample_surface(ref, n=5003, seed=8), sample_surface(pred, n=5003, seed=8)
        want_nn = metrics._nn(*want)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample_surface(ref, n=5003, seed=8, workers=9), sample_surface(pred, n=5003, seed=8, workers=9)
            got_nn = metrics._nn(*got, workers=9)
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            assert g.points.tobytes() == w.points.tobytes() and g.normals.tobytes() == w.normals.tobytes()
        assert all(np.array_equal(g, w) for g, w in zip(got_nn, want_nn))

    def test_queries_run_in_leaf_order(self, monkeypatch):
        queried = []

        class RecordingKDTree(metrics.cKDTree):
            def query(self, x, *args, **kwargs):
                queried.append(np.array(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(metrics, "cKDTree", RecordingKDTree)
        rng = np.random.default_rng(2)
        a, b = point_set(rng.random((300, 3))), point_set(rng.random((200, 3)))
        metrics._nn(a, b)
        assert not np.array_equal(a.tree.indices, np.arange(300))
        assert np.array_equal(queried[0], a.points[a.tree.indices])
        assert np.array_equal(queried[1], b.points[b.tree.indices])

    def test_sample_set_builds_its_tree_once(self, kdtree_count):
        a = point_set(np.random.default_rng(4).random((50, 3)))
        metrics._nn(a, a)
        assert chamfer_hausdorff(a, a) == (0.0, 0.0)
        assert len(kdtree_count) == 1


def per_input_row(ref_path, pred_path, n, seed=0):
    """A ``stats --ref`` row as computed with the reference loaded and sampled for each input."""
    row = {"file": pred_path.name}
    try:
        report = compare_meshes(load_obj(ref_path), load_obj(pred_path), n=n, seed=seed)
    except Exception as exc:  # noqa: BLE001 - the row's error
        row["error"] = f"{type(exc).__name__}: {exc}"
    else:
        row.update({k: round(getattr(report, k), 6) for k in ("nc", "cd", "hd", "f1")})
    return row


@pytest.fixture()
def scored_dir(tmp_path):
    """A reference and three jittered copies of it to score."""
    ref, _ = near_pair()
    write_obj(ref, tmp_path / "ref.obj")
    preds = tmp_path / "preds"
    preds.mkdir()
    rng = np.random.default_rng(5)
    for i in range(3):
        pts = ref.positions + rng.normal(scale=0.01, size=ref.positions.shape)
        write_obj(Mesh(positions=pts, faces=ref.faces), preds / f"pred{i}.obj")
    return tmp_path / "ref.obj", preds


class TestOneReference:
    """``stats --ref`` loads, samples and builds a tree over its reference
    once per call, and reports what scoring each input on its own gave; a
    reference that cannot be loaded or sampled is a usage error."""

    def test_reference_is_loaded_sampled_and_indexed_once(self, scored_dir, monkeypatch, kdtree_count):
        ref, preds = scored_dir
        loaded, sampled = [], []

        def counting_load(path, *args, **kwargs):
            loaded.append(Path(path).name)
            return load_obj(path, *args, **kwargs)

        def counting_sample(mesh, *args, **kwargs):
            sampled.append(mesh)
            return sample_surface(mesh, *args, **kwargs)

        monkeypatch.setattr(cli, "load_obj", counting_load)
        monkeypatch.setattr(metrics, "sample_surface", counting_sample)
        report = preds.parent / "m.jsonl"
        assert main(["stats", str(preds), "--ref", str(ref), "--samples", "2000", "--report", str(report)]) == 0
        assert sorted(loaded) == ["pred0.obj", "pred1.obj", "pred2.obj", "ref.obj"]
        assert len(sampled) == 4  # the reference once, each input once
        assert len(kdtree_count) == 4  # the reference's tree once, one per input
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert rows == [per_input_row(ref, p, 2000) for p in sorted(preds.glob("*.obj"))]

    @pytest.mark.parametrize(
        "ref_text, bad_pred",
        [
            (None, False),  # no such file
            ("v 0 0 0\nf 1 2 3\n", True),  # malformed: its load error wins over the input's
            ("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n", False),  # zero area
            ("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n", True),  # zero area: the input's load error wins
            ("v 0 0 0\nv 1e200 0 0\nv 0 0 1e200\nf 1 2 3\n", False),  # overflowing area
        ],
        ids=["missing", "malformed", "zero_area", "zero_area_bad_input", "overflow"],
    )
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_reference_gives_each_input_its_error_row(self, scored_dir, capsys, ref_text, bad_pred, jobs):
        """A reference that cannot be loaded or sampled gives no input a row:
        the call exits 2 before any input runs, names the reference and its
        error in one stderr line, and writes no report."""
        _, preds = scored_dir
        ref = preds.parent / "bad_ref.obj"
        if ref_text is not None:
            ref.write_text(ref_text)
        if bad_pred:
            (preds / "pred1.obj").write_text("v 0 0 0\nf 1 2 4\n")
        report = preds.parent / "out" / "m.jsonl"
        argv = ["stats", str(preds), "--ref", str(ref), "--samples", "500", "--jobs", jobs, "--report", str(report)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
            with pytest.raises((OSError, ValueError)) as exc:
                sample_surface(load_obj(ref), n=500)
        assert capsys.readouterr().err == f"bad reference {ref}: {exc.typename}: {exc.value}\n"
        assert not report.parent.exists()

    def test_overflowing_input_gives_its_error_row(self, scored_dir):
        ref, preds = scored_dir
        (preds / "pred1.obj").write_text("v 0 0 0\nv 1e200 0 0\nv 0 0 1e200\nf 1 2 3\n")
        report = preds.parent / "m.jsonl"
        assert main(["stats", str(preds), "--ref", str(ref), "--samples", "500", "--report", str(report)]) == 1
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert rows[1] == {"file": "pred1.obj", "error": "ValueError: non-finite surface area"}
        assert "error" not in rows[0] and "error" not in rows[2]
