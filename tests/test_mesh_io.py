from __future__ import annotations

import random

import pytest

from striptok import (
    Mesh,
    ObjParseError,
    corpus_filter,
    load_obj,
    single_island,
    uv_islands,
    write_obj,
)
from striptok.mesh_io import is_edge_manifold

import synth


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadObj:
    def test_minimal_triangle(self, tmp_path):
        p = write_text(tmp_path / "t.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        mesh = load_obj(p)
        assert len(mesh.positions) == 3
        assert mesh.faces == [(0, 1, 2)]
        assert mesh.face_uvs is None

    def test_quad_with_uvs(self, tmp_path):
        text = (
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
            "vt 0 0\nvt 1 0\nvt 1 1\nvt 0 1\n"
            "f 1/1 2/2 3/3 4/4\n"
        )
        mesh = load_obj(write_text(tmp_path / "q.obj", text))
        assert mesh.faces == [(0, 1, 2, 3)]
        assert mesh.face_uvs == [(0, 1, 2, 3)]

    def test_v_vt_vn_syntax(self, tmp_path):
        text = (
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "vt 0 0\nvt 1 0\nvt 0 1\n"
            "vn 0 0 1\n"
            "f 1/1/1 2/2/1 3/3/1\n"
        )
        mesh = load_obj(write_text(tmp_path / "n.obj", text))
        assert mesh.faces == [(0, 1, 2)]
        assert mesh.face_uvs == [(0, 1, 2)]

    def test_mixed_degree_rejected(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 1 2 3 4\n"
        with pytest.raises(ObjParseError, match="mixed"):
            load_obj(write_text(tmp_path / "m.obj", text))

    def test_parse_error_reports_line(self, tmp_path):
        text = "v 0 0 0\nv 1 0 zero\n"
        with pytest.raises(ObjParseError, match="line 2"):
            load_obj(write_text(tmp_path / "b.obj", text))

    def test_index_out_of_range(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nf 1 2 3\n"
        with pytest.raises(ValueError, match="out of range"):
            load_obj(write_text(tmp_path / "r.obj", text))

    def test_degree_5_rejected(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 2 2 0\nf 1 2 3 4 5\n"
        with pytest.raises(ObjParseError, match="degree 5"):
            load_obj(write_text(tmp_path / "p.obj", text))

    def test_crlf_and_comments(self, tmp_path):
        text = "# header\r\nv 0 0 0\r\nv 1 0 0\r\nv 0 1 0\r\ng whatever\r\nf 1 2 3\r\n"
        mesh = load_obj(write_text(tmp_path / "c.obj", text))
        assert mesh.faces == [(0, 1, 2)]

    def test_v_slash_slash_vn(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//1 2//1 3//1\n"
        mesh = load_obj(write_text(tmp_path / "vn.obj", text))
        assert mesh.faces == [(0, 1, 2)]
        assert mesh.face_uvs is None

    def test_negative_index_rejected(self, tmp_path):
        # relative indices may not reach before the first vertex
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -9 -1 -2\n"
        with pytest.raises(ObjParseError, match="line 4: relative index -9"):
            load_obj(write_text(tmp_path / "neg.obj", text))

    def test_zero_index_rejected(self, tmp_path):
        for corner in ("0", "1/0"):
            text = f"v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nf {corner} 2/1 3/1\n"
            with pytest.raises(ObjParseError, match="index 0"):
                load_obj(write_text(tmp_path / "zero.obj", text))

    def test_relative_indices_match_absolute(self, tmp_path):
        # each face refers back to the records defined just before it
        absolute = (
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nvt 0 0\nvt 1 0\nvt 1 1\nvt 0 1\n"
            "f 1/1 2/2 3/3 4/4\n"
            "v 2 0 0\nv 2 1 0\nvt 0.5 0\nvt 0.5 1\n"
            "f 2/2 5/5 6/6 3/3\n"
        )
        relative = (
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nvt 0 0\nvt 1 0\nvt 1 1\nvt 0 1\n"
            "f -4/-4 -3/-3 -2/-2 -1/-1\n"
            "v 2 0 0\nv 2 1 0\nvt 0.5 0\nvt 0.5 1\n"
            "f -5/-5 -2/-2 -1/-1 -4/-4\n"
        )
        a = load_obj(write_text(tmp_path / "abs.obj", absolute))
        r = load_obj(write_text(tmp_path / "rel.obj", relative))
        assert r == a
        assert a.faces == [(0, 1, 2, 3), (1, 4, 5, 2)]


class TestWriteObj:
    def test_round_trip_identity(self, tmp_path):
        mesh = synth.icosphere(1)
        p = tmp_path / "ico.obj"
        write_obj(mesh, p)
        back = load_obj(p)
        # 9 significant digits re-read to the same decimal text
        p2 = tmp_path / "ico2.obj"
        write_obj(back, p2)
        assert p.read_text() == p2.read_text()
        assert back.faces == mesh.faces

    def test_round_trip_exact_for_synthetic_coords(self, tmp_path):
        mesh = synth.tri_grid(3, 3)
        p = tmp_path / "g.obj"
        write_obj(mesh, p)
        back = load_obj(p)
        assert back.positions == mesh.positions
        assert back.faces == mesh.faces

    def test_uv_round_trip(self, tmp_path):
        base = synth.quad_grid(2, 2)
        mesh = synth.with_uv_groups(base, [0, 0, 1, 1])
        p = tmp_path / "uv.obj"
        write_obj(mesh, p)
        back = load_obj(p)
        assert back.faces == mesh.faces
        assert back.face_uvs == mesh.face_uvs

    def test_partition_groups(self, tmp_path):
        base = synth.tri_grid(2, 1)
        mesh = synth.with_uv_groups(base, [0, 0, 1, 1])
        partition = uv_islands(mesh)
        assert partition.island_count == 2
        p = tmp_path / "grp.obj"
        write_obj(mesh, p, partition)
        lines = p.read_text().splitlines()
        groups = [l for l in lines if l.startswith("g ")]
        assert groups == ["g island_0", "g island_1"]

    def test_empty_mesh_error(self, tmp_path):
        with pytest.raises(ValueError, match="empty mesh"):
            write_obj(Mesh(positions=[], faces=[]), tmp_path / "e.obj")


class TestUvIslands:
    def _cube_quads(self):
        positions = [
            (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0),
            (0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (0.0, 1.0, 1.0),
        ]
        faces = [
            (0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
            (2, 3, 7, 6), (1, 2, 6, 5), (0, 4, 7, 3),
        ]
        return positions, faces

    def test_shared_chart_single_island(self):
        positions, faces = self._cube_quads()
        # one uv index per vertex: every shared edge also shares uvs
        mesh = Mesh(
            positions=positions,
            faces=faces,
            uv_coords=[(v / 10.0, v / 10.0) for v in range(8)],
            face_uvs=list(faces),
        )
        assert uv_islands(mesh).island_count == 1

    def test_six_separate_charts(self):
        positions, faces = self._cube_quads()
        mesh = synth.with_uv_groups(
            Mesh(positions=positions, faces=faces), list(range(6))
        )
        partition = uv_islands(mesh)
        assert partition.island_count == 6
        # oracle: brute-force flood fill over uv-matched edges
        comps = synth.oracle_uv_components(mesh)
        assert len(comps) == 6
        groups = {}
        for fi, l in enumerate(partition.island_of_face):
            groups.setdefault(l, set()).add(fi)
        assert sorted(map(sorted, comps)) == sorted(map(sorted, groups.values()))

    def test_seam_splits_two_triangles(self):
        base = Mesh(
            positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
            faces=[(0, 1, 2), (1, 3, 2)],
        )
        mesh = synth.with_uv_groups(base, [0, 1])
        assert uv_islands(mesh).island_count == 2

    def test_partition_is_surjective(self, tmp_path):
        base = synth.torus(12, 6, quads=False)
        mesh = synth.with_uv_groups(base, [fi % 3 == 0 and 0 or 1 for fi in range(len(base.faces))])
        # groups may be disconnected; uv_islands must still cover all faces
        partition = uv_islands(mesh)
        labels = set(partition.island_of_face)
        assert labels == set(range(partition.island_count))
        assert len(partition.island_of_face) == len(base.faces)

    def test_missing_uv_error(self):
        with pytest.raises(ValueError, match="single_island"):
            uv_islands(synth.tri_grid(2, 2))

    def test_single_island_fallback(self):
        mesh = synth.tri_grid(2, 2)
        p = single_island(mesh)
        assert p.island_count == 1
        assert p.island_of_face == [0] * len(mesh.faces)


def grid_with_faces(count):
    """A manifold triangle mesh with exactly `count` faces."""
    n = 1
    while 2 * n * n < count:
        n += 1
    mesh = synth.tri_grid(n, n)
    return Mesh(positions=mesh.positions, faces=mesh.faces[:count])


class TestCorpusFilter:
    def test_face_count_lower_bound(self):
        mesh = grid_with_faces(499)
        res = corpus_filter(mesh)
        assert not res.accepted and res.reason == "face_count"

    def test_face_count_upper_bound(self):
        mesh = grid_with_faces(501)
        assert corpus_filter(mesh).accepted
        big = synth.tri_grid(91, 91)  # 16562 faces
        res = corpus_filter(big)
        assert not res.accepted and res.reason == "face_count"

    def test_vertex_face_ratio(self):
        # ~1000 faces but far more merged vertices than faces (soup-like)
        soup = synth.concat(
            *[synth.shift(synth.tri_grid(1, 1), dx=3.0 * k) for k in range(50)]
        )
        ribbon = synth.tri_ribbon(450)
        mesh = synth.concat(synth.shift(soup, dy=5.0), ribbon)
        assert len(mesh.faces) == 1000
        merged_vertices = len(set(mesh.positions))
        assert merged_vertices > 1000
        res = corpus_filter(mesh)
        assert not res.accepted and res.reason == "vertex_face_ratio"

    def test_accept_with_islands(self):
        base = synth.torus(25, 20, quads=False)  # 1000 triangles, 500 vertices
        mesh = synth.with_uv_groups(base, [fi // 84 for fi in range(len(base.faces))])
        partition = uv_islands(mesh)
        assert partition.island_count == 12
        res = corpus_filter(mesh, partition)
        assert res.accepted and res.reason is None

    def test_island_count_bounds(self):
        base = synth.torus(25, 20, quads=False)
        mesh = synth.with_uv_groups(base, [0] * len(base.faces))
        res = corpus_filter(mesh, uv_islands(mesh))
        assert not res.accepted and res.reason == "island_count"

    def test_island_count_upper_bound(self):
        base = synth.torus(50, 10, quads=False)  # 1000 faces
        mesh = synth.with_uv_groups(base, [fi // 3 for fi in range(len(base.faces))])
        partition = uv_islands(mesh)
        assert partition.island_count > 300
        res = corpus_filter(mesh, partition)
        assert not res.accepted and res.reason == "island_count"

    def test_non_manifold(self):
        mesh = synth.non_manifold_fan()
        res = corpus_filter(mesh)
        assert not res.accepted and res.reason == "manifold"
        assert not is_edge_manifold(mesh)

    def test_manifold_check_merges_duplicates(self):
        # the same edge written through duplicated positions still counts once
        mesh = synth.non_manifold_fan()
        dup = Mesh(
            positions=list(mesh.positions) + [mesh.positions[0], mesh.positions[1]],
            faces=[(0, 1, 2), (5, 6, 3), (0, 1, 4)],
        )
        assert not is_edge_manifold(dup)

    def test_order_independence(self):
        mesh = grid_with_faces(600)
        rng = random.Random(5)
        faces = list(mesh.faces)
        rng.shuffle(faces)
        shuffled = Mesh(positions=mesh.positions, faces=faces)
        assert corpus_filter(mesh).accepted == corpus_filter(shuffled).accepted
