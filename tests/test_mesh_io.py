from __future__ import annotations

import ast
import dataclasses
import random
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import striptok
from striptok import (
    IslandPartition,
    Mesh,
    ObjParseError,
    compare_meshes,
    corpus_filter,
    decode_tokens,
    dequantize_mesh,
    extract_strips,
    load_obj,
    quantize_mesh,
    sample_surface,
    serialize,
    uv_islands,
    write_obj,
)
from striptok import mesh_io
from striptok.mesh_io import is_edge_manifold, on_threads
from striptok.verify import compare_quantized

from oracles import as_arrays, as_lists, mesh_signature
import synth
from test_tokens import manual_strip_set


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadObj:
    def test_minimal_triangle(self, tmp_path):
        p = write_text(tmp_path / "t.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        mesh = load_obj(p)
        assert mesh.positions.dtype == np.float64 and mesh.positions.shape == (3, 3)
        assert mesh.faces.dtype == np.int64 and mesh.faces.tolist() == [[0, 1, 2]]
        assert mesh.uv_coords is None and mesh.face_uvs is None

    def test_quad_with_uvs(self, tmp_path):
        text = (
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
            "vt 0 0\nvt 1 0\nvt 1 1\nvt 0 1\n"
            "f 1/1 2/2 3/3 4/4\n"
        )
        mesh = load_obj(write_text(tmp_path / "q.obj", text))
        assert mesh.faces.tolist() == [[0, 1, 2, 3]]
        assert mesh.face_uvs.dtype == np.int64 and mesh.face_uvs.tolist() == [[0, 1, 2, 3]]
        assert mesh.uv_coords.dtype == np.float64 and mesh.uv_coords.shape == (4, 2)

    def test_v_vt_vn_syntax(self, tmp_path):
        text = (
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "vt 0 0\nvt 1 0\nvt 0 1\n"
            "vn 0 0 1\n"
            "f 1/1/1 2/2/1 3/3/1\n"
        )
        mesh = load_obj(write_text(tmp_path / "n.obj", text))
        assert mesh.faces.tolist() == [[0, 1, 2]]
        assert mesh.face_uvs.tolist() == [[0, 1, 2]]

    def test_mixed_degree_loads_padded(self, tmp_path):
        # a triangle among quads is a 4-column row padded with -1, uvs alike
        text = (
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nvt 0 0\nvt 1 0\nvt 0 1\n"
            "f 1/1 2/2 3/3\nf 1/1 2/2 4/3 3/3\nf -2/-1 -3/-2 -4/-3\n"
        )
        mesh = load_obj(write_text(tmp_path / "m.obj", text))
        assert mesh.faces.dtype == np.int64
        assert mesh.faces.tolist() == [[0, 1, 2, -1], [0, 1, 3, 2], [2, 1, 0, -1]]
        assert mesh.face_uvs.tolist() == [[0, 1, 2, -1], [0, 1, 2, 2], [2, 1, 0, -1]]
        assert mesh.face_degree == 4

    def test_out_of_range_names_first_bad_index(self, tmp_path):
        # in file order, over triangles and quads, before any uv index
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nf 1/9 2/1 3/1\nf 1/1 2/1 7/1 3/1\nf 1/1 5/1 3/1\n"
        with pytest.raises(ValueError, match=r"^face index 7 out of range \(3 vertices\)$"):
            load_obj(write_text(tmp_path / "r.obj", text))
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\nf 1 2 4\n"
        with pytest.raises(ValueError, match=r"^face index 99999999999999999999 out of range"):
            load_obj(write_text(tmp_path / "big.obj", text))
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nf 1/1 2/1 3/1\nf 1/1 2/3 3/2\n"
        with pytest.raises(ValueError, match=r"^uv index 3 out of range \(1 uvs\)$"):
            load_obj(write_text(tmp_path / "t.obj", text))

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
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_v_slash_slash_vn(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//1 2//1 3//1\n"
        mesh = load_obj(write_text(tmp_path / "vn.obj", text))
        assert mesh.faces.tolist() == [[0, 1, 2]]
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
        assert mesh_signature(r) == mesh_signature(a)
        assert a.faces.tolist() == [[0, 1, 2, 3], [1, 4, 5, 2]]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "v 9 9 9\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\n"
        plain = load_obj(write_text(tmp_path / "plain.obj", text))
        marked = load_obj(write_text(tmp_path / "bom.obj", "\ufeff" + text))
        assert mesh_signature(marked) == mesh_signature(plain)
        assert marked.positions[0].tolist() == [9.0, 9.0, 9.0]

    def test_line_numbers_count_newlines_only(self, tmp_path):
        # \u2028, \x85 and \x0c split str.splitlines() but not OBJ lines
        text = "# a\u2028b\x85c\x0cd\r\nv 0 0 0\rv 1 0\n"
        with pytest.raises(ObjParseError, match="line 3: vertex needs 3 coordinates"):
            load_obj(write_text(tmp_path / "n.obj", text))


PARSE_LINES = mesh_io._parse_lines


def _reject_per_line(text):
    raise AssertionError("per-line loop called")


class TestBulkPath:
    """Files the bulk parser takes whole: the per-line loop is never called."""

    @pytest.fixture(autouse=True)
    def no_per_line(self, monkeypatch):
        monkeypatch.setattr(mesh_io, "_parse_lines", _reject_per_line)

    def assert_bulk(self, path):
        text = path.read_text(encoding="utf-8")
        mesh = load_obj(path)
        # the same arrays as the per-line loop, dtypes and shapes included
        assert mesh_signature(mesh) == mesh_signature(PARSE_LINES(text))
        return mesh

    def test_written_with_uvs_and_groups(self, tmp_path):
        base = synth.quad_grid(3, 2)
        mesh = synth.with_uv_groups(base, [0, 1, 0, 2, 1, 2])
        path = tmp_path / "uv.obj"
        write_obj(mesh, path, uv_islands(mesh))
        assert "g island_2" in path.read_text()
        back = self.assert_bulk(path)
        assert back.face_uvs is not None and len(back.faces) == len(mesh.faces)

    def test_decoded_odd_strips(self, tmp_path):
        # a stride-2 decode mixes quads and the trailing triangles of odd strips
        strips = [[(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 2)], [(5, 5, 5), (6, 5, 5), (5, 6, 5)]]
        decoded, partition, _ = decode_tokens(serialize(manual_strip_set(strips, [0, 1], stride=2), uv_mode=True))
        path = tmp_path / "odd.obj"
        write_obj(dequantize_mesh(decoded), path, partition)
        assert partition.island_count == 2
        assert mesh_io._parse_bulk(path.read_text(encoding="utf-8")) is not None
        assert np.array_equal(self.assert_bulk(path).faces, decoded.faces)
        assert decoded.faces[:, 3].tolist() == [2, -1, -1]

    def test_written_without_uvs(self, tmp_path):
        mesh = synth.icosphere(1)
        path = tmp_path / "ico.obj"
        write_obj(mesh, path)
        assert np.array_equal(self.assert_bulk(path).faces, mesh.faces)

    @pytest.mark.parametrize("corner", ["{v}/{v}/1", "{v}//1"])
    def test_normal_corner_forms(self, tmp_path, corner):
        faces = "".join(
            "f " + " ".join(corner.format(v=v) for v in face) + "\n" for face in [(1, 2, 3), (1, 3, 4)]
        )
        text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nvt 0 0\nvt 1 0\nvt 1 1\nvt 0 1\nvn 0 0 1\n" + faces
        mesh = self.assert_bulk(write_text(tmp_path / "n.obj", text))
        assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]
        if "//" in corner:
            assert mesh.face_uvs is None
        else:
            assert mesh.face_uvs.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_comments_and_normals(self, tmp_path):
        text = (
            "# exported mesh \u00e9\n\nmtllib m.mtl\no thing\n"
            "v 0 0 0\nv 1 0 0\n# between\nv 1 1 0\nv 0 1 0\n"
            "vn 0 0 1\nvn 0 0 1\nusemtl red\ns off\n"
            "f 1 2 3 4\n  \n# end\nf 4 3 2 1"
        )
        mesh = self.assert_bulk(write_text(tmp_path / "c.obj", text))
        assert mesh.faces.tolist() == [[0, 1, 2, 3], [3, 2, 1, 0]]

    @pytest.mark.parametrize("face", ["f 1  2 3", "f 1 2 3 ", "f 1\t2 3"])
    def test_face_whitespace(self, tmp_path, face):
        # runs of spaces or tabs and trailing whitespace part corners as
        # single spaces do
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\n" + face + "\n"
        assert self.assert_bulk(write_text(tmp_path / "w.obj", text)).faces.tolist() == [[0, 1, 2]]

    def test_mixed_degrees_with_uvs_and_trailing_spaces(self, tmp_path):
        text = (
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nvt 0 0\nvt 1 0\nvt 1 1\nvt 0 1\n"
            "f 1/1 2/2 3/3 4/4 \nf 1/1 3/3 4/4  \nf 4/4  3/3 2/2\t\n"
        )
        mesh = self.assert_bulk(write_text(tmp_path / "m.obj", text))
        assert mesh.faces.tolist() == [[0, 1, 2, 3], [0, 2, 3, -1], [3, 2, 1, -1]]
        assert np.array_equal(mesh.face_uvs, mesh.faces)


# odd tokens the per-line loop accepts, rejects or reads differently
_ODD_NUMBERS = ["1_0", "+1", "-0", ".5", "1E-2", "nan", "-inf", "Infinity", "1e400", "zero", "1..2", "\u0661", ""]
_ODD_INDICES = ["0", "-1", "-3", "01", "+1", "1_0", "x", "\u0661", "", "99999999999999999999", "000000000000000000001"]
_CORNER_SHAPES = ["{v}", "{v}//{t}", "{v}/{t}", "{v}/{t}/1", "{v}/", "{v}/{t}/x"]
_SKIPPED_LINES = [
    "", "  ", "# comment", "# caf\u00e9 \u2713", "#v 1 2 3", "vn 0 0 1", "vn 0 1", "g island_3", "s off",
    "o thing", "usemtl red", "vp 1 2", "V 1 2 3", "\ufeffv 1 2 3",
]
_ODD_LINES = ["v", "vt", "f", "v 1 2", "\tv 1 2 3", " f 1 2 3", "v 1 2 3 # w", "f 1 2 3 4 5"]
_SPACES = ["\t", "  ", "\x0b", "\xa0", "\u2028"]
_ENDINGS = ["\n"] * 8 + ["\r\n", "\r"]


@st.composite
def obj_texts(draw):
    """OBJ text that is often well formed, with odd lines and tokens mixed in
    at a drawn rate (none in a third of the examples)."""
    rate = draw(st.sampled_from([0, 0, 8, 40]))
    odd = st.integers(1, rate) if rate else st.just(0)  # 1: this field is odd

    def field(strategy, odd_values):
        return draw(st.sampled_from(odd_values)) if draw(odd) == 1 else draw(strategy)

    def record(tag, values):
        line = tag + "".join(field(st.just(" "), _SPACES) + value for value in values)
        return draw(st.sampled_from(_SPACES)) + line if draw(odd) == 1 else line

    number = st.one_of(st.integers(-9, 9).map(str), st.floats(allow_nan=False, allow_infinity=False).map(repr))
    n_v = draw(st.sampled_from([0, 3, 4, 6]))
    n_vt = draw(st.sampled_from([0, 0, 3, 5]))
    degree = draw(st.sampled_from([3, 4]))
    form = draw(st.sampled_from(_CORNER_SHAPES[:4] if n_vt else _CORNER_SHAPES[:2]))
    lines = []
    for _ in range(n_v):
        lines.append(record("v", [field(number, _ODD_NUMBERS) for _ in range(3 + (draw(odd) == 1))]))
    for _ in range(n_vt):
        lines.append(record("vt", [field(number, _ODD_NUMBERS) for _ in range(2 + (draw(odd) == 1))]))
    for _ in range(draw(st.integers(0, 5)) if n_v else 0):
        d = draw(st.sampled_from([2, 5, 7 - degree])) if draw(odd) == 1 else degree
        corners = []
        for _ in range(d):
            shape = draw(st.sampled_from(_CORNER_SHAPES)) if draw(odd) == 1 else form
            v = field(st.integers(1, n_v + (draw(odd) == 1)).map(str), _ODD_INDICES)
            t = field(st.integers(1, max(n_vt, 1)).map(str), _ODD_INDICES)
            corners.append(shape.format(v=v, t=t))
        lines.append(record("f", corners))
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 4))):
        other = _ODD_LINES if draw(odd) == 1 else _SKIPPED_LINES
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(other)))
    text = "".join(line + draw(st.sampled_from(_ENDINGS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _outcome(fn, *args):
    """:func:`mesh_signature` of ``fn(*args)``, or ``"raised"`` and the type
    and message of what it raised."""
    try:
        return mesh_signature(fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared across parsers
        return "raised", type(exc), str(exc)


@given(obj_texts())
@settings(max_examples=400, deadline=None)
def test_bulk_parse_equals_per_line_loop(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.obj"
        path.write_text(text, encoding="utf-8", newline="")
        decoded = path.read_text(encoding="utf-8-sig")  # universal newlines, as load_obj reads
        want = _outcome(PARSE_LINES, decoded)
        bulk = mesh_io._parse_bulk(decoded)
        if bulk is not None:
            assert mesh_signature(bulk) == want
        if want[0] == "raised":
            assert bulk is None
        assert _outcome(load_obj, path) == want


# every function a caller's Mesh enters by, as a call of (mesh, path): only
# write_obj writes to the path
MESH_ENTRY_POINTS = {
    "write_obj": write_obj,
    "uv_islands": lambda mesh, path: uv_islands(mesh),
    "quantize_mesh": lambda mesh, path: quantize_mesh(mesh),
    "is_edge_manifold": lambda mesh, path: is_edge_manifold(mesh),
    "corpus_filter": lambda mesh, path: corpus_filter(mesh),
    "sample_surface": lambda mesh, path: sample_surface(mesh, n=16),
    "compare_meshes": lambda mesh, path: compare_meshes(synth.tri_grid(1, 1), mesh, n=16),
}


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
        assert np.array_equal(back.faces, mesh.faces)

    def test_round_trip_exact_for_synthetic_coords(self, tmp_path):
        mesh = synth.tri_grid(3, 3)
        p = tmp_path / "g.obj"
        write_obj(mesh, p)
        back = load_obj(p)
        assert mesh_signature(back) == mesh_signature(mesh)

    def test_uv_round_trip(self, tmp_path):
        base = synth.quad_grid(2, 2)
        mesh = synth.with_uv_groups(base, [0, 0, 1, 1])
        p = tmp_path / "uv.obj"
        write_obj(mesh, p)
        back = load_obj(p)
        assert np.array_equal(back.faces, mesh.faces)
        assert np.array_equal(back.face_uvs, mesh.face_uvs)

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
            write_obj(as_arrays(Mesh(positions=[], faces=[])), tmp_path / "e.obj")

    # Meshes that load_obj would not read back as given: write_obj raises
    # before it opens the file, and every other entry point raises too.  A
    # trailing "f ..." comment is the line that writing the mesh unchecked
    # would give.
    SQUARE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    TWO_UVS = np.array([[0.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("entry", MESH_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "faces, uv_coords, face_uvs, match",
        [
            ([[0, -1, 2, 3]], None, None, r"faces row 0 is \[0, -1, 2, 3\]"),  # f 1 3 4
            ([[0, 1, 2, -2]], None, None, r"faces row 0 is \[0, 1, 2, -2\]"),  # f 1 2 3
            ([[0, 1, -1, -1]], None, None, r"faces row 0 is \[0, 1, -1, -1\]"),  # f 1 2
            ([[0, 1, 2, 7]], None, None, r"faces row 0 .* in \[0, 4\)"),  # f 1 2 3 8
            ([[0, 1, 2], [1, 2, 3]], TWO_UVS, [[0, 1, 0], [0, 1, 5]], r"face_uvs row 1 .* in \[0, 2\)"),  # f 2/1 3/2 4/6
            ([[0, 1, 2, 3]], TWO_UVS, [[0, 1, 0, -1]], "the pads of faces"),  # f 1/1 2/2 3/1 4/0
            ([[0, 1, 2, -1]], TWO_UVS, [[0, 1, 0, 1]], "the pads of faces"),  # a uv under a pad
            ([[0, 1, 2]], TWO_UVS, [[0, 1, 0, -1]], "the pads of faces"),  # 4 uv columns on 3
            ([[0, 1, 2]], TWO_UVS, [[0, 1, 0], [1, 0, 1]], "the pads of faces"),  # a uv row too many
            ([[0, 1, 2]], TWO_UVS[:, :1], [[0, 1, 0]], r"uv_coords must be \(T, 2\)"),
            ([[0, 1]], None, None, "faces must have 3 or 4 columns"),
            ([[0, 1, 2]], TWO_UVS[:, :1], None, r"uv_coords must be \(T, 2\)"),  # vt 0 and vt 1 with f 1 2 3
            ([[0, 1, 2]], None, [[0, 1, 0]], "face_uvs without uv_coords"),  # f 1 2 3, its uvs lost
            ([[0.0, 1.0, 2.0]], None, None, "faces must be an integer array"),  # f 1.0 2.0 3.0
            ([[0, 1, 2]], TWO_UVS, [[0.0, 1.0, 0.0]], "face_uvs must be an integer array"),
        ],
    )
    def test_rejects_what_load_obj_would_not_read_back(self, tmp_path, faces, uv_coords, face_uvs, match, entry):
        mesh = Mesh(self.SQUARE, np.array(faces), uv_coords, None if face_uvs is None else np.array(face_uvs))
        path = tmp_path / "bad.obj"
        with pytest.raises(ValueError, match=match):
            MESH_ENTRY_POINTS[entry](mesh, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "labels, match",
        [
            ([0] * 8, "1-D integer array"),  # a list, as quantize_mesh takes
            (np.zeros(8), "1-D integer array"),
            (np.zeros(8, dtype=bool), "1-D integer array"),
            (np.zeros((8, 1), dtype=np.int64), "1-D integer array"),
            (np.zeros(7, dtype=np.int64), "partition does not match face count"),
            (np.zeros(9, dtype=np.int32), "partition does not match face count"),
        ],
        ids=["list", "float", "bool", "2d", "short", "long"],
    )
    def test_rejects_labels_that_are_not_one_int_per_face(self, tmp_path, labels, match):
        path = tmp_path / "bad.obj"
        with pytest.raises(ValueError, match=match):
            write_obj(synth.tri_grid(2, 2), path, IslandPartition(labels, 1))
        assert not path.exists()

    def test_int32_labels_write_as_int64(self, tmp_path):
        mesh = synth.tri_grid(2, 2)
        labels = np.arange(8) % 3
        write_obj(mesh, tmp_path / "a.obj", IslandPartition(labels.astype(np.int32), 3))
        write_obj(mesh, tmp_path / "b.obj", IslandPartition(labels, 3))
        assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_positions(self, tmp_path, bad):
        # load_obj rejects the "v nan 0 0" or "v inf 0 0" line this would write
        positions = self.SQUARE.copy()
        positions[2, 0] = bad
        path = tmp_path / "bad.obj"
        with pytest.raises(ValueError, match="non-finite vertex coordinate"):
            write_obj(Mesh(positions, np.array([[0, 1, 2]])), path)
        assert not path.exists()

    def test_uvs_without_face_uvs_round_trip(self, tmp_path):
        # vt records with plain face corners: load_obj keeps the uvs but no
        # face_uvs, and write_obj writes the vt block back
        text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nvt 0.25 0\nvt 1 0.5\nvt -0 1e-07\nf 1 2 3 4\nf 1 3 2\n"
        first = load_obj(write_text(tmp_path / "a.obj", text))
        assert first.face_uvs is None and first.uv_coords.shape == (3, 2)
        write_obj(first, tmp_path / "b.obj")
        assert (tmp_path / "b.obj").read_text() == text
        assert mesh_signature(load_obj(tmp_path / "b.obj")) == mesh_signature(first)

    def test_empty_uvs_without_face_uvs_write_no_vt_block(self, tmp_path):
        mesh = Mesh(self.SQUARE, np.array([[0, 1, 2]]), np.empty((0, 2)))
        write_obj(mesh, tmp_path / "m.obj")
        assert b"vt" not in (tmp_path / "m.obj").read_bytes()
        assert load_obj(tmp_path / "m.obj").uv_coords is None

    def test_rejects_positions_not_three_wide(self, tmp_path):
        path = tmp_path / "bad.obj"
        with pytest.raises(ValueError, match=r"positions must be \(V, 3\)"):
            write_obj(Mesh(self.SQUARE[:, :2], np.array([[0, 1, 2]])), path)
        assert not path.exists()


@pytest.mark.parametrize("entry", MESH_ENTRY_POINTS)
@pytest.mark.parametrize(
    "bad, match", [("nan", "^non-finite vertex coordinate$"), ("2d", r"^positions must be \(V, 3\)")]
)
def test_entry_points_check_positions(tmp_path, bad, match, entry):
    mesh = synth.tri_grid(3, 3)
    positions = mesh.positions.copy()
    positions[4, 1] = np.nan
    mesh = Mesh(positions if bad == "nan" else mesh.positions[:, :2], mesh.faces)
    with pytest.raises(ValueError, match=match):
        MESH_ENTRY_POINTS[entry](mesh, tmp_path / "bad.obj")


@pytest.mark.parametrize("index", [-3, "V"])
@pytest.mark.parametrize("entry", [quantize_mesh, is_edge_manifold, sample_surface, uv_islands, corpus_filter])
def test_entry_points_check_face_indices(entry, index):
    # as write_obj does: no index counts from the end or reads past the positions
    mesh = synth.tri_grid(3, 3)
    faces = mesh.faces.copy()
    faces[2, 1] = len(mesh.positions) if index == "V" else index
    with pytest.raises(ValueError, match=r"^faces row 2 is "):
        entry(Mesh(mesh.positions, faces))


@pytest.mark.parametrize("index", [-3, "V"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda bad, good: extract_strips(bad, 1),
        lambda bad, good: compare_quantized(bad, good),
        lambda bad, good: compare_quantized(good, bad),
    ],
    ids=["extract_strips", "compare_quantized_source", "compare_quantized_decoded"],
)
def test_quantized_entry_points_check_face_indices(entry, index):
    # no face index counts from the end or reads past the vertex keys
    good = quantize_mesh(synth.tri_grid(3, 3))
    faces = good.faces.copy()
    faces[2, 1] = len(good.vertex_keys) if index == "V" else index
    with pytest.raises(ValueError, match=r"^faces row 2 is "):
        entry(dataclasses.replace(good, faces=faces), good)


def test_array_contract_is_checked_in_one_place():
    # the index-row rules (_check_corners) and the label rules (_check_labels)
    # are called only by the check of each mesh type, which every entry
    # point calls: an inline copy elsewhere would be a second wording
    helpers = ("_check_corners", "_check_labels")
    callers = {name: set() for name in helpers}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in helpers:
                    callers[name].add(f"{path.stem}.{scope}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    for path in sorted(Path(striptok.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    checks = {"mesh_io.check_mesh", "quantize.check_quantized"}
    assert callers == {name: checks for name in helpers}


class TestOnThreads:
    @pytest.mark.parametrize("n", range(8))
    def test_each_index_once_on_min_threads_n_the_caller_among_them(self, n):
        # the first k items meet at a k-party barrier, so they run at once on
        # k distinct threads; with one thread fewer, or the caller idle, the
        # barrier breaks
        caller = threading.get_ident()
        for threads in range(1, 10):
            k = min(threads, n)
            meet = threading.Barrier(max(k, 1), timeout=5)
            ran = []

            def item(i):
                ran.append((i, threading.get_ident()))
                if i < k:
                    meet.wait()

            on_threads(item, n, threads)
            assert sorted(i for i, _ in ran) == list(range(n))
            idents = {ident for _, ident in ran}
            assert len(idents) == k
            assert caller in idents or n == 0

    @pytest.mark.parametrize("n, threads", [(0, 1), (0, 4), (1, 9), (5, 1), (2, 2), (7, 3), (3, 9)])
    def test_a_pool_starts_only_for_two_threads_or_more(self, recording_threads, n, threads):
        ran = []
        on_threads(ran.append, n, threads)
        assert sorted(ran) == list(range(n))
        k = min(threads, n)
        assert recording_threads == ([k - 1] if k > 1 else [])

    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_an_items_error_is_reraised_after_the_others_return(self, failing):
        caller = threading.get_ident()
        meet = threading.Barrier(2, timeout=5)
        done = []

        def item(i):
            meet.wait()  # one item on each thread
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise ValueError(f"item {i} failed")
            time.sleep(0.05)
            done.append(i)

        with pytest.raises(ValueError, match=r"^item [01] failed$"):
            on_threads(item, 2, 2)
        assert len(done) == 1

    def test_the_runner_is_the_one_thread_pool(self):
        # ``ThreadPoolExecutor`` is named in one function under ``src/``: the runner
        starts = set()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Name) and child.id == "ThreadPoolExecutor":
                    starts.add(f"{path.stem}.{scope}")
                visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

        for path in sorted(Path(striptok.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
        assert starts == {"mesh_io.on_threads"}


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
        mesh = as_arrays(
            Mesh(
                positions=positions,
                faces=faces,
                uv_coords=[(v / 10.0, v / 10.0) for v in range(8)],
                face_uvs=list(faces),
            )
        )
        assert uv_islands(mesh).island_count == 1

    def test_six_separate_charts(self):
        positions, faces = self._cube_quads()
        mesh = synth.with_uv_groups(as_arrays(Mesh(positions=positions, faces=faces)), list(range(6)))
        partition = uv_islands(mesh)
        assert partition.island_count == 6
        # oracle: brute-force flood fill over uv-matched edges
        comps = synth.oracle_uv_components(mesh)
        assert len(comps) == 6
        groups = {}
        for fi, l in enumerate(partition.island_of_face.tolist()):
            groups.setdefault(l, set()).add(fi)
        assert sorted(map(sorted, comps)) == sorted(map(sorted, groups.values()))

    def test_seam_splits_two_triangles(self):
        base = as_arrays(
            Mesh(
                positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
                faces=[(0, 1, 2), (1, 3, 2)],
            )
        )
        mesh = synth.with_uv_groups(base, [0, 1])
        assert uv_islands(mesh).island_count == 2

    def test_partition_is_surjective(self, tmp_path):
        base = synth.torus(12, 6, quads=False)
        mesh = synth.with_uv_groups(base, [fi % 3 == 0 and 0 or 1 for fi in range(len(base.faces))])
        # groups may be disconnected; uv_islands must still cover all faces
        partition = uv_islands(mesh)
        labels = set(partition.island_of_face.tolist())
        assert labels == set(range(partition.island_count))
        assert len(partition.island_of_face) == len(base.faces)

    def test_no_uv_indices_is_one_island(self):
        mesh = synth.tri_grid(2, 2)
        p = uv_islands(mesh)
        assert p.island_count == 1
        assert p.island_of_face.dtype == np.int64
        assert p.island_of_face.tolist() == [0] * len(mesh.faces)

    @pytest.mark.parametrize("with_uvs", [False, True])
    def test_no_faces_is_no_island(self, with_uvs):
        # as QuantizedMesh.island_count() counts it
        mesh = synth.tri_grid(2, 2)
        face_uvs = mesh.faces[:0] if with_uvs else None
        p = uv_islands(Mesh(mesh.positions, mesh.faces[:0], mesh.positions[:, :2], face_uvs))
        assert p.island_count == 0 and len(p.island_of_face) == 0


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
        merged_vertices = len(set(as_lists(mesh).positions))
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

    def test_island_count_is_read_from_the_labels(self):
        mesh = synth.torus(32, 16)  # 512 quads: passes every other rule
        assert corpus_filter(mesh).accepted
        nfaces = len(mesh.faces)
        res = corpus_filter(mesh, IslandPartition(np.zeros(nfaces, dtype=np.int64), island_count=12))
        assert not res.accepted and res.reason == "island_count"
        twelve = np.arange(nfaces) * 12 // nfaces
        assert corpus_filter(mesh, IslandPartition(twelve, island_count=1)).accepted

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
            positions=mesh.positions[[0, 1, 2, 3, 4, 0, 1]],
            faces=np.array([(0, 1, 2), (5, 6, 3), (0, 1, 4)]),
        )
        assert not is_edge_manifold(dup)

    @pytest.mark.parametrize(
        "labels, match",
        [
            (np.zeros(7, dtype=np.int64), "partition does not match face count"),
            (np.zeros(9, dtype=np.int64), "partition does not match face count"),
            (np.zeros(8), "1-D integer array"),
        ],
        ids=["short", "long", "float"],
    )
    def test_partition_is_checked_before_any_rule(self, labels, match):
        # 8 faces fail the face count, which is not reached
        with pytest.raises(ValueError, match=match):
            corpus_filter(synth.tri_grid(2, 2), IslandPartition(labels, 1))

    def test_order_independence(self):
        mesh = grid_with_faces(600)
        rng = random.Random(5)
        order = list(range(len(mesh.faces)))
        rng.shuffle(order)
        shuffled = Mesh(positions=mesh.positions, faces=mesh.faces[order])
        assert corpus_filter(mesh).accepted == corpus_filter(shuffled).accepted
