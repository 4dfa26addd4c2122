"""The array decode path against its per-token and per-vertex oracles.

``parse_tokens``, ``_decode_impl``, ``decode_hier``, ``dequantize_mesh`` and
``write_obj`` must return what the versions in ``tests/oracles.py`` return:
the same events and counts, the same meshes and partitions (int64 arrays of
the contract's shapes, equal as lists to the oracle's), report fields
(compared by ``repr``, so a NumPy scalar in place of an ``int`` fails), the
same floats bit for bit, and the same OBJ bytes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from striptok import (
    IDENTITY_TRANSFORM,
    IslandPartition,
    Mesh,
    QuantizedMesh,
    Transform,
    decode_hier,
    dequantize_mesh,
    encode_mesh,
    parse_tokens,
    uv_islands,
    write_obj,
)
from striptok.decode import _decode_impl
from striptok.quantize import pack_keys
from striptok.tokens import C1_T_BASE, C1_UV_BASE, C2_BASE, C3_BASE

import oracles
from oracles import as_arrays, as_lists, dequantize, encode_hier
import synth

# --- token streams ------------------------------------------------------

_GROUPS = ["fine"] * 4 + ["mid"] * 2 + ["vertex", "strip", "strip", "island", "junk"]


@st.composite
def structured_tokens(draw):
    """Grammar-shaped streams over a few codes, so welds, degenerate and
    duplicate faces, and equal codes in two islands are common."""
    pool = draw(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 511), st.integers(0, 4095)),
            min_size=1,
            max_size=5,
        )
    )
    groups = draw(
        st.lists(
            st.tuples(st.sampled_from(_GROUPS), st.integers(0, len(pool) - 1), st.integers(-2, 4801)),
            max_size=60,
        )
    )
    tokens = []
    for group, i, junk in groups:
        c1, c2, c3 = pool[i]
        if group == "strip":
            tokens += [C1_T_BASE + c1, C2_BASE + c2, C3_BASE + c3]
        elif group == "island":
            tokens += [C1_UV_BASE + c1, C2_BASE + c2, C3_BASE + c3]
        elif group == "vertex":
            tokens += [c1, C2_BASE + c2, C3_BASE + c3]
        elif group == "mid":
            tokens += [C2_BASE + c2, C3_BASE + c3]
        elif group == "fine":
            tokens.append(C3_BASE + c3)
        else:
            tokens.append(junk)
    return tokens


def _encoded(mesh, stride, groups=None):
    partition = None
    if groups is not None:
        mesh = synth.with_uv_groups(mesh, groups)
        partition = uv_islands(mesh)
    return encode_mesh(mesh, stride, partition)[2].tokens


_ENCODED = [
    _encoded(synth.tri_grid(4, 4), 1, [0 if f < 16 else 1 for f in range(32)]),
    _encoded(synth.quad_grid(4, 3), 2, [0 if f < 6 else 1 for f in range(12)]),
    _encoded(synth.quad_ribbon(5), 2),
]


@st.composite
def corrupted_tokens(draw):
    """Encoder output with a few ids overwritten."""
    tokens = list(draw(st.sampled_from(_ENCODED)))
    for _ in range(draw(st.integers(0, 6))):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.integers(0, 4799))
    return tokens


TOKEN_STREAMS = st.one_of(
    st.lists(st.integers(-2, 4801), max_size=200),
    structured_tokens(),
    corrupted_tokens(),
)


def _triple(code, base=0):
    c1, c2, c3 = code
    return [base + c1, C2_BASE + c2, C3_BASE + c3]


def _strip(codes, base=C1_T_BASE):
    """A strip head marker, then full plain triples."""
    tokens = _triple(codes[0], base)
    for code in codes[1:]:
        tokens += _triple(code)
    return tokens


_A, _B, _C, _D, _E = (encode_hier(g) for g in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 2)])

NAMED_STREAMS = {
    "empty": [],
    "one_vertex": _strip([_A]),
    "short_strips": _strip([_A, _B]) + _strip([_C]) + _strip([_A, _B, _C]),
    "odd_stride2_strip": _strip([_A, _B, _C, _D, _E]),
    "odd_and_even_strips": _strip([_A, _B, _C]) + _strip([_A, _B, _C, _D, _E, (3, 3, 3), (4, 4, 4)]),
    "welds": _strip([_A, _B, _C, _D]) + _strip([_C, _D, _E, _A]),
    "degenerate": _strip([_A, _B, _B, _C, _C, _C, _D]),
    "all_degenerate": _strip([_A, _A, _A, _A]),
    "duplicates": _strip([_A, _B, _C, _D]) * 3,
    "equal_codes_in_two_islands": (
        _strip([_A, _B, _C, _D], C1_UV_BASE) + _strip([_A, _B, _C, _D], C1_UV_BASE)
    ),
    "leading_plain_head": _strip([_A, _B, _C], 0) + _strip([_B, _C, _D], C1_UV_BASE),
    "consecutive_markers": [C1_T_BASE, C1_UV_BASE + 1] + _strip([_A, _B, _C]),
    "prefix_sharing": _triple(_A, C1_T_BASE) + [C3_BASE + 5, C2_BASE + 9, C3_BASE, C3_BASE + 7],
}


# --- parse_tokens -------------------------------------------------------


def _assert_parse_equal(tokens):
    new = parse_tokens(tokens)
    old = oracles.parse_tokens(tokens)
    assert new.events.dtype == np.int64 and new.events.shape == (len(old.events), 4)
    assert new.events.tolist() == [list(e) for e in old.events]
    assert (new.discarded, new.consumed_tokens) == (old.discarded, old.consumed_tokens)
    new.check(len(tokens))
    return new, old


@given(TOKEN_STREAMS)
@settings(max_examples=300, deadline=None)
def test_parse_matches_oracle(tokens):
    _assert_parse_equal(tokens)


# --- _decode_impl -------------------------------------------------------


def _assert_decode_equal(tokens, stride, drop_duplicates):
    new_stream, old_stream = _assert_parse_equal(tokens)
    transform = Transform((1.0, -2.0, 0.5), 3.0)
    new = _decode_impl(new_stream, stride, transform, drop_duplicates)
    old = oracles._decode_impl(old_stream, stride, transform, drop_duplicates)
    mesh, partition, report = new
    n_faces = len(old[0].faces)
    assert mesh.vertex_keys.dtype == np.int64 and mesh.vertex_keys.shape == (len(old[0].vertex_keys), 3)
    assert mesh.faces.dtype == np.int64 and mesh.faces.shape == (n_faces, stride + 2)
    assert mesh.island_of_face.dtype == np.int64 and mesh.island_of_face.shape == (n_faces,)
    assert partition.island_of_face.dtype == np.int64 and partition.island_of_face.shape == (n_faces,)
    assert as_lists(mesh) == old[0]
    assert repr(as_lists(partition)) == repr(old[1])
    assert repr(report) == repr(old[2])
    report.check(len(new_stream.events), len(mesh.faces))
    return new


@given(TOKEN_STREAMS, st.sampled_from([1, 2]), st.booleans())
@settings(max_examples=400, deadline=None)
def test_decode_matches_oracle(tokens, stride, drop_duplicates):
    _assert_decode_equal(tokens, stride, drop_duplicates)


@pytest.mark.parametrize("drop_duplicates", [True, False])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("name", sorted(NAMED_STREAMS))
def test_decode_named_streams_match_oracle(name, stride, drop_duplicates):
    _assert_decode_equal(NAMED_STREAMS[name], stride, drop_duplicates)


def test_named_streams_reach_every_counter():
    # the hand-written streams exercise what they are named after
    def report(name, stride=1):
        return _assert_decode_equal(NAMED_STREAMS[name], stride, True)[2]

    assert report("welds").welds == 3
    assert report("degenerate").degenerate_faces > 0
    assert report("duplicates").duplicate_faces > 0
    assert report("short_strips").dropped_strips == 2
    mesh, partition, _ = _assert_decode_equal(NAMED_STREAMS["equal_codes_in_two_islands"], 1, True)
    assert partition.island_count == 2 and len(mesh.vertex_keys) == 8
    mesh, _, _ = _assert_decode_equal(NAMED_STREAMS["odd_stride2_strip"], 2, True)
    assert mesh.faces[:, 3].tolist() == [2, -1]


# --- decode_hier --------------------------------------------------------


def _oracle_keys(codes):
    return pack_keys([oracles.decode_hier(tuple(c)) for c in codes]).tolist()


def test_decode_hier_every_code_of_each_level():
    rng = np.random.default_rng(5)
    for level, size in enumerate((64, 512, 4096)):
        codes = np.stack(
            [rng.integers(0, 64, size), rng.integers(0, 512, size), rng.integers(0, 4096, size)], axis=1
        )
        codes[:, level] = np.arange(size)
        assert decode_hier(codes).tolist() == _oracle_keys(codes.tolist())


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 511), st.integers(0, 4095)), max_size=50))
@settings(max_examples=100, deadline=None)
def test_decode_hier_matches_oracle(codes):
    assert decode_hier(codes).tolist() == _oracle_keys(codes)


# --- dequantize_mesh ----------------------------------------------------

_KEY = st.one_of(st.sampled_from([0, 511]), st.integers(0, 511))
_CENTER = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([-0.0, -1.0, -1e-300, -5e-324, -123.456]),
)
_SCALE = st.one_of(
    st.floats(min_value=5e-324, max_value=1e300),
    st.sampled_from([5e-324, 1e-300, 1e-9, 1.0, 1e300, 1.7e308]),
)


@given(
    st.lists(st.tuples(_KEY, _KEY, _KEY), min_size=1, max_size=20),
    st.tuples(_CENTER, _CENTER, _CENTER),
    _SCALE,
)
@settings(max_examples=200, deadline=None)
def test_dequantize_mesh_bit_identical(keys, center, scale):
    t = Transform(center, scale)
    mesh = dequantize_mesh(as_arrays(QuantizedMesh(vertex_keys=keys, faces=[], island_of_face=None, transform=t)))
    got = [tuple(map(float.hex, p)) for p in mesh.positions]
    want = [tuple(map(float.hex, dequantize(g, t))) for g in keys]
    assert got == want


# --- write_obj ----------------------------------------------------------

_COORD = st.one_of(
    st.floats(),
    st.integers(-(10**6), 10**6),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1.0 / 3.0, 1e22]),
)


@st.composite
def obj_meshes(draw):
    """Meshes with mixed tri/quad faces, optional UVs and an optional partition."""
    n = draw(st.integers(1, 8))
    positions = draw(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=n, max_size=n))
    faces = draw(
        st.lists(
            st.one_of(
                st.tuples(*[st.integers(0, n - 1)] * 3),
                st.tuples(*[st.integers(0, n - 1)] * 4),
            ),
            min_size=1,
            max_size=12,
        )
    )
    uv_coords = face_uvs = None
    if draw(st.booleans()):
        m = draw(st.integers(1, 6))
        uv_coords = draw(st.lists(st.tuples(_COORD, _COORD), min_size=m, max_size=m))
        face_uvs = [draw(st.tuples(*[st.integers(0, m - 1)] * len(f))) for f in faces]
    partition = None
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from([0, 1, 2, 5]), min_size=len(faces), max_size=len(faces)))
        partition = as_arrays(IslandPartition(island_of_face=labels, island_count=len(set(labels))))
    return as_arrays(Mesh(positions, faces, uv_coords, face_uvs)), partition


def _obj_bytes(writer, mesh, partition):
    if writer is oracles.write_obj:
        mesh, partition = as_lists(mesh), partition and as_lists(partition)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.obj"
        writer(mesh, path, partition)
        return path.read_bytes()


@given(obj_meshes())
@settings(max_examples=300, deadline=None)
def test_write_obj_matches_oracle(case):
    mesh, partition = case
    assert _obj_bytes(write_obj, mesh, partition) == _obj_bytes(oracles.write_obj, mesh, partition)


def test_write_obj_decoded_mixed_faces_match_oracle():
    # a stride-2 decode with trailing triangles, grouped by island
    tokens = NAMED_STREAMS["odd_and_even_strips"] + NAMED_STREAMS["equal_codes_in_two_islands"]
    mesh_q, partition, _ = _decode_impl(parse_tokens(tokens), 2, IDENTITY_TRANSFORM, True)
    mesh = dequantize_mesh(mesh_q)
    assert set((mesh.faces >= 0).sum(axis=1).tolist()) == {3, 4} and partition.island_count == 3
    for part in (None, partition):
        assert _obj_bytes(write_obj, mesh, part) == _obj_bytes(oracles.write_obj, mesh, part)
