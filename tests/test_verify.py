"""``compare_quantized`` against the per-face reference in ``oracles``.

``compare_quantized`` takes a source with one face per key set, as
``quantize_mesh`` returns it, and raises ``ValueError`` on any other; the
oracle also compares such sources, and is the reference for every other
pair.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from striptok import Mesh, QuantizedMesh, decode_tokens, encode_mesh, uv_islands
from striptok.verify import compare_quantized

from striptok.tokens import C1_T_BASE, C2_BASE, C3_BASE

import oracles
from oracles import IDENTITY_TRANSFORM, as_arrays, as_lists
import synth


@st.composite
def round_trips(draw):
    """A random tri or quad grid, encoded and decoded: (source, decoded)."""
    quads = draw(st.booleans())
    nx, nz = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    base = synth.quad_grid(nx, nz) if quads else synth.tri_grid(nx, nz)
    heights = draw(st.lists(st.floats(0.0, 3.0), min_size=len(base.positions), max_size=len(base.positions)))
    positions = base.positions.copy()
    positions[:, 1] = heights
    mesh = Mesh(positions=positions, faces=base.faces)
    regions = draw(st.one_of(st.none(), st.integers(1, 6)))
    partition = None
    if regions is not None:
        mesh = synth.with_uv_groups(mesh, synth.grown_regions(mesh, regions))
        partition = uv_islands(mesh)
    source, _, seq = encode_mesh(mesh, 2 if quads else 1, partition)
    decoded, _, _ = decode_tokens(seq)
    return as_lists(source), as_lists(decoded)


def _perturb(q: QuantizedMesh, kind: str, i: int, j: int) -> QuantizedMesh:
    """``q``, in list form, with one defect of the given kind; ``i``/``j`` pick faces."""
    faces, labels = list(q.faces), list(q.island_of_face)
    i, j = i % len(faces), j % len(faces)
    a, b = labels[i], labels[j]
    if kind == "reverse":
        faces[i] = faces[i][::-1]
    elif kind == "reflect":
        # swap two neighbouring corners: same key set, not a rotation
        f = faces[i]
        faces[i] = (f[1], f[0]) + f[2:]
    elif kind == "swap":
        labels = [b if l == a else a if l == b else l for l in labels]
    elif kind == "merge":
        labels = [a if l == b else l for l in labels]
    elif kind == "split":
        labels = [max(labels) + 1 if l == a and k >= i else l for k, l in enumerate(labels)]
    elif kind == "move":
        labels[i] = b
    elif kind == "drop":
        del faces[i], labels[i]
    elif kind == "replace":
        keys = list(q.vertex_keys) + [(511, 511, 511)]
        faces[i] = (len(keys) - 1,) + faces[i][1:]
        return QuantizedMesh(keys, faces, labels, q.transform)
    elif kind == "duplicate":
        faces.append(faces[i])
        labels.append(b)
    return replace(q, faces=faces, island_of_face=labels)


KINDS = ["reverse", "reflect", "swap", "merge", "split", "move", "drop", "replace", "duplicate"]


@given(
    round_trips(),
    st.one_of(st.none(), st.sampled_from(KINDS)),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(["source", "decoded", "both"]),
)
@settings(max_examples=50, deadline=None)
def test_compare_matches_oracle(case, kind, i, j, side):
    source, decoded = case
    if kind is not None:
        # a duplicated face in the source raises; in the decoded mesh only, it is one face too many
        if side != "decoded":
            source = _perturb(source, kind, i, j)
        if side != "source":
            decoded = _perturb(decoded, kind, i, j)
    assert_matches_oracle(source, decoded)


def _repeats_key_set(q: QuantizedMesh) -> bool:
    sets = oracles._face_coord_sets(q)
    return len(set(sets)) < len(sets)


def assert_matches_oracle(source: QuantizedMesh, decoded: QuantizedMesh):
    """The package's result on the arrays of two list-form meshes is the
    oracle's, or a ``ValueError`` where the source repeats a key set."""
    if _repeats_key_set(source):
        with pytest.raises(ValueError, match="^source repeats a face key set$"):
            compare_quantized(as_arrays(source), as_arrays(decoded))
        return
    assert compare_quantized(as_arrays(source), as_arrays(decoded)) == oracles.compare_quantized(source, decoded)


def _mesh(keys, faces, labels=None):
    """A list-form mesh; without labels, every face is in island 0."""
    return QuantizedMesh(keys, faces, labels or [0] * len(faces), IDENTITY_TRANSFORM)


SQUARE = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]


def test_clean_pair_passes():
    q = _mesh(SQUARE, [(0, 1, 2), (0, 2, 3)], [0, 1])
    rotated = _mesh(SQUARE[::-1], [(1, 0, 3), (2, 1, 3)], [5, 2])
    assert compare_quantized(as_arrays(q), as_arrays(rotated)) == (True, "")


def test_stride2_decode_with_trailing_triangle():
    # an odd strip appended to a quad sequence decodes to a -1-padded row
    q, _, seq = encode_mesh(synth.quad_grid(3, 3), 2)
    seq.tokens = seq.tokens.tolist() + [C1_T_BASE, C2_BASE, C3_BASE + 1] + [C3_BASE + c for c in (2, 3, 4, 5)]
    decoded, _, _ = decode_tokens(seq)
    assert as_lists(decoded).faces[-2:] == [(16, 17, 19, 18), (18, 19, 20)]
    assert decoded.faces[-1].tolist() == [18, 19, 20, -1]
    assert compare_quantized(q, decoded) == (False, "face multiset mismatch: 0 missing, 2 extra (9 vs 11 faces)")
    assert_matches_oracle(as_lists(q), as_lists(decoded))


def test_edge_cases_match_oracle():
    tri = _mesh(SQUARE, [(0, 1, 2), (0, 2, 3)], [0, 1])
    cases = [
        (_mesh([], []), _mesh([], [])),
        (tri, _mesh([], [])),
        (_mesh([], []), tri),
        # repeated key sets, with different labels or windings on each side:
        # a source that holds them raises, a decoded mesh has faces too many
        (_mesh(SQUARE, [(0, 1, 2), (0, 1, 2)], [0, 1]), _mesh(SQUARE, [(0, 1, 2), (0, 1, 2)], [0, 0])),
        (_mesh(SQUARE, [(0, 1, 2), (1, 2, 0)], [0, 1]), _mesh(SQUARE, [(2, 0, 1), (0, 1, 2)], [3, 4])),
        (_mesh(SQUARE, [(0, 1, 2), (0, 2, 1)], [0, 1]), _mesh(SQUARE, [(0, 1, 2), (0, 1, 2)], [0, 1])),
        (_mesh(SQUARE, [(0, 2, 1), (0, 1, 2)], [0, 1]), _mesh(SQUARE, [(0, 1, 2), (0, 1, 2)], [0, 1])),
        # degenerate faces and faces of another degree with the same key set
        (_mesh(SQUARE, [(0, 1, 2, 2)]), _mesh(SQUARE, [(0, 1, 2)])),
        (_mesh(SQUARE, [(0, 0, 1)]), _mesh(SQUARE, [(0, 1, 1)])),
        (_mesh(SQUARE, [(0, 1, 2, 3)]), _mesh(SQUARE, [(0, 1, 2)])),
        # keys off the 512 grid are compared as plain tuples
        (_mesh([(0, 0, 512), (0, 1, 0), (2, 0, 0)], [(0, 1, 2)]), _mesh([(0, 1, 0), (0, 0, 512), (2, 0, 0)], [(1, 0, 2)])),
        (_mesh([(0, 0, 512), (0, 1, 0), (2, 0, 0)], [(0, 1, 2)]), _mesh([(0, 1, 0), (0, 1, 0), (2, 0, 0)], [(1, 0, 2)])),
        (_mesh([(-1, 0, 0), (0, 1, 0), (2, 0, 0)], [(0, 1, 2)]), _mesh([(-1, 0, 0), (0, 1, 0), (2, 0, 0)], [(0, 2, 1)])),
        # triangles among quads (-1-padded rows): rotated, reflected, against
        # a triangle mesh, and with repeated key sets
        (_mesh(SQUARE, [(0, 1, 2, 3), (0, 1, 2)]), _mesh(SQUARE, [(1, 2, 0), (2, 3, 0, 1)])),
        (_mesh(SQUARE, [(0, 1, 2, 3), (0, 1, 2)]), _mesh(SQUARE, [(0, 2, 1), (0, 1, 2, 3)])),
        (_mesh(SQUARE, [(0, 1, 2), (0, 2, 3)], [0, 1]), _mesh(SQUARE, [(2, 0, 1), (3, 0, 2), (0, 1, 2, 3)], [1, 0, 0])),
        (_mesh(SQUARE, [(0, 1, 2), (0, 2, 3)], [0, 1]), _mesh(SQUARE, [(2, 0, 1), (3, 0, 2)], [1, 0])),
        (_mesh(SQUARE, [(0, 1, 2, 3), (0, 1, 2), (1, 2, 0)], [0, 1, 1]), _mesh(SQUARE, [(0, 1, 2), (3, 0, 1, 2), (0, 1, 2)], [2, 0, 2])),
        (_mesh(SQUARE, [(0, 1, 2, 3), (0, 1, 2), (1, 2, 0)], [0, 1, 2]), _mesh(SQUARE, [(0, 1, 2), (3, 0, 1, 2), (0, 1, 2)], [2, 0, 2])),
        (_mesh(SQUARE, [(0, 1, 2, 2), (0, 1, 2)]), _mesh(SQUARE, [(0, 1, 2), (0, 1, 2, 2)])),
        # a source row that repeats a code is a rotation of the decoded row
        # that starts at the code's other occurrence
        (_mesh(SQUARE, [(0, 1, 0, 2)]), _mesh(SQUARE, [(0, 2, 0, 1)])),
        (_mesh(SQUARE, [(0, 1, 2, 2)]), _mesh(SQUARE, [(2, 0, 1, 2)])),
    ]
    for source, decoded in cases:
        assert_matches_oracle(source, decoded)
        assert_matches_oracle(decoded, source)


@pytest.mark.parametrize("side", ["source", "decoded"])
@pytest.mark.parametrize(
    "labels, match",
    [
        ([0], "^1 island labels for 2 faces$"),
        ([0, 1, 1], "^3 island labels for 2 faces$"),
        ([0.0, 1.0], "^partition labels must be a 1-D integer array$"),
    ],
    ids=["short", "long", "float"],
)
def test_one_integer_island_label_per_face(labels, match, side):
    good = as_arrays(_mesh(SQUARE, [(0, 1, 2), (0, 2, 3)], [0, 1]))
    bad = replace(good, island_of_face=np.array(labels))
    with pytest.raises(ValueError, match=match):
        compare_quantized(bad, good) if side == "source" else compare_quantized(good, bad)


def test_repeated_key_set_raises_in_the_source_only():
    once = _mesh(SQUARE, [(0, 1, 2), (0, 2, 3)])
    twice = _mesh(SQUARE, [(0, 1, 2), (0, 2, 3), (1, 2, 0)])
    with pytest.raises(ValueError, match="^source repeats a face key set$"):
        compare_quantized(as_arrays(twice), as_arrays(once))
    want = (False, "face multiset mismatch: 0 missing, 0 extra (2 vs 3 faces)")
    assert compare_quantized(as_arrays(once), as_arrays(twice)) == want == oracles.compare_quantized(once, twice)
