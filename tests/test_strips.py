from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from striptok import (
    Mesh,
    QuantizedMesh,
    decode_tokens,
    encode_mesh,
    extract_strips,
    quantize_mesh,
    uv_islands,
)
from striptok.verify import compare_quantized

import oracles
import synth
from oracles import IDENTITY_TRANSFORM, as_arrays, as_lists, key_order, strip_faces, strip_lists, strip_set, to_grid


def quantize(mesh, partition=None):
    return quantize_mesh(mesh, partition)


def face_coord_multiset(q, faces):
    keys = as_lists(q).vertex_keys
    return Counter(frozenset(keys[v] for v in f) for f in faces)


def all_strip_faces(strip_set):
    out = []
    for keys, _ in strip_lists(strip_set):
        out.extend(strip_faces(keys, strip_set.stride))
    return out


def is_rotation(a, b):
    n = len(a)
    return len(b) == n and any(tuple(a) == tuple(b[(k + i) % n] for i in range(n)) for k in range(n))


class TestKeyOrder:
    def test_vertical_axis_dominates(self):
        # sort keys (gy, gz, gx): coord with smaller gy always precedes
        assert key_order((9, 0, 5)) == (0, 5, 9)
        assert key_order((0, 1, 0)) == (1, 0, 0)
        assert key_order((9, 0, 5)) < key_order((0, 1, 0))

    def test_last_axis_breaks_ties(self):
        assert key_order((0, 0, 0)) < key_order((1, 0, 0))

    def test_sorting_is_permutation(self):
        rng = random.Random(1)
        coords = [(rng.randrange(512),) * 3 for _ in range(50)]
        coords = [(rng.randrange(512), rng.randrange(512), rng.randrange(512)) for _ in range(50)]
        ordered = sorted(coords, key=key_order)
        assert Counter(ordered) == Counter(coords)

    def test_configurable_axis(self):
        assert key_order((3, 1, 2), up_axis="x") == (3, 1, 2)
        assert key_order((3, 1, 2), up_axis="z") == (2, 3, 1)


def appearance_order(strip_set):
    """The island ids of the strips, each where it first appears."""
    islands = strip_set.islands
    return islands[np.sort(np.unique(islands, return_index=True)[1])].tolist()


def seed_faces(strip_set):
    """Each strip's seed face as the sorted tuple of its corners' key orders."""
    degree = 3 if strip_set.stride == 1 else 4
    keys = strip_set.vertex_keys[strip_set.keys].tolist()
    return [tuple(sorted(key_order(k) for k in keys[a : a + degree])) for a in strip_set.offsets[:-1].tolist()]


class TestSeedOrder:
    def test_single_face(self):
        q = quantize(as_arrays(Mesh(positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], faces=[(0, 1, 2)])))
        ss = extract_strips(q, 1)
        assert ss.offsets.tolist() == [0, 3]
        assert is_rotation(ss.keys.tolist(), q.faces[0].tolist())
        assert oracles.seed_order(as_lists(q)) == [0]

    def test_tie_broken_by_second_vertex(self):
        positions = [
            (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.0, 1.0), (0.25, 0.0, -1.0),
        ]
        # both faces contain vertex 0; the second-lowest key decides, so the
        # strip seeds at face 1 and crosses edge {0, 1} into face 0
        q = quantize(as_arrays(Mesh(positions=positions, faces=[(0, 2, 1), (0, 1, 3)])))
        ss = extract_strips(q, 1)
        assert ss.offsets.tolist() == [0, 4]
        assert is_rotation(ss.keys[:3].tolist(), q.faces[1].tolist())
        assert oracles.seed_order(as_lists(q)) == [1, 0]

    def test_permutation_invariant(self):
        # the strips, as grid keys, depend on the geometry alone; each seed
        # is the lowest face left, so the seeds rise
        mesh = synth.icosphere(1)
        q = quantize(mesh)
        base = extract_strips(q, 1)
        seeds = seed_faces(base)
        assert seeds == sorted(seeds) and len(set(seeds)) == len(seeds)
        rng = random.Random(9)
        for _ in range(5):
            order = list(range(len(mesh.faces)))
            rng.shuffle(order)
            q2 = quantize(Mesh(positions=mesh.positions, faces=mesh.faces[order]))
            got = extract_strips(q2, 1)
            assert np.array_equal(got.vertex_keys[got.keys], base.vertex_keys[base.keys])
            assert np.array_equal(got.offsets, base.offsets)


class TestStripFaces:
    def test_stride1_flip_rule(self):
        assert strip_faces([10, 11, 12, 13], 1) == [(10, 11, 12), (11, 13, 12)]

    def test_stride2_quad_assembly(self):
        assert strip_faces([0, 1, 2, 3], 2) == [(0, 1, 3, 2)]

    def test_stride2_trailing_triangle(self):
        assert strip_faces([0, 1, 2, 3, 4], 2) == [(0, 1, 3, 2), (2, 3, 4)]

    def test_stride2_two_quads(self):
        assert strip_faces([0, 1, 2, 3, 4, 5], 2) == [(0, 1, 3, 2), (2, 3, 5, 4)]

    def test_too_short(self):
        assert strip_faces([0, 1], 1) == []

    @pytest.mark.parametrize("stride", [1, 2])
    def test_face_count_equals_strip_faces(self, stride):
        for m in range(13):
            keys = list(range(m))
            ss = strip_set([(keys, 0), (keys, 0)], [], stride, IDENTITY_TRANSFORM)
            assert ss.face_count() == 2 * len(strip_faces(keys, stride)) == oracles.face_count(ss), m


class TestStripSet:
    def test_flat_arrays(self):
        ss = extract_strips(quantize(synth.tri_grid(4, 4)), 1)
        for field in (ss.keys, ss.offsets, ss.islands):
            assert field.dtype == np.int64
        assert len(ss.offsets) == len(ss.islands) + 1
        assert ss.offsets[0] == 0 and ss.offsets[-1] == len(ss.keys)
        assert [s.tolist() for s in ss.strips] == [keys for keys, _ in strip_lists(ss)]

    def test_empty(self):
        ss = extract_strips(as_arrays(QuantizedMesh([], [], [], IDENTITY_TRANSFORM)), 1)
        assert ss.keys.tolist() == [] and ss.offsets.tolist() == [0] and ss.islands.tolist() == []
        assert ss.strips == [] and ss.face_count() == 0

    def test_check_counts_decoded_faces(self):
        ss = extract_strips(quantize(synth.tri_grid(4, 4)), 1)
        ss.check(32)
        with pytest.raises(AssertionError, match="strips decode to 32 faces, not 31"):
            ss.check(31)


class TestExtractTriangles:
    def test_two_triangles_one_strip(self):
        positions = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.0, 1.0), (1.5, 0.0, 1.0)]
        mesh = as_arrays(Mesh(positions=positions, faces=[(0, 1, 2), (1, 3, 2)]))
        ss = extract_strips(quantize(mesh), 1)
        assert ss.offsets.tolist() == [0, 4]

    def test_ribbon_single_strip_exact_sequence(self):
        # oracle: the zipper walks [b0, t0, b1, t1, ...] along the ribbon
        n = 20
        mesh = synth.tri_ribbon(n)
        q = quantize(mesh)
        ss = extract_strips(q, 1)
        assert len(ss.islands) == 1
        keys = ss.keys.tolist()
        assert len(keys) == 2 * n + 2

        coord_of = {}
        for i in range(n + 1):
            for j in (0, 1):
                coord_of[(i, j)] = to_grid((i / n, 0.0, j / n))
        expected = []
        for i in range(n + 1):
            expected.append(coord_of[(i, 0)])
            expected.append(coord_of[(i, 1)])
        assert [as_lists(q).vertex_keys[k] for k in keys] == expected

    def test_ribbon_decodes_to_original_windings(self):
        mesh = synth.tri_ribbon(8)
        q = quantize(mesh)
        ss = extract_strips(q, 1)
        decoded = all_strip_faces(ss)
        original = {frozenset(f): f for f in q.faces}
        for f in decoded:
            assert is_rotation(f, original[frozenset(f)])

    def test_grid_one_strip_per_row(self):
        mesh = synth.tri_grid(16, 16)
        ss = extract_strips(quantize(mesh), 1)
        assert len(ss.islands) == 16

    def test_coverage_exact_partition(self, tri_corpus):
        for entry in tri_corpus:
            q = quantize(entry.mesh, entry.partition)
            ss = extract_strips(q, 1)
            got = face_coord_multiset(q, all_strip_faces(ss))
            want = face_coord_multiset(q, q.faces)
            assert got == want, entry.name

    def test_winding_preserved_on_oriented_corpus(self, tri_corpus):
        for entry in tri_corpus:
            if not synth.oracle_consistent_winding(entry.mesh):
                continue
            q = quantize(entry.mesh, entry.partition)
            original = {frozenset(f): f for f in q.faces}
            ss = extract_strips(q, 1)
            for f in all_strip_faces(ss):
                assert is_rotation(f, original[frozenset(f)]), entry.name

    def test_strip_adjacency(self, tri_corpus):
        for entry in tri_corpus[:6]:
            q = quantize(entry.mesh, entry.partition)
            for keys, _ in strip_lists(extract_strips(q, 1)):
                faces = strip_faces(keys, 1)
                for i in range(len(faces) - 1):
                    shared = set(faces[i]) & set(faces[i + 1])
                    assert shared == {keys[i + 1], keys[i + 2]}

    def test_stride_mismatch(self):
        mesh = synth.quad_grid(2, 2)
        with pytest.raises(ValueError, match="stride 1"):
            extract_strips(quantize(mesh), 1)
        tri = synth.tri_grid(2, 2)
        with pytest.raises(ValueError, match="stride 2"):
            extract_strips(quantize(tri), 2)
        with pytest.raises(ValueError, match="^stride must be 1 or 2, got 3$"):
            extract_strips(quantize(tri), 3)

    @pytest.mark.parametrize("stride", [True, 2.0, np.float64(2.0)], ids=["True", "2.0", "np.float64"])
    def test_stride_is_an_integer(self, stride):
        # an integer argument is an int or a NumPy integer, never a bool or a float
        q = quantize(synth.quad_grid(2, 2))
        with pytest.raises(ValueError, match=f"^stride must be 1 or 2, got {stride}$"):
            extract_strips(q, stride)
        assert extract_strips(q, np.int64(2)).keys.tolist() == extract_strips(q, 2).keys.tolist()

    @pytest.mark.parametrize("up_axis", ["w", "Y", ""])
    def test_unknown_up_axis(self, up_axis):
        # rejected before any work, as a bad stride is, also with no faces
        q = quantize(synth.tri_grid(2, 2))
        empty = QuantizedMesh(q.vertex_keys, q.faces[:0], q.island_of_face[:0], q.transform)
        for mesh in (q, empty):
            with pytest.raises(ValueError, match="up_axis must be x, y or z"):
                extract_strips(mesh, 1, up_axis)

    @pytest.mark.parametrize("labels", ["short", "long"])
    def test_one_island_label_per_face(self, labels):
        q = quantize(synth.tri_grid(2, 2))
        island_of_face = q.island_of_face[:-1] if labels == "short" else np.append(q.island_of_face, 0)
        bad = QuantizedMesh(q.vertex_keys, q.faces, island_of_face, q.transform)
        with pytest.raises(ValueError, match=rf"^{len(island_of_face)} island labels for 8 faces$"):
            extract_strips(bad, 1)

    def test_integer_island_labels(self):
        q = quantize(synth.tri_grid(2, 2))
        bad = QuantizedMesh(q.vertex_keys, q.faces, q.island_of_face.astype(np.float64), q.transform)
        with pytest.raises(ValueError, match="^partition labels must be a 1-D integer array$"):
            extract_strips(bad, 1)


class TestExtractQuads:
    def test_quad_ribbon_single_strip(self):
        n = 12
        mesh = synth.quad_ribbon(n)
        q = quantize(mesh)
        ss = extract_strips(q, 2)
        assert len(ss.islands) == 1
        keys = ss.keys.tolist()
        assert len(keys) == 2 * n + 2
        # oracle: same [b0, t0, b1, t1, ...] walk as the triangle zipper
        coord_of = {}
        for i in range(n + 1):
            for j in (0, 1):
                coord_of[(i, j)] = to_grid((i / n, 0.0, j / n))
        expected = []
        for i in range(n + 1):
            expected.append(coord_of[(i, 0)])
            expected.append(coord_of[(i, 1)])
        assert [as_lists(q).vertex_keys[k] for k in keys] == expected

    def test_quad_decode_matches_stored_windings(self):
        mesh = synth.quad_grid(5, 4)
        q = quantize(mesh)
        original = {frozenset(f): f for f in q.faces}
        for f in all_strip_faces(extract_strips(q, 2)):
            assert is_rotation(f, original[frozenset(f)])

    def test_coverage_exact_partition(self, quad_corpus):
        for entry in quad_corpus:
            q = quantize(entry.mesh, entry.partition)
            ss = extract_strips(q, 2)
            got = face_coord_multiset(q, all_strip_faces(ss))
            want = face_coord_multiset(q, q.faces)
            assert got == want, entry.name

    def test_quad_strip_frontier_sharing(self):
        mesh = synth.quad_ribbon(6)
        q = quantize(mesh)
        for keys, _ in strip_lists(extract_strips(q, 2)):
            faces = strip_faces(keys, 2)
            for i in range(len(faces) - 1):
                shared = set(faces[i]) & set(faces[i + 1])
                assert shared == {keys[2 * i + 2], keys[2 * i + 3]}


class TestDeterminism:
    def _tokens(self, mesh, partition, stride):
        return encode_mesh(mesh, stride, partition)[2].tokens

    def test_face_shuffle_invariance(self, full_corpus):
        rng = random.Random(21)
        for entry in full_corpus[::4]:
            base = self._tokens(entry.mesh, entry.partition, entry.stride)
            order = list(range(len(entry.mesh.faces)))
            rng.shuffle(order)
            fuvs = entry.mesh.face_uvs
            shuffled = Mesh(
                positions=entry.mesh.positions,
                faces=entry.mesh.faces[order],
                uv_coords=entry.mesh.uv_coords,
                face_uvs=None if fuvs is None else fuvs[order],
            )
            partition = uv_islands(shuffled) if fuvs is not None else None
            assert np.array_equal(self._tokens(shuffled, partition, entry.stride), base), entry.name

    def test_vertex_permutation_invariance(self):
        mesh = synth.icosphere(1)
        base = self._tokens(mesh, None, 1)
        rng = random.Random(4)
        perm = list(range(len(mesh.positions)))
        rng.shuffle(perm)
        inv = np.argsort(perm)
        permuted = Mesh(positions=mesh.positions[perm], faces=inv[mesh.faces])
        assert np.array_equal(self._tokens(permuted, None, 1), base)


class TestIslands:
    @pytest.mark.parametrize(
        "mesh, stride, group",
        [
            # a seam along the row strips, then seams across them
            (synth.tri_grid(6, 6), 1, lambda f: int(f >= 36)),
            (synth.tri_grid(6, 6), 1, lambda f: f % 12 // 6),
            (synth.quad_grid(6, 6), 2, lambda f: f % 6 // 3),
        ],
        ids=["tri-along", "tri-across", "quad-across"],
    )
    def test_strips_never_cross_islands(self, mesh, stride, group):
        tagged = synth.with_uv_groups(mesh, [group(f) for f in range(len(mesh.faces))])
        partition = uv_islands(tagged)
        q = quantize(tagged, partition)
        ss = extract_strips(q, stride)
        # every strip face must be a face of the strip's own island
        faces_of_island = {}
        for f, l in zip(q.faces, q.island_of_face):
            faces_of_island.setdefault(l, set()).add(frozenset(f))
        for keys, island in strip_lists(ss):
            for f in strip_faces(keys, stride):
                assert frozenset(f) in faces_of_island[island]
        # islands appear contiguously and in bottom-up order
        islands_seen = ss.islands.tolist()
        compact = [islands_seen[0]]
        for l in islands_seen[1:]:
            if l != compact[-1]:
                compact.append(l)
        assert compact == oracles.island_order(as_lists(q))
        assert len(set(compact)) == len(compact)

    def test_island_order_by_lowest_vertex(self):
        # island containing the globally lowest vertex comes first
        base = synth.tri_grid(4, 4)
        groups = [0 if fi < 16 else 1 for fi in range(32)]
        tagged = synth.with_uv_groups(base, groups)
        partition = uv_islands(tagged)
        q = quantize(tagged, partition)
        ss = extract_strips(q, 1)
        mins = {}
        labels = q.island_of_face
        for f, l in zip(q.faces, labels):
            m = min(key_order(q.vertex_keys[v]) for v in f)
            mins[l] = min(mins.get(l, m), m)
        expected = sorted(mins, key=lambda l: mins[l])
        assert appearance_order(ss) == expected

    def test_strip_count_le_face_count(self, full_corpus):
        for entry in full_corpus:
            q = quantize(entry.mesh, entry.partition)
            ss = extract_strips(q, entry.stride)
            assert len(ss.islands) <= len(q.faces), entry.name


class TestNonManifold:
    def test_fan_covered_exactly(self):
        mesh = synth.non_manifold_fan()
        q = quantize(mesh)
        ss = extract_strips(q, 1)
        got = face_coord_multiset(q, all_strip_faces(ss))
        assert got == face_coord_multiset(q, q.faces)


class TestUpAxis:
    def test_alternate_axis_still_exact(self):
        mesh = synth.icosphere(1)
        q = quantize(mesh)
        want = face_coord_multiset(q, q.faces)
        for axis in ("x", "y", "z"):
            ss = extract_strips(q, 1, up_axis=axis)
            assert face_coord_multiset(q, all_strip_faces(ss)) == want, axis

    def test_axis_reorders_islands(self):
        # two islands placed so "bottom" disagrees between axes: island 0
        # sits at low z / high x, island 1 at high z / low x
        part_a = synth.shift(synth.tri_grid(2, 2), dx=10.0)
        part_b = synth.shift(synth.tri_grid(2, 2), dz=10.0)
        mesh = synth.concat(part_a, part_b)
        tagged = synth.with_uv_groups(mesh, [0] * 8 + [1] * 8)
        q = quantize(tagged, uv_islands(tagged))
        assert appearance_order(extract_strips(q, 1, up_axis="y")) == [0, 1]
        assert appearance_order(extract_strips(q, 1, up_axis="x")) == [1, 0]


class TestFlippedFaces:
    @given(
        st.sampled_from([synth.tri_grid(4, 3), synth.quad_grid(4, 3), synth.icosphere(1)]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_windings_round_trip(self, mesh, data):
        # a face wound against its neighbours starts its own strip, so the
        # decoded windings still equal the source's
        rows = data.draw(st.lists(st.integers(0, len(mesh.faces) - 1), unique=True))
        faces = mesh.faces.copy()
        faces[rows] = faces[rows, ::-1]
        stride = 1 if faces.shape[1] == 3 else 2
        q, strips, seq = encode_mesh(Mesh(mesh.positions, faces), stride)
        decoded, _, _ = decode_tokens(seq)
        assert compare_quantized(q, decoded) == (True, "")
        strips.check(len(q.faces))
