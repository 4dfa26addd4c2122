from __future__ import annotations

import random
from collections import Counter

import pytest

from striptok import (
    IDENTITY_TRANSFORM,
    Mesh,
    Strip,
    StripSet,
    encode_mesh,
    extract_strips,
    quantize_mesh,
    seed_order,
    uv_islands,
)

import synth
from oracles import as_lists, key_order, strip_faces, to_grid


def quantize(mesh, partition=None):
    return quantize_mesh(mesh, partition)


def face_coord_multiset(q, faces):
    keys = as_lists(q).vertex_keys
    return Counter(frozenset(keys[v] for v in f) for f in faces)


def all_strip_faces(strip_set):
    out = []
    for s in strip_set.strips:
        out.extend(strip_faces(s))
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


class TestSeedOrder:
    def test_single_face(self):
        q = quantize(Mesh(positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], faces=[(0, 1, 2)]))
        assert seed_order(q) == [0]

    def test_tie_broken_by_second_vertex(self):
        positions = [
            (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.0, 1.0), (0.25, 0.0, -1.0),
        ]
        # both faces contain vertex 0; the second-lowest key decides
        q = quantize(Mesh(positions=positions, faces=[(0, 2, 1), (0, 1, 3)]))
        order = seed_order(q)
        ql = as_lists(q)
        keys = [tuple(sorted(ql.vertex_keys[v] for v in ql.faces[f])) for f in order]
        assert keys == sorted(keys)

    def test_permutation_invariant(self):
        mesh = synth.icosphere(1)
        q = quantize(mesh)
        ql = as_lists(q)
        base = [tuple(sorted(ql.vertex_keys[v] for v in ql.faces[f])) for f in seed_order(q)]
        rng = random.Random(9)
        for _ in range(5):
            faces = list(mesh.faces)
            rng.shuffle(faces)
            q2 = quantize(Mesh(positions=mesh.positions, faces=faces))
            ql2 = as_lists(q2)
            got = [tuple(sorted(ql2.vertex_keys[v] for v in ql2.faces[f])) for f in seed_order(q2)]
            assert got == base


class TestStripFaces:
    def test_stride1_flip_rule(self):
        s = Strip(keys=[10, 11, 12, 13], island=0, stride=1)
        assert strip_faces(s) == [(10, 11, 12), (11, 13, 12)]

    def test_stride2_quad_assembly(self):
        s = Strip(keys=[0, 1, 2, 3], island=0, stride=2)
        assert strip_faces(s) == [(0, 1, 3, 2)]

    def test_stride2_trailing_triangle(self):
        s = Strip(keys=[0, 1, 2, 3, 4], island=0, stride=2)
        assert strip_faces(s) == [(0, 1, 3, 2), (2, 3, 4)]

    def test_stride2_two_quads(self):
        s = Strip(keys=[0, 1, 2, 3, 4, 5], island=0, stride=2)
        assert strip_faces(s) == [(0, 1, 3, 2), (2, 3, 5, 4)]

    def test_too_short(self):
        assert strip_faces(Strip(keys=[0, 1], island=0, stride=1)) == []

    @pytest.mark.parametrize("stride", [1, 2])
    def test_face_count_equals_strip_faces(self, stride):
        for m in range(13):
            s = Strip(keys=list(range(m)), island=0, stride=stride)
            ss = StripSet([s, s], [], [0], stride, IDENTITY_TRANSFORM)
            assert ss.face_count() == 2 * len(strip_faces(s)), m


class TestExtractTriangles:
    def test_two_triangles_one_strip(self):
        positions = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.0, 1.0), (1.5, 0.0, 1.0)]
        mesh = Mesh(positions=positions, faces=[(0, 1, 2), (1, 3, 2)])
        ss = extract_strips(quantize(mesh), 1)
        assert len(ss.strips) == 1
        assert len(ss.strips[0].keys) == 4

    def test_ribbon_single_strip_exact_sequence(self):
        # oracle: the zipper walks [b0, t0, b1, t1, ...] along the ribbon
        n = 20
        mesh = synth.tri_ribbon(n)
        q = quantize(mesh)
        ss = extract_strips(q, 1)
        assert len(ss.strips) == 1
        keys = ss.strips[0].keys
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
        assert len(ss.strips) == 16

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
            for s in extract_strips(q, 1).strips:
                faces = strip_faces(s)
                for i in range(len(faces) - 1):
                    shared = set(faces[i]) & set(faces[i + 1])
                    assert shared == {s.keys[i + 1], s.keys[i + 2]}

    def test_stride_mismatch(self):
        mesh = synth.quad_grid(2, 2)
        with pytest.raises(ValueError, match="stride 1"):
            extract_strips(quantize(mesh), 1)
        tri = synth.tri_grid(2, 2)
        with pytest.raises(ValueError, match="stride 2"):
            extract_strips(quantize(tri), 2)


class TestExtractQuads:
    def test_quad_ribbon_single_strip(self):
        n = 12
        mesh = synth.quad_ribbon(n)
        q = quantize(mesh)
        ss = extract_strips(q, 2)
        assert len(ss.strips) == 1
        keys = ss.strips[0].keys
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
        for s in extract_strips(q, 2).strips:
            faces = strip_faces(s)
            for i in range(len(faces) - 1):
                shared = set(faces[i]) & set(faces[i + 1])
                assert shared == {s.keys[2 * i + 2], s.keys[2 * i + 3]}


class TestDeterminism:
    def _tokens(self, mesh, partition, stride):
        return encode_mesh(mesh, stride, partition)[2].tokens

    def test_face_shuffle_invariance(self, full_corpus):
        rng = random.Random(21)
        for entry in full_corpus[::4]:
            base = self._tokens(entry.mesh, entry.partition, entry.stride)
            order = list(range(len(entry.mesh.faces)))
            rng.shuffle(order)
            faces = [entry.mesh.faces[i] for i in order]
            fuvs = [entry.mesh.face_uvs[i] for i in order] if entry.mesh.face_uvs else None
            shuffled = Mesh(
                positions=entry.mesh.positions,
                faces=faces,
                uv_coords=entry.mesh.uv_coords,
                face_uvs=fuvs,
            )
            partition = uv_islands(shuffled) if fuvs else None
            assert self._tokens(shuffled, partition, entry.stride) == base, entry.name

    def test_vertex_permutation_invariance(self):
        mesh = synth.icosphere(1)
        base = self._tokens(mesh, None, 1)
        rng = random.Random(4)
        perm = list(range(len(mesh.positions)))
        rng.shuffle(perm)
        inv = [0] * len(perm)
        for new, old in enumerate(perm):
            inv[old] = new
        permuted = Mesh(
            positions=[mesh.positions[i] for i in perm],
            faces=[tuple(inv[v] for v in f) for f in mesh.faces],
        )
        assert self._tokens(permuted, None, 1) == base


class TestIslands:
    def test_strips_never_cross_islands(self):
        base = synth.tri_grid(6, 6)
        tagged = synth.with_uv_groups(base, [0 if fi < 36 else 1 for fi in range(72)])
        partition = uv_islands(tagged)
        q = quantize(tagged, partition)
        ss = extract_strips(q, 1)
        # every strip face must be a face of the strip's own island
        faces_of_island = {}
        for f, l in zip(q.faces, q.island_of_face):
            faces_of_island.setdefault(l, set()).add(frozenset(f))
        for s in ss.strips:
            for f in strip_faces(s):
                assert frozenset(f) in faces_of_island[s.island]
        # islands appear contiguously and in bottom-up order
        islands_seen = [s.island for s in ss.strips]
        compact = [islands_seen[0]]
        for l in islands_seen[1:]:
            if l != compact[-1]:
                compact.append(l)
        assert compact == ss.islands_in_order
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
        assert ss.islands_in_order == expected

    def test_strip_count_le_face_count(self, full_corpus):
        for entry in full_corpus:
            q = quantize(entry.mesh, entry.partition)
            ss = extract_strips(q, entry.stride)
            assert len(ss.strips) <= len(q.faces), entry.name


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
        assert extract_strips(q, 1, up_axis="y").islands_in_order == [0, 1]
        assert extract_strips(q, 1, up_axis="x").islands_in_order == [1, 0]
