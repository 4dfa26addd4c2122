from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from striptok import (
    DecodeReport,
    decode,
    dual_decode_check,
    extract_strips,
    parse_tokens,
    quantize_mesh,
    serialize,
    uv_islands,
)
from striptok.decode import EV_ISLAND, EV_STRIP, EV_VERTEX
from striptok.verify import compare_quantized

from oracles import IDENTITY_TRANSFORM, as_lists, encode_hier, row_tuples
import synth
from test_tokens import manual_strip_set


def triple(c, base=0):
    c1, c2, c3 = encode_hier(c)
    return [base + c1, 192 + c2, 704 + c3]


class TestParse:
    def test_worked_example(self):
        coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        seq = serialize(manual_strip_set([coords]), uv_mode=False)
        stream = parse_tokens(seq)
        assert stream.discarded == 0
        kinds = stream.events[:, 0].tolist()
        assert kinds == [EV_STRIP, EV_VERTEX, EV_VERTEX, EV_VERTEX]
        codes = stream.events[:, 1:].tolist()
        assert codes == [list(encode_hier(c)) for c in coords]

    def test_bare_c3_at_start_discarded(self):
        stream = parse_tokens([704])
        assert stream.discarded == 1
        assert stream.events.tolist() == []

    def test_bare_c2_then_c3_at_start_discarded(self):
        stream = parse_tokens([200, 800])
        assert stream.discarded == 2
        assert stream.events.tolist() == []

    def test_consecutive_strip_markers(self):
        # first marker dropped, parse continues from the second
        tokens = [64, 70] + [192, 704]
        stream = parse_tokens(tokens)
        assert stream.discarded == 1
        assert stream.events.tolist() == [[EV_STRIP, 6, 0, 0]]

    def test_marker_then_c3(self):
        # dangling marker dropped; the fine token resolves via the cache
        head = triple((0, 0, 0), base=64)
        tokens = head + [70, 705]
        stream = parse_tokens(tokens)
        assert stream.discarded == 1
        assert stream.events.tolist() == [[EV_STRIP, 0, 0, 0], [EV_VERTEX, 0, 0, 1]]

    def test_dangling_prefix_at_end(self):
        head = triple((0, 0, 0), base=64)
        assert parse_tokens(head + [5]).discarded == 1
        assert parse_tokens(head + [5, 200]).discarded == 2
        assert parse_tokens(head + [200]).discarded == 1

    def test_double_c2_drops_first(self):
        head = triple((0, 0, 0), base=64)
        stream = parse_tokens(head + [200, 201, 704])
        assert stream.discarded == 1
        assert stream.events[-1].tolist() == [EV_VERTEX, 0, 9, 0]

    def test_island_marker_kind(self):
        stream = parse_tokens(triple((0, 0, 0), base=128))
        assert stream.events[0][0] == EV_ISLAND

    def test_plain_head_is_vertex(self):
        stream = parse_tokens(triple((0, 0, 0)))
        assert stream.events[0][0] == EV_VERTEX

    def test_consumed_plus_discarded_accounts_all(self):
        rng = random.Random(2)
        for _ in range(200):
            tokens = [rng.randrange(4800) for _ in range(rng.randrange(0, 60))]
            stream = parse_tokens(tokens)
            assert stream.consumed_tokens + stream.discarded == len(tokens)
            stream.check(len(tokens))

    def test_check_names_the_identity(self):
        stream = parse_tokens([5, 704])
        with pytest.raises(AssertionError, match=r"consumed_tokens 0 \+ discarded 2 != 3 tokens"):
            stream.check(3)

    @given(st.lists(st.integers(0, 4799), max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_totality_property(self, tokens):
        stream = parse_tokens(tokens)
        assert stream.consumed_tokens + stream.discarded == len(tokens)
        assert all(0 <= e[1] < 64 and 0 <= e[2] < 512 and 0 <= e[3] < 4096 for e in stream.events.tolist())

    def test_out_of_vocab_ids_discarded(self):
        head = triple((0, 0, 0), base=64)
        stream = parse_tokens(head + [4800, -3, 10_000, 705])
        assert stream.discarded == 3
        assert stream.events.tolist() == [[EV_STRIP, 0, 0, 0], [EV_VERTEX, 0, 0, 1]]


class TestDecode:
    def test_stride1_parity(self):
        coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        seq = serialize(manual_strip_set([coords]), uv_mode=False)
        mesh, partition, report = decode(parse_tokens(seq), 1, IDENTITY_TRANSFORM)
        assert report.clean()
        assert mesh.faces.tolist() == [[0, 1, 2], [1, 3, 2]]
        assert as_lists(mesh).vertex_keys == coords
        assert partition.island_count == 1

    def test_stride2_quad(self):
        coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        seq = serialize(manual_strip_set([coords], stride=2), uv_mode=False)
        mesh, _, report = decode(parse_tokens(seq), 2, IDENTITY_TRANSFORM)
        assert report.clean()
        assert mesh.faces.tolist() == [[0, 1, 3, 2]]

    def test_welding_within_island(self):
        shared = (5, 5, 5)
        a = [(0, 0, 0), (1, 0, 0), shared]
        b = [(9, 0, 0), (10, 0, 0), shared]
        ss = manual_strip_set([a, b])
        seq = serialize(ss, uv_mode=False)
        mesh, _, report = decode(parse_tokens(seq), 1, IDENTITY_TRANSFORM)
        # the stream carries the shared coordinate twice; decoding welds them
        assert report.welds == 1
        assert as_lists(mesh).vertex_keys.count(shared) == 1
        assert len(mesh.vertex_keys) == 5

    def test_welding_across_strips_counts(self):
        # same coordinate emitted twice in one island welds to one vertex
        a = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        b = [(2, 0, 0), (3, 0, 0), (4, 0, 0)]
        tokens = []
        tokens += triple(a[0], base=64) + [704 + encode_hier(a[1])[2], 704 + encode_hier(a[2])[2]]
        tokens += triple(b[0], base=64) + [704 + encode_hier(b[1])[2], 704 + encode_hier(b[2])[2]]
        from striptok import TokenHeader, TokenSequence

        seq = TokenSequence(tokens=tokens, header=TokenHeader(False, 1, IDENTITY_TRANSFORM, 2))
        mesh, _, report = decode(parse_tokens(seq), 1, IDENTITY_TRANSFORM)
        assert report.welds == 1
        assert as_lists(mesh).vertex_keys.count((2, 0, 0)) == 1
        assert len(mesh.vertex_keys) == 5

    def test_duplicates_kept_across_islands(self):
        a = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        b = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        ss = manual_strip_set([a, b], islands=[0, 1])
        seq = serialize(ss, uv_mode=True)
        mesh, partition, _ = decode(parse_tokens(seq), 1, IDENTITY_TRANSFORM)
        assert partition.island_count == 2
        assert as_lists(mesh).vertex_keys.count((0, 0, 0)) == 2

    def test_short_strip_dropped(self):
        tokens = triple((0, 0, 0), base=64) + [704 + 5]  # 2-vertex strip
        tokens += triple((9, 0, 0), base=64) + [704 + encode_hier((10, 0, 0))[2], 704 + encode_hier((11, 0, 0))[2]]
        stream = parse_tokens(tokens)
        mesh, _, report = decode(stream, 1, IDENTITY_TRANSFORM)
        assert report.dropped_strips == 1
        assert report.dropped_strip_vertices == 2
        assert len(mesh.faces) == 1

    def test_degenerate_face_dropped(self):
        # a repeated trailing coordinate welds into a repeated face index
        a = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 0, 0)]
        tokens = triple(a[0], base=64)
        for c in a[1:]:
            tokens += [704 + encode_hier(c)[2]]
        mesh, _, report = decode(parse_tokens(tokens_seq(tokens)), 1, IDENTITY_TRANSFORM)
        assert report.degenerate_faces == 1
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_stream_start_opens_island_zero(self):
        # plain geometry head at stream start still decodes
        tokens = triple((0, 0, 0)) + [704 + encode_hier((1, 0, 0))[2], 704 + encode_hier((2, 0, 0))[2]]
        mesh, partition, report = decode(parse_tokens(tokens_seq(tokens)), 1, IDENTITY_TRANSFORM)
        assert len(mesh.faces) == 1
        assert partition.island_count == 1
        assert report.discarded_tokens == 0

    def test_leading_island_marker_is_island_zero(self):
        coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        seq = serialize(manual_strip_set([coords]), uv_mode=True)
        _, partition, _ = decode(parse_tokens(seq), 1, IDENTITY_TRANSFORM)
        assert partition.island_count == 1

    def test_report_check_names_the_identity(self):
        DecodeReport(kept_strip_vertices=3, dropped_strip_vertices=1, implied_faces=2).check(4, 2)
        with pytest.raises(AssertionError, match=r"events 5 != kept strip vertices 3 \+ dropped strip vertices 1"):
            DecodeReport(kept_strip_vertices=3, dropped_strip_vertices=1).check(5, 0)
        with pytest.raises(
            AssertionError, match=r"implied faces 4 != emitted 2 \+ degenerate 1 \+ duplicate 0"
        ):
            DecodeReport(implied_faces=4, degenerate_faces=1).check(0, 2)

    def test_empty_stream(self):
        mesh, partition, report = decode(parse_tokens([]), 1, IDENTITY_TRANSFORM)
        assert len(mesh.faces) == 0 and len(mesh.vertex_keys) == 0
        assert partition.island_count == 0
        assert report.clean()


INT64 = np.dtype(np.int64)


def assert_arrays(mesh, n_keys, n_faces, stride):
    """The array contract of a decoded mesh: int64 fields of these shapes,
    checked in one comparison (acceptance 08 checks a million decodes).
    Faces have ``stride + 2`` columns, but 3 at stride 2 when no face is a
    quad; an empty decode has ``stride + 2``."""
    keys, faces, labels = mesh.vertex_keys, mesh.faces, mesh.island_of_face
    width = stride + 2
    if stride == 2 and n_faces and not (faces.shape[1] == 4 and (faces[:, 3] >= 0).any()):
        width = 3
    got = (keys.dtype, faces.dtype, labels.dtype, keys.shape, faces.shape, labels.shape)
    assert got == (INT64, INT64, INT64, (n_keys, 3), (n_faces, width), (n_faces,))


class TestArrayContract:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize(
        "tokens",
        [[], triple((0, 0, 0), 64) + triple((1, 0, 0), 64) + [704 + 5], triple((3, 3, 3), 64) + [704 + 4] * 4],
        ids=["empty", "short_strips", "all_degenerate"],
    )
    def test_nothing_kept(self, tokens, stride):
        mesh, partition, report = decode(parse_tokens(tokens), stride, IDENTITY_TRANSFORM)
        assert_arrays(mesh, 0, 0, stride)
        assert mesh.face_degree == 0 and mesh.island_count() == 0 == partition.island_count
        report.check(len(parse_tokens(tokens).events), 0)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_odd_strip(self, stride):
        coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 2)]
        seq = serialize(manual_strip_set([coords], stride=stride), uv_mode=False)
        mesh, _, _ = decode(parse_tokens(seq), stride, IDENTITY_TRANSFORM)
        assert_arrays(mesh, 5, 3 if stride == 1 else 2, stride)
        assert mesh.face_degree == stride + 2 and mesh.island_count() == 1
        if stride == 2:
            assert mesh.faces.tolist() == [[0, 1, 3, 2], [2, 3, 4, -1]]
            assert as_lists(mesh).faces == [(0, 1, 3, 2), (2, 3, 4)]

    @pytest.mark.parametrize("stride", [1, 2])
    def test_uv_partition(self, stride):
        mesh = synth.quad_grid(4, 4) if stride == 2 else synth.tri_grid(4, 4)
        groups = [f * 3 // len(mesh.faces) for f in range(len(mesh.faces))]
        mesh = synth.with_uv_groups(mesh, groups)
        q = quantize_mesh(mesh, uv_islands(mesh))
        seq = serialize(extract_strips(q, stride), uv_mode=True)
        decoded, partition, _ = decode(parse_tokens(seq), stride, seq.header.transform)
        # vertices on an island seam are one per island
        assert_arrays(decoded, len(decoded.vertex_keys), len(mesh.faces), stride)
        assert len(decoded.vertex_keys) > len(q.vertex_keys) and compare_quantized(q, decoded) == (True, "")
        assert decoded.island_count() == 3 == partition.island_count
        assert partition.island_of_face.dtype == np.int64
        assert np.array_equal(decoded.island_of_face, partition.island_of_face)


def tokens_seq(tokens):
    from striptok import TokenHeader, TokenSequence

    return TokenSequence(
        tokens=tokens, header=TokenHeader(False, 1, IDENTITY_TRANSFORM, max(1, len(tokens) // 3))
    )


class TestRoundTrip:
    def test_triangles(self, tri_corpus):
        for entry in tri_corpus:
            q = quantize_mesh(entry.mesh, entry.partition)
            seq = serialize(extract_strips(q, 1), uv_mode=entry.uv_mode)
            decoded, _, report = decode(parse_tokens(seq), 1, seq.header.transform)
            assert report.clean(), entry.name
            ok, detail = compare_quantized(q, decoded)
            assert ok, f"{entry.name}: {detail}"

    def test_quads(self, quad_corpus):
        for entry in quad_corpus:
            q = quantize_mesh(entry.mesh, entry.partition)
            seq = serialize(extract_strips(q, 2), uv_mode=entry.uv_mode)
            decoded, _, report = decode(parse_tokens(seq), 2, seq.header.transform)
            assert report.clean(), entry.name
            ok, detail = compare_quantized(q, decoded)
            assert ok, f"{entry.name}: {detail}"

    def test_transform_carried(self):
        mesh = synth.shift(synth.icosphere(1), dx=3.0, dy=-1.0)
        q = quantize_mesh(mesh)
        seq = serialize(extract_strips(q, 1))
        decoded, _, _ = decode(parse_tokens(seq), 1, seq.header.transform)
        assert decoded.transform == q.transform


class TestDualDecode:
    def test_single_quad(self):
        coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        seq = serialize(manual_strip_set([coords], stride=2), uv_mode=False)
        assert dual_decode_check(seq) is True

    def test_quad_ribbon(self):
        q = quantize_mesh(synth.quad_ribbon(10))
        seq = serialize(extract_strips(q, 2))
        assert dual_decode_check(seq) is True

    def test_odd_trailing_vertex(self):
        coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 2)]
        seq = serialize(manual_strip_set([coords], stride=2), uv_mode=False)
        assert dual_decode_check(seq) is True

    def test_whole_quad_corpus(self, quad_corpus):
        for entry in quad_corpus:
            q = quantize_mesh(entry.mesh, entry.partition)
            seq = serialize(extract_strips(q, 2), uv_mode=entry.uv_mode)
            assert dual_decode_check(seq) is True, entry.name

    def test_requires_stride2_header(self):
        q = quantize_mesh(synth.tri_grid(2, 2))
        seq = serialize(extract_strips(q, 1))
        with pytest.raises(ValueError, match="stride-2"):
            dual_decode_check(seq)

    def test_splits_match_triangle_decode(self):
        q = quantize_mesh(synth.quad_grid(4, 3))
        seq = serialize(extract_strips(q, 2))
        stream = parse_tokens(seq)
        tri, _, _ = decode(stream, 1, seq.header.transform)
        quad, _, _ = decode(stream, 2, seq.header.transform)
        split = []
        for f in as_lists(quad).faces:
            split += [(f[0], f[1], f[3]), (f[1], f[2], f[3])]
        assert as_lists(tri).faces == split


def validate_quantized(mesh, stride):
    """QuantizedMesh invariants for decoder outputs."""
    assert_arrays(mesh, len(mesh.vertex_keys), len(mesh.faces), stride)
    if not len(mesh.faces):
        return
    keys, faces, labels = row_tuples(mesh.vertex_keys), row_tuples(mesh.faces), mesh.island_of_face.tolist()
    per_island: dict[int, dict] = {}
    for face, l in zip(faces, labels):
        assert len(set(face)) == len(face)
        assert all(0 <= v < len(keys) for v in face)
        if stride == 1:
            assert len(face) == 3
        else:
            assert len(face) in (3, 4)
        seen = per_island.setdefault(l, {})
        for v in face:
            coord = keys[v]
            assert seen.setdefault(coord, v) == v  # unique coord per island
    if labels:
        assert set(labels) == set(range(max(labels) + 1))
    seen_sets = set()
    for face in faces:
        fs = frozenset(face)
        assert fs not in seen_sets
        seen_sets.add(fs)


class TestFuzzSmoke:
    def test_random_streams(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            n = int(rng.integers(0, 120))
            tokens = rng.integers(0, 4800, size=n).tolist()
            stream = parse_tokens(tokens)
            assert stream.consumed_tokens + stream.discarded == n
            for stride in (1, 2):
                mesh, partition, report = decode(stream, stride, IDENTITY_TRANSFORM)
                validate_quantized(mesh, stride)
                labels = partition.island_of_face
                assert partition.island_count == (int(labels.max()) + 1 if len(labels) else 0)

    def test_structured_random_streams(self):
        # grammar-shaped but geometrically random sequences
        rng = np.random.default_rng(7)
        for _ in range(500):
            tokens = []
            tokens += [int(rng.integers(64, 192)), int(rng.integers(192, 704)), int(rng.integers(704, 4800))]
            for _ in range(int(rng.integers(0, 80))):
                choice = rng.random()
                if choice < 0.5:
                    tokens += [int(rng.integers(704, 4800))]
                elif choice < 0.8:
                    tokens += [int(rng.integers(192, 704)), int(rng.integers(704, 4800))]
                else:
                    tokens += [
                        int(rng.integers(0, 192)),
                        int(rng.integers(192, 704)),
                        int(rng.integers(704, 4800)),
                    ]
            stream = parse_tokens(tokens)
            assert stream.discarded == 0
            for stride in (1, 2):
                mesh, _, report = decode(stream, stride, IDENTITY_TRANSFORM)
                validate_quantized(mesh, stride)

    def test_corrupted_valid_sequences(self):
        q = quantize_mesh(synth.tri_grid(6, 6))
        seq = serialize(extract_strips(q, 1))
        rng = np.random.default_rng(3)
        for _ in range(200):
            tokens = list(seq.tokens)
            for _ in range(int(rng.integers(1, 6))):
                tokens[int(rng.integers(0, len(tokens)))] = int(rng.integers(0, 4800))
            stream = parse_tokens(tokens)
            assert stream.consumed_tokens + stream.discarded == len(tokens)
            mesh, _, report = decode(stream, 1, seq.header.transform)
            validate_quantized(mesh, 1)
