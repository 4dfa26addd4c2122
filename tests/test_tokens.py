from __future__ import annotations

import struct

import pytest

from striptok import (
    IDENTITY_TRANSFORM,
    Strip,
    StripSet,
    TokenFileError,
    VOCAB,
    baseline_serialize,
    compression_stats,
    encode_hier,
    extract_strips,
    parse_tokens,
    quantize_mesh,
    read_tokens,
    serialize,
    strip_faces,
    write_tokens,
)

import synth


def manual_strip_set(coord_lists, islands=None, stride=1):
    """StripSet over explicit grid coordinates, one list per strip."""
    keys = []
    index = {}
    strips = []
    islands = islands or [0] * len(coord_lists)
    for coords, isl in zip(coord_lists, islands):
        idxs = []
        for c in coords:
            if c not in index:
                index[c] = len(keys)
                keys.append(c)
            idxs.append(index[c])
        strips.append(Strip(keys=idxs, island=isl, stride=stride))
    order = []
    for isl in islands:
        if isl not in order:
            order.append(isl)
    return StripSet(
        strips=strips,
        vertex_keys=keys,
        islands_in_order=order,
        stride=stride,
        transform=IDENTITY_TRANSFORM,
    )


def oracle_serialize(strip_set, uv_mode):
    """Straight-line reimplementation of the emission rules."""
    tokens = []
    prev = None
    seen = set()
    for strip in strip_set.strips:
        first_of_island = strip.island not in seen
        seen.add(strip.island)
        head = True
        for key in strip.keys:
            c1, c2, c3 = encode_hier(strip_set.vertex_keys[key])
            if head:
                marker = 128 + c1 if (uv_mode and first_of_island) else 64 + c1
                tokens += [marker, 192 + c2, 704 + c3]
                head = False
            else:
                assert prev is not None
                if prev == (c1, c2):
                    tokens += [704 + c3]
                elif prev[0] == c1:
                    tokens += [192 + c2, 704 + c3]
                else:
                    tokens += [c1, 192 + c2, 704 + c3]
            prev = (c1, c2)
    return tokens


class TestVocab:
    def test_total_size(self):
        assert VOCAB.total_size == 4800

    def test_ranges_partition_the_vocab(self):
        ranges = sorted(VOCAB.ranges.values())
        assert ranges[0][0] == 0
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0
        assert ranges[-1][1] == VOCAB.total_size

    def test_range_sizes(self):
        r = VOCAB.ranges
        assert r["C1_GEO"] == (0, 64)
        assert r["C1_T"] == (64, 128)
        assert r["C1_UV"] == (128, 192)
        assert r["C2"] == (192, 704)
        assert r["C3"] == (704, 4800)


class TestSerialize:
    def one_cell_strip(self):
        # four coords inside one coarse+mid cell: same c1 and c2, distinct c3
        coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        return coords, manual_strip_set([coords])

    def test_single_strip_shared_cell(self):
        coords, ss = self.one_cell_strip()
        seq = serialize(ss, uv_mode=False)
        c3s = [encode_hier(c)[2] for c in coords]
        assert seq.tokens == [64 + 0, 192 + 0] + [704 + c3s[0]] + [704 + c for c in c3s[1:]]
        assert len(seq.tokens) == 6
        assert seq.header.face_count == 2

    def test_uv_mode_swaps_marker(self):
        _, ss = self.one_cell_strip()
        off = serialize(ss, uv_mode=False).tokens
        on = serialize(ss, uv_mode=True).tokens
        assert on[0] == off[0] + 64
        assert on[1:] == off[1:]

    def test_markers_reset_sharing(self):
        # second strip head shares (c1, c2) with the previous vertex but
        # still emits the full marker triple
        a = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        b = [(3, 0, 0), (4, 0, 0), (5, 0, 0)]
        ss = manual_strip_set([a, b])
        seq = serialize(ss, uv_mode=False)
        c3 = lambda c: 704 + encode_hier(c)[2]
        assert seq.tokens == [
            64, 192, c3((0, 0, 0)), c3((1, 0, 0)), c3((2, 0, 0)),
            64, 192, c3((3, 0, 0)), c3((4, 0, 0)), c3((5, 0, 0)),
        ]

    def test_c2_only_prefix_share(self):
        # same coarse cell, different mid cell: drop c1 only
        a = (0, 0, 0)
        b = (17, 0, 0)  # same c1 block (128 wide), next c2 block
        ss = manual_strip_set([[a, b, (18, 0, 0)]])
        seq = serialize(ss, uv_mode=False)
        ca, cb = encode_hier(a), encode_hier(b)
        assert cb[0] == ca[0] and cb[1] != ca[1]
        assert seq.tokens == [
            64 + ca[0], 192 + ca[1], 704 + ca[2],
            192 + cb[1], 704 + cb[2],
            704 + encode_hier((18, 0, 0))[2],
        ]

    def test_full_triple_on_c1_change(self):
        a = (0, 0, 0)
        b = (200, 0, 0)  # different coarse cell
        ss = manual_strip_set([[a, b, (201, 0, 0)]])
        seq = serialize(ss, uv_mode=False)
        cb = encode_hier(b)
        assert seq.tokens[3] == cb[0]  # plain geometry-range c1

    def test_uv_islands_get_island_markers(self):
        a = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        b = [(3, 0, 0), (4, 0, 0), (5, 0, 0)]
        c = [(0, 9, 0), (1, 9, 0), (2, 9, 0)]
        ss = manual_strip_set([a, b, c], islands=[0, 0, 1])
        seq = serialize(ss, uv_mode=True)
        # strips: island head, strip head, island head
        assert 128 <= seq.tokens[0] < 192
        kinds = []
        for t in seq.tokens:
            if 64 <= t < 128:
                kinds.append("strip")
            elif 128 <= t < 192:
                kinds.append("island")
        assert kinds == ["island", "strip", "island"]

    def test_matches_oracle_on_corpus(self, full_corpus):
        for entry in full_corpus[::3]:
            q = quantize_mesh(entry.mesh, entry.partition)
            ss = extract_strips(q, entry.stride)
            seq = serialize(ss, uv_mode=entry.uv_mode)
            assert seq.tokens == oracle_serialize(ss, entry.uv_mode), entry.name

    def test_empty_strip_set(self):
        ss = manual_strip_set([[(0, 0, 0), (1, 0, 0), (2, 0, 0)]])
        ss.strips = []
        with pytest.raises(ValueError, match="empty"):
            serialize(ss)

    def test_grammar_and_parse_lossless(self, full_corpus):
        for entry in full_corpus[::3]:
            q = quantize_mesh(entry.mesh, entry.partition)
            seq = serialize(extract_strips(q, entry.stride), uv_mode=entry.uv_mode)
            assert all(0 <= t < VOCAB.total_size for t in seq.tokens)
            stream = parse_tokens(seq)
            assert stream.discarded == 0, entry.name
            assert stream.consumed_tokens == len(seq.tokens)


class TestBaseline:
    def test_nine_tokens_per_face(self):
        q = quantize_mesh(synth.tri_grid(3, 3))
        seq = baseline_serialize(q)
        assert len(seq.tokens) == 9 * len(q.faces)
        assert compression_stats(seq).comp_rate == 1.0

    def test_parses_cleanly(self):
        q = quantize_mesh(synth.icosphere(1))
        seq = baseline_serialize(q)
        stream = parse_tokens(seq)
        assert stream.discarded == 0
        assert len(stream.events) == 3 * len(q.faces)

    def test_rejects_quads_and_empty(self):
        with pytest.raises(ValueError, match="triangle"):
            baseline_serialize(quantize_mesh(synth.quad_grid(2, 2)))


class TestCompressionStats:
    def test_worked_examples(self):
        coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        seq = serialize(manual_strip_set([coords]), uv_mode=False)
        stats = compression_stats(seq)
        assert stats.token_length == 6
        assert stats.comp_rate == pytest.approx(6 / 18)
        assert stats.transitions == 1

    def test_isolated_triangle(self):
        seq = serialize(manual_strip_set([[(0, 0, 0), (1, 0, 0), (0, 1, 0)]]), uv_mode=False)
        stats = compression_stats(seq)
        assert stats.token_length == 5
        assert stats.comp_rate == pytest.approx(5 / 9)

    def test_transitions_equal_strip_count(self, full_corpus):
        for entry in full_corpus[::3]:
            q = quantize_mesh(entry.mesh, entry.partition)
            ss = extract_strips(q, entry.stride)
            stats = compression_stats(serialize(ss, uv_mode=entry.uv_mode))
            assert stats.transitions == len(ss.strips), entry.name

    def test_level_shares_sum_to_one(self):
        q = quantize_mesh(synth.icosphere(2))
        stats = compression_stats(serialize(extract_strips(q, 1)))
        assert sum(stats.level_shares) == pytest.approx(1.0)

    def test_token_length_bounds(self, tri_corpus):
        for entry in tri_corpus:
            q = quantize_mesh(entry.mesh, entry.partition)
            ss = extract_strips(q, 1)
            seq = serialize(ss, uv_mode=entry.uv_mode)
            total_vertices = sum(len(s.keys) for s in ss.strips)
            assert len(seq.tokens) <= 3 * total_vertices
            assert len(seq.tokens) >= total_vertices + 2 * len(ss.strips)

    def test_dominance_over_baseline(self, tri_corpus):
        for entry in tri_corpus:
            q = quantize_mesh(entry.mesh, entry.partition)
            ss = extract_strips(q, 1)
            rate = compression_stats(serialize(ss, uv_mode=entry.uv_mode)).comp_rate
            assert rate <= 1.0, entry.name
            if any(len(s.keys) > 3 for s in ss.strips):
                assert rate < 1.0, entry.name

    def test_zero_faces_error(self):
        seq = serialize(manual_strip_set([[(0, 0, 0), (1, 0, 0), (2, 0, 0)]]))
        seq.header.face_count = 0
        with pytest.raises(ValueError, match="zero faces"):
            compression_stats(seq)


class TestTokenFile:
    def _sample(self):
        q = quantize_mesh(synth.tri_grid(4, 4))
        return serialize(extract_strips(q, 1), uv_mode=False)

    def test_round_trip(self, tmp_path):
        seq = self._sample()
        p = tmp_path / "t.sato"
        write_tokens(seq, p)
        back = read_tokens(p)
        assert back.tokens == seq.tokens
        assert back.header == seq.header

    def test_magic_bytes(self, tmp_path):
        seq = self._sample()
        p = tmp_path / "t.sato"
        write_tokens(seq, p)
        assert p.read_bytes()[:4] == b"SATO"

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.sato"
        p.write_bytes(b"XXXX" + bytes(60))
        with pytest.raises(TokenFileError, match="bad magic"):
            read_tokens(p)

    def test_bad_version(self, tmp_path):
        seq = self._sample()
        p = tmp_path / "t.sato"
        write_tokens(seq, p)
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(TokenFileError, match="version"):
            read_tokens(p)

    def test_truncated_payload(self, tmp_path):
        seq = self._sample()
        p = tmp_path / "t.sato"
        write_tokens(seq, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-3])
        with pytest.raises(TokenFileError, match="truncated"):
            read_tokens(p)

    def test_out_of_range_token(self, tmp_path):
        seq = self._sample()
        p = tmp_path / "t.sato"
        write_tokens(seq, p)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<H", raw, len(raw) - 2, 4800)
        p.write_bytes(bytes(raw))
        with pytest.raises(TokenFileError, match="out of range"):
            read_tokens(p)

    def test_out_of_range_message_names_first_bad_id(self, tmp_path):
        # the larger id comes later: the message names the first, not the maximum
        seq = self._sample()
        p = tmp_path / "t.sato"
        write_tokens(seq, p)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<H", raw, len(raw) - 8, 4801)
        struct.pack_into("<H", raw, len(raw) - 2, 65535)
        p.write_bytes(bytes(raw))
        with pytest.raises(TokenFileError) as err:
            read_tokens(p)
        assert str(err.value) == "token id 4801 out of range"

    def test_trailing_bytes(self, tmp_path):
        seq = self._sample()
        p = tmp_path / "t.sato"
        write_tokens(seq, p)
        p.write_bytes(p.read_bytes() + b"\x00\x00")
        with pytest.raises(TokenFileError, match="trailing"):
            read_tokens(p)

    @pytest.mark.parametrize(
        "field, value",
        [(3, float("nan")), (3, float("inf")), (3, 0.0), (3, -1.0), (0, float("nan")), (2, float("-inf"))],
    )
    def test_bad_transform(self, tmp_path, field, value):
        # header doubles at byte 10: center x, y, z, then scale
        seq = self._sample()
        p = tmp_path / "t.sato"
        write_tokens(seq, p)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<d", raw, 10 + 8 * field, value)
        p.write_bytes(bytes(raw))
        with pytest.raises(TokenFileError, match="transform"):
            read_tokens(p)

    def test_flags_round_trip(self, tmp_path):
        q = quantize_mesh(synth.quad_grid(3, 3))
        seq = serialize(extract_strips(q, 2), uv_mode=True)
        p = tmp_path / "q.sato"
        write_tokens(seq, p)
        back = read_tokens(p)
        assert back.header.uv_mode is True
        assert back.header.source_stride == 2
