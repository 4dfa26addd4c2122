from __future__ import annotations

import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from striptok import (
    TokenFileError,
    TokenHeader,
    TokenSequence,
    Transform,
    compression_stats,
    extract_strips,
    parse_tokens,
    quantize_mesh,
    read_tokens,
    serialize,
    uv_islands,
    write_obj,
    write_tokens,
)
from striptok import cli
from striptok.tokens import C1_GEO_BASE, C1_T_BASE, C1_UV_BASE, C2_BASE, C3_BASE, VOCAB_SIZE

import oracles
import synth
from oracles import IDENTITY_TRANSFORM, encode_hier, strip_set
from strategies import random_surfaces

# the vocabulary's id ranges by name (half-open), each from its base to the next
VOCAB_RANGES = {
    "C1_GEO": (C1_GEO_BASE, C1_T_BASE),
    "C1_T": (C1_T_BASE, C1_UV_BASE),
    "C1_UV": (C1_UV_BASE, C2_BASE),
    "C2": (C2_BASE, C3_BASE),
    "C3": (C3_BASE, VOCAB_SIZE),
}


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
        strips.append((idxs, isl))
    vertex_keys = np.array(keys, dtype=np.int64).reshape(-1, 3)
    return strip_set(strips, vertex_keys, stride, IDENTITY_TRANSFORM)


@st.composite
def manual_strip_sets(draw):
    """``(coord_lists, islands, stride)`` for :func:`manual_strip_set`: strips
    of 0-6 keys over grid values at the coarse and mid cell borders, so
    prefixes often repeat, and sparse island labels that may come back."""
    value = st.sampled_from([0, 1, 15, 16, 127, 128, 129, 511])
    coord = st.tuples(value, value, value)
    coord_lists = draw(st.lists(st.lists(coord, max_size=6), min_size=1, max_size=6))
    islands = draw(st.lists(st.sampled_from([0, 2, 5]), min_size=len(coord_lists), max_size=len(coord_lists)))
    return coord_lists, islands, draw(st.sampled_from([1, 2]))


def assert_serialize_matches_oracle(ss, uv_mode):
    """``serialize`` and ``face_count`` equal their scalar oracles; the ids are ``uint16``."""
    seq = serialize(ss, uv_mode)
    want = oracles.serialize(ss, uv_mode)
    assert seq.tokens.dtype == np.uint16
    assert seq.tokens.tolist() == want.tokens
    assert seq.header == want.header
    assert ss.face_count() == oracles.face_count(ss)


class TestVocab:
    def test_total_size(self):
        assert VOCAB_SIZE == 4800

    def test_ranges_partition_the_vocab(self):
        ranges = sorted(VOCAB_RANGES.values())
        assert ranges[0][0] == 0
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0
        assert ranges[-1][1] == VOCAB_SIZE

    def test_range_sizes(self):
        r = VOCAB_RANGES
        assert r["C1_GEO"] == (0, 64)
        assert r["C1_T"] == (64, 128)
        assert r["C1_UV"] == (128, 192)
        assert r["C2"] == (192, 704)
        assert r["C3"] == (704, 4800)
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
        assert seq.tokens.tolist() == [64 + 0, 192 + 0] + [704 + c3s[0]] + [704 + c for c in c3s[1:]]
        assert len(seq.tokens) == 6
        assert seq.header.face_count == 2

    def test_uv_mode_swaps_marker(self):
        _, ss = self.one_cell_strip()
        off = serialize(ss, uv_mode=False).tokens
        on = serialize(ss, uv_mode=True).tokens
        assert on[0] == off[0] + 64
        assert np.array_equal(on[1:], off[1:])

    def test_markers_reset_sharing(self):
        # second strip head shares (c1, c2) with the previous vertex but
        # still emits the full marker triple
        a = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        b = [(3, 0, 0), (4, 0, 0), (5, 0, 0)]
        ss = manual_strip_set([a, b])
        seq = serialize(ss, uv_mode=False)
        c3 = lambda c: 704 + encode_hier(c)[2]
        assert seq.tokens.tolist() == [
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
        assert seq.tokens.tolist() == [
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
        for islands, expected in (
            ([0, 0, 1], ["island", "strip", "island"]),
            # island 0 comes back after island 1: only its first strip is an island head
            ([0, 1, 0], ["island", "island", "strip"]),
        ):
            seq = serialize(manual_strip_set([a, b, c], islands=islands), uv_mode=True)
            assert 128 <= seq.tokens[0] < 192
            kinds = []
            for t in seq.tokens:
                if 64 <= t < 128:
                    kinds.append("strip")
                elif 128 <= t < 192:
                    kinds.append("island")
            assert kinds == expected

    def test_matches_oracle_on_corpus(self, full_corpus):
        for entry in full_corpus[::3]:
            q = quantize_mesh(entry.mesh, entry.partition)
            assert_serialize_matches_oracle(extract_strips(q, entry.stride), entry.uv_mode)

    @given(manual_strip_sets(), st.booleans())
    @example(([[(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(3, 0, 0)], [(4, 0, 0), (5, 0, 0)]], [0, 1, 0], 1), True)
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_on_manual_strip_sets(self, case, uv_mode):
        coord_lists, islands, stride = case
        assert_serialize_matches_oracle(manual_strip_set(coord_lists, islands, stride), uv_mode)

    @given(random_surfaces())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_random_surfaces(self, case):
        mesh, stride = case
        partition = uv_islands(mesh) if mesh.face_uvs is not None else None
        ss = extract_strips(quantize_mesh(mesh, partition), stride)
        for uv_mode in (False, True):
            assert_serialize_matches_oracle(ss, uv_mode)

    def test_empty_strip_set(self):
        with pytest.raises(ValueError, match="empty"):
            serialize(manual_strip_set([]))

    @pytest.mark.parametrize("shift", [512, -5])
    def test_off_grid_keys_error(self, shift):
        # off the grid a key's codes leave their level ranges: +512 makes the
        # first token an island marker, and -5 wraps in uint16
        q = quantize_mesh(synth.tri_grid(2, 2))
        strips = extract_strips(replace(q, vertex_keys=q.vertex_keys + shift), 1)
        with pytest.raises(ValueError, match=r"^grid coordinates must be in \[0, 512\)$"):
            serialize(strips)

    def test_grammar_and_parse_lossless(self, full_corpus):
        for entry in full_corpus[::3]:
            q = quantize_mesh(entry.mesh, entry.partition)
            seq = serialize(extract_strips(q, entry.stride), uv_mode=entry.uv_mode)
            assert all(0 <= t < VOCAB_SIZE for t in seq.tokens)
            stream = parse_tokens(seq)
            assert stream.discarded == 0, entry.name
            assert stream.consumed_tokens == len(seq.tokens)


class TestBaseline:
    """compare's per-face baseline: a full (c1, c2, c3) triple per corner."""

    def test_nine_tokens_per_face(self, tmp_path):
        mesh = synth.tri_grid(3, 3)
        q = quantize_mesh(mesh)
        ql = oracles.as_lists(q)
        tokens = []
        for fi in oracles.seed_order(q):
            for v in ql.faces[fi]:
                c1, c2, c3 = encode_hier(ql.vertex_keys[v])
                tokens += [c1, C2_BASE + c2, C3_BASE + c3]
        header = TokenHeader(False, 1, IDENTITY_TRANSFORM, len(q.faces))
        seq = TokenSequence(np.asarray(tokens, dtype=np.uint16), header)
        assert len(seq.tokens) == 9 * len(q.faces)
        assert compression_stats(seq).comp_rate == 1.0
        assert parse_tokens(seq).discarded == 0
        # compare reports that sequence's length and rate without building it
        src = tmp_path / "grid.obj"
        write_obj(mesh, src)
        row = {}
        cli._compare_one(src, SimpleNamespace(up_axis="y"), row)
        assert row["faces"] == len(q.faces)
        assert row["baseline_tokens"] == len(seq.tokens)
        assert row["baseline_comp_rate"] == compression_stats(seq).comp_rate


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
            assert stats.transitions == len(ss.islands), entry.name

    def test_level_shares_sum_to_one(self):
        q = quantize_mesh(synth.icosphere(2))
        stats = compression_stats(serialize(extract_strips(q, 1)))
        assert sum(stats.level_shares) == pytest.approx(1.0)

    def test_token_length_bounds(self, tri_corpus):
        for entry in tri_corpus:
            q = quantize_mesh(entry.mesh, entry.partition)
            ss = extract_strips(q, 1)
            seq = serialize(ss, uv_mode=entry.uv_mode)
            total_vertices = len(ss.keys)
            assert len(seq.tokens) <= 3 * total_vertices
            assert len(seq.tokens) >= total_vertices + 2 * len(ss.islands)

    def test_dominance_over_baseline(self, tri_corpus):
        for entry in tri_corpus:
            q = quantize_mesh(entry.mesh, entry.partition)
            ss = extract_strips(q, 1)
            rate = compression_stats(serialize(ss, uv_mode=entry.uv_mode)).comp_rate
            assert rate <= 1.0, entry.name
            if np.diff(ss.offsets).max() > 3:
                assert rate < 1.0, entry.name

    def test_zero_faces_give_no_rate(self):
        # a model-generated file may carry a header face count of 0
        seq = serialize(manual_strip_set([[(0, 0, 0), (1, 0, 0), (2, 0, 0)]]))
        seq.header.face_count = 0
        stats = compression_stats(seq)
        assert stats.comp_rate is None and stats.comp_rate_quad12 is None
        assert stats.token_length == len(seq.tokens) == 5
        assert stats.transitions == 1


class TestTokenFile:
    def _sample(self):
        q = quantize_mesh(synth.tri_grid(4, 4))
        return serialize(extract_strips(q, 1), uv_mode=False)

    def test_round_trip(self, tmp_path):
        seq = self._sample()
        p = tmp_path / "t.sato"
        write_tokens(seq, p)
        back = read_tokens(p)
        assert back.tokens.dtype == np.uint16
        assert np.array_equal(back.tokens, seq.tokens)
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

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "t.sato"
        write_tokens(self._sample(), p)
        p.write_bytes(p.read_bytes()[:8])
        with pytest.raises(TokenFileError, match="^truncated header$"):
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

    @pytest.mark.parametrize(
        "tokens, transform, message",
        [
            ([64, 192, 5000], IDENTITY_TRANSFORM, "token id 5000 out of range"),
            ([64, 4800, 704], IDENTITY_TRANSFORM, "token id 4800 out of range"),
            ([64, -1, 704], IDENTITY_TRANSFORM, "token id -1 out of range"),
            ([64, 70000, 704], IDENTITY_TRANSFORM, "token id 70000 out of range"),
            ([64, 2**70, 704], IDENTITY_TRANSFORM, f"token id {2**70} out of range"),
            ([64, -(2**70), 704], IDENTITY_TRANSFORM, f"token id {-(2**70)} out of range"),
            (np.array([64, 70000, 704]), IDENTITY_TRANSFORM, "token id 70000 out of range"),
            ([64, 192.5, 704], IDENTITY_TRANSFORM, "token id 192.5 out of range"),
            ([64, 192, 704], Transform((0.0, 0.0, 0.0), math.nan), "bad transform scale nan"),
            ([64, 192, 704], Transform((0.0, 0.0, 0.0), 0.0), "bad transform scale 0.0"),
            ([64, 192, 704], Transform((0.0, math.inf, 0.0), 1.0), r"non-finite transform center \(0.0, inf, 0.0\)"),
        ],
        ids=[
            "id_5000", "id_4800", "id_minus_1", "id_70000", "id_2_pow_70", "id_minus_2_pow_70",
            "id_70000_int64_array", "id_float", "nan_scale", "zero_scale", "inf_center",
        ],
    )
    def test_writer_rejects_what_reader_rejects(self, tmp_path, tokens, transform, message):
        seq = self._sample()
        seq = replace(seq, tokens=tokens, header=replace(seq.header, transform=transform))
        p = tmp_path / "bad.sato"
        with pytest.raises(TokenFileError, match=f"^{message}$"):
            write_tokens(seq, p)
        assert not p.exists()

    def test_flags_round_trip(self, tmp_path):
        q = quantize_mesh(synth.quad_grid(3, 3))
        seq = serialize(extract_strips(q, 2), uv_mode=True)
        p = tmp_path / "q.sato"
        write_tokens(seq, p)
        back = read_tokens(p)
        assert back.header.uv_mode is True
        assert back.header.source_stride == 2

    @pytest.mark.parametrize("flags", [0x04, 0x80, 0xFF])
    def test_unknown_flag_bits(self, tmp_path, flags):
        # byte 5 holds the flags: bit 0 uv mode, bit 1 stride 2, no others
        seq = self._sample()
        p = tmp_path / "t.sato"
        write_tokens(seq, p)
        raw = bytearray(p.read_bytes())
        raw[5] = flags
        p.write_bytes(bytes(raw))
        with pytest.raises(TokenFileError, match=f"^unknown flag bits {flags:#04x}$"):
            read_tokens(p)

    # an integer is an int or a NumPy integer, never a bool or a float
    @pytest.mark.parametrize(
        "stride", [0, 3, -1, True, 2.0, np.float64(2.0)], ids=["0", "3", "-1", "True", "2.0", "np.float64"]
    )
    def test_writer_rejects_a_stride_the_flags_cannot_hold(self, tmp_path, stride):
        seq = self._sample()
        seq = replace(seq, header=replace(seq.header, source_stride=stride))
        p = tmp_path / "bad.sato"
        with pytest.raises(TokenFileError, match=f"^source stride must be 1 or 2, got {stride}$"):
            write_tokens(seq, p)
        assert not p.exists()

    @pytest.mark.parametrize("face_count", [-1, 2**32, 2**70, 3.0, True])
    def test_writer_rejects_a_face_count_the_header_cannot_hold(self, tmp_path, face_count):
        seq = self._sample()
        seq = replace(seq, header=replace(seq.header, face_count=face_count))
        p = tmp_path / "bad.sato"
        with pytest.raises(TokenFileError, match=f"^face count {face_count} does not fit the header$"):
            write_tokens(seq, p)
        assert not p.exists()

    def test_largest_face_count_round_trips(self, tmp_path):
        seq = self._sample()
        seq = replace(seq, header=replace(seq.header, face_count=2**32 - 1))
        p = tmp_path / "t.sato"
        write_tokens(seq, p)
        assert read_tokens(p).header == seq.header
