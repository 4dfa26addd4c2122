"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict

import numpy as np
import pytest

from striptok import (
    Mesh,
    chamfer_hausdorff,
    compare_meshes,
    decode,
    decode_hier,
    decode_tokens,
    dual_decode_check,
    encode_hier,
    encode_mesh,
    f_score,
    parse_tokens,
    sample_surface,
    uv_islands,
    write_obj,
    write_tokens,
)
from striptok.cli import main as cli_main
from striptok.metrics import SampleSet
from striptok.tokens import VOCAB_SIZE, compression_stats
from striptok.verify import compare_quantized

import synth
from oracles import IDENTITY_TRANSFORM, as_lists, dequantize, normalize, pack_keys, seed_order, to_grid, vertex_ranks
from test_decode import validate_quantized
from test_tokens import VOCAB_RANGES
from strategies import corrupted_stream, structured_stream, uniform_stream
from test_metrics import brute_nn, cube_surface, point_set


def ok(n, msg):
    print(f"\nACCEPTANCE {n:02d} PASS - {msg}")


def test_criterion_01_vocabulary():
    assert VOCAB_SIZE == 4800
    spans = sorted(VOCAB_RANGES.values())
    assert spans[0][0] == 0 and spans[-1][1] == 4800
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    ok(1, "vocabulary layout covers [0, 4800) exactly, VOCAB_SIZE = 4800")


def test_criterion_02_triangle_round_trip(tri_corpus):
    assert len(tri_corpus) >= 25
    t0 = time.time()
    for entry in tri_corpus:
        q, ss, seq = encode_mesh(entry.mesh, entry.stride, entry.partition)
        q.check(len(entry.mesh.faces))
        ss.check(len(q.faces))
        decoded, _, report = decode_tokens(seq)
        assert report.clean(), entry.name
        good, detail = compare_quantized(q, decoded)
        assert good, f"{entry.name}: {detail}"
    dt = time.time() - t0
    assert dt < 10.0
    ok(2, f"stride-1 round trip exact on {len(tri_corpus)} triangle meshes in {dt:.2f}s")


def test_criterion_03_quad_round_trip(quad_corpus):
    t0 = time.time()
    for entry in quad_corpus:
        q, ss, seq = encode_mesh(entry.mesh, entry.stride, entry.partition)
        q.check(len(entry.mesh.faces))
        ss.check(len(q.faces))
        decoded, _, report = decode_tokens(seq)
        assert report.clean(), entry.name
        good, detail = compare_quantized(q, decoded)
        assert good, f"{entry.name}: {detail}"
    dt = time.time() - t0
    assert dt < 10.0
    ok(3, f"stride-2 round trip exact on {len(quad_corpus)} quad meshes in {dt:.2f}s")


def test_criterion_04_dual_decode(quad_corpus):
    for entry in quad_corpus:
        q, ss, seq = encode_mesh(entry.mesh, entry.stride, entry.partition)
        q.check(len(entry.mesh.faces))
        ss.check(len(q.faces))
        assert dual_decode_check(seq), entry.name
        tri, _, _ = decode_tokens(seq, 1)
        quad, _, _ = decode_tokens(seq, 2)
        split = []
        for f in as_lists(quad).faces:
            if len(f) == 4:
                split += [(f[0], f[1], f[3]), (f[1], f[2], f[3])]
            else:
                split.append(f)
        assert as_lists(tri).faces == split, entry.name
    ok(4, f"stride-1 decode equals the quad diagonal split on all {len(quad_corpus)} sequences")


def oracle_ribbon_token_count(n):
    """Simulate the emission rules directly on the known ribbon strip."""
    coords = []
    for i in range(n + 1):
        coords.append(to_grid((i / n, 0.0, 0.0)))
        coords.append(to_grid((i / n, 0.0, 1.0 / n)))
    count = 0
    prev = None
    for j, (c1, c2, c3) in enumerate(encode_hier(coords).tolist()):
        if j == 0:
            count += 3
        elif prev == (c1, c2):
            count += 1
        elif prev[0] == c1:
            count += 2
        else:
            count += 3
        prev = (c1, c2)
    return count


def test_criterion_05_compression(tri_corpus):
    t0 = time.time()
    rates = []
    for entry in tri_corpus:
        q, ss, seq = encode_mesh(entry.mesh, entry.stride, entry.partition)
        q.check(len(entry.mesh.faces))
        ss.check(len(q.faces))
        stats = compression_stats(seq)
        rates.append(stats.comp_rate)
        assert stats.comp_rate <= 1.0, entry.name
        if np.diff(ss.offsets).max() > 3:
            assert stats.comp_rate < 1.0, entry.name

    ribbon = synth.tri_ribbon(50)  # 100 triangles, single strip
    _, ss, seq = encode_mesh(ribbon, 1)
    assert len(ss.islands) == 1
    expected = oracle_ribbon_token_count(50)
    assert len(seq.tokens) == expected
    rate_ribbon = compression_stats(seq).comp_rate
    assert rate_ribbon <= 0.25

    mean_rate = sum(rates) / len(rates)
    assert mean_rate <= 0.45
    dt = time.time() - t0
    assert dt < 5.0
    ok(5, (
        f"dominance strict on all meshes; ribbon rate {rate_ribbon:.3f} == oracle "
        f"({expected} tokens); corpus mean {mean_rate:.3f} <= 0.45; {dt:.2f}s"
    ))


def greedy_patch_count(q, cap=7):
    """Greedy fan partition: patches pivot on the seed face's lowest vertex,
    collecting up to `cap` unvisited faces around the pivot (never crossing
    islands), the way patch-based tokenizers grow fan/disk neighborhoods."""
    q = as_lists(q)
    faces_of_vertex = defaultdict(list)
    for fi, face in enumerate(q.faces):
        for v in face:
            faces_of_vertex[v].append(fi)
    labels = q.island_of_face
    ranks = vertex_ranks(q)
    visited = [False] * len(q.faces)
    patches = 0
    order = seed_order(q)
    for isl in sorted(set(labels)):
        for f in order:
            if visited[f] or labels[f] != isl:
                continue
            patches += 1
            visited[f] = True
            pivot = min(q.faces[f], key=lambda v: ranks[v])
            size = 1
            fan = sorted(
                faces_of_vertex[pivot],
                key=lambda g: min(ranks[v] for v in q.faces[g]),
            )
            for nb in fan:
                if size >= cap:
                    break
                if not visited[nb] and labels[nb] == isl:
                    visited[nb] = True
                    size += 1
    return patches


def test_criterion_06_transition_economy(tri_corpus):
    worst = 0.0
    for entry in tri_corpus:
        q, ss, seq = encode_mesh(entry.mesh, entry.stride, entry.partition)
        q.check(len(entry.mesh.faces))
        ss.check(len(q.faces))
        stats = compression_stats(seq)
        assert stats.transitions == len(ss.islands)
        patches = greedy_patch_count(q)
        assert stats.transitions <= patches, (
            f"{entry.name}: {stats.transitions} strips > {patches} patches"
        )
        worst = max(worst, stats.transitions / patches)
    ok(6, f"strip transitions <= capped-7 greedy patch count on all meshes (worst ratio {worst:.2f})")


def test_criterion_07_quantization():
    for axis in range(3):
        grid = [[0, 0, 0] for _ in range(512)]
        for v in range(512):
            grid[v][axis] = v
        codes = encode_hier(grid)
        assert decode_hier(codes).tolist() == pack_keys(grid).tolist()
        assert len(set(map(tuple, codes.tolist()))) == 512

    rng = random.Random(123)
    raw = Mesh(
        positions=[(rng.uniform(-3, 5), rng.uniform(0, 2), rng.uniform(-1, 1)) for _ in range(10_000)],
        faces=[(0, 1, 2)],
    )
    normalized, _ = normalize(raw)
    bound = 0.5 / 512 + 1e-12
    for p in normalized.positions:
        q = dequantize(to_grid(p), IDENTITY_TRANSFORM)
        err = max(abs(a - b) for a, b in zip(p, q))
        assert err <= bound
    ok(7, "hier codes bijective per axis (3 x 512 exhaustive); error bound 0.5/512 on 10k vertices")


def test_criterion_08_decoder_totality():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    total = 0
    total_tokens = 0
    total_faces = 0
    total_discarded = 0

    def check(tokens, stride):
        nonlocal total, total_tokens, total_faces, total_discarded
        assert len(tokens) <= 4096
        stream = parse_tokens(tokens)
        stream.check(len(tokens))
        mesh, partition, report = decode(stream, stride, IDENTITY_TRANSFORM)
        # full accounting chain: tokens -> events -> strips -> faces
        report.check(len(stream.events), len(mesh.faces))
        validate_quantized(mesh, stride)
        total += 1
        total_tokens += len(tokens)
        total_faces += len(mesh.faces)
        total_discarded += stream.discarded

    # uniform-random id streams
    n_uniform = 900_000
    lengths = rng.integers(1, 49, size=n_uniform)
    pool = rng.integers(0, 4800, size=int(lengths.sum())).tolist()
    pos = 0
    for i, ln in enumerate(lengths):
        ln = int(ln)
        check(pool[pos:pos + ln], 1 + (i & 1))
        pos += ln

    # grammar-shaped streams with random geometry
    n_structured = 90_000
    for i in range(n_structured):
        check(structured_stream(rng), 1 + (i & 1))

    # corrupted encoder output
    n_corrupt = 9_000
    for i in range(n_corrupt):
        check(corrupted_stream(rng), 1 + (i & 1))

    # long streams up to the 4096 cap
    n_long = 1_000
    for i in range(n_long):
        check(uniform_stream(rng, 1024, 4097), 1 + (i & 1))

    assert total == n_uniform + n_structured + n_corrupt + n_long == 1_000_000
    dt = time.time() - t0
    ok(8, (
        f"{total:,} fuzzed sequences ({total_tokens:,} tokens) parsed+decoded without abort "
        f"in {dt:.0f}s; {total_faces:,} faces emitted, {total_discarded:,} tokens discarded"
    ))


def test_criterion_09_metrics_sanity():
    t0 = time.time()
    n = 10_000

    mesh = synth.icosphere(2)
    report = compare_meshes(mesh, mesh, n=n, seed=3)
    assert report.nc == 1.0 and report.cd == 0.0 and report.hd == 0.0 and report.f1 == 1.0

    a = sample_surface(cube_surface(), n=n, seed=0)
    b = sample_surface(synth.shift(cube_surface(), dx=0.01), n=n, seed=1)
    _, hd = chamfer_hausdorff(a, b)
    spacing = math.sqrt(6.0 / n)
    assert abs(hd - 0.01) <= 2.0 * spacing

    rng = np.random.default_rng(9)
    pa = point_set(rng.random((2000, 3)))
    pb = point_set(rng.random((2000, 3)))
    d_ab, _ = brute_nn(pa.points, pb.points)
    d_ba, _ = brute_nn(pb.points, pa.points)
    cd, hd2 = chamfer_hausdorff(pa, pb)
    assert cd == pytest.approx(0.5 * (d_ab.mean() + d_ba.mean()), abs=1e-12)
    assert hd2 == pytest.approx(max(d_ab.max(), d_ba.max()), abs=1e-12)

    for _ in range(20):
        x = point_set(rng.random((150, 3)))
        y = point_set(rng.random((120, 3)))
        taus = [0.001, 0.005, 0.02, 0.1, 0.5, 2.0]
        scores = [f_score(x, y, tau=t) for t in taus]
        assert scores == sorted(scores)

    dt = time.time() - t0
    assert dt < 30.0
    ok(9, f"self-metrics exact, offset-cube HD within tolerance, NN == O(n^2) oracle, f1 monotone; {dt:.1f}s")


def test_criterion_10_determinism(tri_corpus, quad_corpus, tmp_path):
    rng = random.Random(99)
    for entry in tri_corpus + quad_corpus:
        q, ss, seq = encode_mesh(entry.mesh, entry.stride, entry.partition)
        q.check(len(entry.mesh.faces))
        ss.check(len(q.faces))
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
        _, _, seq2 = encode_mesh(shuffled, entry.stride, partition)
        f1, f2 = tmp_path / "a.sato", tmp_path / "b.sato"
        write_tokens(seq, f1)
        write_tokens(seq2, f2)
        assert f1.read_bytes() == f2.read_bytes(), entry.name

    d = tmp_path / "objs"
    d.mkdir()
    write_obj(synth.tri_grid(6, 6), d / "grid.obj")
    write_obj(synth.icosphere(1), d / "ico.obj")
    write_obj(synth.tri_ribbon(20), d / "ribbon.obj")
    r_serial = tmp_path / "serial.jsonl"
    r_parallel = tmp_path / "parallel.jsonl"
    assert cli_main(["encode", str(d), "--output", str(tmp_path / "t1"), "--report", str(r_serial)]) == 0
    assert cli_main(["encode", str(d), "--output", str(tmp_path / "t2"), "--report", str(r_parallel), "--jobs", "4"]) == 0
    assert r_serial.read_bytes() == r_parallel.read_bytes()

    ok(10, f"face-shuffled encodes byte-identical on all {len(tri_corpus) + len(quad_corpus)} meshes; parallel == serial reports")
