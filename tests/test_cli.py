from __future__ import annotations

import concurrent.futures
import csv
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from striptok import (
    Mesh,
    TokenHeader,
    TokenSequence,
    Transform,
    compare_meshes,
    decode_tokens,
    dequantize_mesh,
    load_obj,
    read_tokens,
    sample_surface,
    serialize,
    uv_islands,
    write_obj,
    write_tokens,
)
from striptok import cli, metrics
from striptok.cli import main

from oracles import as_arrays
from strategies import acceptance_streams
import synth
from test_tokens import manual_strip_set


@pytest.fixture()
def obj_dir(tmp_path):
    d = tmp_path / "meshes"
    d.mkdir()
    write_obj(synth.tri_grid(4, 4), d / "grid.obj")
    write_obj(synth.tri_ribbon(12), d / "ribbon.obj")
    write_obj(synth.icosphere(1), d / "ico.obj")
    tagged = synth.with_uv_groups(synth.tri_grid(4, 4), [0 if f < 16 else 1 for f in range(32)])
    write_obj(tagged, d / "grid_uv.obj")
    return d


@pytest.fixture()
def quad_dir(tmp_path):
    d = tmp_path / "quads"
    d.mkdir()
    write_obj(synth.quad_grid(4, 4), d / "qgrid.obj")
    write_obj(synth.quad_ribbon(10), d / "qribbon.obj")
    return d


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture()
def recording_pool(monkeypatch):
    """Stands in for the CLI's process pool: runs the map in this process and
    records, as each pool starts, its size, its workers' thread budget and
    whether the ``--ref`` sample set it hands them has its k-d tree yet."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            reference = getattr(initargs[0], "reference", None)
            started.append({
                "max_workers": max_workers,
                "threads": initargs[0].threads,
                "reference_tree": reference is not None and "tree" in vars(reference),
            })
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # the CLI imports the pool class where the pool starts, from here
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_worker_args", None)
    return started


@pytest.fixture()
def recording_budgets(monkeypatch):
    """``(file name, thread budget)`` of every file the CLI runs, in the
    order they start."""
    ran = []
    run_one = cli._run_one

    def recording_run_one(path, args):
        ran.append((Path(path).name, args.threads))
        return run_one(path, args)

    monkeypatch.setattr(cli, "_run_one", recording_run_one)
    return ran


METRIC_NAMES = (
    "MetricReport",
    "SampleSet",
    "chamfer_hausdorff",
    "compare_meshes",
    "f_score",
    "normal_consistency",
    "sample_surface",
)

# run by TestExitCodes.test_commands_import_only_what_they_run as
# ``python -c IMPORT_PATH_SCRIPT <tri mesh dir> <quad mesh dir> <output dir>``
IMPORT_PATH_SCRIPT = f"""
import json, sys
from pathlib import Path

import striptok, striptok.cli

def loaded():
    names = ("scipy", "concurrent.futures.process", "concurrent.futures.thread")
    return [name for name in names if name in sys.modules]

meshes, quads, out = map(Path, sys.argv[1:])
seen = {{"after import": loaded()}}
striptok.cli._cpus = lambda: 1  # a thread budget of 1: every file on the calling thread
runs = [
    ["encode", meshes, "--output", out / "enc1", "--report", out / "enc1.jsonl"],
    ["encode", quads, "--stride", "2", "--output", out / "enc2", "--report", out / "enc2.jsonl"],
    ["encode", meshes, "--uv", "--output", out / "encuv", "--report", out / "encuv.jsonl"],
    ["decode", out / "enc1", "--output", out / "dec", "--report", out / "dec.jsonl"],
    ["roundtrip", meshes, "--report", out / "roundtrip.jsonl"],
    ["filter", meshes, "--output", out / "accepted", "--report", out / "filter.jsonl"],
    ["compare", meshes, "--output", out / "compare.csv"],
    ["stats", out / "enc2", "--report", out / "stats.jsonl"],
]
codes = [striptok.cli.main([*map(str, argv), "--jobs", "1"]) for argv in runs]
seen["after commands"] = loaded()
codes.append(striptok.cli.main(["stats", str(out / "enc2"), "--tau", "0.01"]))  # --tau without --ref
seen["scipy after stats --tau"] = "scipy" in sys.modules
striptok.cli._cpus = lambda: 2  # a budget of 2 runs the four token files on two threads
codes.append(striptok.cli.main(["decode", str(out / "enc1"), "--output", str(out / "dec2"), "--report", str(out / "dec2.jsonl")]))
seen["after a decode on two threads"] = loaded()
ref = ["stats", out / "dec" / "grid.decoded.obj", "--ref", meshes / "grid.obj", "--samples", "200"]
codes.append(striptok.cli.main([*map(str, ref), "--report", str(out / "scores.jsonl")]))
seen["scipy after stats --ref"] = "scipy" in sys.modules
import striptok.metrics
seen["metric names"] = [n for n in {METRIC_NAMES!r} if getattr(striptok, n) is getattr(striptok.metrics, n)]
seen["exit codes"] = codes
print(json.dumps(seen))
"""


class TestEncode:
    def test_encode_directory(self, obj_dir, tmp_path):
        report = tmp_path / "enc.jsonl"
        out = tmp_path / "tok"
        rc = main(["encode", str(obj_dir), "--output", str(out), "--report", str(report)])
        assert rc == 0
        rows = read_jsonl(report)
        assert [r["file"] for r in rows] == sorted(r["file"] for r in rows)
        assert all("error" not in r for r in rows)
        assert (out / "grid.sato").exists()
        for r in rows:
            assert r["comp_rate"] < 1.0
            assert set(r["level_shares"]) == {"c1", "c2", "c3"}

    def test_quad_ribbon_single_transition(self, quad_dir, tmp_path):
        report = tmp_path / "enc.jsonl"
        out = tmp_path / "tok"
        rc = main([
            "encode", str(quad_dir / "qribbon.obj"), "--stride", "2",
            "--output", str(out), "--report", str(report),
        ])
        assert rc == 0
        row = read_jsonl(report)[0]
        assert row["strips"] == 1
        seq = read_tokens(out / "qribbon.sato")
        assert seq.header.source_stride == 2

    def test_stride_mismatch_fails(self, obj_dir, tmp_path):
        report = tmp_path / "enc.jsonl"
        rc = main(["encode", str(obj_dir / "grid.obj"), "--stride", "2", "--report", str(report)])
        assert rc == 1
        row = read_jsonl(report)[0]
        assert "degree" in row["error"]

    def test_uv_fallback_warning(self, obj_dir, tmp_path):
        report = tmp_path / "enc.jsonl"
        out = tmp_path / "tok"
        rc = main([
            "encode", str(obj_dir / "grid.obj"), "--uv",
            "--output", str(out), "--report", str(report),
        ])
        assert rc == 0
        row = read_jsonl(report)[0]
        assert "single island" in row["warning"]
        assert row["islands"] == 1

    def test_uv_islands_counted(self, obj_dir, tmp_path):
        report = tmp_path / "enc.jsonl"
        out = tmp_path / "tok"
        rc = main([
            "encode", str(obj_dir / "grid_uv.obj"), "--uv",
            "--output", str(out), "--report", str(report),
        ])
        assert rc == 0
        assert read_jsonl(report)[0]["islands"] == 2


class TestDecode:
    def test_decode_round(self, obj_dir, tmp_path):
        out = tmp_path / "tok"
        rc = main(["encode", str(obj_dir), "--output", str(out), "--report", str(tmp_path / "e.jsonl")])
        assert rc == 0
        report = tmp_path / "dec.jsonl"
        objs = tmp_path / "dec"
        rc = main(["decode", str(out), "--output", str(objs), "--report", str(report)])
        assert rc == 0
        for row in read_jsonl(report):
            assert row["discarded"] == 0
            assert row["dropped_strips"] == 0
        decoded = load_obj(objs / "grid.decoded.obj")
        assert len(decoded.faces) == 32

    def test_island_groups_in_output(self, obj_dir, tmp_path):
        out = tmp_path / "tok"
        main(["encode", str(obj_dir / "grid_uv.obj"), "--uv", "--output", str(out),
              "--report", str(tmp_path / "e.jsonl")])
        objs = tmp_path / "dec"
        main(["decode", str(out / "grid_uv.sato"), "--output", str(objs),
              "--report", str(tmp_path / "d.jsonl")])
        text = (objs / "grid_uv.decoded.obj").read_text()
        assert "g island_0" in text and "g island_1" in text

    def test_corrupted_token_decodes_with_counter(self, obj_dir, tmp_path):
        out = tmp_path / "tok"
        main(["encode", str(obj_dir / "grid.obj"), "--output", str(out),
              "--report", str(tmp_path / "e.jsonl")])
        seq = read_tokens(out / "grid.sato")
        # overwrite a mid-sequence token with a second strip marker
        seq.tokens[5] = 64
        write_tokens(seq, out / "grid.sato")
        report = tmp_path / "dec.jsonl"
        rc = main(["decode", str(out / "grid.sato"), "--output", str(tmp_path / "dec"),
                   "--report", str(report)])
        assert rc == 0
        row = read_jsonl(report)[0]
        assert row["discarded"] > 0

    def test_stride_override_matches_dual_decode(self, quad_dir, tmp_path):
        out = tmp_path / "tok"
        main(["encode", str(quad_dir / "qgrid.obj"), "--stride", "2", "--output", str(out),
              "--report", str(tmp_path / "e.jsonl")])
        objs = tmp_path / "dec"
        main(["decode", str(out / "qgrid.sato"), "--output", str(objs),
              "--report", str(tmp_path / "d1.jsonl")])
        quad_mesh = load_obj(objs / "qgrid.decoded.obj")
        objs2 = tmp_path / "dec_tri"
        main(["decode", str(out / "qgrid.sato"), "--stride", "1", "--output", str(objs2),
              "--report", str(tmp_path / "d2.jsonl")])
        tri_mesh = load_obj(objs2 / "qgrid.decoded.obj")
        assert tri_mesh.face_degree == 3
        assert len(tri_mesh.faces) == 2 * len(quad_mesh.faces)

    def test_header_stride_only_when_none_given(self):
        # an invalid stride raises as decode does; it never falls back to the header's
        seq = serialize(manual_strip_set([[(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]], stride=2))
        assert len(decode_tokens(seq)[0].faces) == 1
        assert len(decode_tokens(seq, 1)[0].faces) == 2
        for stride in (0, 3):
            with pytest.raises(ValueError, match=f"stride must be 1 or 2, got {stride}"):
                decode_tokens(seq, stride)


class TestRoundtrip:
    def test_all_pass(self, obj_dir, quad_dir, tmp_path):
        report = tmp_path / "rt.jsonl"
        rc = main(["roundtrip", str(obj_dir), str(quad_dir), "--report", str(report)])
        assert rc == 0
        rows = read_jsonl(report)
        assert len(rows) == 6
        assert all(r["status"] == "pass" for r in rows)

    def test_decode_counters_fail_an_exact_round_trip(self, obj_dir, tmp_path, monkeypatch):
        # a stray mid id after the stream is discarded: every face, winding
        # and island still matches, and the counters alone fail the file
        serialize = cli.serialize

        def with_stray_mid(strips, uv_mode=False):
            seq = serialize(strips, uv_mode)
            return TokenSequence(np.append(seq.tokens, np.uint16(192)), seq.header)

        monkeypatch.setattr(cli, "serialize", with_stray_mid)
        report = tmp_path / "rt.jsonl"
        assert main(["roundtrip", str(obj_dir / "grid.obj"), "--report", str(report)]) == 1
        [row] = read_jsonl(report)
        assert row["status"] == "fail"
        assert row["detail"].startswith("decode counters nonzero: DecodeReport(discarded_tokens=1, ")

    def test_non_manifold_noted(self, tmp_path):
        d = tmp_path / "nm"
        d.mkdir()
        write_obj(synth.non_manifold_fan(), d / "fan.obj")
        report = tmp_path / "rt.jsonl"
        rc = main(["roundtrip", str(d), "--report", str(report)])
        assert rc == 0
        row = read_jsonl(report)[0]
        assert row["status"] == "pass"
        assert row.get("note") == "non_manifold"

    def test_shuffled_copy_identical_tokens(self, tmp_path):
        mesh = synth.icosphere(1)
        rng = random.Random(12)
        order = list(range(len(mesh.faces)))
        rng.shuffle(order)
        d = tmp_path / "pair"
        d.mkdir()
        write_obj(mesh, d / "a.obj")
        write_obj(Mesh(positions=mesh.positions, faces=mesh.faces[order]), d / "b.obj")
        # the same file with a doubled space, a tab and trailing spaces in each f line
        lines = (d / "a.obj").read_text().split("\n")
        for i, line in enumerate(lines):
            if line.startswith("f "):
                v1, v2, v3 = line[2:].split()
                lines[i] = f"f {v1}  {v2}\t{v3}  "
        (d / "c.obj").write_text("\n".join(lines))
        out = tmp_path / "tok"
        rc = main(["encode", str(d), "--output", str(out), "--report", str(tmp_path / "e.jsonl")])
        assert rc == 0
        a = (out / "a.sato").read_bytes()
        assert (out / "b.sato").read_bytes() == a
        assert (out / "c.sato").read_bytes() == a


class TestParallel:
    def test_jobs_byte_identical_report(self, obj_dir, quad_dir, tmp_path):
        r1 = tmp_path / "serial.jsonl"
        r2 = tmp_path / "parallel.jsonl"
        out1 = tmp_path / "t1"
        out2 = tmp_path / "t2"
        rc = main(["encode", str(obj_dir), "--output", str(out1), "--report", str(r1)])
        assert rc == 0
        rc = main(["encode", str(obj_dir), "--output", str(out2), "--report", str(r2), "--jobs", "3"])
        assert rc == 0
        assert r1.read_bytes() == r2.read_bytes()
        for p1 in sorted(out1.iterdir()):
            assert p1.read_bytes() == (out2 / p1.name).read_bytes()

    def test_stats_ref_jobs_byte_identical(self, obj_dir, tmp_path):
        ref = str(obj_dir / "grid.obj")
        reports = [tmp_path / f"j{jobs}.jsonl" for jobs in (1, 2)]
        for jobs, report in zip((1, 2), reports):
            argv = ["stats", str(obj_dir), "--ref", ref, "--samples", "2000", "--jobs", str(jobs), "--report", str(report)]
            assert main(argv) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        assert len(read_jsonl(reports[0])) == 4

    def test_stats_ref_workers_inherit_the_reference_tree(self, obj_dir, tmp_path, recording_pool):
        ref = str(obj_dir / "grid.obj")
        argv = ["stats", str(obj_dir), "--ref", ref, "--samples", "500", "--jobs", "2", "--report", str(tmp_path / "r.jsonl")]
        assert main(argv) == 0
        assert recording_pool == [{"max_workers": 2, "threads": max(1, cli._cpus() // 2), "reference_tree": True}]

    def test_serial_run_takes_every_cpu(self, obj_dir, tmp_path, monkeypatch):
        asked, sampled = [], []

        def recording_compare(*args, workers, **kwargs):
            asked.append(workers)
            return compare_meshes(*args, workers=workers, **kwargs)

        def recording_sample(*args, workers, **kwargs):
            sampled.append(workers)
            return sample_surface(*args, workers=workers, **kwargs)

        monkeypatch.setattr(cli, "compare_meshes", recording_compare)
        monkeypatch.setattr(metrics, "sample_surface", recording_sample)
        ref = str(obj_dir / "grid.obj")
        argv = ["stats", ref, "--ref", ref, "--samples", "500", "--jobs", "4", "--report", str(tmp_path / "r.jsonl")]
        assert main(argv) == 0
        assert asked == [cli._cpus()] and cli._cpus() == len(os.sched_getaffinity(0))
        assert sampled == [cli._cpus()] * 2  # the reference, then the input

    def test_stats_ref_report_is_the_same_at_any_thread_budget(self, obj_dir, tmp_path, monkeypatch):
        ref = str(obj_dir / "grid.obj")
        reports = []
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(cli, "_cpus", lambda: cpus)
            report = tmp_path / f"cpus{cpus}.jsonl"
            assert main(["stats", str(obj_dir), "--ref", ref, "--samples", "3000", "--report", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports == [reports[0]] * 4

    def test_parallel_roundtrip(self, obj_dir, tmp_path):
        r1 = tmp_path / "s.jsonl"
        r2 = tmp_path / "p.jsonl"
        assert main(["roundtrip", str(obj_dir), "--report", str(r1)]) == 0
        assert main(["roundtrip", str(obj_dir), "--report", str(r2), "--jobs", "4"]) == 0
        assert r1.read_bytes() == r2.read_bytes()


@pytest.fixture()
def budget_inputs(obj_dir, quad_dir, tmp_path):
    """obj_dir with a mesh ``filter`` accepts, and its tokens alongside those
    of quad_dir: five meshes and seven token files."""
    torus = synth.torus(25, 20, quads=False)
    write_obj(synth.with_uv_groups(torus, [f // 84 for f in range(len(torus.faces))]), obj_dir / "torus.obj")
    tokens = tmp_path / "tokens"
    assert main(["encode", str(obj_dir), "--uv", "--output", str(tokens), "--report", str(tmp_path / "e1.jsonl")]) == 0
    argv = ["encode", str(quad_dir), "--stride", "2", "--output", str(tokens), "--report", str(tmp_path / "e2.jsonl")]
    assert main(argv) == 0
    return obj_dir, tokens


def budget_argv(command, meshes, tokens, out):
    """One ``--jobs 1`` call of ``command`` whose every output is under ``out``."""
    report = ["--report", str(out / "report.jsonl")]
    argv = {
        "encode": ["encode", meshes, "--uv", "--output", out / "files", *report],
        "decode": ["decode", tokens, "--output", out / "files", *report],
        "decode_as_triangles": ["decode", tokens, "--stride", "1", "--output", out / "files", *report],
        "roundtrip": ["roundtrip", meshes, *report],
        "filter": ["filter", meshes, "--output", out / "files", *report],
        "compare": ["compare", meshes, "--output", out / "compare.csv"],
        "stats": ["stats", tokens, *report],
        "stats_ref": ["stats", meshes, "--ref", meshes / "ico.obj", "--samples", "3000", *report],
    }[command]
    return [*map(str, argv), "--jobs", "1"]


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestThreadBudget:
    """A lone process runs its files on ``min(budget, files)`` threads, the
    calling thread among them, and each file gets ``budget // threads``."""

    @pytest.mark.parametrize("switch_interval", [None, 1e-6], ids=["default_switch", "short_switch"])
    @pytest.mark.parametrize(
        "command",
        ["encode", "decode", "decode_as_triangles", "roundtrip", "filter", "compare", "stats", "stats_ref"],
    )
    def test_same_bytes_at_any_budget(self, budget_inputs, tmp_path, monkeypatch, command, switch_interval):
        # a short switch interval makes the threads trade the GIL often, so a
        # row or a file written out of turn would show
        meshes, tokens = budget_inputs
        runs = []
        interval = sys.getswitchinterval()
        if switch_interval:
            sys.setswitchinterval(switch_interval)
        try:
            for cpus in (1, 2, 3, 4):
                monkeypatch.setattr(cli, "_cpus", lambda: cpus)
                out = tmp_path / f"cpus{cpus}"
                assert main(budget_argv(command, meshes, tokens, out)) == 0
                runs.append(tree_bytes(out))
        finally:
            sys.setswitchinterval(interval)
        files = {"encode": 6, "decode": 8, "decode_as_triangles": 8, "filter": 2}.get(command, 1)  # the report too
        assert len(runs[0]) == files
        assert runs == [runs[0]] * 4

    @pytest.mark.parametrize(
        "cpus, files, pools, budget",
        [
            (1, 4, [], 1),
            (2, 4, [1], 1),
            (3, 4, [2], 1),
            (4, 4, [3], 1),
            (4, 3, [2], 1),
            (4, 2, [1], 2),
            (5, 2, [1], 2),
            (4, 1, [], 4),
        ],
    )
    def test_pool_size_and_file_budgets(
        self, obj_dir, tmp_path, monkeypatch, recording_threads, recording_budgets, cpus, files, pools, budget
    ):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        inputs = sorted(obj_dir.glob("*.obj"))[:files]
        assert main(["roundtrip", *map(str, inputs), "--report", str(tmp_path / "r.jsonl")]) == 0
        assert recording_threads == pools  # min(cpus, files) - 1 pool threads, none for one thread
        assert recording_budgets == [(p.name, budget) for p in inputs]

    def test_process_pool_workers_start_no_threads(
        self, obj_dir, tmp_path, monkeypatch, recording_pool, recording_threads, recording_budgets
    ):
        monkeypatch.setattr(cli, "_cpus", lambda: 4)
        assert main(["roundtrip", str(obj_dir), "--jobs", "2", "--report", str(tmp_path / "r.jsonl")]) == 0
        assert [pool["max_workers"] for pool in recording_pool] == [2]
        assert recording_threads == []
        assert [threads for _, threads in recording_budgets] == [2] * 4

    # every pool of the call: the reference's sampling on the whole budget
    # (3), the file threads (files - 1), then per file at a budget of 2 its
    # sampling and the two queries (1 each); its tree build, the only one
    # its pass lacks, runs on the calling thread
    @pytest.mark.parametrize(
        "files, workers, pools",
        [pytest.param(4, 1, [3, 3], id="4-1"), pytest.param(2, 2, [3, 1, 1, 1, 1, 1, 1, 1], id="2-2")],
    )
    def test_stats_ref_files_share_the_budget_and_the_reference_tree(
        self, obj_dir, tmp_path, monkeypatch, recording_threads, files, workers, pools
    ):
        asked = []

        def recording_compare(reference, *args, workers, **kwargs):
            asked.append((workers, "tree" in vars(reference)))
            return compare_meshes(reference, *args, workers=workers, **kwargs)

        monkeypatch.setattr(cli, "compare_meshes", recording_compare)
        monkeypatch.setattr(cli, "_cpus", lambda: 4)
        inputs = sorted(obj_dir.glob("*.obj"))[:files]
        argv = ["stats", *map(str, inputs), "--ref", str(obj_dir / "grid.obj"), "--samples", "500"]
        assert main([*argv, "--report", str(tmp_path / "r.jsonl")]) == 0
        assert recording_threads == pools
        assert asked == [(workers, True)] * files  # the tree was built before the first file ran


class TestFilter:
    def test_filter_rules(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        small = synth.tri_grid(4, 4)  # 32 faces -> face_count reject
        write_obj(small, d / "small.obj")
        big = synth.torus(25, 20, quads=False)  # 1000 faces, manifold
        tagged = synth.with_uv_groups(big, [fi // 84 for fi in range(len(big.faces))])
        write_obj(tagged, d / "ok.obj")
        write_obj(synth.non_manifold_fan(), d / "fan.obj")
        out = tmp_path / "accepted"
        report = tmp_path / "f.jsonl"
        rc = main(["filter", str(d), "--output", str(out), "--report", str(report)])
        assert rc == 0
        rows = {r["file"]: r for r in read_jsonl(report)}
        assert rows["small.obj"]["reason"] == "face_count"
        assert rows["fan.obj"]["reason"] == "manifold"
        assert rows["ok.obj"]["accepted"] is True
        assert (out / "ok.obj").exists()
        assert not (out / "small.obj").exists()
        err = capsys.readouterr().err
        assert "accepted 1/3" in err

    def test_accepted_subset(self, obj_dir, tmp_path):
        out = tmp_path / "acc"
        report = tmp_path / "f.jsonl"
        rc = main(["filter", str(obj_dir), "--output", str(out), "--report", str(report)])
        assert rc == 0
        accepted = {r["file"] for r in read_jsonl(report) if r.get("accepted")}
        copied = {p.name for p in out.iterdir()} if out.exists() else set()
        assert copied == accepted


class TestCompare:
    def test_csv_and_reference(self, obj_dir, tmp_path, capsys):
        csv_path = tmp_path / "cmp.csv"
        rc = main(["compare", str(obj_dir), "--output", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "file"
        assert lines[-1].startswith("mean,")
        body = [l.split(",") for l in lines[1:-1]]
        for row in body:
            assert float(row[header.index("sato_comp_rate")]) < 1.0
            assert float(row[header.index("baseline_comp_rate")]) == 1.0
            assert int(row[header.index("baseline_tokens")]) == 9 * int(row[header.index("faces")])
        err = capsys.readouterr().err
        assert "SATO 0.283" in err and "DeepMesh 0.330" in err and "BPT 0.228" in err

    def test_ribbon_rate_below_quarter(self, tmp_path):
        d = tmp_path / "r"
        d.mkdir()
        write_obj(synth.tri_ribbon(50), d / "ribbon.obj")
        csv_path = tmp_path / "cmp.csv"
        assert main(["compare", str(d), "--output", str(csv_path)]) == 0
        line = csv_path.read_text().splitlines()[1].split(",")
        assert float(line[4]) < 0.25


class TestStats:
    def test_token_stats(self, obj_dir, tmp_path):
        out = tmp_path / "tok"
        main(["encode", str(obj_dir), "--output", str(out), "--report", str(tmp_path / "e.jsonl")])
        report = tmp_path / "s.jsonl"
        rc = main(["stats", str(out), "--report", str(report)])
        assert rc == 0
        for row in read_jsonl(report):
            assert row["discarded"] == 0
            assert 0.0 < row["comp_rate"] <= 1.0
            assert row["stride"] == 1

    @pytest.mark.parametrize("stride", [1, 2])
    def test_header_without_faces(self, tmp_path, stride):
        # a model-generated file may carry a header face count of 0: its row
        # has every field, the rates as null
        (tmp_path / "tok").mkdir()
        header = TokenHeader(False, stride, Transform((0.0, 0.0, 0.0), 1.0), 0)
        write_tokens(TokenSequence([64, 192, 704, 705, 706], header), tmp_path / "tok" / "s.sato")
        report = tmp_path / "s.jsonl"
        assert main(["stats", str(tmp_path / "tok"), "--report", str(report)]) == 0
        want = {
            "file": "s.sato",
            "faces": 0,
            "stride": stride,
            "uv_mode": False,
            "tokens": 5,
            "transitions": 1,
            "comp_rate": None,
            "level_shares": {"c1": 0.2, "c2": 0.2, "c3": 0.6},
            "discarded": 0,
        }
        if stride == 2:
            want["comp_rate_quad12"] = None
        assert read_jsonl(report) == [want]

    def test_metric_stats(self, obj_dir, tmp_path):
        report = tmp_path / "m.jsonl"
        rc = main([
            "stats", str(obj_dir / "grid.obj"), "--ref", str(obj_dir / "grid.obj"),
            "--samples", "2000", "--report", str(report),
        ])
        assert rc == 0
        row = read_jsonl(report)[0]
        assert row["nc"] == 1.0 and row["cd"] == 0.0 and row["hd"] == 0.0 and row["f1"] == 1.0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--samples", "0", "must be at least 1, got 0"),
            ("--tau", "0", "tau must be positive, got 0"),
            ("--tau", "nan", "tau must be positive, got nan"),
            ("--seed", "-1", "must be a non-negative int, got -1"),
        ],
        ids=["samples_0", "tau_0", "tau_nan", "seed_-1"],
    )
    def test_bad_metric_arguments_fail_at_parse_time(self, obj_dir, tmp_path, capsys, flag, value, message, jobs):
        grid = str(obj_dir / "grid.obj")
        report = tmp_path / "m.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["stats", grid, "--ref", grid, flag, value, "--report", str(report), "--jobs", jobs])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("flag, value", [("--samples", "500"), ("--tau", "0.01"), ("--seed", "3")])
    def test_metric_arguments_need_ref(self, obj_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "tok"
        main(["encode", str(obj_dir / "grid.obj"), "--output", str(out), "--report", str(tmp_path / "e.jsonl")])
        report = tmp_path / "s.jsonl"
        assert main(["stats", str(out), flag, value, "--report", str(report)]) == 2
        assert f"{flag} applies only with --ref" in capsys.readouterr().err
        assert not report.exists()


class TestExitCodes:
    def test_run_as_a_module(self):
        # the package does not import its CLI, so ``python -m`` runs one copy
        # of it and warns of none
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "striptok.cli", "stats", "--help"]
        run = subprocess.run(argv, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage:")

    def test_commands_import_only_what_they_run(self, obj_dir, quad_dir, tmp_path):
        # a fresh interpreter: importing the package and its CLI, and every
        # command but ``stats --ref`` on one process with a thread budget of
        # 1, load neither SciPy nor a pool; ``stats --tau`` without ``--ref``
        # checks the value and exits 2, still without SciPy; a budget of 2
        # over four files loads the thread pool alone; ``stats --ref`` loads
        # SciPy, and the metric names served by the package are the ones in
        # ``striptok.metrics``
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-c", IMPORT_PATH_SCRIPT, str(obj_dir), str(quad_dir), str(tmp_path / "out")]
        run = subprocess.run(argv, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == {
            "after import": [],
            "after commands": [],
            "scipy after stats --tau": False,
            "after a decode on two threads": ["concurrent.futures.thread"],
            "scipy after stats --ref": True,
            "metric names": list(METRIC_NAMES),
            "exit codes": [0] * 8 + [2, 0, 0],
        }

    def test_missing_inputs(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["encode", str(empty)]) == 2

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["encode"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, obj_dir, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["encode", str(obj_dir), "--output", str(tmp_path / "out"), "--jobs", jobs])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_encode_inputs_with_one_output_path(self, tmp_path, capsys):
        a, b = tmp_path / "a" / "x.obj", tmp_path / "b" / "x.obj"
        for path, mesh in ((a, synth.tri_grid(3, 3)), (b, synth.tri_grid(4, 3))):
            path.parent.mkdir()
            write_obj(mesh, path)
        out = tmp_path / "out"
        assert main(["encode", str(a), str(b), "--output", str(out), "--jobs", "2"]) == 2
        assert f"{a} and {b} would both write {out / 'x.sato'}" in capsys.readouterr().err
        assert not out.exists()

    def test_decode_inputs_with_one_output_path(self, tmp_path, capsys):
        a, b = tmp_path / "a" / "x.sato", tmp_path / "b" / "x.sato"
        for path, mesh in ((a, synth.tri_grid(3, 3)), (b, synth.tri_grid(4, 3))):
            path.parent.mkdir()
            write_obj(mesh, tmp_path / "x.obj")
            assert main(["encode", str(tmp_path / "x.obj"), "--output", str(path.parent), "--report", str(tmp_path / "r")]) == 0
        before = a.read_bytes(), b.read_bytes()
        assert main(["decode", str(a), str(b), "--output", str(tmp_path / "dec")]) == 2
        assert f"{a} and {b} would both write {tmp_path / 'dec' / 'x.decoded.obj'}" in capsys.readouterr().err
        assert (a.read_bytes(), b.read_bytes()) == before and not (tmp_path / "dec").exists()

    def test_filter_output_onto_its_input(self, obj_dir, capsys):
        before = {p.name: p.read_bytes() for p in obj_dir.iterdir()}
        assert main(["filter", str(obj_dir), "--output", str(obj_dir)]) == 2
        grid = obj_dir / "grid.obj"
        assert f"the output of {grid} would overwrite input {grid}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in obj_dir.iterdir()} == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["roundtrip", "{ico}", "{grid}", "--report", "{grid}"],
            ["compare", "{ico}", "{grid}", "--output", "{grid}"],
            ["stats", "{ico}", "--ref", "{grid}", "--report", "{grid}"],
        ],
        ids=["roundtrip", "compare", "stats_ref"],
    )
    def test_report_onto_an_input(self, obj_dir, capsys, argv):
        grid = obj_dir / "grid.obj"
        before = {p.name: p.read_bytes() for p in obj_dir.iterdir()}
        assert main([a.format(ico=obj_dir / "ico.obj", grid=grid) for a in argv]) == 2
        assert f"the report {grid} would overwrite input {grid}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in obj_dir.iterdir()} == before

    def test_report_onto_an_output(self, obj_dir, tmp_path, capsys):
        out = tmp_path / "tok"
        report = out / "grid.sato"
        assert main(["encode", str(obj_dir / "grid.obj"), "--output", str(out), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert f"the report {report} and the output of {obj_dir / 'grid.obj'} would both write {report}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, output",
        [
            (["encode", "{grid}", "--output", "{tmp}/o", "--report", "{tmp}/o/grid.sato/r.jsonl"], "o/grid.sato"),
            (["decode", "{sato}", "--output", "{tmp}/d", "--report", "{tmp}/d/grid.decoded.obj/a/r"], "d/grid.decoded.obj"),
            (["filter", "{grid}", "--output", "{tmp}/f", "--report", "{tmp}/f/grid.obj/r.jsonl"], "f/grid.obj"),
        ],
        ids=["encode", "decode", "filter"],
    )
    def test_report_under_an_output(self, obj_dir, tmp_path, capsys, argv, output):
        sato = tmp_path / "tok" / "grid.sato"
        assert main(["encode", str(obj_dir / "grid.obj"), "--output", str(sato.parent), "--report", str(tmp_path / "e")]) == 0
        before = sorted(tmp_path.rglob("*"))
        argv = [a.format(grid=obj_dir / "grid.obj", sato=sato, tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        src, report = argv[1], argv[-1]
        assert capsys.readouterr().err == (
            f"output clash: the report {report} would be under {tmp_path / output}, the output of {src}\n"
        )
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["roundtrip", "{grid}", "--report", "{tmp}"],
            ["encode", "{grid}", "--output", "{tmp}/o", "--report", "{tmp}/o"],
        ],
        ids=["existing", "its_own_output"],
    )
    def test_report_is_a_directory(self, obj_dir, tmp_path, capsys, argv):
        before = sorted(tmp_path.rglob("*"))
        assert main([a.format(grid=obj_dir / "grid.obj", tmp=tmp_path) for a in argv]) == 2
        report = argv[argv.index("--report") + 1].format(tmp=tmp_path)
        assert capsys.readouterr().err == f"output clash: the report {report} is a directory\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["encode", "{grid}", "--output", "{tmp}/afile"], "afile"),
            (["roundtrip", "{grid}", "--report", "{tmp}/afile/r.jsonl"], "afile"),
            (["filter", "{grid}", "--output", "{tmp}/afile/sub"], "afile/sub"),
        ],
        ids=["encode_output", "roundtrip_report", "filter_output_below_a_file"],
    )
    def test_directory_that_cannot_be_made(self, obj_dir, tmp_path, capsys, argv, blocked):
        (tmp_path / "afile").write_text("in the way\n")
        before = sorted(tmp_path.rglob("*"))
        assert main([a.format(grid=obj_dir / "grid.obj", tmp=tmp_path) for a in argv]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"cannot create directory {tmp_path / blocked}: ")
        assert sorted(tmp_path.rglob("*")) == before

    def test_compare_takes_no_report_flag(self, obj_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(obj_dir / "grid.obj"), "--report", str(tmp_path / "r.jsonl")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --report" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    def test_jobs_start_no_more_workers_than_files(self, obj_dir, tmp_path, recording_pool):
        files = [str(obj_dir / "grid.obj"), str(obj_dir / "ico.obj")]
        assert main(["roundtrip", *files, "--jobs", "8", "--report", str(tmp_path / "r.jsonl")]) == 0
        assert [pool["max_workers"] for pool in recording_pool] == [2]
        assert [r["status"] for r in read_jsonl(tmp_path / "r.jsonl")] == ["pass", "pass"]

    def test_unreadable_file_fails(self, tmp_path):
        bad = tmp_path / "bad.obj"
        bad.write_text("f 1 2 3\n")
        rc = main(["encode", str(bad), "--report", str(tmp_path / "r.jsonl")])
        assert rc == 1


class TestErrorRows:
    """One malformed input gives that file an error row and exit code 1, in every command."""

    @pytest.fixture()
    def mixed(self, obj_dir, tmp_path):
        (obj_dir / "bad.obj").write_text("v 0 0 0\nf 1 2 3\n")
        toks = tmp_path / "tok"
        rc = main(["encode", str(obj_dir / "grid.obj"), str(obj_dir / "ico.obj"),
                   "--output", str(toks), "--report", str(tmp_path / "e.jsonl")])
        assert rc == 0
        (toks / "bad.sato").write_bytes(b"not a token file")
        return obj_dir, toks

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "{objs}", "--output", "{out}"],
            ["decode", "{toks}", "--output", "{out}"],
            ["roundtrip", "{objs}"],
            ["stats", "{toks}"],
            ["stats", "{objs}", "--ref", "{objs}/grid.obj", "--samples", "500"],
            ["filter", "{objs}", "--output", "{out}"],
            ["compare", "{objs}", "--output", "{out}/cmp.csv"],
        ],
        ids=["encode", "decode", "roundtrip", "stats", "stats_ref", "filter", "compare"],
    )
    def test_malformed_file_error_row(self, mixed, tmp_path, argv):
        objs, toks = mixed
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            out.mkdir()
            report = tmp_path / f"r{jobs}.jsonl"
            args = [a.format(objs=objs, toks=toks, out=out) for a in argv]
            if argv[0] != "compare":  # compare's report is its --output CSV
                args += ["--report", str(report)]
            assert main(args + ["--jobs", jobs]) == 1
            if argv[0] == "compare":  # the CSV has no error column: the row is left empty
                with open(out / "cmp.csv", newline="", encoding="utf-8") as fh:
                    rows = list(csv.DictReader(fh))
                bad = [r for r in rows if r["file"] == "bad.obj"]
                assert len(bad) == 1 and not any(v for k, v in bad[0].items() if k != "file")
                assert all(r["sato_comp_rate"] for r in rows if r["file"] != "bad.obj")
            else:
                rows = read_jsonl(report)
                bad = [r for r in rows if r["file"].startswith("bad.")]
                assert len(bad) == 1 and "error" in bad[0]
                assert all("error" not in r for r in rows if r is not bad[0])
                if argv[0] == "roundtrip":
                    assert bad[0]["status"] == "fail"
                runs.append(report.read_bytes())
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert runs[: len(runs) // 2] == runs[len(runs) // 2 :]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_compare_error_goes_to_stderr(self, mixed, tmp_path, capsys, jobs):
        objs, _ = mixed
        csv_path = tmp_path / "cmp.csv"
        assert main(["compare", str(objs), "--output", str(csv_path), "--jobs", jobs]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("bad.obj: ")] == [
            "bad.obj: ValueError: face index 2 out of range (1 vertices)"
        ]
        assert not any(line.startswith(("grid.obj", "ico.obj")) for line in err)
        assert "bad.obj" in csv_path.read_text()


class TestReportDirectory:
    """A report path in a directory that does not exist yet: the directory is
    made before any file runs, so the report is not lost at the end."""

    def test_encode_report(self, obj_dir, tmp_path):
        report = tmp_path / "missing" / "deeper" / "r.jsonl"
        out = tmp_path / "tok"
        assert main(["encode", str(obj_dir), "--output", str(out), "--report", str(report)]) == 0
        rows = read_jsonl(report)
        assert len(rows) == 4 and all("error" not in r for r in rows)

    def test_compare_output(self, obj_dir, tmp_path):
        csv_path = tmp_path / "missing" / "cmp.csv"
        assert main(["compare", str(obj_dir), "--output", str(csv_path)]) == 0
        assert csv_path.read_text().splitlines()[-1].startswith("mean,")


MIXED_MESSAGE = "ValueError: mixed triangle/quad faces: encoding takes faces of one degree"


class TestMixedFaces:
    """OBJ files that mix triangles and quads load; the encoder rejects them
    with one message."""

    def test_odd_stride2_strip_decodes_and_scores(self, tmp_path):
        # five vertices at stride 2: a quad and a trailing triangle
        coords = [(0, 0, 0), (256, 0, 0), (0, 0, 256), (256, 0, 256), (0, 0, 511)]
        write_tokens(serialize(manual_strip_set([coords], stride=2)), tmp_path / "odd.sato")
        assert main(["decode", str(tmp_path / "odd.sato"), "--report", str(tmp_path / "d.jsonl")]) == 0
        decoded = tmp_path / "odd.decoded.obj"
        assert load_obj(decoded).faces.tolist() == [[0, 1, 3, 2], [2, 3, 4, -1]]
        report = tmp_path / "s.jsonl"
        args = ["stats", str(decoded), "--ref", str(decoded), "--samples", "500", "--report", str(report)]
        assert main(args) == 0
        [row] = read_jsonl(report)
        assert all(math.isfinite(row[k]) for k in ("nc", "cd", "hd", "f1"))

    @pytest.mark.parametrize(
        "argv",
        [["encode", "--stride", "2"], ["encode", "--uv"], ["roundtrip"], ["compare"]],
        ids=["encode", "encode_uv", "roundtrip", "compare"],
    )
    def test_encoders_give_one_error_row(self, tmp_path, argv, capsys):
        text = (
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 2 0 0\nvt 0 0\nvt 1 0\nvt 1 1\n"
            "f 1/1 2/2 3/3 4/1\nf 2/2 5/1 3/3\n"
        )
        (tmp_path / "mixed.obj").write_text(text)
        report = tmp_path / "r.jsonl"
        out = ["--output", str(tmp_path / "c.csv")] if argv[0] == "compare" else ["--report", str(report)]
        assert main([argv[0], str(tmp_path / "mixed.obj"), *argv[1:], *out]) == 1
        if argv[0] == "compare":
            assert f"mixed.obj: {MIXED_MESSAGE}" in capsys.readouterr().err.splitlines()
        else:
            [row] = read_jsonl(report)
            assert row["error"] == MIXED_MESSAGE


# decoded positions (g + 0.5) / 512 * 512 are exact in 9 significant digits,
# so the written OBJ reloads to the decode's own floats
_EXACT = Transform((0.0, 0.0, 0.0), 512.0)


@given(acceptance_streams(), st.sampled_from([1, 2]))
@example([], 2)
@example([5, 6, 7], 1)  # no face kept, three ids discarded
@example(serialize(manual_strip_set([[(0, 0, 0), (1, 0, 0), (2, 0, 0)]])).tokens, 1)  # collinear
@settings(max_examples=100, deadline=None)
def test_decode_output_reloads_and_scores(tokens, stride):
    """Every decode either writes an OBJ that reloads to the same face rows
    and scores against the dequantized decode (or both are zero-area), or is
    empty and gets the ``empty mesh`` error row, which keeps the decode's
    counts."""
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        header = TokenHeader(uv_mode=True, source_stride=stride, transform=_EXACT, face_count=0)
        write_tokens(TokenSequence(tokens, header), d / "s.sato")
        rc = main(["decode", str(d / "s.sato"), "--report", str(d / "r.jsonl")])
        [row] = read_jsonl(d / "r.jsonl")
        decoded, _, report = decode_tokens(read_tokens(d / "s.sato"))
        if not len(decoded.faces):
            counts = dict(
                discarded=report.discarded_tokens,
                dropped_strips=report.dropped_strips,
                degenerate_faces=report.degenerate_faces,
                duplicate_faces=report.duplicate_faces,
                welds=report.welds,
            )
            want = {"file": "s.sato", "error": "ValueError: empty mesh", "faces": 0, "vertices": 0, "islands": 0}
            assert rc == 1 and row == {**want, **counts}
            assert not (d / "s.decoded.obj").exists()
            return
        assert rc == 0 and "error" not in row
        reloaded = load_obj(d / "s.decoded.obj")
    want = dequantize_mesh(decoded)
    # pads included: a stride-2 decode keeps its pad column only among quads
    assert reloaded.faces.dtype == np.int64
    assert np.array_equal(reloaded.faces, decoded.faces)
    assert np.array_equal(reloaded.positions, want.positions)
    try:
        sample_surface(want, n=1)
    except ValueError as exc:
        assert str(exc) == "zero-area mesh"
        with pytest.raises(ValueError, match="^zero-area mesh$"):
            compare_meshes(reloaded, want, n=200)
        return
    report = compare_meshes(reloaded, want, n=200)
    assert (report.cd, report.hd, report.f1) == (0.0, 0.0, 1.0) and report.nc == pytest.approx(1.0)
