"""The three benchmark workloads: seeded inputs, CLI calls and output checks.

Each workload builds its inputs under its own work directory before any
timing starts (``prepare``), then describes one closed-loop call as a list of
``striptok`` argument vectors, and checks what the last call wrote.  Why each
workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

from striptok import cli
from striptok import (
    IslandPartition,
    TokenHeader,
    TokenSequence,
    Transform,
    load_obj,
    quantize_mesh,
    read_tokens,
    uv_islands,
    write_tokens,
)
from striptok.verify import compare_quantized

from corpus import Spec, build, centered_unit, corrupt, near_miss, uniform_tokens, write_obj

GRID = 512  # the quantization grid the metrics check is stated in

# Full-size roundtrip corpus: 18 meshes, 100,549 faces.  Face counts run from
# 512 to 15,876 (the filter admits at most 16,000); the 16k meshes are the
# stragglers a two-worker pool waits on.
ROUNDTRIP = [
    Spec("ico3", "ico", (3,), False, False),
    Spec("ico3_uv", "ico", (3,), False, True),
    Spec("ico4", "ico", (4,), False, False),
    Spec("ico4_uv", "ico", (4,), False, True),
    Spec("torus_tri_40x20_uv", "torus", (40, 20), False, True),
    Spec("torus_tri_60x30", "torus", (60, 30), False, False),
    Spec("torus_tri_120x66_uv", "torus", (120, 66), False, True),
    Spec("height_tri_16", "height", (16, 16), False, False),
    Spec("height_tri_50_uv", "height", (50, 50), False, True),
    Spec("height_tri_89", "height", (89, 89), False, False),
    Spec("torus_quad_32x16", "torus", (32, 16), True, False),
    Spec("torus_quad_64x32_uv", "torus", (64, 32), True, True),
    Spec("torus_quad_90x45", "torus", (90, 45), True, False),
    Spec("torus_quad_160x99_uv", "torus", (160, 99), True, True),
    Spec("height_quad_23_uv", "height", (23, 23), True, True),
    Spec("height_quad_40", "height", (40, 40), True, False),
    Spec("height_quad_70_uv", "height", (70, 70), True, True),
    Spec("height_quad_126", "height", (126, 126), True, False),
]

DECODE = [
    Spec("ico4_uv", "ico", (4,), False, True),
    Spec("torus_tri_60x30", "torus", (60, 30), False, False),
    Spec("height_tri_50_uv", "height", (50, 50), False, True),
    Spec("torus_quad_64x32_uv", "torus", (64, 32), True, True),
    Spec("height_quad_70", "height", (70, 70), True, False),
]

EVALUATE = [
    Spec("ico4", "ico", (4,), False, False),
    Spec("torus_tri_60x30", "torus", (60, 30), False, False),
]

TINY = [
    Spec("ico2_uv", "ico", (2,), False, True),
    Spec("torus_tri_12x8", "torus", (12, 8), False, False),
    Spec("torus_quad_16x10_uv", "torus", (16, 10), True, True),
    Spec("height_quad_12", "height", (12, 12), True, False),
]

CORRUPTION = 0.01  # share of tokens dropped, inserted or substituted
RANDOM_TOKENS = 30_000  # the uniform stream; small enough not to dominate a decode call
SAMPLES = 100_000  # also in --tiny: with fewer, sampling alone lifts a clean CD above a cell diagonal


def read_rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def row_failed(row: dict) -> bool:
    return "error" in row or row.get("status", "pass") != "pass"


class Workload:
    name = ""
    jobs = 1
    reference = "python"  # the calibrate.TASKS entry that does the same kind of work
    expected_spans: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tiny = tiny
        self.inputs = work / "in"
        self.out = work / "out"
        self.items = 0  # work units in one call
        self.item_unit = ""
        self.comp_rate = 0.0
        self.written: list[Path] = []  # directories of files the CLI wrote while preparing

    def _write_meshes(self, specs, directory: Path, unit: bool = False) -> dict[str, object]:
        directory.mkdir(parents=True, exist_ok=True)
        meshes = {}
        for spec in specs:
            mesh = build(spec, self.rng)
            if unit:
                centered_unit(mesh)
            write_obj(mesh, directory / f"{spec.name}.obj")
            meshes[spec.name] = mesh
        return meshes

    def _encode(self, meshes, src: Path, dest: Path) -> tuple[int, int]:
        """Encode through the CLI, one call per (stride, uv) group; returns (tokens, faces)."""
        dest.mkdir(parents=True, exist_ok=True)
        groups: dict[tuple[int, bool], list[str]] = {}
        for name, mesh in meshes.items():
            key = (2 if mesh.degree == 4 else 1, mesh.group_of_face is not None)
            groups.setdefault(key, []).append(str(src / f"{name}.obj"))
        tokens = faces = 0
        for (stride, uv), files in sorted(groups.items()):
            report = dest / f"encode_{stride}_{int(uv)}.jsonl"
            argv = ["encode", *files, "--stride", str(stride), "--output", str(dest), "--report", str(report), "--jobs", "2"]
            if cli.main(argv + (["--uv"] if uv else [])) != 0:
                raise RuntimeError(f"input encode failed: {report.read_text()}")
            for row in read_rows(report):
                tokens += row["tokens"]
                faces += row["faces"]
        self.written.append(dest)
        return tokens, faces

    def reset_outputs(self):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def prepare(self):
        raise NotImplementedError

    def argvs(self, jobs: int) -> list[list[str]]:
        raise NotImplementedError

    def reports(self) -> list[Path]:
        raise NotImplementedError

    def check_outputs(self, rows: list[dict]) -> list[str]:
        """Messages for every failed output check of the last call (failed rows are counted apart)."""
        return [] if len(rows) == self.n_files else [f"{len(rows)} report rows for {self.n_files} inputs"]


class Roundtrip(Workload):
    name = "roundtrip"
    jobs = 2
    expected_spans = (
        "load_obj", "uv_islands", "is_edge_manifold", "quantize_mesh", "extract_strips",
        "serialize", "parse_tokens", "decode", "compare_quantized",
    )

    def prepare(self):
        meshes = self._write_meshes(TINY if self.tiny else ROUNDTRIP, self.inputs)
        self.n_files = len(meshes)
        self.items = sum(len(m.faces) for m in meshes.values())
        self.item_unit = "faces"
        tokens, faces = self._encode(meshes, self.inputs, self.work / "encoded")
        self.comp_rate = tokens / (9 * faces)

    def argvs(self, jobs):
        return [["roundtrip", str(self.inputs), "--jobs", str(jobs), "--report", str(self.out / "roundtrip.jsonl")]]

    def reports(self):
        return [self.out / "roundtrip.jsonl"]


def _obj_islands(path: Path) -> IslandPartition:
    """Island of each face, from the ``g island_<id>`` records before it."""
    labels, current = [], 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("g island_"):
                current = int(line[len("g island_"):])
            elif line.startswith("f "):
                labels.append(current)
    return IslandPartition(labels, len(set(labels)))


def _quantized_source(path: Path):
    mesh = load_obj(path)
    return quantize_mesh(mesh, uv_islands(mesh) if mesh.face_uvs is not None else None)


class DecodeGenerated(Workload):
    name = "decode_generated"
    expected_spans = ("read_tokens", "parse_tokens", "decode", "dequantize_mesh", "write_obj")

    def prepare(self):
        specs = TINY if self.tiny else DECODE
        src = self.work / "src"
        meshes = self._write_meshes(specs, src)
        tokens, faces = self._encode(meshes, src, self.inputs)
        self.comp_rate = tokens / (9 * faces)
        self.clean = sorted(meshes)
        for name in self.clean:
            seq = read_tokens(self.inputs / f"{name}.sato")
            seq.tokens = corrupt(seq.tokens, CORRUPTION, self.rng)
            write_tokens(seq, self.inputs / f"{name}_corrupt.sato")
        n_random = 2_000 if self.tiny else RANDOM_TOKENS
        header = TokenHeader(uv_mode=True, source_stride=1, transform=Transform((0.0, 0.0, 0.0), 1.0), face_count=n_random // 3)
        write_tokens(TokenSequence(uniform_tokens(n_random, self.rng), header), self.inputs / "random.sato")
        self.n_files = 2 * len(self.clean) + 1
        self.items = sum(len(read_tokens(p).tokens) for p in self.inputs.glob("*.sato"))
        self.item_unit = "tokens"
        self.src = src

    def argvs(self, jobs):
        return [["decode", str(self.inputs), "--jobs", str(jobs), "--output", str(self.out), "--report", str(self.out / "decode.jsonl")]]

    def reports(self):
        return [self.out / "decode.jsonl"]

    def check_outputs(self, rows):
        bad = super().check_outputs(rows)
        for name in self.clean:
            decoded_path = self.out / f"{name}.decoded.obj"
            if not decoded_path.exists():
                bad.append(f"{name}: no decoded output")
                continue
            header = read_tokens(self.inputs / f"{name}.sato").header
            try:
                decoded = quantize_mesh(load_obj(decoded_path), _obj_islands(decoded_path), transform=header.transform)
            except ValueError as exc:  # e.g. a vertex outside the header's grid
                bad.append(f"{name}: decoded mesh does not re-quantize: {exc}")
                continue
            ok, detail = compare_quantized(_quantized_source(self.src / f"{name}.obj"), decoded)
            if not ok:
                bad.append(f"{name}: decoded mesh differs from its source: {detail}")
        return bad


class Evaluate(Workload):
    name = "evaluate"
    reference = "numpy"
    expected_spans = (
        "load_obj", "compare_meshes", "sample_surface", "chamfer_hausdorff",
        "normal_consistency", "f_score", "kdtree_build",
    )

    def prepare(self):
        specs = TINY[:1] if self.tiny else EVALUATE
        gt = self.work / "gt"
        meshes = self._write_meshes(specs, gt, unit=True)
        tokens_dir = self.work / "tokens"
        tokens, faces = self._encode(meshes, gt, tokens_dir)
        self.comp_rate = tokens / (9 * faces)
        for name in meshes:
            seq = read_tokens(tokens_dir / f"{name}.sato")
            seq.tokens = near_miss(seq.tokens, CORRUPTION, self.rng)
            write_tokens(seq, tokens_dir / f"{name}_corrupt.sato")
        pred = self.work / "pred"
        if cli.main(["decode", str(tokens_dir), "--output", str(pred), "--report", str(pred / "decode.jsonl")]) != 0:
            raise RuntimeError("decoding the predictions failed")
        self.written.append(pred)
        self.pairs = []  # (gt path, pred path, clean?, grid-cell diagonal in model units)
        for name in sorted(meshes):
            cell = math.sqrt(3.0) * read_tokens(tokens_dir / f"{name}.sato").header.transform.scale / GRID
            self.pairs.append((gt / f"{name}.obj", pred / f"{name}.decoded.obj", True, cell))
            self.pairs.append((gt / f"{name}.obj", pred / f"{name}_corrupt.decoded.obj", False, cell))
        self.n_files = len(self.pairs)
        self.items = 2 * SAMPLES * len(self.pairs)
        self.item_unit = "samples"

    def argvs(self, jobs):
        return [
            ["stats", str(p), "--ref", str(g), "--samples", str(SAMPLES), "--jobs", str(jobs), "--report", str(r)]
            for (g, p, _, _), r in zip(self.pairs, self.reports())
        ]

    def reports(self):
        return [self.out / f"stats_{i}.jsonl" for i in range(len(self.pairs))]

    def check_outputs(self, rows):
        bad = super().check_outputs(rows)
        if bad:
            return bad
        for row, (_, pred, clean, cell) in zip(rows, self.pairs):
            values = [row.get(k) for k in ("nc", "cd", "hd", "f1")]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                bad.append(f"{pred.name}: non-finite metrics {values}")
                continue
            if not (0.0 <= row["nc"] <= 1.0 and 0.0 <= row["f1"] <= 1.0):
                bad.append(f"{pred.name}: nc {row['nc']} or f1 {row['f1']} outside [0, 1]")
            if clean and not row["cd"] < cell:
                bad.append(f"{pred.name}: clean decode has cd {row['cd']} >= one cell diagonal {cell}")
        return bad


WORKLOADS = {w.name: w for w in (Roundtrip, DecodeGenerated, Evaluate)}
