"""Command-line front end: encode, decode, roundtrip, stats, filter, compare.

All commands process files independently (``--jobs`` parallelizes across
files, never within one) and emit machine-readable reports ordered by input
filename, so parallel and serial runs produce identical bytes.  Exit codes:
0 success, 1 any file-level failure, 2 usage error.  :func:`encode_mesh` and
:func:`decode_tokens` are the one encode and decode chain every command uses.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .decode import decode, parse_tokens
from .mesh_io import (
    corpus_filter,
    is_edge_manifold,
    load_obj,
    single_island,
    uv_islands,
    write_obj,
)
from .metrics import compare_meshes
from .quantize import dequantize_mesh, quantize_mesh
from .strips import extract_strips
from .tokens import baseline_serialize, compression_stats, read_tokens, serialize, write_tokens
from .verify import compare_quantized

TOKEN_SUFFIX = ".sato"


def _collect(inputs, suffix) -> list[Path]:
    paths: list[Path] = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(p.glob(f"*{suffix}")))
        else:
            paths.append(p)
    return sorted(set(paths))


def _shares_dict(stats):
    c1, c2, c3 = stats.level_shares
    return {"c1": round(c1, 6), "c2": round(c2, 6), "c3": round(c3, 6)}


# The layer calls in these two functions resolve through this module's
# globals, where the benchmark's --trace wrappers are installed.
def encode_mesh(mesh, stride, partition=None, up_axis="y"):
    """Quantize, strip and serialize a mesh; returns ``(q, strips, seq)``.

    UV mode is on iff a partition is given: the first strip of each island
    then carries an island-transition marker.
    """
    q = quantize_mesh(mesh, partition)
    strips = extract_strips(q, stride, up_axis)
    return q, strips, serialize(strips, uv_mode=partition is not None)


def decode_tokens(seq, stride=None):
    """Parse and decode a token sequence; returns ``(mesh_q, partition, report)``.

    ``stride`` defaults to the one stored in the header; passing the other
    stride reads the same tokens as the other face type (the dual decode).
    """
    stride = stride or seq.header.source_stride
    return decode(parse_tokens(seq), stride, seq.header.transform)


def _encode_one(src, args, row):
    mesh = load_obj(src)
    partition = warning = None
    if args.uv and mesh.face_uvs is None:
        partition, warning = single_island(mesh), "no uv data; falling back to a single island"
    elif args.uv:
        partition = uv_islands(mesh)
    q, strips, seq = encode_mesh(mesh, args.stride, partition, args.up_axis)
    out_path = Path(args.output or src.parent) / (src.stem + TOKEN_SUFFIX)
    write_tokens(seq, out_path)
    stats = compression_stats(seq)
    row.update(
        faces=len(q.faces),
        vertices=len(q.vertex_keys),
        islands=q.island_count(),
        strips=len(strips.strips),
        tokens=stats.token_length,
        comp_rate=round(stats.comp_rate, 6),
        level_shares=_shares_dict(stats),
        output=out_path.name,
    )
    if args.stride == 2:
        row["comp_rate_quad12"] = round(stats.comp_rate_quad12, 6)
    if warning:
        row["warning"] = warning


def _decode_one(src, args, row):
    mesh_q, partition, report = decode_tokens(read_tokens(src), args.stride)
    out_path = Path(args.output or src.parent) / (src.stem + ".decoded.obj")
    write_obj(dequantize_mesh(mesh_q), out_path, partition)
    row.update(
        faces=len(mesh_q.faces),
        vertices=len(mesh_q.vertex_keys),
        islands=partition.island_count,
        discarded=report.discarded_tokens,
        dropped_strips=report.dropped_strips,
        degenerate_faces=report.degenerate_faces,
        duplicate_faces=report.duplicate_faces,
        welds=report.welds,
        output=out_path.name,
    )


def _roundtrip_one(src, args, row):
    row["status"] = "fail"  # kept if anything below raises
    mesh = load_obj(src)
    stride = 1 if mesh.face_degree == 3 else 2
    partition = uv_islands(mesh) if mesh.face_uvs is not None else None
    if not is_edge_manifold(mesh):
        row["note"] = "non_manifold"
    q, _, seq = encode_mesh(mesh, stride, partition, args.up_axis)
    decoded, _, report = decode_tokens(seq)
    ok, detail = compare_quantized(q, decoded)
    if not report.clean():
        ok, detail = False, f"decode counters nonzero: {report}"
    row["status"] = "pass" if ok else "fail"
    if detail:
        row["detail"] = detail


def _filter_one(src, args, row):
    mesh = load_obj(src)
    partition = uv_islands(mesh) if mesh.face_uvs is not None else None
    result = corpus_filter(mesh, partition)
    row["accepted"] = result.accepted
    if not result.accepted:
        row["reason"] = result.reason
    elif args.output:
        shutil.copyfile(src, Path(args.output) / src.name)


def _compare_one(src, args, row):
    q, _, seq = encode_mesh(load_obj(src), 1, up_axis=args.up_axis)
    sato = compression_stats(seq)
    base = compression_stats(baseline_serialize(q))
    row.update(
        faces=len(q.faces),
        sato_tokens=sato.token_length,
        sato_transitions=sato.transitions,
        sato_comp_rate=round(sato.comp_rate, 6),
        baseline_tokens=base.token_length,
        baseline_comp_rate=round(base.comp_rate, 6),
    )


def _stats_one(src, args, row):
    if args.ref:
        ref = load_obj(Path(args.ref))
        pred = load_obj(src)
        report = compare_meshes(ref, pred, n=args.samples, tau=args.tau, seed=args.seed)
        row.update(
            nc=round(report.nc, 6),
            cd=round(report.cd, 6),
            hd=round(report.hd, 6),
            f1=round(report.f1, 6),
        )
    else:
        seq = read_tokens(src)
        stats = compression_stats(seq)
        stream = parse_tokens(seq)
        row.update(
            faces=seq.header.face_count,
            stride=seq.header.source_stride,
            uv_mode=seq.header.uv_mode,
            tokens=stats.token_length,
            transitions=stats.transitions,
            comp_rate=round(stats.comp_rate, 6),
            level_shares=_shares_dict(stats),
            discarded=stream.discarded,
        )
        if seq.header.source_stride == 2:
            row["comp_rate_quad12"] = round(stats.comp_rate_quad12, 6)


_WORKERS = {
    "encode": _encode_one,
    "decode": _decode_one,
    "roundtrip": _roundtrip_one,
    "filter": _filter_one,
    "compare": _compare_one,
    "stats": _stats_one,
}


def _run_one(job):
    """One file's report row; any exception becomes the row's ``error``."""
    path, args = job
    src = Path(path)
    row = {"file": src.name}
    try:
        _WORKERS[args.command](src, args, row)
    except Exception as exc:  # noqa: BLE001 - reported per file
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _run_jobs(paths, args):
    items = [(str(p), args) for p in paths]
    if args.jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            return list(pool.map(_run_one, items))
    return [_run_one(item) for item in items]


def _emit_jsonl(rows, report_path):
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    if report_path:
        Path(report_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="striptok",
        description="Strip-based mesh tokenizer: encode/decode OBJ meshes as token files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_axis=True):
        p.add_argument("inputs", nargs="+", help="files or directories")
        p.add_argument("--report", help="write the JSON-lines report here instead of stdout")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers over files")
        if with_axis:
            p.add_argument("--up-axis", choices=("x", "y", "z"), default="y")

    p = sub.add_parser("encode", help="OBJ -> token file")
    common(p)
    p.add_argument("--stride", type=int, choices=(1, 2), default=1)
    p.add_argument("--uv", action="store_true", help="emit island-transition markers")
    p.add_argument("--output", help="directory for token files (default: next to input)")

    p = sub.add_parser("decode", help="token file -> OBJ with island groups")
    common(p, with_axis=False)
    p.add_argument("--stride", type=int, choices=(1, 2), help="override the stored stride")
    p.add_argument("--output", help="directory for OBJ files (default: next to input)")

    p = sub.add_parser("roundtrip", help="verify encode->decode exactness per file")
    common(p)

    p = sub.add_parser("stats", help="token-file statistics, or metrics against --ref")
    common(p, with_axis=False)
    p.add_argument("--ref", help="reference OBJ; inputs are then meshes to score")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--tau", type=float, default=0.003)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("filter", help="apply corpus admission rules")
    common(p, with_axis=False)
    p.add_argument("--output", help="directory receiving accepted files")

    p = sub.add_parser("compare", help="strip tokenizer vs per-face baseline (CSV)")
    common(p)
    p.add_argument("--output", help="CSV path (default: stdout)")

    return parser


REFERENCE_COMP_RATES = "SATO 0.283, DeepMesh 0.330, BPT 0.228"


def _write_compare_csv(rows, output):
    fields = [
        "file",
        "faces",
        "sato_tokens",
        "sato_transitions",
        "sato_comp_rate",
        "baseline_tokens",
        "baseline_comp_rate",
    ]
    ok_rows = [r for r in rows if "error" not in r]
    out = sys.stdout if not output else open(output, "w", encoding="utf-8", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in fields})
        if ok_rows:
            writer.writerow(
                {
                    "file": "mean",
                    "faces": "",
                    "sato_tokens": "",
                    "sato_transitions": round(
                        sum(r["sato_transitions"] for r in ok_rows) / len(ok_rows), 3
                    ),
                    "sato_comp_rate": round(
                        sum(r["sato_comp_rate"] for r in ok_rows) / len(ok_rows), 6
                    ),
                    "baseline_tokens": "",
                    "baseline_comp_rate": round(
                        sum(r["baseline_comp_rate"] for r in ok_rows) / len(ok_rows), 6
                    ),
                }
            )
    finally:
        if output:
            out.close()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command

    suffix = TOKEN_SUFFIX if cmd in ("decode", "stats") and not getattr(args, "ref", None) else ".obj"
    paths = _collect(args.inputs, suffix)
    if not paths:
        print(f"no {suffix} inputs found", file=sys.stderr)
        return 2

    if cmd in ("encode", "decode", "filter") and args.output:
        Path(args.output).mkdir(parents=True, exist_ok=True)
    # the report (compare: its CSV) is written after every file has run
    report = args.output if cmd == "compare" else args.report
    if report:
        Path(report).parent.mkdir(parents=True, exist_ok=True)

    rows = _run_jobs(paths, args)

    failed = any("error" in r or r.get("status") == "fail" for r in rows)

    if cmd == "compare":
        _write_compare_csv(rows, args.output)
        # the CSV has no error column, so a failed file's reason goes to stderr
        for r in rows:
            if "error" in r:
                print(f"{r['file']}: {r['error']}", file=sys.stderr)
        print(
            f"published reference comp rates (context only, not asserted): {REFERENCE_COMP_RATES}",
            file=sys.stderr,
        )
    else:
        _emit_jsonl(rows, args.report)

    if cmd == "filter":
        reasons = {}
        for r in rows:
            if r.get("accepted") is False:
                reasons[r["reason"]] = reasons.get(r["reason"], 0) + 1
        accepted = sum(1 for r in rows if r.get("accepted"))
        summary = ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())) or "none"
        print(f"accepted {accepted}/{len(rows)}; rejections: {summary}", file=sys.stderr)

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
