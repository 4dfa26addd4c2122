"""Command-line front end: encode, decode, roundtrip, stats, filter, compare.

All commands process files independently and emit machine-readable reports
ordered by input filename, so parallel and serial runs produce identical
bytes.  ``--jobs`` runs the files on that many processes, each with an
equal share of the CPUs as its thread budget; a lone process runs its files
on the budget's threads, and ``stats --ref`` spends a file's share of the
budget on its sampling and neighbor pass.  One runner,
:func:`~striptok.mesh_io.on_threads`, with the calling thread as one of its
threads, runs the files, sample rows, query runs and missing tree builds.
Exit codes: 0 success, 1 any file-level failure, 2 usage error.
:func:`encode_mesh` and :func:`decode_tokens` are the one encode and decode
chain every command uses.  A call imports only what it runs:
:mod:`striptok.metrics`, and with it SciPy, loads for ``stats --ref``, the
process pool's module for ``--jobs`` above 1 with more than one file, and
the thread pool's module where the runner starts a second thread.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

from .decode import decode, parse_tokens
from .mesh_io import _check_tau, corpus_filter, is_edge_manifold, load_obj, on_threads, uv_islands, write_obj
from .quantize import dequantize_mesh, quantize_mesh
from .strips import extract_strips
from .tokens import compression_stats, read_tokens, serialize, write_tokens
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


def _output_path(src: Path, args) -> Path:
    """The file ``encode``, ``decode`` or ``filter`` writes for ``src``."""
    name = {"encode": src.stem + TOKEN_SUFFIX, "decode": src.stem + ".decoded.obj"}.get(args.command, src.name)
    return Path(args.output or src.parent) / name


def _output_clash(paths, args) -> str | None:
    """Two inputs with one output path, or an output that is an input; the
    report (``compare``: its CSV) must not be a directory (``--output`` and
    its parents included), an input (``--ref`` included), a file output or
    under one."""
    inputs = {src.resolve(): src for src in paths}
    if args.ref:
        inputs.setdefault(Path(args.ref).resolve(), Path(args.ref))
    writer = {}
    if args.command in ("encode", "decode") or args.command == "filter" and args.output:
        for src in paths:
            out = _output_path(src, args).resolve()
            if out in inputs:
                return f"the output of {src} would overwrite input {inputs[out]}"
            if writer.setdefault(out, src) is not src:
                return f"{writer[out]} and {src} would both write {out}"
    if report := args.report:
        out = Path(report).resolve()
        if out.is_dir() or args.output and Path(args.output).resolve().is_relative_to(out):
            return f"the report {report} is a directory"
        if out in inputs:
            return f"the report {report} would overwrite input {inputs[out]}"
        if out in writer:
            return f"the report {report} and the output of {writer[out]} would both write {out}"
        if parent := next((p for p in out.parents if p in writer), None):
            return f"the report {report} would be under {parent}, the output of {writer[parent]}"
    return None


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
    if stride is None:
        stride = seq.header.source_stride
    return decode(parse_tokens(seq), stride, seq.header.transform)


def _encode_one(src, args, row):
    mesh = load_obj(src)
    partition = uv_islands(mesh) if args.uv else None
    q, strips, seq = encode_mesh(mesh, args.stride, partition, args.up_axis)
    out_path = _output_path(src, args)
    write_tokens(seq, out_path)
    stats = compression_stats(seq)
    row.update(
        faces=len(q.faces),
        vertices=len(q.vertex_keys),
        islands=q.island_count(),
        strips=len(strips.islands),
        tokens=stats.token_length,
        comp_rate=round(stats.comp_rate, 6),
        level_shares=_shares_dict(stats),
        output=out_path.name,
    )
    if args.stride == 2:
        row["comp_rate_quad12"] = round(stats.comp_rate_quad12, 6)
    if args.uv and mesh.face_uvs is None:
        row["warning"] = "no uv data; falling back to a single island"


def _decode_one(src, args, row):
    mesh_q, partition, report = decode_tokens(read_tokens(src), args.stride)
    out_path = _output_path(src, args)
    write_obj(dequantize_mesh(mesh_q), out_path, partition)
    row.update(
        faces=len(mesh_q.faces),
        vertices=len(mesh_q.vertex_keys),
        islands=mesh_q.island_count(),
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
        shutil.copyfile(src, _output_path(src, args))


def _compare_one(src, args, row):
    q, _, seq = encode_mesh(load_obj(src), 1, up_axis=args.up_axis)
    sato = compression_stats(seq)
    # the per-face baseline: a full (c1, c2, c3) triple per corner, 9 tokens a face
    row.update(
        faces=len(q.faces),
        sato_tokens=sato.token_length,
        sato_transitions=sato.transitions,
        sato_comp_rate=round(sato.comp_rate, 6),
        baseline_tokens=9 * len(q.faces),
        baseline_comp_rate=1.0,
    )


def compare_meshes(*args, **kwargs):
    """:func:`striptok.metrics.compare_meshes`, imported on first call."""
    from .metrics import compare_meshes

    return compare_meshes(*args, **kwargs)


def _stats_one(src, args, row):
    if args.ref:
        report = compare_meshes(
            args.reference, load_obj(src), n=args.samples, tau=args.tau, seed=args.seed, workers=args.threads
        )
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


def _run_one(path, args):
    """One file's report row; any exception becomes the row's ``error``."""
    src = Path(path)
    row = {"file": src.name}
    try:
        _WORKERS[args.command](src, args, row)
    except Exception as exc:  # noqa: BLE001 - reported per file
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


_worker_args = None  # a pool worker's copy of the arguments, sent once per process


def _init_worker(args):
    global _worker_args
    _worker_args = args


def _run_in_worker(path):
    return _run_one(path, _worker_args)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _run_jobs(paths, args):
    """Every file's row, in order.

    On ``min(jobs, files)`` processes, each with the thread budget
    ``args.threads``.  A lone process runs its files through
    :func:`~striptok.mesh_io.on_threads` on ``k = min(args.threads, files)``
    threads, the calling thread among them, and gives each file the budget
    ``args.threads // k``; each file's row goes to that file's slot, so rows
    come out in input order whichever thread ran them.
    """
    paths = [str(p) for p in paths]
    procs = min(args.jobs, len(paths))
    if args.ref and len(paths) > 1:  # built once here, so every file's worker shares it
        args.reference.tree
    if procs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=procs, initializer=_init_worker, initargs=(args,)) as pool:
            return list(pool.map(_run_in_worker, paths))
    threads = min(args.threads, len(paths))
    file_args = argparse.Namespace(**{**vars(args), "threads": args.threads // threads})
    rows = [None] * len(paths)

    def run(i):
        rows[i] = _run_one(paths[i], file_args)

    on_threads(run, len(paths), threads)
    return rows


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def tau(text: str) -> float:
    value = float(text)
    try:
        _check_tau(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text}") from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="striptok",
        description="Strip-based mesh tokenizer: encode/decode OBJ meshes as token files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(output=None, ref=None)  # read for every command, parsed by some

    def common(p, with_axis=True, report=("--report", "write the JSON-lines report here instead of stdout")):
        p.add_argument("inputs", nargs="+", help="files or directories")
        p.add_argument(report[0], dest="report", help=report[1])
        p.add_argument("--jobs", type=positive_int, default=1, help="parallel workers over files")
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
    p.add_argument("--samples", type=positive_int)  # unset: metrics.DEFAULT_SAMPLES
    p.add_argument("--tau", type=tau)  # unset: metrics.DEFAULT_TAU
    p.add_argument("--seed", type=int)  # unset: 0

    p = sub.add_parser("filter", help="apply corpus admission rules")
    common(p, with_axis=False)
    p.add_argument("--output", help="directory receiving accepted files")

    p = sub.add_parser("compare", help="strip tokenizer vs per-face baseline (CSV)")
    common(p, report=("--output", "CSV path (default: stdout)"))

    return parser


REFERENCE_COMP_RATES = "SATO 0.283, DeepMesh 0.330, BPT 0.228"


def _compare_csv(rows) -> str:
    """One line per file (a failed file's left empty), then the mean of the passing ones."""
    fields = [
        "file",
        "faces",
        "sato_tokens",
        "sato_transitions",
        "sato_comp_rate",
        "baseline_tokens",
        "baseline_comp_rate",
    ]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields, restval="", extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    if ok_rows := [r for r in rows if "error" not in r]:
        means = (("sato_transitions", 3), ("sato_comp_rate", 6), ("baseline_comp_rate", 6))
        mean = {k: round(sum(r[k] for r in ok_rows) / len(ok_rows), places) for k, places in means}
        writer.writerow({"file": "mean", **mean})
    return out.getvalue()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command
    if cmd == "stats" and not args.ref:
        for flag in ("samples", "tau", "seed"):
            if getattr(args, flag) is not None:
                print(f"--{flag} applies only with --ref", file=sys.stderr)
                return 2

    suffix = TOKEN_SUFFIX if cmd in ("decode", "stats") and not args.ref else ".obj"
    paths = _collect(args.inputs, suffix)
    if not paths:
        print(f"no {suffix} inputs found", file=sys.stderr)
        return 2

    if clash := _output_clash(paths, args):
        print(f"output clash: {clash}", file=sys.stderr)
        return 2
    # each of the min(jobs, files) processes gets an equal share of the CPUs
    args.threads = max(1, _cpus() // min(args.jobs, len(paths)))
    if cmd == "stats" and args.ref:  # one sample set for every input, drawn through the module
        from . import metrics  # imported before the pool starts, so its workers inherit it

        args.samples = args.samples or metrics.DEFAULT_SAMPLES
        args.tau = args.tau or metrics.DEFAULT_TAU
        args.seed = args.seed or 0
        try:
            args.reference = metrics.sample_surface(
                load_obj(Path(args.ref)), n=args.samples, seed=args.seed, workers=args.threads
            )
        except (OSError, ValueError) as exc:
            print(f"bad reference {args.ref}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    # the report is written after every file has run: its directory, like --output's, is made first
    for directory in filter(None, (args.output, args.report and Path(args.report).parent)):
        try:
            Path(directory).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"cannot create directory {directory}: {exc.strerror}", file=sys.stderr)
            return 2

    rows = _run_jobs(paths, args)

    failed = any("error" in r or r.get("status") == "fail" for r in rows)
    if cmd == "compare":
        text = _compare_csv(rows)
    else:
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)

    if cmd == "compare":
        # the CSV has no error column, so a failed file's reason goes to stderr
        for r in rows:
            if "error" in r:
                print(f"{r['file']}: {r['error']}", file=sys.stderr)
        print(
            f"published reference comp rates (context only, not asserted): {REFERENCE_COMP_RATES}",
            file=sys.stderr,
        )
    if cmd == "filter":
        reasons = Counter(r["reason"] for r in rows if "reason" in r)
        accepted = sum(1 for r in rows if r.get("accepted"))
        summary = ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())) or "none"
        print(f"accepted {accepted}/{len(rows)}; rejections: {summary}", file=sys.stderr)

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
