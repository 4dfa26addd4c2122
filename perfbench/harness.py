"""Closed-loop timing, traced runs and result assembly for ``run.py``.

Every time and rate in the result is scaled to reference machine speed: the
workload's reference task in ``calibrate.py`` runs after each CLI call, and
its time over ``calibrate.REFERENCE_S`` is the slowdown that times are
divided by and rates multiplied by.  ``items_per_s`` scales each call by the
reference run right after it, which follows the host's swings closely; the
per-layer times use the run's median.  The summary line keeps the raw values.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from striptok import cli

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _start_s(code: str) -> tuple[float, str]:
    """Wall time until a fresh interpreter running ``code`` prints its first line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0:
        raise RuntimeError(f"interpreter start failed: {code}")
    return elapsed, line.strip()


def measure_setup() -> tuple[float, float]:
    """Medians of the time to import ``striptok.cli`` and of the reference start, alternated."""
    setup, reference = [], []
    for i in range(SETUP_REPEATS + 1):
        elapsed, path = _start_s("import striptok.cli; print(striptok.cli.__file__, flush=True)")
        if not path.startswith(str(SRC)):
            raise RuntimeError(f"striptok.cli imported from {path!r}, not from {SRC}")
        if i:  # the first start also writes the bytecode cache
            setup.append(elapsed)
            reference.append(_start_s(calibrate.REFERENCE_START)[0])
    return statistics.median(setup), statistics.median(reference)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Call:
    """One closed-loop call of a workload: wall times, report rows and output digest.

    A call is one CLI invocation, or one per pair for ``evaluate``; ``walls``
    holds each invocation's wall time and ``wall`` their sum.
    """

    def __init__(self, wl, jobs: int, cli_main, tracer=None):
        wl.reset_outputs()
        self.walls = []
        for argv in wl.argvs(jobs):
            if tracer is not None:
                tracer.file = Path(argv[1]).name
            t0 = perf_counter()
            cli_main(argv)  # failures show in the report rows
            self.walls.append(perf_counter() - t0)
        self.wall = sum(self.walls)
        self.rows = [row for report in wl.reports() for row in workloads.read_rows(report)]
        self.failed = [row for row in self.rows if workloads.row_failed(row)]
        self.sha256 = digest([wl.out])


def digest(dirs) -> str:
    """sha256 over the relative names and bytes of every file under ``dirs``."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*")):
            if path.is_file():
                h.update(path.relative_to(d.parent).as_posix().encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def timed_run(wl, seconds: float, cli_main, ref):
    """Untraced calls at the workload's --jobs, the reference task after each.

    Returns the median rate over all CLI invocations, raw and at reference
    speed, and the calls.  Every invocation of a call does the same work.
    """
    Call(wl, wl.jobs, cli_main)  # warm-up: first-touch allocations, lazy imports
    calls, raw, scaled = [], [], []
    start = perf_counter()
    while not calls or perf_counter() - start < seconds:
        call = Call(wl, wl.jobs, cli_main)
        calls.append(call)
        slowdown = ref.measure(calibrate.REFERENCE_SHARE * call.wall)
        for wall in call.walls:
            raw.append(wl.items / len(call.walls) / wall)
            scaled.append(raw[-1] * slowdown)
    return statistics.median(raw), statistics.median(scaled), calls


def traced_run(wl, seconds: float, cli_main, ref):
    """Untraced and traced calls in turn; returns (per-layer metrics, calls, tracer)."""
    tracer = spans.Tracer()
    Call(wl, 1, cli_main)  # warm-up
    plain, serial, traced, per_call = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(Call(wl, wl.jobs, cli_main))
        ref.measure(calibrate.REFERENCE_SHARE * plain[-1].wall)
        if wl.jobs != 1:
            serial.append(Call(wl, 1, cli_main))
        first = len(tracer.spans)
        tracer.counts.clear()
        tracer.check_s = 0.0
        tracer.install()
        try:
            call = Call(wl, 1, cli_main, tracer)
        finally:
            tracer.uninstall()
        traced.append(call)
        per_call.append(_layer_metrics(tracer, first, call.wall))
    seen = {span[0] for span in tracer.spans}
    missing = [name for name in wl.expected_spans if name not in seen]
    if missing:
        raise spans.TraceError(f"{wl.name}: no span recorded for {', '.join(missing)}")

    metrics = {name: (statistics.median(m[name][0] for m in per_call), unit) for name, (_, unit) in per_call[0].items()}
    top = metrics.pop("top_level_s")[0]
    metrics["cli.pool_efficiency"] = (top / (wl.jobs * statistics.median(c.wall for c in plain)), "ratio")
    metrics["trace.coverage"] = (len(seen & set(wl.expected_spans)) / len(wl.expected_spans), "ratio")
    metrics["trace.wall_s"] = (statistics.median(c.wall for c in traced), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(c.wall for c in (serial or plain)), "s")
    return metrics, plain + serial + traced, tracer


def _layer_metrics(tracer, first: int, wall: float) -> dict[str, tuple[float, str]]:
    st = spans.self_times(tracer.spans, first)
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    top = spans.top_level_s(tracer.spans, first)
    out = {bucket: (t, "s") for bucket, t in st.items()}
    out.update({
        "quantize.vertices_per_s": (ratio(c["quantize.vertices"], st["quantize.quantize_s"]), "1/s"),
        "quantize.dropped_faces": (c["quantize.dropped_faces"], "count"),
        "strips.faces_per_strip": (ratio(c["strips.faces"], c["strips.strips"]), "ratio"),
        "tokens.prefix_share": (ratio(c["tokens.prefixed_vertices"], c["tokens.vertices"]), "ratio"),
        "decode.parse_tokens_per_s": (ratio(c["decode.tokens"], st["decode.parse_s"]), "1/s"),
        "decode.discard_share": (ratio(c["decode.discarded"], c["decode.tokens"]), "ratio"),
        "decode.welds": (c["decode.welds"], "count"),
        "decode.dropped_faces": (c["decode.dropped_faces"], "count"),
        "metrics.nn_calls_per_pair": (ratio(c["metrics.kdtrees"], c["metrics.pairs"]), "count"),
        "cli.unaccounted_s": (wall - top - tracer.check_s, "s"),
        "top_level_s": (top, "s"),
    })
    return out


def _at_reference_speed(metrics, slowdown: float):
    scale = {"s": 1.0 / slowdown, "1/s": slowdown}
    return {name: (value * scale.get(unit, 1.0), unit) for name, (value, unit) in metrics.items()}


def run(work: Path, args) -> tuple[dict, str]:
    """Prepare the workload, measure it, check its outputs; returns (result, summary line)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed, args.tiny)
    wl.prepare()
    if args.trace:
        # layer times come from --jobs 1 calls, so the reference runs on one process
        with calibrate.Reference(wl.reference, 1) as ref:
            raw, calls, tracer = traced_run(wl, args.seconds, cli.main, ref)
        tracer.write(work / f"trace_seed{args.seed}.jsonl")
        bad = list(tracer.violations)
        metrics = _at_reference_speed(raw, ref.slowdown())
    else:
        setup_s, start_s = measure_setup()
        with calibrate.Reference(wl.reference, wl.jobs) as ref:
            raw_rate, rate, calls = timed_run(wl, args.seconds, cli.main, ref)
        metrics = {
            "items_per_s": (rate, "1/s"),
            "setup_s": (setup_s * calibrate.REFERENCE_START_S / start_s, "s"),
        }
        raw = {"items_per_s": (raw_rate, "1/s"), "setup_s": (setup_s, "s"), "reference_start_s": (start_s, "s")}
        bad = []

    last = calls[-1]
    bad += wl.check_outputs(last.rows)
    digests = {c.sha256 for c in calls}
    if len(digests) > 1:
        bad.append(f"outputs differ between calls: {len(digests)} distinct digests")
    for message in bad:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    for row in {json.dumps(row, sort_keys=True) for c in calls for row in c.failed}:
        print(f"perfbench: failed row: {row}", file=sys.stderr)
    attempted = sum(len(c.rows) for c in calls)
    failed = sum(len(c.failed) for c in calls) + len(bad)
    if not args.trace:
        metrics["pass_share"] = (1.0 - failed / attempted, "ratio")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        metrics["comp_rate"] = (wl.comp_rate, "ratio")

    raw_times = "" if args.trace else " ".join(f"raw_{k}={v!r}" for k, (v, _) in sorted(raw.items()))
    summary = (
        f"perfbench: workload={wl.name} seed={args.seed} calls={len(calls)} {wl.item_unit}_per_call={wl.items} "
        f"comp_rate={wl.comp_rate!r} slowdown={ref.slowdown():.4f} {raw_times} "
        f"output_sha256={digest(wl.written + [wl.out])}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    return result, summary
