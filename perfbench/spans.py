"""Span recording by wrapping the package's public layer functions at runtime.

Each wrapper is installed at the name its caller looks the function up by
(``striptok.cli.decode``, ``striptok.metrics.sample_surface``, ...), so the
CLI runs unchanged and nothing inside ``src/`` knows about tracing.  A
missing name is an error: a refactor that moves a layer must move its
wrapper too, not drop it from the trace silently.

While wrapped, results are also checked against the accounting identities
the package documents, and counted for the per-layer ratios.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, layer bucket)
WRAPPED = [
    ("striptok.cli", "load_obj", "load_obj", "mesh_io.load_s"),
    ("striptok.cli", "uv_islands", "uv_islands", "mesh_io.islands_s"),
    ("striptok.cli", "is_edge_manifold", "is_edge_manifold", "mesh_io.islands_s"),
    ("striptok.cli", "write_obj", "write_obj", "mesh_io.write_s"),
    ("striptok.cli", "quantize_mesh", "quantize_mesh", "quantize.quantize_s"),
    ("striptok.cli", "dequantize_mesh", "dequantize_mesh", "quantize.dequantize_s"),
    ("striptok.cli", "extract_strips", "extract_strips", "strips.extract_s"),
    ("striptok.cli", "serialize", "serialize", "tokens.serialize_s"),
    ("striptok.cli", "read_tokens", "read_tokens", "tokens.read_s"),
    ("striptok.cli", "parse_tokens", "parse_tokens", "decode.parse_s"),
    ("striptok.cli", "decode", "decode", "decode.decode_s"),
    ("striptok.cli", "compare_quantized", "compare_quantized", "verify.compare_s"),
    ("striptok.cli", "compare_meshes", "compare_meshes", "metrics.compare_s"),
    ("striptok.metrics", "sample_surface", "sample_surface", "metrics.sample_s"),
    ("striptok.metrics", "chamfer_hausdorff", "chamfer_hausdorff", "metrics.nn_s"),
    ("striptok.metrics", "normal_consistency", "normal_consistency", "metrics.nn_s"),
    ("striptok.metrics", "f_score", "f_score", "metrics.nn_s"),
    ("striptok.metrics", "cKDTree", "kdtree_build", "metrics.nn_s"),
]

BUCKETS = sorted({bucket for _, _, _, bucket in WRAPPED})


class TraceError(RuntimeError):
    """The trace cannot be trusted: a wrapped name is missing or a layer stayed silent."""


class Tracer:
    """Records spans (name, start, end, parent, file) in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.file = ""
        self.counts: dict[str, int] = defaultdict(int)
        self.violations: list[str] = []
        self.check_s = 0.0  # time spent in this module's own checks, kept out of the layers
        self._originals: list[tuple[object, str, object]] = []

    def install(self):
        for module_name, attr, span_name, _ in WRAPPED:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise TraceError(f"{module_name}.{attr} is gone; update WRAPPED in perfbench/spans.py")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, span_name):
        check = _CHECKS.get(span_name)

        def wrapper(*args, **kwargs):
            if span_name in ("load_obj", "read_tokens") and not self.stack:
                self.file = str(args[0]).rsplit("/", 1)[-1]
            span = [span_name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.file]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if check is not None:
                t0 = perf_counter()
                check(self, args, result)
                self.check_s += perf_counter() - t0
            return result

        return wrapper

    def violate(self, message: str):
        self.violations.append(f"{self.file}: {message}")

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, file in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "file": file}) + "\n")


def self_times(spans, first: int = 0) -> dict[str, float]:
    """Self time per layer bucket over spans[first:]: duration minus child durations."""
    bucket_of = {span_name: bucket for _, _, span_name, bucket in WRAPPED}
    own = {i: spans[i][2] - spans[i][1] for i in range(first, len(spans))}
    for i in range(first, len(spans)):
        parent = spans[i][3]
        if parent >= first:
            own[parent] -= spans[i][2] - spans[i][1]
    out = dict.fromkeys(BUCKETS, 0.0)
    for i, t in own.items():
        out[bucket_of[spans[i][0]]] += t
    return out


def top_level_s(spans, first: int = 0) -> float:
    return sum(s[2] - s[1] for s in spans[first:] if s[3] < first)


# Result checks, run outside the spans.  Each checks a documented identity
# and counts what the per-layer ratios need.


def _check_quantize(tr, args, q):
    n_in = len(args[0].faces)
    kept = len(q.faces)
    if n_in != kept + q.dropped_degenerate + q.dropped_duplicate:
        tr.violate(f"quantize: {n_in} faces in != {kept} kept + {q.dropped_degenerate} degenerate + {q.dropped_duplicate} duplicate")
    tr.counts["quantize.vertices"] += len(args[0].positions)
    tr.counts["quantize.dropped_faces"] += q.dropped_degenerate + q.dropped_duplicate


def _check_strips(tr, args, strip_set):
    tr.counts["strips.faces"] += len(args[0].faces)
    tr.counts["strips.strips"] += len(strip_set.strips)


def _check_serialize(tr, args, seq):
    full = sum(1 for t in seq.tokens if t < 192)  # one coarse id per vertex that emits all three levels
    fine = sum(1 for t in seq.tokens if t >= 704)  # one fine id per vertex
    tr.counts["tokens.vertices"] += fine
    tr.counts["tokens.prefixed_vertices"] += fine - full


def _check_parse(tr, args, stream):
    seq = args[0]
    n = len(seq.tokens if hasattr(seq, "tokens") else seq)
    if stream.consumed_tokens + stream.discarded != n:
        tr.violate(f"parse: consumed {stream.consumed_tokens} + discarded {stream.discarded} != {n} tokens")
    tr.counts["decode.tokens"] += n
    tr.counts["decode.discarded"] += stream.discarded


def _check_decode(tr, args, result):
    mesh, _, report = result
    emitted = len(mesh.faces)
    if report.implied_faces != emitted + report.degenerate_faces + report.duplicate_faces:
        tr.violate(
            f"decode: implied {report.implied_faces} != emitted {emitted} + degenerate "
            f"{report.degenerate_faces} + duplicate {report.duplicate_faces}"
        )
    tr.counts["decode.welds"] += report.welds
    tr.counts["decode.dropped_faces"] += report.degenerate_faces + report.duplicate_faces


def _count(key):
    def check(tr, args, result):
        tr.counts[key] += 1

    return check


_CHECKS = {
    "quantize_mesh": _check_quantize,
    "extract_strips": _check_strips,
    "serialize": _check_serialize,
    "parse_tokens": _check_parse,
    "decode": _check_decode,
    "compare_meshes": _count("metrics.pairs"),
    "kdtree_build": _count("metrics.kdtrees"),
}
