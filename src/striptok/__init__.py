"""Strip-based mesh tokenizer: compact token sequences for tri/quad meshes.

The metric names (``compare_meshes``, ``sample_surface``, ...) load
:mod:`striptok.metrics`, and with it SciPy, on first use; importing the
package or its CLI loads neither.
"""

from .mesh_io import (
    FilterResult,
    IslandPartition,
    Mesh,
    ObjParseError,
    corpus_filter,
    load_obj,
    split_quad_faces,
    uv_islands,
    write_obj,
)
from .quantize import (
    QuantizedMesh,
    Transform,
    decode_hier,
    dequantize_mesh,
    encode_hier,
    quantize_mesh,
)
from .strips import StripSet, extract_strips
from .tokens import (
    TokenFileError,
    TokenHeader,
    TokenSequence,
    TokenStats,
    compression_stats,
    read_tokens,
    serialize,
    write_tokens,
)
from .decode import (
    DecodeReport,
    VertexStream,
    decode,
    dual_decode_check,
    parse_tokens,
)

__version__ = "0.1.0"

_METRICS = (
    "MetricReport",
    "SampleSet",
    "chamfer_hausdorff",
    "compare_meshes",
    "f_score",
    "normal_consistency",
    "sample_surface",
)


def __getattr__(name):
    # the CLI's two pipeline helpers load on first use: importing the CLI
    # here would make ``python -m striptok.cli`` run a second copy of it
    if name in ("encode_mesh", "decode_tokens"):
        from . import cli

        return getattr(cli, name)
    if name in _METRICS:  # only a metric needs SciPy, so it loads with the first one
        from . import metrics

        return getattr(metrics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
