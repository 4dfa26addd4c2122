"""Hypothesis strategies for random meshes and token streams, shared by the
property tests, and the token-stream generators of acceptance criterion 08."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from striptok import Mesh, encode_mesh

import synth


@st.composite
def random_grids(draw):
    """A tri or quad grid with random heights, with or without UV islands: (mesh, stride)."""
    quads = draw(st.booleans())
    nx, nz = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    base = synth.quad_grid(nx, nz) if quads else synth.tri_grid(nx, nz)
    heights = draw(st.lists(st.floats(0.0, 3.0), min_size=len(base.positions), max_size=len(base.positions)))
    positions = base.positions.copy()
    positions[:, 1] = heights
    mesh = Mesh(positions=positions, faces=base.faces)
    regions = draw(st.one_of(st.none(), st.integers(1, 6)))
    if regions is not None:
        mesh = synth.with_uv_groups(mesh, synth.grown_regions(mesh, regions))
    return mesh, 2 if quads else 1


@st.composite
def random_surfaces(draw):
    """A jittered icosphere or torus with holes, with or without UV islands: (mesh, stride).

    Holes are a random set of removed faces (at least one face is kept);
    UV islands are :func:`synth.grown_regions` of the holed surface.
    """
    kind = draw(st.sampled_from(["icosphere", "tri_torus", "quad_torus"]))
    if kind == "icosphere":
        base = synth.icosphere(draw(st.integers(0, 2)))
    else:
        base = synth.torus(draw(st.integers(3, 12)), draw(st.integers(3, 8)), quads=kind == "quad_torus")
    jitter = draw(st.floats(0.0, 0.05))
    offsets = draw(
        st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=len(base.positions), max_size=len(base.positions))
    )
    positions = base.positions + jitter * np.array(offsets)
    holes = draw(st.sets(st.integers(0, len(base.faces) - 1), max_size=len(base.faces) - 1))
    mesh = Mesh(positions=positions, faces=np.delete(base.faces, sorted(holes), axis=0))
    regions = draw(st.one_of(st.none(), st.integers(1, 12)))
    if regions is not None:
        mesh = synth.with_uv_groups(mesh, synth.grown_regions(mesh, regions))
    return mesh, 2 if kind == "quad_torus" else 1


# --- token streams: the acceptance 08 generators, one stream per call


def uniform_stream(rng: np.random.Generator, low: int, high: int) -> list[int]:
    """Uniform-random ids in ``[0, 4800)``, of a length in ``[low, high)``."""
    return rng.integers(0, 4800, size=int(rng.integers(low, high))).tolist()


def structured_stream(rng: np.random.Generator) -> list[int]:
    """A grammar-shaped stream with random geometry: a strip marker, then
    fine tokens, mid+fine pairs and full triples."""
    tokens = [int(rng.integers(64, 192)), int(rng.integers(192, 704)), int(rng.integers(704, 4800))]
    for _ in range(int(rng.integers(0, 60))):
        r = rng.random()
        if r < 0.55:
            tokens.append(int(rng.integers(704, 4800)))
        elif r < 0.85:
            tokens += [int(rng.integers(192, 704)), int(rng.integers(704, 4800))]
        else:
            tokens += [int(rng.integers(0, 192)), int(rng.integers(192, 704)), int(rng.integers(704, 4800))]
    return tokens


@lru_cache(maxsize=1)
def encoder_output() -> tuple[int, ...]:
    """The tokens of an 8 x 8 triangle grid, the stream that gets corrupted."""
    return tuple(encode_mesh(synth.tri_grid(8, 8), 1)[2].tokens.tolist())


def corrupted_stream(rng: np.random.Generator) -> list[int]:
    """Encoder output with 1-7 tokens replaced by uniform-random ids."""
    tokens = list(encoder_output())
    for _ in range(int(rng.integers(1, 8))):
        tokens[int(rng.integers(0, len(tokens)))] = int(rng.integers(0, 4800))
    return tokens


_STREAMS = {
    "uniform": lambda rng: uniform_stream(rng, 1, 49),
    "structured": structured_stream,
    "corrupted": corrupted_stream,
    "long": lambda rng: uniform_stream(rng, 1024, 4097),
}


@st.composite
def acceptance_streams(draw):
    """A stream of one of the acceptance 08 kinds, from a drawn seed."""
    kind = draw(st.sampled_from(sorted(_STREAMS)))
    return _STREAMS[kind](np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
