"""Hypothesis strategies for random meshes, shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from striptok import Mesh

import synth


@st.composite
def random_grids(draw):
    """A tri or quad grid with random heights, with or without UV islands: (mesh, stride)."""
    quads = draw(st.booleans())
    nx, nz = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    base = synth.quad_grid(nx, nz) if quads else synth.tri_grid(nx, nz)
    heights = draw(st.lists(st.floats(0.0, 3.0), min_size=len(base.positions), max_size=len(base.positions)))
    mesh = Mesh(positions=[(p[0], h, p[2]) for p, h in zip(base.positions, heights)], faces=base.faces)
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
    positions = [
        (p[0] + jitter * d[0], p[1] + jitter * d[1], p[2] + jitter * d[2])
        for p, d in zip(base.positions, offsets)
    ]
    holes = draw(st.sets(st.integers(0, len(base.faces) - 1), max_size=len(base.faces) - 1))
    mesh = Mesh(positions=positions, faces=[f for i, f in enumerate(base.faces) if i not in holes])
    regions = draw(st.one_of(st.none(), st.integers(1, 12)))
    if regions is not None:
        mesh = synth.with_uv_groups(mesh, synth.grown_regions(mesh, regions))
    return mesh, 2 if kind == "quad_torus" else 1
