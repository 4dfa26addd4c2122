from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass

import pytest
from hypothesis import settings

from striptok import IslandPartition, Mesh, uv_islands

import synth

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and a
# failure prints the blob that replays it locally (@reproduce_failure).
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture()
def recording_threads(monkeypatch):
    """Stands in for every thread pool the package starts in this process:
    records each pool's size as it starts and runs each submitted call at
    once, on the calling thread.  ``mesh_io.on_threads``, which runs the
    CLI's files and the metrics' sample rows, query runs and tree builds,
    imports the pool class from ``concurrent.futures`` where its threads
    start, so every pool it starts is recorded."""
    started = []

    class RecordingThreads:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn):
            future = concurrent.futures.Future()
            future.set_result(fn())
            return future

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingThreads)
    return started


@dataclass
class CorpusEntry:
    name: str
    mesh: Mesh
    partition: IslandPartition | None
    stride: int

    @property
    def uv_mode(self) -> bool:
        return self.partition is not None


def _uv_entry(name, mesh, groups, stride):
    tagged = synth.with_uv_groups(mesh, groups)
    return CorpusEntry(name, tagged, uv_islands(tagged), stride)


def build_tri_corpus() -> list[CorpusEntry]:
    entries = []
    for n in (2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32):
        entries.append(CorpusEntry(f"tri_grid_{n}x{n}", synth.tri_grid(n, n), None, 1))
    for n in (10, 25, 50, 100):
        entries.append(CorpusEntry(f"tri_ribbon_{n}", synth.tri_ribbon(n), None, 1))
    for s in (1, 2, 3):
        entries.append(CorpusEntry(f"icosphere_{s}", synth.icosphere(s), None, 1))
    entries.append(CorpusEntry("tri_torus_16x8", synth.torus(16, 8, quads=False), None, 1))
    entries.append(CorpusEntry("tri_torus_24x12", synth.torus(24, 12, quads=False), None, 1))
    entries.append(CorpusEntry("l_solid", synth.l_solid(), None, 1))

    grid = synth.tri_grid(8, 8)
    entries.append(_uv_entry("tri_grid_8x8_uv2", grid, [0 if f < 64 else 1 for f in range(len(grid.faces))], 1))
    tor = synth.torus(16, 8, quads=False)
    entries.append(_uv_entry("tri_torus_uv4", tor, [fi // (len(tor.faces) // 4 + 1) for fi in range(len(tor.faces))], 1))
    ico = synth.icosphere(2)
    entries.append(_uv_entry("icosphere_2_uv3", ico, synth.grown_regions(ico, 3), 1))
    return entries


def build_quad_corpus() -> list[CorpusEntry]:
    entries = []
    for n in (2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32):
        entries.append(CorpusEntry(f"quad_grid_{n}x{n}", synth.quad_grid(n, n), None, 2))
    for n in (10, 25, 50, 100):
        entries.append(CorpusEntry(f"quad_ribbon_{n}", synth.quad_ribbon(n), None, 2))
    entries.append(CorpusEntry("quad_torus_16x8", synth.torus(16, 8), None, 2))
    entries.append(CorpusEntry("quad_torus_24x12", synth.torus(24, 12), None, 2))
    entries.append(CorpusEntry("quad_torus_12x6", synth.torus(12, 6), None, 2))

    grid = synth.quad_grid(8, 8)
    entries.append(_uv_entry("quad_grid_8x8_uv2", grid, [0 if f < 32 else 1 for f in range(len(grid.faces))], 2))
    tor = synth.torus(24, 8)
    entries.append(_uv_entry("quad_torus_uv12", tor, [fi // 16 for fi in range(len(tor.faces))], 2))
    return entries


@pytest.fixture(scope="session")
def tri_corpus():
    return build_tri_corpus()


@pytest.fixture(scope="session")
def quad_corpus():
    return build_quad_corpus()


@pytest.fixture(scope="session")
def full_corpus(tri_corpus, quad_corpus):
    return tri_corpus + quad_corpus
