"""The README's Library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from striptok import uv_islands, write_obj

import synth

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first ``python`` code block after the ``## Library`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    # the example reads bunny.obj and writes roundtrip.obj in the working directory
    mesh = synth.with_uv_groups(synth.tri_grid(4, 4), [f // 8 for f in range(32)])
    write_obj(mesh, tmp_path / "bunny.obj", uv_islands(mesh))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["partition"].island_count == 4
    assert (tmp_path / "roundtrip.obj").read_text().count("g island_") == 4
