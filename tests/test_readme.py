"""The README's Library example runs as written, and its CLI examples parse."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from striptok import uv_islands, write_obj
from striptok.cli import build_parser

import synth

README = Path(__file__).resolve().parent.parent / "README.md"


def first_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the ``## heading`` line."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n") :]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    # the example reads bunny.obj and writes roundtrip.obj in the working directory
    mesh = synth.with_uv_groups(synth.tri_grid(4, 4), [f // 8 for f in range(32)])
    write_obj(mesh, tmp_path / "bunny.obj", uv_islands(mesh))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(first_block("Library", "python"), str(README), "exec"), namespace)
    assert namespace["partition"].island_count == 4
    assert (tmp_path / "roundtrip.obj").read_text().count("g island_") == 4


def test_cli_examples_parse():
    # a renamed or dropped flag fails here rather than leaving the README wrong
    commands = [shlex.split(line, comments=True) for line in first_block("CLI", "sh").splitlines()]
    assert len(commands) == 9 and all(argv[0] == "striptok" for argv in commands)
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
