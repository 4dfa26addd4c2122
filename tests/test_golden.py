"""Same bytes out: one SHA-256 per CLI command over everything it writes.

A fixed corpus of ``synth`` meshes, snapped to multiples of 1/64 so their
OBJ text is exact, goes through :func:`striptok.cli.main` at up axes x, y
and z: ``encode`` at stride 1 and 2, each with and without ``--uv``;
``decode`` of each at the stored stride and at ``--stride 1``, and
token-mode ``stats`` of each; ``roundtrip`` and ``compare``.  ``filter``,
which has no up axis, runs once.  A command's digest covers, run by run,
its arguments, exit code, stderr, report and every file it wrote.  A
change that moves one output byte fails here; a change meant to must say
why and pin the new digests.

``stats --ref`` is left out: its samples come from NumPy's ``Generator``,
whose streams are not promised to stay the same across NumPy versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
from dataclasses import replace

import numpy as np
import pytest

from striptok import Mesh
from striptok.cli import main

import synth

GOLDEN = {
    "compare": "780e4bec31d6df75fabba64fc34e4b7d22ef49ad3bb64528d22cd968ee83c1b6",
    "decode": "e1f4fdaa36b74bc2b8f893fab4803ecd2f21a0ece84d1eae23d0549e6432879f",
    "encode": "891a5ffe45e858881630115183c9dff4edd50f57d785d82aebb6629a7801a60a",
    "filter": "68817186cf71b9a27192f66f458852f96ef9e862c79e9da14d8d5fce84546d7c",
    "roundtrip": "1676a95c158a8df0b5b5cf9a39b6442565039bd1b95e7bb26f1a03fad3f65566",
    "stats": "dccb2cb797314c8393a29361f3547ac9af44052b090acdc0b3ea44e1e5b8d989",
}


def _snapped(mesh: Mesh) -> Mesh:
    def snap(a):
        return None if a is None else np.round(a * 64.0) / 64.0

    return replace(mesh, positions=snap(mesh.positions), uv_coords=snap(mesh.uv_coords))


def corpus() -> dict[str, Mesh]:
    torus = synth.torus(24, 22)
    flipped = synth.quad_grid(4, 3)
    faces = flipped.faces.copy()
    faces[5] = faces[5][::-1]  # wound against its neighbours
    meshes = {
        "tri_grid": synth.tri_grid(6, 5),
        "quad_grid": synth.quad_grid(5, 4),
        "torus_uv": synth.with_uv_groups(torus, synth.grown_regions(torus, 12)),
        "icosphere": synth.icosphere(3),
        "fan": synth.non_manifold_fan(),
        "flipped": replace(flipped, faces=faces),
    }
    return {name: _snapped(mesh) for name, mesh in meshes.items()}


def obj_text(mesh: Mesh) -> str:
    """The OBJ text of ``mesh``, written here so the corpus does not depend on ``write_obj``."""
    lines = ["v %r %r %r" % tuple(p) for p in mesh.positions.tolist()]
    faces = mesh.faces.tolist()
    if mesh.face_uvs is None:
        lines += ["f " + " ".join(str(v + 1) for v in face) for face in faces]
    else:
        lines += ["vt %r %r" % tuple(t) for t in mesh.uv_coords.tolist()]
        corners = zip(faces, mesh.face_uvs.tolist())
        lines += ["f " + " ".join(f"{v + 1}/{t + 1}" for v, t in zip(face, uvs)) for face, uvs in corners]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("golden")
    meshes = root / "meshes"
    meshes.mkdir()
    for name, mesh in corpus().items():
        (meshes / f"{name}.obj").write_text(obj_text(mesh))
    hashes = {command: hashlib.sha256() for command in GOLDEN}

    def run(label, command, *argv, output=None):
        """Run one command; its arguments, exit code, stderr, report and files go into its digest."""
        if command == "compare":  # its report is the CSV at --output
            report = root / "reports" / f"{label}.csv"
            args = [command, *argv, "--output", str(report)]
        else:
            report = root / "reports" / f"{label}.jsonl"
            args = [command, *argv, "--report", str(report)]
        if output is not None:
            args += ["--output", str(output)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(args)
        h = hashes[command]
        for part in (" ".join(args), str(code), stderr.getvalue(), report.read_text(encoding="utf-8")):
            h.update(part.replace(str(root), "<root>").encode() + b"\0")
        for path in sorted(output.iterdir()) if output is not None else ():
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")

    for axis in "xyz":
        for stride, uv in itertools.product("12", ([], ["--uv"])):
            tokens = root / f"{axis}_s{stride}{'_uv' if uv else ''}"
            run(tokens.name, "encode", str(meshes), "--stride", stride, *uv, "--up-axis", axis, output=tokens)
            for decoded, flags in ((f"{tokens.name}_decoded", []), (f"{tokens.name}_decoded1", ["--stride", "1"])):
                run(decoded, "decode", str(tokens), *flags, output=root / decoded)
            run(f"{tokens.name}_stats", "stats", str(tokens))
        run(f"{axis}_roundtrip", "roundtrip", str(meshes), "--up-axis", axis)
        run(f"{axis}_compare", "compare", str(meshes), "--up-axis", axis)
    run("filter", "filter", str(meshes), output=root / "accepted")
    return {command: h.hexdigest() for command, h in hashes.items()}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_command_output_bytes(command, digests):
    assert digests[command] == GOLDEN[command]
