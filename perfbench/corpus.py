"""Seeded synthetic inputs for the benchmark.

Every mesh is generated here, independently of the package under test, and
written as OBJ text.  The set of shapes and their face counts is fixed; the
seed only moves vertices (jitter, heightfield relief) and picks UV islands
and token corruption, so the amount of work per call stays the same from
seed to seed while the bytes differ.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict, deque
from dataclasses import dataclass


@dataclass
class GenMesh:
    positions: list[tuple[float, float, float]]
    faces: list[tuple[int, ...]]
    group_of_face: list[int] | None = None  # UV island of each face, None: no UVs

    @property
    def degree(self) -> int:
        return len(self.faces[0])


@dataclass(frozen=True)
class Spec:
    """One corpus mesh: shape, size parameters, quad or tri, UV islands or not."""

    name: str
    shape: str  # "ico", "torus" or "height"
    size: tuple[int, ...]
    quads: bool
    uv: bool


def _jitter(positions, amount, rng):
    return [
        (x + rng.uniform(-amount, amount), y + rng.uniform(-amount, amount), z + rng.uniform(-amount, amount))
        for x, y, z in positions
    ]


def icosphere(subdiv: int, rng) -> GenMesh:
    t = (1.0 + math.sqrt(5.0)) / 2.0
    base = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0), (0, -1, t), (0, 1, t),
        (0, -1, -t), (0, 1, -t), (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]

    def unit(p):
        n = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
        return (p[0] / n, p[1] / n, p[2] / n)

    verts = [unit(v) for v in base]
    for _ in range(subdiv):
        mids: dict[tuple[int, int], int] = {}

        def mid(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in mids:
                pa, pb = verts[a], verts[b]
                verts.append(unit(((pa[0] + pb[0]) / 2, (pa[1] + pb[1]) / 2, (pa[2] + pb[2]) / 2)))
                mids[key] = len(verts) - 1
            return mids[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    edge = 1.0 / (2 ** subdiv)
    return GenMesh(_jitter(verts, 0.1 * edge, rng), faces)


def torus(nmaj: int, nmin: int, quads: bool, rng) -> GenMesh:
    radius, tube = 2.0, 0.7
    positions = []
    for i in range(nmaj):
        theta = 2.0 * math.pi * i / nmaj
        for j in range(nmin):
            phi = 2.0 * math.pi * j / nmin
            rho = radius + tube * math.cos(phi)
            positions.append((rho * math.cos(theta), tube * math.sin(phi), rho * math.sin(theta)))

    def vid(i, j):
        return (i % nmaj) * nmin + (j % nmin)

    faces = []
    for i in range(nmaj):
        for j in range(nmin):
            a, b, c, d = vid(i, j), vid(i, j + 1), vid(i + 1, j + 1), vid(i + 1, j)
            faces += [(a, b, c, d)] if quads else [(a, b, c), (a, c, d)]
    edge = min(2.0 * math.pi * (radius - tube) / nmaj, 2.0 * math.pi * tube / nmin)
    return GenMesh(_jitter(positions, 0.1 * edge, rng), faces)


def heightfield(nx: int, nz: int, quads: bool, rng) -> GenMesh:
    """Open grid over [0,1]^2 in xz with a seeded smooth relief in y."""
    waves = [(rng.uniform(2, 9), rng.uniform(2, 9), rng.uniform(0, 6.3), rng.uniform(0, 6.3)) for _ in range(3)]

    def height(x, z):
        return 0.08 * sum(math.sin(fx * x + px) * math.sin(fz * z + pz) for fx, fz, px, pz in waves)

    positions = []
    for i in range(nx + 1):
        for j in range(nz + 1):
            x, z = i / nx, j / nz
            positions.append((x, height(x, z), z))

    def vid(i, j):
        return i * (nz + 1) + j

    faces = []
    for j in range(nz):
        for i in range(nx):
            a, b, c, d = vid(i, j), vid(i, j + 1), vid(i + 1, j + 1), vid(i + 1, j)
            faces += [(a, b, c, d)] if quads else [(a, b, d), (b, c, d)]
    return GenMesh(_jitter(positions, 0.1 / max(nx, nz), rng), faces)


def centered_unit(mesh: GenMesh) -> GenMesh:
    """Scale and shift so the bounding box is centred on the origin with largest extent 1."""
    lo = [min(p[k] for p in mesh.positions) for k in range(3)]
    hi = [max(p[k] for p in mesh.positions) for k in range(3)]
    scale = max(h - l for h, l in zip(hi, lo))
    mid = [(h + l) / 2 for h, l in zip(hi, lo)]
    mesh.positions = [tuple((p[k] - mid[k]) / scale for k in range(3)) for p in mesh.positions]
    return mesh


def grown_islands(faces, count: int, rng) -> list[int]:
    """Edge-connected face groups grown breadth-first from seeded start faces."""
    edge_faces = defaultdict(list)
    for fi, face in enumerate(faces):
        for k in range(len(face)):
            a, b = face[k], face[(k + 1) % len(face)]
            edge_faces[(a, b) if a < b else (b, a)].append(fi)
    adjacency = [[] for _ in faces]
    for users in edge_faces.values():
        for i in users:
            adjacency[i] += [j for j in users if j != i]
    labels = [-1] * len(faces)
    frontiers = []
    for g, s in enumerate(rng.sample(range(len(faces)), count)):
        labels[s] = g
        frontiers.append(deque([s]))
    active = True
    while active:
        active = False
        for g, frontier in enumerate(frontiers):
            for _ in range(len(frontier)):
                f = frontier.popleft()
                for nb in adjacency[f]:
                    if labels[nb] == -1:
                        labels[nb] = g
                        frontier.append(nb)
            active = active or bool(frontier)
    return labels


def build(spec: Spec, rng: random.Random) -> GenMesh:
    if spec.shape == "ico":
        mesh = icosphere(spec.size[0], rng)
    elif spec.shape == "torus":
        mesh = torus(spec.size[0], spec.size[1], spec.quads, rng)
    else:
        mesh = heightfield(spec.size[0], spec.size[1], spec.quads, rng)
    if spec.uv:
        # one island per 80 faces, within the corpus filter's 10..300; the
        # count is fixed so that only the islands' shapes vary with the seed
        count = min(300, max(10, len(mesh.faces) // 80))
        mesh.group_of_face = grown_islands(mesh.faces, count, rng)
    return mesh


def write_obj(mesh: GenMesh, path) -> None:
    """OBJ text; with islands, each (vertex, island) pair gets its own uv index."""
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.positions]
    if mesh.group_of_face is None:
        lines += ["f " + " ".join(str(v + 1) for v in face) for face in mesh.faces]
    else:
        uv_index: dict[tuple[int, int], int] = {}
        face_lines = []
        for face, g in zip(mesh.faces, mesh.group_of_face):
            corners = []
            for v in face:
                t = uv_index.setdefault((v, g), len(uv_index))
                corners.append(f"{v + 1}/{t + 1}")
            face_lines.append("f " + " ".join(corners))
        lines += [f"vt {(t % 97) / 97.0!r} {(t % 89) / 89.0!r}" for t in range(len(uv_index))]
        lines += face_lines
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


VOCAB_SIZE = 4800


def corrupt(tokens: list[int], rate: float, rng: random.Random) -> list[int]:
    """Drop, insert or substitute each token with total probability ``rate``; new ids are uniform."""
    out = []
    for tok in tokens:
        r = rng.random()
        if r >= rate:
            out.append(tok)
        elif r < rate / 3:
            continue
        elif r < 2 * rate / 3:
            out += [tok, rng.randrange(VOCAB_SIZE)]
        else:
            out.append(rng.randrange(VOCAB_SIZE))
    return out


FINE = (704, VOCAB_SIZE)  # fine-level ids, see the vocabulary layout in the top-level README


def near_miss(tokens: list[int], rate: float, rng: random.Random) -> list[int]:
    """Substitute a share ``rate`` of the fine-level ids with other fine-level ids.

    Every vertex stays within its 16-cell block and no strip or island
    marker moves, so the decoded mesh is near its source everywhere.
    """
    return [rng.randrange(*FINE) if tok >= FINE[0] and rng.random() < rate else tok for tok in tokens]


def uniform_tokens(n: int, rng: random.Random) -> list[int]:
    return [rng.randrange(VOCAB_SIZE) for _ in range(n)]
