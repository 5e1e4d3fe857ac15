"""Seeded inputs for the benchmark: graphs, systems and trajectories.

Everything here uses numpy alone and writes files in the formats the
netreal CLI reads, so the program under test only ever sees the files.
The generators live apart from the test suite on purpose: editing a test
helper cannot move the benchmark.

An edge ``(i, j)`` lets node ``i`` read node ``j``; every graph carries
all self-loops.  Node dimensions are uniform: ``n`` states, ``m`` inputs
and ``p`` outputs per node, stored node-major.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def chain_edges(count: int) -> list[tuple[int, int]]:
    """Cascade: reach ``i`` reads itself and the reach upstream of it."""
    return sorted({(i, i) for i in range(count)}
                  | {(i, i - 1) for i in range(1, count)})


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """2-D grid with 4-neighbour coupling in both directions."""
    edges = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            edges.add((i, i))
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.add((i, rr * cols + cc))
    return sorted(edges)


def random_in_edges(rng, count: int, k: int) -> list[tuple[int, int]]:
    """Each node reads itself and ``k`` distinct random other nodes."""
    edges = set()
    for i in range(count):
        edges.add((i, i))
        others = [j for j in range(count) if j != i]
        for j in rng.choice(others, size=k, replace=False):
            edges.add((i, int(j)))
    return sorted(edges)


@dataclass
class System:
    """Dense matrices with a uniform node partition and an edge list."""

    count: int
    n: int
    m: int
    p: int
    edges: list
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def to_obj(self, name: str) -> dict:
        return {
            "name": name,
            "graph": {"num_nodes": self.count,
                      "edges": [list(e) for e in self.edges]},
            "dims": [{"n": self.n, "m": self.m, "p": self.p}] * self.count,
            "A": self.A.tolist(), "B": self.B.tolist(),
            "C": self.C.tolist(), "D": self.D.tolist(),
        }

    def nonzero_blocks(self) -> list[tuple[int, int]]:
        """(rows, cols) of every block of A, B, C, D with a nonzero entry."""
        shapes = []
        for mat, rows, cols in ((self.A, self.n, self.n), (self.B, self.n, self.m),
                                (self.C, self.p, self.n), (self.D, self.p, self.m)):
            if rows == 0 or cols == 0:
                continue
            blocks = mat.reshape(self.count, rows, self.count, cols)
            hits = np.count_nonzero(np.any(blocks != 0.0, axis=(1, 3)))
            shapes.extend([(rows, cols)] * int(hits))
        return shapes


def _edge_fill(rng, count, rows, cols, edges, scale):
    mat = np.zeros((count * rows, count * cols))
    for i, j in edges:
        mat[i * rows:(i + 1) * rows, j * cols:(j + 1) * cols] = rng.normal(
            scale=scale, size=(rows, cols))
    return mat


def _diag_fill(rng, count, rows, cols, scale, shift=0.0):
    return _edge_fill(rng, count, rows, cols, [(i, i) for i in range(count)],
                      scale) + shift * np.eye(count * rows, count * cols)


def _spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a)))) if a.size else 0.0


def scaled_system(rng, count, n, m, p, edges) -> System:
    """Random A on the edges, scaled to spectral radius 0.9.

    B is block-diagonal, C reads only the node's own state and D is
    zero, so the system is strictly proper and strictly compatible.
    """
    a = _edge_fill(rng, count, n, n, edges, 1.0)
    a *= 0.9 / _spectral_radius(a)
    return System(count, n, m, p, edges, a,
                  _diag_fill(rng, count, n, m, 1.0),
                  _diag_fill(rng, count, p, n, 1.0),
                  np.zeros((count * p, count * m)))


def chain_system(rng, count, n, m, p, *, unstable=(), direct=None,
                 gain=1.0) -> System:
    """System on the cascade whose eigenvalues are set node by node.

    A and C live on the chain edges, so A is block lower-triangular and
    its spectrum is the union of its diagonal blocks.  Each diagonal
    block gets real eigenvalues of magnitude at most 0.7, except that every node in ``unstable`` also carries one mode in
    [1.2, 1.6].  ``direct`` is ``None`` for a zero D, else the shift put
    on a block-diagonal D (``D = direct * I + noise``).  ``gain`` scales
    B, C and the noise of D.
    """
    edges = chain_edges(count)
    a = _edge_fill(rng, count, n, n, edges, 0.3)
    unstable = set(unstable)
    for i in range(count):
        poles = rng.uniform(-0.7, 0.7, size=n)
        if i in unstable:
            poles[0] = rng.uniform(1.2, 1.6)
        basis = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        a[i * n:(i + 1) * n, i * n:(i + 1) * n] = (
            basis @ np.diag(poles) @ np.linalg.inv(basis))
    b = _diag_fill(rng, count, n, m, gain)
    c = _edge_fill(rng, count, p, n, edges, gain)
    if direct is None:
        d = np.zeros((count * p, count * m))
    else:
        d = _diag_fill(rng, count, p, m, 0.1 * gain, shift=direct)
    return System(count, n, m, p, edges, a, b, c, d)


def chain_closed_loop_radius(plant: System, ctrl: System) -> float:
    """Spectral radius of the negative-feedback loop of plant and controller.

    Both systems are block lower-triangular on the chain and B, D are
    block-diagonal, so the loop's spectrum is the union of the per-node
    diagonal blocks computed here.
    """
    def own(mat, rows, cols, i):
        return mat[i * rows:(i + 1) * rows, i * cols:(i + 1) * cols]

    worst = 0.0
    n, k, m, p = plant.n, ctrl.n, plant.m, plant.p
    for i in range(plant.count):
        ap, bp, cp = own(plant.A, n, n, i), own(plant.B, n, m, i), own(plant.C, p, n, i)
        ak, bk = own(ctrl.A, k, k, i), own(ctrl.B, k, p, i)
        ck, dk = own(ctrl.C, m, k, i), own(ctrl.D, m, p, i)
        blk = np.block([[ap - bp @ dk @ cp, bp @ ck], [-bk @ cp, ak]])
        worst = max(worst, _spectral_radius(blk))
    return worst


def dense_response(sys_: System, u: np.ndarray) -> np.ndarray:
    """Plain ``x <- A x + B u`` recursion on the dense matrices."""
    a, b, c, d = sys_.A, sys_.B, sys_.C, sys_.D
    x = np.zeros(a.shape[0])
    ys = np.empty((u.shape[0], c.shape[0]))
    for t in range(u.shape[0]):
        ys[t] = c @ x + d @ u[t]
        x = a @ x + b @ u[t]
    return ys


def write_system(path, sys_: System, name: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sys_.to_obj(name), fh)
        fh.write("\n")


def write_csv(path, values: np.ndarray, count: int, width: int) -> None:
    """Input trajectory CSV, node-major columns ``u<node>_<channel>``."""
    header = ",".join(f"u{i}_{c}" for i in range(count) for c in range(width))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_csv(path) -> np.ndarray:
    """Parse a trajectory CSV back into a (steps, width) array."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines if line])
