"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths:
stabilizability and detectability are decided from the controllability
matrix and an invariant-subspace restriction, transfer values from
direct numpy solves on dense matrices behind an exact SVD condition
number, and block structure from a per-block scan of the dense matrices.
"""

from __future__ import annotations

import numpy as np

from netreal import BlockRealization, DMode, NodeDims, NumericalError, PoleError, build_graph
from netreal.realization import POLE_COND_LIMIT


def random_graph(rng, num_nodes, edge_prob=0.45, self_loops=True):
    edges = set()
    for i in range(num_nodes):
        if self_loops:
            edges.add((i, i))
        for j in range(num_nodes):
            if i != j and rng.random() < edge_prob:
                edges.add((i, j))
    return build_graph(num_nodes, edges)


def random_dims(rng, num_nodes, max_states=3, max_channels=2, min_channels=0):
    states = tuple(int(v) for v in rng.integers(0, max_states + 1, num_nodes))
    inputs = tuple(int(v) for v in rng.integers(min_channels, max_channels + 1, num_nodes))
    outputs = tuple(int(v) for v in rng.integers(min_channels, max_channels + 1, num_nodes))
    return NodeDims(states, inputs, outputs)


def random_system(
    rng,
    graph,
    dims,
    mode=DMode.STRICT,
    rho=None,
    strictly_proper=False,
    scale=0.6,
):
    """A realization that fills exactly the blocks the graph allows."""
    count = graph.num_nodes
    a = np.zeros((dims.n_total, dims.n_total))
    c = np.zeros((dims.p_total, dims.n_total))
    for i in range(count):
        for j in range(count):
            if not graph.has_edge(i, j):
                continue
            rs, cs = dims.state_slice(i), dims.state_slice(j)
            a[rs, cs] = rng.normal(scale=scale, size=(rs.stop - rs.start, cs.stop - cs.start))
            os_ = dims.output_slice(i)
            c[os_, cs] = rng.normal(scale=scale, size=(os_.stop - os_.start, cs.stop - cs.start))
    b = np.zeros((dims.n_total, dims.m_total))
    d = np.zeros((dims.p_total, dims.m_total))
    for i in range(count):
        rs, ms = dims.state_slice(i), dims.input_slice(i)
        b[rs, ms] = rng.normal(scale=scale, size=(rs.stop - rs.start, ms.stop - ms.start))
        if not strictly_proper:
            os_ = dims.output_slice(i)
            d[os_, ms] = rng.normal(scale=scale, size=(os_.stop - os_.start, ms.stop - ms.start))
    if not strictly_proper and mode is DMode.EDGE_SPARSE:
        for i in range(count):
            for j in range(count):
                if i != j and graph.has_edge(i, j):
                    os_, ms = dims.output_slice(i), dims.input_slice(j)
                    d[os_, ms] = rng.normal(
                        scale=scale, size=(os_.stop - os_.start, ms.stop - ms.start))
    if rho is not None and dims.n_total:
        current = np.max(np.abs(np.linalg.eigvals(a)))
        if current > 0:
            a *= rho / current
    return BlockRealization(dims, a, b, c, d)


def random_add_pair(rng, max_nodes=6, max_states=3, stable=True):
    count = int(rng.integers(2, max_nodes + 1))
    graph = random_graph(rng, count)
    shared_in = tuple(int(v) for v in rng.integers(0, 3, count))
    shared_out = tuple(int(v) for v in rng.integers(0, 3, count))
    rho = float(rng.uniform(0.3, 0.9)) if stable else None
    pair = []
    for _ in range(2):
        states = tuple(int(v) for v in rng.integers(0, max_states + 1, count))
        dims = NodeDims(states, shared_in, shared_out)
        pair.append(random_system(rng, graph, dims, rho=rho))
    return pair[0], pair[1], graph


def random_mul_pair(rng, max_nodes=6, max_states=3, stable=True):
    """(outer, inner, graph) with inner outputs matching outer inputs."""
    count = int(rng.integers(2, max_nodes + 1))
    graph = random_graph(rng, count)
    mid = tuple(int(v) for v in rng.integers(0, 3, count))
    rho = float(rng.uniform(0.3, 0.9)) if stable else None
    inner_dims = NodeDims(
        tuple(int(v) for v in rng.integers(0, max_states + 1, count)),
        tuple(int(v) for v in rng.integers(0, 3, count)),
        mid,
    )
    outer_dims = NodeDims(
        tuple(int(v) for v in rng.integers(0, max_states + 1, count)),
        mid,
        tuple(int(v) for v in rng.integers(0, 3, count)),
    )
    inner = random_system(rng, graph, inner_dims, rho=rho)
    outer = random_system(rng, graph, outer_dims, rho=rho)
    return outer, inner, graph


def random_loop_pair(rng, max_nodes=4, max_states=3):
    """(plant, controller, graph): strictly proper plant, matching controller."""
    count = int(rng.integers(2, max_nodes + 1))
    graph = random_graph(rng, count)
    p_chan = tuple(int(v) for v in rng.integers(0, 3, count))
    m_chan = tuple(int(v) for v in rng.integers(0, 3, count))
    plant_dims = NodeDims(
        tuple(int(v) for v in rng.integers(1, max_states + 1, count)), m_chan, p_chan)
    ctrl_dims = NodeDims(
        tuple(int(v) for v in rng.integers(0, max_states + 1, count)), p_chan, m_chan)
    plant = random_system(
        rng, graph, plant_dims, rho=float(rng.uniform(0.3, 0.9)),
        strictly_proper=True, scale=0.4)
    controller = random_system(
        rng, graph, ctrl_dims, rho=float(rng.uniform(0.3, 0.9)), scale=0.4)
    return plant, controller, graph


def with_forbidden_entries(rng, real, count=3):
    """Copy of ``real`` with ``count`` random entries of each matrix overwritten.

    Magnitudes span 1e-12 to 10, so a positive ``zero_tol`` masks some of
    them; entries may land on allowed and forbidden blocks alike.
    """
    mats = []
    for mat in (real.A, real.B, real.C, real.D):
        mat = mat.copy()
        if mat.size:
            spots = rng.integers(0, mat.size, count)
            mat.flat[spots] = rng.normal(size=count) * 10.0 ** rng.integers(-12, 2, count)
        mats.append(mat)
    return BlockRealization(real.dims, *mats)


def oracle_transfer(real, z):
    """``C (zI - A)^{-1} B + D`` by one dense solve, guarded by the exact condition number.

    Raises :class:`PoleError` when ``np.linalg.cond(zI - A)`` is not
    finite or at least ``POLE_COND_LIMIT``, and :class:`NumericalError`
    when numpy fails.
    """
    d = real.D.astype(complex)
    if real.n == 0:
        return d
    shifted = z * np.eye(real.n) - real.A
    try:
        cond = np.linalg.cond(shifted)
        if not np.isfinite(cond) or cond >= POLE_COND_LIMIT:
            raise PoleError(f"cond(zI - A) = {cond:.3e} at z = {z}")
        states = np.linalg.solve(shifted, real.B.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"solve failed at z = {z}: {exc}") from exc
    return real.C @ states + d


def probe_points(rng, real, num_random=3):
    """Frequencies that probe the pole guard of ``real``.

    ``num_random`` points at random, then every eigenvalue of A moved by
    a random offset of magnitude 1e-14 to 1e-2 in a random direction.
    When A is diagonal, its diagonal entries too: there ``zI - A`` is
    exactly singular.
    """
    points = [complex(*rng.normal(scale=2.0, size=2)) for _ in range(num_random)]
    if real.n == 0:
        return points
    for lam in np.linalg.eigvals(real.A):
        offset = 10.0 ** rng.uniform(-14, -2) * np.exp(2j * np.pi * rng.random())
        points.append(complex(lam + offset))
    if not np.any(real.A - np.diag(np.diag(real.A))):
        points.extend(complex(v) for v in np.diag(real.A))
    return points


def _node_ranges(counts):
    stops = np.cumsum(counts, dtype=int)
    return [range(int(stop) - int(width), int(stop)) for width, stop in zip(counts, stops)]


def oracle_blocks(real):
    """``{name: {(i, j): block}}`` for A, B, C and D, sliced by node."""
    dims = real.dims
    states, inputs, outputs = (
        _node_ranges(dims.states), _node_ranges(dims.inputs), _node_ranges(dims.outputs))
    out = {}
    for name, mat, rows, cols in (("A", real.A, states, states), ("B", real.B, states, inputs),
                                  ("C", real.C, outputs, states), ("D", real.D, outputs, inputs)):
        out[name] = {
            (i, j): mat[np.ix_(list(r), list(c))]
            for i, r in enumerate(rows) for j, c in enumerate(cols)}
    return out


def oracle_violations(real, graph, mode, zero_tol=0.0):
    """``(matrix, (i, j), max_abs)`` of every forbidden block above ``zero_tol``.

    Ordered A, B, C, D, each row-major; empty blocks never count.
    """
    found = []
    for name, blocks in oracle_blocks(real).items():
        for (i, j), blk in blocks.items():
            if name in ("A", "C"):
                allowed = (i, j) in graph.edges
            elif name == "D" and mode is DMode.EDGE_SPARSE:
                allowed = i == j or (i, j) in graph.edges
            else:
                allowed = i == j
            if not allowed and blk.size and float(np.max(np.abs(blk))) > zero_tol:
                found.append((name, (i, j), float(np.max(np.abs(blk)))))
    return found


def oracle_block_diagonal_d(real):
    """True iff every off-diagonal block of D is exactly zero."""
    return not any(np.any(blk) for (i, j), blk in oracle_blocks(real)["D"].items() if i != j)


def ctrb(a, b):
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def _uncontrollable_basis(a, b, rtol=1e-10):
    """Orthonormal basis of the orthogonal complement of the reachable space."""
    n = a.shape[0]
    reach = ctrb(a, b)
    if reach.size == 0:
        return np.eye(n)
    norms = np.linalg.norm(reach, axis=0)
    kept = reach[:, norms > 0]
    if kept.shape[1] == 0:
        return np.eye(n)
    kept = kept / np.linalg.norm(kept, axis=0)
    u, sv, _ = np.linalg.svd(kept, full_matrices=True)
    rank = int(np.count_nonzero(sv > sv[0] * rtol))
    return u[:, rank:]


def oracle_stabilizable(a, b):
    """True iff every mode outside the reachable space is strictly stable.

    The reachable space is A-invariant, so restricting A to its
    orthogonal complement (which triangularizes A in the split basis)
    exposes exactly the uncontrollable eigenvalues.
    """
    if a.shape[0] == 0:
        return True
    w = _uncontrollable_basis(a, b)
    if w.shape[1] == 0:
        return True
    eigs = np.linalg.eigvals(w.T @ a @ w)
    return bool(np.all(np.abs(eigs) < 1.0))


def oracle_detectable(a, c):
    return oracle_stabilizable(a.T, c.T)


def random_orthogonal(rng, n):
    if n == 0:
        return np.zeros((0, 0))
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def hidden_mode_case(rng, visible, hidden, hidden_stable):
    """(A, B, expected_stabilizable) with the hidden block disconnected.

    The hidden eigenvalues are drawn well away from the unit circle so
    the boundary convention cannot blur the verdict; a random orthogonal
    similarity then mixes the coordinates without touching the answer.
    """
    n = visible + hidden
    a = np.zeros((n, n))
    if visible:
        a_vis = rng.normal(size=(visible, visible))
        radius = np.max(np.abs(np.linalg.eigvals(a_vis)))
        if radius > 0:
            a_vis *= float(rng.uniform(0.3, 0.8)) / radius
        a[:visible, :visible] = a_vis
    band = (0.2, 0.8) if hidden_stable else (1.2, 2.0)
    signs = rng.choice([-1.0, 1.0], size=hidden)
    a[visible:, visible:] = np.diag(signs * rng.uniform(*band, size=hidden))
    m = int(rng.integers(1, 3))
    b = np.zeros((n, m))
    if visible:
        b[:visible] = rng.normal(size=(visible, m))
    t = random_orthogonal(rng, n)
    expected = hidden_stable or hidden == 0
    return t @ a @ t.T, t @ b, expected
