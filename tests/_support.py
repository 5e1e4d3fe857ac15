"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths:
stabilizability and detectability are decided from the controllability
matrix and an invariant-subspace restriction (and, for the exact PBH
reports, from an SVD at every tested eigenvalue), transfer values from
direct numpy solves on dense matrices behind an exact SVD condition
number (and, for the bitwise checks, from a plain per-point block
substitution), block structure from a per-block scan of the dense
matrices, and spectra from the dense eigenvalues of the diagonal blocks
of the strongly connected components a boolean transitive closure finds.
"""

from __future__ import annotations

import numpy as np

from netreal import BlockRealization, DMode, NodeDims, NumericalError, PoleError, build_graph
from netreal.realization import POLE_COND_LIMIT, OffendingMode, PbhTestResult


def random_graph(rng, num_nodes, edge_prob=0.45, self_loops=True):
    edges = set()
    for i in range(num_nodes):
        if self_loops:
            edges.add((i, i))
        for j in range(num_nodes):
            if i != j and rng.random() < edge_prob:
                edges.add((i, j))
    return build_graph(num_nodes, edges)


def random_dag(rng, num_nodes, edge_prob=0.45, self_loops=True):
    """A graph without cycles through two or more nodes, in a random node labelling."""
    label = rng.permutation(num_nodes)
    edges = {(int(label[i]), int(label[i])) for i in range(num_nodes) if self_loops}
    edges |= {(int(label[i]), int(label[j]))
              for i in range(num_nodes) for j in range(i) if rng.random() < edge_prob}
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


def random_loop_pair(rng, max_nodes=4, max_states=3, self_loops=True):
    """(plant, controller, graph): strictly proper plant, matching controller.

    Without ``self_loops`` the graph has no edge ``(i, i)``, so the
    diagonal blocks of A and C must stay zero through every composite.
    """
    count = int(rng.integers(2, max_nodes + 1))
    graph = random_graph(rng, count, self_loops=self_loops)
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


def random_imc_case(rng, max_nodes=4, max_states=3, self_loops=True, zero_width=False):
    """(plant, q, graph) for the internal-model loop.

    The plant is strictly proper; ``q`` maps its outputs to its inputs.
    With ``zero_width`` one node has no states and no channels in both.
    """
    count = int(rng.integers(2, max_nodes + 1))
    graph = random_graph(rng, count, self_loops=self_loops)
    draw = [[int(v) for v in rng.integers(0, top + 1, count)]
            for top in (max_states, max_states, 2, 2)]
    if zero_width:
        for counts in draw:
            counts[int(rng.integers(count))] = 0
    plant_states, q_states, p_chan, m_chan = (tuple(counts) for counts in draw)
    plant = random_system(
        rng, graph, NodeDims(plant_states, m_chan, p_chan), rho=float(rng.uniform(0.3, 0.9)),
        strictly_proper=True, scale=0.4)
    q = random_system(
        rng, graph, NodeDims(q_states, p_chan, m_chan), rho=float(rng.uniform(0.3, 0.9)),
        scale=0.4)
    return plant, q, graph


def stabilized_chain(rng, count, num_unstable, poles=(0.1, 0.2, 0.25, 0.3)):
    """(plant, controller, graph): a cascade and a node-local observer-based controller.

    Node ``i`` reads itself and node ``i - 1``.  Each plant node has two
    states, one input and one output; its own block is a companion
    matrix in a random orthonormal basis, with poles in [-0.7, 0.7], and
    ``num_unstable`` random nodes carry one pole in [1.2, 1.6] instead.
    The couplings to the node upstream are random in A and C.  The
    controller is block-diagonal: per node, state feedback places
    ``poles[:2]`` and an observer places ``poles[2:]``, both written in
    the companion basis, so the loop's spectrum is ``poles`` at every
    node up to rounding.
    """
    n = 2 * count
    a, b, c = np.zeros((n, n)), np.zeros((n, count)), np.zeros((count, n))
    ctrl_a, ctrl_b, ctrl_c = np.zeros((n, n)), np.zeros((n, count)), np.zeros((count, n))
    unstable = set(rng.choice(count, size=num_unstable, replace=False).tolist())
    k1, k2, o1, o2 = poles
    for i in range(count):
        own = slice(2 * i, 2 * i + 2)
        lam = rng.uniform(-0.7, 0.7, size=2)
        if i in unstable:
            lam[0] = rng.uniform(1.2, 1.6)
        # Companion form of z^2 + a1 z + a0, read through C = [1, 0] and driven by B = [0, 1]^T.
        a0, a1 = lam[0] * lam[1], -(lam[0] + lam[1])
        basis = random_orthogonal(rng, 2)
        inverse = basis.T
        a[own, own] = basis @ np.array([[0.0, 1.0], [-a0, -a1]]) @ inverse
        b[own, i], c[i, own] = basis[:, 1], inverse[0]
        if i:
            a[own, 2 * i - 2:2 * i] = rng.normal(size=(2, 2))
            c[i, 2 * i - 2:2 * i] = rng.normal(size=2)
        gain = np.array([k1 * k2 - a0, -(k1 + k2) - a1]) @ inverse
        g0 = -(o1 + o2) - a1
        observer = basis @ np.array([g0, o1 * o2 - a0 - a1 * g0])
        ctrl_a[own, own] = a[own, own] - np.outer(b[own, i], gain) - np.outer(observer, c[i, own])
        ctrl_b[own, i], ctrl_c[i, own] = observer, gain
    dims = NodeDims((2,) * count, (1,) * count, (1,) * count)
    graph = build_graph(count, [(i, i) for i in range(count)] + [(i, i - 1) for i in range(1, count)])
    return (BlockRealization(dims, a, b, c), BlockRealization(dims, ctrl_a, ctrl_b, ctrl_c),
            graph)


def fir_delay_line(rng, count):
    """An FIR filter on a chain of ``count`` nodes, realized as a delay line.

    Node ``i`` holds ``u_j[t-1-(i-j)]`` for each ``j <= i``, ``i + 1``
    states in ``j`` order.  Its own input enters the last of them through
    B, and the identity block ``A_{i,i-1}`` copies node ``i - 1``'s states
    one step on.  One input and one output a node; ``C_ii`` and ``D_ii``
    hold random taps.  A is nilpotent, and each node is a component of
    its own with a zero diagonal block.
    """
    dims = NodeDims(tuple(range(1, count + 1)), (1,) * count, (1,) * count)
    n = dims.n_total
    a, b, c = np.zeros((n, n)), np.zeros((n, count)), np.zeros((count, n))
    start = 0
    for i in range(count):
        a[start:start + i, start - i:start] = np.eye(i)
        b[start + i, i] = 1.0
        c[i, start:start + i + 1] = rng.normal(size=i + 1)
        start += i + 1
    return BlockRealization(dims, a, b, c, np.diag(rng.normal(size=count)))


def random_chain(rng, count, num_unstable):
    """A cascade built like the benchmark's chains: two states, one input and one output per node.

    Node ``i`` reads itself and node ``i - 1``.  Each node's own block of
    A has real poles in [-0.7, 0.7] in a random basis, and
    ``num_unstable`` random nodes carry one pole in [1.2, 1.6] instead.
    The couplings to the node upstream are N(0, 0.3) in A and N(0, 1)
    in C; B is block-diagonal.  A mode is reached from an input ``k``
    nodes upstream only through ``k`` couplings of about 0.3 each.
    """
    n = 2 * count
    a, b, c = np.zeros((n, n)), np.zeros((n, count)), np.zeros((count, n))
    unstable = set(rng.choice(count, size=num_unstable, replace=False).tolist())
    for i in range(count):
        own = slice(2 * i, 2 * i + 2)
        poles = rng.uniform(-0.7, 0.7, size=2)
        if i in unstable:
            poles[0] = rng.uniform(1.2, 1.6)
        basis = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        a[own, own] = basis @ np.diag(poles) @ np.linalg.inv(basis)
        b[own, i], c[i, own] = rng.normal(size=2), rng.normal(size=2)
        if i:
            a[own, 2 * i - 2:2 * i] = rng.normal(scale=0.3, size=(2, 2))
            c[i, 2 * i - 2:2 * i] = rng.normal(size=2)
    return BlockRealization(NodeDims((2,) * count, (1,) * count, (1,) * count), a, b, c)


def oracle_imc_loop(plant, model, q, reference, disturbance):
    """``(u, y, prediction error)`` of the internal-model loop, by dense recursion.

    Each step measures ``y = C x + d``, takes the model's prediction
    error ``C_m x_m - y``, drives ``q`` with the reference plus that
    error, and advances the plant, the model and ``q`` with dense
    products over whole matrices.
    """
    steps = len(reference)
    x, x_hat, xi = np.zeros(plant.n), np.zeros(model.n), np.zeros(q.n)
    us, ys, errs = np.zeros((steps, plant.m)), np.zeros((steps, plant.p)), np.zeros((steps, plant.p))
    for t in range(steps):
        y = plant.C @ x + disturbance[t]
        prediction = model.C @ x_hat - y
        v = reference[t] + prediction
        u = q.C @ xi + q.D @ v
        us[t], ys[t], errs[t] = u, y, prediction
        x = plant.A @ x + plant.B @ u
        x_hat = model.A @ x_hat + model.B @ u
        xi = q.A @ xi + q.B @ v
    return us, ys, errs


def with_forbidden_entries(rng, real, count=3):
    """Copy of ``real`` with ``count`` random entries of each matrix overwritten.

    Magnitudes span 1e-12 to 10, so the exact check must catch tiny
    entries too; entries may land on allowed and forbidden blocks alike.
    """
    mats = []
    for mat in (real.A, real.B, real.C, real.D):
        mat = mat.copy()
        if mat.size:
            spots = rng.integers(0, mat.size, count)
            mat.flat[spots] = rng.normal(size=count) * 10.0 ** rng.integers(-12, 2, count)
        mats.append(mat)
    return BlockRealization(real.dims, *mats)


def oracle_taps(real, horizon):
    """Taps 0 .. ``horizon`` of the impulse response in dense numpy: D, then ``C A^(k-1) B``."""
    taps, reach = [real.D], real.B
    for _ in range(horizon):
        taps.append(real.C @ reach)
        reach = real.A @ reach
    return taps


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


def oracle_block_transfer(real, z):
    """``C (zI - A)^{-1} B + D`` by block forward substitution over ``real.components``, unguarded.

    A plain loop at one point, with the library's formula and
    association: per component ``i`` in order, ``W_i`` is
    ``np.linalg.inv(z I - A_ii)`` and ``X_i = W_i B_i``; then, for each
    earlier component ``l`` whose block ``A_il`` has a nonzero entry,
    ``l`` ascending, ``X_i = X_i + (W_i A_il) X_l``.  The value is
    ``C X + D`` with the columns of C and the rows of X in component
    order.  No condition number is checked: compare refusals with
    :func:`oracle_transfer`.
    """
    if real.n == 0:
        return real.D.astype(complex)
    components = [list(states) for states in real.components]
    inverses, states = [], []
    for i, rows in enumerate(components):
        inverses.append(np.linalg.inv(complex(z) * np.eye(len(rows)) - real.A[np.ix_(rows, rows)]))
        x = inverses[i] @ real.B[rows]
        for l in range(i):
            coupling = real.A[np.ix_(rows, components[l])]
            if np.any(coupling):
                x = x + (inverses[i] @ coupling) @ states[l]
        states.append(x)
    order = [k for rows in components for k in rows]
    return real.C[:, order] @ np.concatenate(states) + real.D


def oracle_components(real):
    """Strongly connected components of the block pattern of A, by boolean transitive closure.

    Node ``i`` reads node ``j`` when block ``(i, j)`` of A has a nonzero
    entry.  Reachability is squared until it stops growing; two nodes
    share a component when each reaches the other.  Components are
    listed by their smallest node, nodes ascending.
    """
    count = real.num_nodes
    reach = np.eye(count, dtype=int)
    for (i, j), blk in oracle_blocks(real)["A"].items():
        reach[i, j] |= int(np.any(blk))
    while True:
        grown = ((reach + reach @ reach) > 0).astype(int)
        if np.array_equal(grown, reach):
            break
        reach = grown
    mutual = (reach & reach.T).astype(bool)
    components = []
    for i in range(count):
        if not any(i in comp for comp in components):
            components.append([j for j in range(count) if mutual[i, j]])
    return components


def oracle_spectrum(real):
    """Eigenvalues of A as dense ``np.linalg.eigvals`` of each component's diagonal block.

    Components come from :func:`oracle_components` in its order; those
    without states are skipped.  The order differs from the library's,
    so compare sorted arrays.
    """
    ranges = _node_ranges(real.dims.states)
    spectra = [np.linalg.eigvals(real.A[np.ix_(states, states)])
               for states in ([k for node in comp for k in ranges[node]]
                              for comp in oracle_components(real))
               if states]
    return np.concatenate(spectra) if spectra else np.zeros(0, dtype=complex)


def oracle_component_bound(real, z):
    """``||M||_F sqrt(||Y||_1 ||Y||_inf)`` for ``M = zI - A``, from dense per-block norms.

    The components of :func:`oracle_components` that hold states are put
    in an order where each follows every component it reads, by picking
    one that reads none of those left.  With ``w_i`` the Frobenius norm
    of ``np.linalg.inv`` of a component's diagonal block ``M_ii`` and
    ``H_il`` that of ``M_ii^{-1} A_il``, the comparison matrix ``I - H``
    is lower-triangular with a unit diagonal, and
    ``Y = (I - H)^{-1} diag(w)`` comes from a plain forward substitution,
    column by column.  An exactly singular diagonal block gives ``inf``,
    and so does a norm or a sum that overflows.
    """
    ranges = _node_ranges(real.dims.states)
    left = [[k for node in comp for k in ranges[node]] for comp in oracle_components(real)]
    left = [states for states in left if states]
    order = []
    while left:
        free = next(c for c in left if not any(
            np.any(real.A[np.ix_(c, other)]) for other in left if other is not c))
        order.append(free)
        left.remove(free)
    shifted = z * np.eye(real.n) - real.A
    count = len(order)
    try:
        inverses = [np.linalg.inv(shifted[np.ix_(states, states)]) for states in order]
    except np.linalg.LinAlgError:
        return np.inf
    w = [np.linalg.norm(inverse) for inverse in inverses]
    h = np.zeros((count, count))
    for i in range(count):
        for l in range(i):
            h[i, l] = np.linalg.norm(inverses[i] @ real.A[np.ix_(order[i], order[l])])
    y = np.zeros((count, count))
    with np.errstate(over="ignore"):
        for j in range(count):
            for i in range(count):
                # Uncoupled pairs are left out: 0 * inf would read NaN.
                y[i, j] = w[i] * (i == j) + sum(h[i, l] * y[l, j] for l in range(i) if h[i, l])
        return float(np.linalg.norm(shifted)) * float(np.sqrt(y.sum(axis=0).max() * y.sum(axis=1).max()))


def oracle_identities(plant, controller, num_points):
    """Worst deviation of each closed-loop identity, written out with dense numpy.

    With ``L = I + P(z) C(z)``, the deviations of ``L^{-1} = I - P C L^{-1}``
    and of the block-triangular inverse ``[[L, 0], [C, I]]^{-1}``, at all
    ``num_points`` points of the circle :func:`netreal.circle_samples`
    defines, of radius ``2 (1 + max spectral radius)`` over
    :func:`oracle_spectrum`: ``z_k = radius
    exp(2 pi i k / num_points)`` for ``k <= num_points // 2`` and
    ``z_k = conj(z_{num_points - k})`` above.  Transfers come from
    :func:`oracle_block_transfer`, at points :func:`oracle_transfer`
    does not refuse.  The operations are the textbook ones in a fixed
    order, so the library's values, taken on the upper half alone, must
    match them bitwise; a point the library would push outward fails
    here instead.
    """
    p, m = plant.p, plant.m
    spectra = [oracle_spectrum(s) for s in (plant, controller)]
    radius = 2.0 * (1.0 + max(float(np.max(np.abs(e))) if e.size else 0.0 for e in spectra))
    upper = [radius * np.exp(2j * np.pi * k / num_points) for k in range(num_points // 2 + 1)]
    points = upper + [np.conj(upper[num_points - k])
                      for k in range(num_points // 2 + 1, num_points)]
    worst = [0.0, 0.0]

    def value(real, z):
        oracle_transfer(real, z)  # refuses where the exact guard does
        return oracle_block_transfer(real, z)

    for z in points:
        p_z, c_z = value(plant, z), value(controller, z)
        loop = np.eye(p) + p_z @ c_z
        cond = np.linalg.cond(loop) if p else 1.0
        if not cond < 1e12:
            raise PoleError(f"cond(I + PC) = {cond:.3e} at z = {z}")
        loop_inv = np.linalg.solve(loop, np.eye(p, dtype=complex))
        tri = np.zeros((p + m, p + m), dtype=complex)
        tri[:p, :p] = loop
        tri[p:, :p] = c_z
        tri[p:, p:] = np.eye(m)
        expected = np.zeros_like(tri)
        expected[:p, :p] = loop_inv
        expected[p:, :p] = -c_z @ loop_inv
        expected[p:, p:] = np.eye(m)
        pairs = ((loop_inv, np.eye(p) - p_z @ c_z @ loop_inv),
                 (np.linalg.inv(tri), expected))
        for i, (left, right) in enumerate(pairs):
            if left.size:
                scale = np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))
                worst[i] = max(worst[i], float(np.max(np.abs(left - right) / scale)))
    return {"inverse-complement": worst[0], "triangular-inverse": worst[1]}


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


def oracle_node_major(*parts):
    """Node-major order of stacked parts, by a loop over nodes and parts.

    Part ``q`` starts after all entries of the parts before it; node
    ``k`` takes its next ``parts[q][k]`` entries of each part in turn.
    """
    starts = [sum(sum(part) for part in parts[:q]) for q in range(len(parts))]
    order = []
    for k in range(len(parts[0])):
        for q, part in enumerate(parts):
            order.extend(range(starts[q], starts[q] + part[k]))
            starts[q] += part[k]
    return order


def oracle_grid_node_major(grid, row_parts, col_parts):
    """A grid of blocks written straight into node-major order, entry by entry.

    ``grid[q][s]`` is the block of row part ``q`` and column part ``s``;
    ``None`` is a zero block.  Node ``k`` owns its rows of part 0, then
    its rows of part 1, and so on, and likewise for columns.  The entry
    at row ``i`` of part ``q`` and column ``j`` of part ``s`` is read
    from the block at those offsets within the parts.
    """
    def positions(parts):
        found = []
        for k in range(len(parts[0])):
            for q, part in enumerate(parts):
                start = sum(part[:k])
                found.extend((q, start + t) for t in range(part[k]))
        return found

    rows, cols = positions(row_parts), positions(col_parts)
    out = np.empty((len(rows), len(cols)))
    for r, (q, i) in enumerate(rows):
        for c, (s, j) in enumerate(cols):
            blk = grid[q][s]
            out[r, c] = 0.0 if blk is None else blk[i, j]
    return out


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


def oracle_violations(real, graph, mode):
    """``(matrix, (i, j), max_abs)`` of every forbidden block with a nonzero entry.

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
            if not allowed and blk.size and float(np.max(np.abs(blk))) > 0.0:
                found.append((name, (i, j), float(np.max(np.abs(blk)))))
    return found


def oracle_occupancy_grid(matrix, row_counts, col_counts):
    """Dense node grid: entry ``(i, j)`` is the largest ``|matrix[r, c]|`` over block ``(i, j)``.

    A block without a nonzero entry, an empty one included, reads 0.
    """
    rows, cols = np.nonzero(matrix)
    grid = np.zeros((len(row_counts), len(col_counts)))
    row_node = np.repeat(np.arange(len(row_counts)), row_counts)
    col_node = np.repeat(np.arange(len(col_counts)), col_counts)
    np.maximum.at(grid, (row_node[rows], col_node[cols]), np.abs(matrix[rows, cols]))
    return grid


def oracle_dense_violations(real, graph, mode):
    """``(matrix, (i, j), max_abs)`` from dense occupancy grids under dense N x N masks.

    ``np.nonzero`` of each masked grid, A, B, C, D in turn, so row-major.
    """
    count = graph.num_nodes
    edges = np.zeros((count, count), dtype=bool)
    for i, j in graph.edges:
        edges[i, j] = True
    diagonal = np.eye(count, dtype=bool)
    d_ok = diagonal | edges if mode is DMode.EDGE_SPARSE else diagonal
    dims = real.dims
    found = []
    for name, matrix, rows, cols, allowed in (
            ("A", real.A, dims.states, dims.states, edges),
            ("B", real.B, dims.states, dims.inputs, diagonal),
            ("C", real.C, dims.outputs, dims.states, edges),
            ("D", real.D, dims.outputs, dims.inputs, d_ok)):
        grid = oracle_occupancy_grid(matrix, rows, cols)
        found += [(name, (int(i), int(j)), float(grid[i, j]))
                  for i, j in zip(*np.nonzero((grid > 0) & ~allowed))]
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

    Domain: n <= 5, or a chain on which it has been checked against
    :func:`oracle_pbh`.  On long chains the Krylov columns of the
    controllability matrix decay node by node, so its rank at rtol 1e-10
    is set by rounding.  With the only input at the head of a 30-node
    ``random_chain(np.random.default_rng(seed), 30, 7)``, seeds 4 and 7
    read stabilizable where the SVD scan finds offending heads at or
    below its cutoff; seed 0 agrees there but not with 1 or 3 unstable
    nodes, where most seeds of 0 to 11 disagree.  On ``stabilized_chain``
    with the head input only, seeds 2 to 6 and 10 read not stabilizable
    where the scan passes.
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


def oracle_pbh(real, test, tol=1e-9):
    """The PBH report with one SVD at every tested eigenvalue: ``test`` is "stabilizable" or "detectable".

    The scan that ``pbh_stabilizable`` and ``pbh_detectable`` ran before
    their Cholesky certificate, kept as the reference they must match
    bit for bit: the eigenvalues of ``real.eigenvalues`` on or outside
    ``1 - tol``, grouped with the first earlier one within
    ``tol * max(1, |head|)``; at each group's first, the pencil
    ``[A - lambda I, B]`` (or ``[A - lambda I; C]``) and its singular
    values above ``sv[0] * max(max(shape) * eps, tol)``.
    """
    n = real.n
    eps = np.finfo(float).eps
    heads = []
    for lam in real.eigenvalues:
        if abs(lam) >= 1.0 - tol and not any(
                abs(lam - head) <= tol * max(1.0, abs(head)) for head in heads):
            heads.append(lam)
    offending = []
    for lam in heads:
        shifted = np.array(real.A, dtype=np.result_type(real.A, -lam))
        shifted.flat[::n + 1] += -lam
        if test == "stabilizable":
            pencil = np.hstack([shifted, real.B])
        else:
            pencil = np.vstack([shifted, real.C])
        sv = np.linalg.svd(pencil, compute_uv=False)
        rank = int(np.count_nonzero(sv > sv[0] * max(max(pencil.shape) * eps, tol)))
        if rank < n:
            offending.append(OffendingMode(complex(lam), test, n - rank))
    return PbhTestResult(not offending, test, tuple(offending))


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
