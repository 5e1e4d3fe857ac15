"""Block-partitioned state-space realizations and their certificates.

A realization ``(A, B, C, D)`` paired with :class:`~netreal.graphs.NodeDims`
stores states, inputs and outputs node-major.  Block ``(i, j)`` of a matrix
means the rows belonging to node ``i`` and the columns belonging to node
``j``.  The update law is the discrete-time recursion

    x[t+1] = A x[t] + B u[t],      y[t] = C x[t] + D u[t]

and "stable" always means spectral radius below one.

A realization is *compatible* with a graph when A and C vanish on every
block off the edge set and B and D are block-diagonal; the *edge-sparse*
mode additionally admits direct-term blocks on edges.  A compatible,
stabilizable and detectable realization is a *witness* that its transfer
matrix is realizable on the network.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError, NumericalError, PoleError
from .graphs import (_MAX_TOTAL, NetworkGraph, NodeDims, _as_floats, _as_int,
                     strongly_connected_components)

#: Evaluation of C (zI - A)^{-1} B refuses condition numbers at or above this.
#: An upper bound on the 2-norm condition number, built from the strongly
#: connected components of A, certifies a pass.  An SVD runs only when the
#: bound reaches half of this; the half absorbs the rounding of the bound
#: itself (see :func:`eval_transfer`).
POLE_COND_LIMIT = 1e12

_EPS = float(np.finfo(float).eps)

#: A chunk of the stacked pass may exceed one dense evaluation while its
#: working arrays hold at most this many entries (512 KiB of complex): with
#: m about n one point fills the dense budget, and a pass per point pays
#: its fixed numpy calls each time.
_CHUNK_FLOOR_ENTRIES = 2 ** 15
#: The most points a floored chunk holds: each point also holds Python
#: objects the entry count does not see, its value array first.
_CHUNK_FLOOR_POINTS = 16


class DMode(enum.Enum):
    """How the direct term may be structured in a compatibility check."""

    #: D must be block-diagonal.
    STRICT = "strict"
    #: D blocks also allowed wherever the graph has an edge.
    EDGE_SPARSE = "edge"


def _require_tolerance(value: float, name: str) -> None:
    """Refuse a negative, infinite or NaN tolerance, which can turn a check into a wrong pass."""
    if not 0.0 <= value < np.inf:
        raise InputError(f"{name} must be finite and nonnegative, got {value}")


def _require_count(num_points: int) -> None:
    """Refuse a count that is no integer, below one, or whose points no complex array holds."""
    count = _as_int(num_points, "num_points")
    if count < 1:
        raise InputError(f"num_points must be positive, got {count}")
    if count // 2 + 1 > _MAX_TOTAL // 2:
        raise InputError(f"num_points must be below {_MAX_TOTAL // 2 * 2}, got {count}")


def _as_matrix(value, shape: tuple[int, int], name: str) -> np.ndarray:
    if value is None:
        arr = np.zeros(shape)
    elif (type(value) is np.ndarray and value.dtype == np.float64 and value.shape == shape
          and value.base is None and not value.flags.writeable):
        arr = value
    else:
        arr = _as_floats(value, f"{name} is not a numeric matrix")
        if arr.size == shape[0] * shape[1] and arr.ndim != 2:
            arr = arr.reshape(shape)
        if arr.shape != shape:
            raise InputError(f"{name} must have shape {shape}, got {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _node_blocks(rows: np.ndarray, cols: np.ndarray, row_counts, col_counts):
    """Row node ``i`` and column node ``j`` of each block holding an entry ``(rows[k], cols[k])``.

    Rows split node-major by ``row_counts``, columns by ``col_counts``.  Blocks
    are distinct and sorted by ``(i, j)``; also returned are the order that sorts
    the entries by block and where each block starts in it.  One stable sort and
    no ``np.unique``, whose first call imports ``numpy.ma``.
    """
    num_cols = len(col_counts)
    keys = (np.repeat(np.arange(len(row_counts)), row_counts)[rows] * num_cols
            + np.repeat(np.arange(num_cols), col_counts)[cols])
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    i, j = np.divmod(keys[order[starts]], num_cols)
    return i, j, order, starts


#: Row node, column node and largest magnitude of each nonzero node block of a matrix.
NodeBlocks = NamedTuple("NodeBlocks", [(name, np.ndarray) for name in ("rows", "cols", "top")])


def block_occupancy(matrix: np.ndarray, row_counts, col_counts) -> NodeBlocks:
    """The node blocks of ``matrix`` that hold a nonzero, sorted by ``(i, j)``, read-only.

    Each block (:func:`_node_blocks`) with an entry that is not zero (``-0.0``
    is) comes with its largest ``|matrix[r, c]|``.  Cost grows with the nonzero
    entries and the nodes, after one pass over ``matrix``.
    """
    rows, cols = np.nonzero(matrix)
    i, j, order, starts = _node_blocks(rows, cols, row_counts, col_counts)
    top = np.maximum.reduceat(np.abs(matrix[rows, cols])[order], starts)
    for part in (i, j, top):
        part.setflags(write=False)
    return NodeBlocks(i, j, top)


#: :func:`block_occupancy` of each of the four matrices of a realization, by name.
BlockOccupancy = NamedTuple("BlockOccupancy", [(name, NodeBlocks) for name in "ABCD"])


@dataclass(frozen=True, eq=False)
class BlockRealization:
    """State-space matrices with a node partition.

    Matrices may be passed as ``None`` (filled with zeros), or as nested
    lists or arrays of numbers by the one rule files follow too
    (:func:`graphs._as_floats`, whose hole is a boolean among numbers).
    They are copied and frozen, except a float64 array of the right shape
    that is read-only and owns its data (``base is None``): it is kept
    and shared, and its owner must not make it writable again.
    Instances are safe to share.

    Parameters
    ----------
    dims : NodeDims
        Per-node state/input/output counts.
    A, B, C, D : array_like, optional
        ``A`` is ``n x n``, ``B`` is ``n x m``, ``C`` is ``p x n`` and
        ``D`` is ``p x m`` where ``n``, ``m``, ``p`` are the totals of
        ``dims``.
    """

    dims: NodeDims
    A: Optional[np.ndarray] = None
    B: Optional[np.ndarray] = None
    C: Optional[np.ndarray] = None
    D: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.dims, NodeDims):
            raise InputError("dims must be a NodeDims instance")
        n, m, p = self.dims.n_total, self.dims.m_total, self.dims.p_total
        object.__setattr__(self, "A", _as_matrix(self.A, (n, n), "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, (n, m), "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, (p, n), "C"))
        object.__setattr__(self, "D", _as_matrix(self.D, (p, m), "D"))

    @property
    def n(self) -> int:
        return self.dims.n_total

    @property
    def m(self) -> int:
        return self.dims.m_total

    @property
    def p(self) -> int:
        return self.dims.p_total

    @property
    def num_nodes(self) -> int:
        return self.dims.num_nodes

    def a_block(self, i: int, j: int) -> np.ndarray:
        return self.A[self.dims.state_slice(i), self.dims.state_slice(j)]

    def b_block(self, i: int, j: int) -> np.ndarray:
        return self.B[self.dims.state_slice(i), self.dims.input_slice(j)]

    def c_block(self, i: int, j: int) -> np.ndarray:
        return self.C[self.dims.output_slice(i), self.dims.state_slice(j)]

    def d_block(self, i: int, j: int) -> np.ndarray:
        return self.D[self.dims.output_slice(i), self.dims.input_slice(j)]

    # The matrices are frozen, so values derived from them are computed
    # once, on first use, and kept outside the dataclass fields.
    @cached_property
    def occupancy(self) -> BlockOccupancy:
        """The nonzero node blocks of A, B, C and D (:func:`block_occupancy`), not an N x N grid."""
        d = self.dims
        return BlockOccupancy(
            block_occupancy(self.A, d.states, d.states),
            block_occupancy(self.B, d.states, d.inputs),
            block_occupancy(self.C, d.outputs, d.states),
            block_occupancy(self.D, d.outputs, d.inputs),
        )

    @cached_property
    def components(self) -> tuple[np.ndarray, ...]:
        """State indices of each strongly connected component of A, in order, read-only.

        The nonzero blocks of A (:attr:`occupancy`) form a directed graph
        on the nodes.  Its strongly connected components are listed so
        that each follows those it reads
        (:func:`~netreal.graphs.strongly_connected_components`), which is
        a permutation that makes A block lower-triangular.  Each entry
        holds the states of one component, node by node and ascending;
        components without states are left out.
        """
        slices = self.dims.state_slices
        edges = zip(self.occupancy.A.rows.tolist(), self.occupancy.A.cols.tolist())
        blocks = [np.concatenate([np.arange(slices[k].start, slices[k].stop) for k in nodes])
                  for nodes in strongly_connected_components(self.num_nodes, edges)]
        blocks = tuple(states for states in blocks if states.size)
        for states in blocks:
            states.setflags(write=False)
        return blocks

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A, one strongly connected component at a time, read-only.

        A is block lower-triangular in the order of :attr:`components`,
        so the spectrum of A is the union of the spectra of the
        components' diagonal blocks.  Those are concatenated in component
        order; blocks with the same state count share one stacked
        ``np.linalg.eigvals`` call, which is bitwise the same as one call
        per block, so a single component gives the bits of
        ``np.linalg.eigvals(A)`` itself.  As there, the array is real
        when every eigenvalue is.

        Raises :class:`~netreal.errors.NumericalError` when one is not finite.
        """
        if self.n == 0:
            eigs = np.zeros(0, dtype=complex)
        else:
            try:
                eigs = _blockwise_eigvals(self.A, self.components)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
            if not np.isfinite(eigs).all():
                raise NumericalError("eigenvalue computation failed: non-finite eigenvalues")
        eigs.setflags(write=False)
        return eigs

    @cached_property
    def _bound_terms(self) -> _BoundTerms:
        """The parts of the stacked pass (:func:`_stacked_pass`) that do not depend on ``z``.

        Each coupling block ``A_il`` of one shape is gathered with one
        fancy index over the states of its size groups.  With one
        component there are no coupled pairs.  B and C are cast to
        complex here, once, with C's columns in component order.
        """
        components = self.components
        count = len(components)
        owner = np.empty(self.n, dtype=int)
        for k, states in enumerate(components):
            owner[states] = k
        rows, cols = np.nonzero(self.A)
        readers, read = np.divmod(np.unique(owner[rows] * count + owner[cols]), count)
        pairs = [(i, l) for i, l in zip(readers.tolist(), read.tolist()) if i != l]
        by_size = tuple(_by_size(components))
        # Where each component sits: its size group and its place in that stack.
        slot = {k: (g, place) for g, (members, _) in enumerate(by_size)
                for place, k in enumerate(members.tolist())}
        by_shape: dict[tuple[int, int], list[int]] = {}
        for p, (i, l) in enumerate(pairs):
            by_shape.setdefault((slot[i][0], slot[l][0]), []).append(p)
        pair_groups = []
        for (g, h), members in by_shape.items():
            places = np.array([slot[pairs[p][0]][1] for p in members])
            reader_states = by_size[g][1][places]
            read_states = by_size[h][1][[slot[pairs[p][1]][1] for p in members]]
            blocks = self.A[reader_states[:, :, None], read_states[:, None, :]]
            pair_groups.append((g, places, blocks, np.array(members)))
        gammas = np.empty(len(pairs))
        # A norm that overflows reads inf, which certifies nothing.
        with np.errstate(over="ignore"):
            for _, _, blocks, members in pair_groups:
                gammas[members] = np.linalg.norm(blocks, axis=(1, 2))
            coupling_sq = float(np.sum(np.square(gammas)))
        # Complex, as the products with the complex inverses are then faster.
        pair_groups = tuple((g, places, blocks.astype(complex), members)
                            for g, places, blocks, members in pair_groups)
        groups = tuple((members, _diagonal_blocks(self.A, states)) for members, states in by_size)
        # Each component's rows among the states in component order.
        sizes = [len(states) for states in components]
        stops = np.cumsum(sizes).tolist()
        starts = [stop - size for stop, size in zip(stops, sizes)]
        state_rows = tuple(np.concatenate([np.arange(starts[k], stops[k]) for k in members])
                           for members, _ in by_size)
        inputs = tuple(self.B[states].astype(complex) for _, states in by_size)
        # C-ordered, as a column-major C would take other BLAS kernels and other bits.
        output = self.C[:, np.concatenate(components)].astype(complex, order="C")
        # A chunk of the pass holds, per point, the diagonal blocks and
        # their inverses, the coupling products, the states and the
        # values: at most one dense evaluation's n x n shift and n x m
        # states, or the floor's entries and points.
        per_point = (2 * sum(blocks.size for _, blocks in groups) + sum(sizes[i] * sizes[l] for i, l in pairs)
                     + (self.n + self.p) * self.m)
        step = max(1, self.n * (self.n + self.m) // per_point,
                   min(_CHUNK_FLOOR_POINTS, _CHUNK_FLOOR_ENTRIES // per_point))
        return _BoundTerms(groups, tuple(pairs), np.array([i for i, _ in pairs], dtype=int),
                           gammas, pair_groups, coupling_sq, tuple(zip(starts, stops)),
                           state_rows, inputs, output, step)


class _BoundTerms(NamedTuple):
    """What the stacked pass (:func:`_stacked_pass`) reads of the realization.

    :func:`_transfers` is the one way into the pass, in chunks of ``step``
    points.
    """

    #: ``(members, blocks)`` per component state count: the positions of
    #: the components of that count, as :func:`_by_size` gives, and their
    #: diagonal blocks ``A_ii``, stacked.
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    #: ``(i, l)`` for every component ``i`` and earlier component ``l``
    #: whose coupling block ``A_il`` (rows of ``i``, columns of ``l``) is
    #: nonzero, ``i`` ascending, then ``l``.
    pairs: tuple[tuple[int, int], ...]
    #: The ``i`` of each pair.
    readers: np.ndarray
    #: ``||A_il||_F`` of each pair.
    gammas: np.ndarray
    #: The coupling blocks stacked by shape: the group of ``groups`` that
    #: holds the reader, the reader's position in it, the blocks, and the
    #: positions of their pairs in ``pairs``.
    pair_groups: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]
    #: The sum of the squared entries of A outside the diagonal blocks.
    coupling_sq: float
    #: ``(start, stop)`` of each component's rows among the states in component order.
    spans: tuple[tuple[int, int], ...]
    #: Per group of ``groups``: the rows in component order of its
    #: components' states, component after component.
    state_rows: tuple[np.ndarray, ...]
    #: Per group of ``groups``: the rows of B of its components, stacked, complex.
    inputs: tuple[np.ndarray, ...]
    #: C with its columns in component order, complex.
    output: np.ndarray
    #: Points per chunk of the pass, a memory rule only: the most whose
    #: working arrays hold no more entries than ``n (n + m)``, one dense
    #: evaluation; or, where more fit the floor, the most whose working
    #: arrays hold no more than ``_CHUNK_FLOOR_ENTRIES``, up to
    #: ``_CHUNK_FLOOR_POINTS``; and at least one.
    step: int


def _by_size(blocks: Sequence[np.ndarray]):
    """``(members, states)`` per block size: the positions of the blocks of that size, stacked."""
    sizes = np.array([len(states) for states in blocks])
    for size in np.unique(sizes):
        members = np.flatnonzero(sizes == size)
        yield members, np.stack([blocks[k] for k in members])


def _diagonal_blocks(matrix: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The stacked diagonal blocks ``matrix[s, s]``, one for each row ``s`` of ``states``."""
    return matrix[states[:, :, None], states[:, None, :]]


def _blockwise_eigvals(a: np.ndarray, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Eigenvalues of the diagonal blocks ``a[states, states]``, concatenated in order.

    Blocks of one size are stacked into one ``np.linalg.eigvals`` call.
    """
    sizes = np.array([len(states) for states in blocks])
    starts = np.cumsum(sizes) - sizes
    spectra = [(members, np.linalg.eigvals(_diagonal_blocks(a, states)))
               for members, states in _by_size(blocks)]
    eigs = np.empty(int(sizes.sum()), np.result_type(*(vals for _, vals in spectra)))
    for members, vals in spectra:
        eigs[starts[members, None] + np.arange(vals.shape[1])] = vals
    return eigs


@dataclass(frozen=True)
class Violation:
    """One structurally forbidden block carrying a nonzero entry."""

    matrix: str
    block: tuple[int, int]
    max_abs: float


@dataclass(frozen=True)
class CompatibilityReport:
    ok: bool
    violations: tuple[Violation, ...]

    @property
    def violation_labels(self) -> list[str]:
        """Each violation as matrix name and block, e.g. ``"A(0, 2)"``, in report order."""
        return [f"{v.matrix}{v.block}" for v in self.violations]


def check_compatibility(
    real: BlockRealization,
    graph: NetworkGraph,
    mode: DMode = DMode.STRICT,
) -> CompatibilityReport:
    """Test the block-sparsity rules of a realization against a graph.

    A and C blocks must vanish off the edge set; B must be block-diagonal.
    In strict mode D must be block-diagonal too; in edge-sparse mode D
    blocks are additionally allowed on edges.  The test is exact: a block
    off its allowed set violates when any of its entries is nonzero.  Only
    the nonzero blocks (:attr:`BlockRealization.occupancy`) are tested, so
    the cost follows them, not N².  Returns a report listing every
    offending block with its largest magnitude, A, B, C and D in turn,
    each row-major; ``ok`` is True iff there are none.
    """
    if real.num_nodes != graph.num_nodes:
        raise InputError(f"realization has {real.num_nodes} nodes, graph has {graph.num_nodes}")
    if not isinstance(mode, DMode):
        raise InputError(f"unknown D mode {mode!r}")
    occ, edges = real.occupancy, graph.edges
    violations = [
        Violation(name, (i, j), top)
        for name, blocks, diagonal, on_edges in (
            ("A", occ.A, False, True), ("B", occ.B, True, False),
            ("C", occ.C, False, True), ("D", occ.D, True, mode is DMode.EDGE_SPARSE))
        for i, j, top in zip(*(part.tolist() for part in blocks))
        if not ((diagonal and i == j) or (on_edges and (i, j) in edges))
    ]
    return CompatibilityReport(not violations, tuple(violations))


@dataclass(frozen=True)
class OffendingMode:
    """An eigenvalue on or outside the unit circle that fails a rank test."""

    eigenvalue: complex
    test: str
    deficiency: int


@dataclass(frozen=True)
class PbhTestResult:
    passed: bool
    test: str
    offending: tuple[OffendingMode, ...]


@dataclass(frozen=True)
class PbhReport:
    stabilizable: bool
    detectable: bool
    offending_modes: tuple[OffendingMode, ...]


def _shifted(a: np.ndarray, z: complex, negate: bool = False) -> np.ndarray:
    """``z I - a`` if ``negate``, else ``a + z I``, as one new array.

    Real when ``a`` and ``z`` are: a real eigenvalue keeps the PBH pencil
    real, and a real SVD is faster than a complex one.
    """
    dtype = np.result_type(a, z)
    out = np.negative(a, dtype=dtype) if negate else np.array(a, dtype=dtype)
    out.flat[:: len(a) + 1] += z
    return out


def _frobenius_cond_bound(matrix: np.ndarray, inverse: np.ndarray) -> float:
    """``||matrix||_F ||inverse||_F``, never below the 2-norm condition number.

    Overflow reads as ``inf``, which certifies nothing.
    """
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(matrix)) * float(np.linalg.norm(inverse))


def _refuse_unless_cond_below(
    matrix: np.ndarray, limit: float, refuse: Callable[[float], Exception]
) -> None:
    """Raise ``refuse(cond)`` unless the exact ``np.linalg.cond(matrix)`` is finite and below ``limit``."""
    cond = float(np.linalg.cond(matrix))
    if not np.isfinite(cond) or cond >= limit:
        raise refuse(cond)


def _certified_inverse(
    matrix: np.ndarray, limit: float, refuse: Callable[[float], Exception]
) -> np.ndarray:
    """``np.linalg.inv(matrix)``, refusing ``cond(matrix) >= limit``.

    The inverse certifies the guard: ``cond_2(matrix)`` is at most
    :func:`_frobenius_cond_bound`, so a bound that is finite and below
    ``limit / 2`` passes without an SVD (the half absorbs the rounding of
    the computed inverse, whose relative error is about ``cond * eps``).
    Otherwise, and when ``matrix`` is exactly singular, the exact
    ``np.linalg.cond`` decides: ``refuse(cond)`` is raised at or above
    ``limit`` or when it is not finite; below it the inverse, or the
    ``LinAlgError`` of an exactly singular ``matrix``, stands.
    """
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        _refuse_unless_cond_below(matrix, limit, refuse)
        raise
    if not _frobenius_cond_bound(matrix, inverse) < 0.5 * limit:
        _refuse_unless_cond_below(matrix, limit, refuse)
    return inverse


def _transfers(real: BlockRealization, points: np.ndarray):
    """Each point's pole-guard bound and transfer value, before the guard, in order.

    One stacked pass (:func:`_stacked_pass`) per chunk of
    ``_BoundTerms.step`` points, which fit one dense evaluation or the
    chunk floor; a chunk's values are dropped once its points are taken.
    A point's bound and value do not depend on the chunk it shares.  A
    chunk whose stack is exactly singular is run again point by point,
    and a point whose block is exactly singular yields ``(inf, None)``.
    Overflow is silenced within each pass, and only there, never across
    a ``yield``: it reads ``inf`` or NaN.  A system without states
    yields ``0.0`` and D, complex.
    """
    if real.n == 0:
        for _ in range(len(points)):
            yield 0.0, real.D.astype(complex)
        return
    step = real._bound_terms.step
    for start in range(0, len(points), step):
        chunk = points[start:start + step]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                bounds, values = _stacked_pass(real, chunk)
        except np.linalg.LinAlgError:
            if len(chunk) == 1:
                yield np.inf, None
            else:
                for k in range(len(chunk)):
                    yield from _transfers(real, chunk[k:k + 1])
        else:
            yield from zip(bounds, values)


def _stacked_pass(real: BlockRealization, points: np.ndarray) -> tuple[np.ndarray, list]:
    """The bound and the transfer value at each of ``points``.

    Raises ``LinAlgError`` when a block is exactly singular.  Only the
    diagonal blocks ``M_ii = zI - A_ii`` of the strongly connected
    components are inverted, ``W_i = M_ii^{-1}``: one ``np.linalg.inv``
    per component size over the blocks of every point.  The coupling
    products ``H_il = W_i A_il`` take one product per coupling shape.
    Their norms give the bound; then come two substitutions per point.
    The states follow down the component order, in the order of
    ``_BoundTerms.pairs``, ``X_i = W_i B_i + H_il X_l + ...``, and the
    value is ``C X + D`` (:func:`eval_transfer`).
    """
    terms = real._bound_terms
    count = len(points)
    weights = np.empty((count, sum(len(members) for members, _ in terms.groups)))
    slack = np.empty_like(weights)
    inverses = []
    norm_sq = terms.coupling_sq
    for members, diagonals in terms.groups:
        size = diagonals.shape[-1]
        # zI - A_ii for every point and component, entry for entry as _shifted forms zI - A.
        blocks = np.empty((count, *diagonals.shape), dtype=complex)
        np.negative(diagonals, out=blocks, dtype=complex)
        blocks.reshape(count, len(members), -1)[:, :, ::size + 1] += points[:, None, None]
        blocks = blocks.reshape(-1, size, size)
        inverses.append(np.linalg.inv(blocks).reshape(count, -1, size, size))
        block_norms = np.linalg.norm(blocks, axis=(1, 2)).reshape(count, -1)
        inverse_norms = np.linalg.norm(inverses[-1], axis=(2, 3))
        weights[:, members] = inverse_norms
        slack[:, members] = size * _EPS * block_norms * inverse_norms
        norm_sq = norm_sq + np.sum(np.square(block_norms), axis=1)
    del blocks  # past their norms, the diagonal blocks are not needed
    couplings = np.empty((count, len(terms.pairs)))
    products = []
    for g, positions, blocks, members in terms.pair_groups:
        products.append(inverses[g][:, positions] @ blocks)
        couplings[:, members] = np.linalg.norm(products[-1], axis=(2, 3))
    couplings += (slack * weights)[:, terms.readers] * terms.gammas
    weights *= 1.0 + slack
    squares = []
    for sq, w, h in zip(norm_sq.tolist(), weights.tolist(), couplings.tolist()):
        # The entries are non-negative, so a sum that is not finite flags
        # an overflow or a NaN, which max could skip.
        if not sum(w) + sum(h) < np.inf:
            squares.append(np.inf)
            continue
        # Row sums of Y, r = w + H r, down the component order.
        r = list(w)
        for (i, l), h_il in zip(terms.pairs, h):
            r[i] += h_il * r[l]
        # Column sums of Y are u * w with u = 1 + H^T u, up the component order.
        u = [1.0] * len(w)
        for (i, l), h_il in zip(reversed(terms.pairs), reversed(h)):
            u[l] += u[i] * h_il
        squares.append(sq * max(r) * max(map(operator.mul, u, w)))
    states = np.empty((count, real.n, real.m), dtype=complex)
    for rows, inverse, inputs in zip(terms.state_rows, inverses, terms.inputs):
        states[:, rows] = (inverse @ inputs).reshape(count, len(rows), real.m)
    # Each component's states, and each pair's product, as views.
    parts = [states[:, start:stop] for start, stop in terms.spans]
    by_pair = [None] * len(terms.pairs)
    for product, (*_, members) in zip(products, terms.pair_groups):
        for p, h in zip(members.tolist(), product.swapaxes(0, 1)):
            by_pair[p] = h
    # Readers come in ascending order, so each X_l is complete when it is read.
    for (i, l), h in zip(terms.pairs, by_pair):
        parts[i] += h @ parts[l]
    result = terms.output @ states
    result += real.D
    return np.sqrt(squares), list(result)


def _rank(pencil: np.ndarray, tol: float) -> int:
    try:
        sv = np.linalg.svd(pencil, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"rank test failed: {exc}") from exc
    if sv.size == 0:
        return 0
    cutoff = sv[0] * max(max(pencil.shape) * _EPS, tol)
    return int(np.count_nonzero(sv > cutoff))


def _group_heads(eigs, tol: float) -> list[complex]:
    """One eigenvalue per group: each joins the first head within ``tol * max(1, |head|)``."""
    heads: list[complex] = []
    for lam in eigs:
        if not any(abs(lam - head) <= tol * max(1.0, abs(head)) for head in heads):
            heads.append(lam)
    return heads


def _gram_certified(rows: np.ndarray, cols: np.ndarray, heads: Sequence[complex],
                    tol: float) -> list[bool]:
    """Per head ``lam``, whether a Cholesky factor proves ``P = [rows - lam I, cols]`` of full rank.

    Full rank as :func:`_rank` decides it.  ``rows`` is ``n x n`` and
    ``cols`` is ``n x k``, so ``P`` is ``n x w`` with ``w = n + k``, and
    :func:`_rank` counts the singular values above ``sv[0] * tau`` with
    ``tau = max(w * eps, tol)``.  With ``S = rows rows^T + cols cols^T``,
    formed once,

        G = P P^H = S + |lam|^2 I - Re(lam) (rows + rows^T) - i Im(lam) (rows^T - rows),

    real when ``lam`` is.  One head at a time, ``G - delta I`` is formed
    in a reused buffer and factored by ``np.linalg.cholesky``.  The head
    passes when that succeeds and ``G`` and ``delta`` are finite; every
    other head is left to the SVD.

    Choice of ``delta``, to first order in ``eps``.  Let ``sigma_n`` be
    the smallest singular value of ``P``, and
    ``K^2 = (||rows||_F + sqrt(n) |lam|)^2 + ||cols||_F^2``, which bounds
    ``||P||_F^2 = tr(G)`` and the sum of the magnitudes of the terms ``G``
    is formed from.

    1. The cutoff.  ``sv[0] <= ||P||_F <= K``, so the SVD passes a head
       with ``sigma_n > rho K``, where ``rho = tau + w eps (1 + tau)``
       counts item 4's error on ``sigma_n`` and on ``sv[0]``.  As
       ``w eps <= tau``, ``rho <= tau (2 + tau)``.
    2. Forming ``G``.  ``S`` is two products, with inner sums of ``n``
       and ``k`` terms, and their sum: off by at most
       ``w eps (||rows||_F^2 + ||cols||_F^2)``.  The shift terms and the
       diagonal take a few roundings each, ``6 eps K^2`` with the complex
       parts.  And the SVD's pencil holds ``rows - lam I`` rounded on its
       diagonal, which moves ``sigma_n^2`` by ``2 eps K^2``.  In all
       ``(w + 8) eps K^2``.
    3. Cholesky's backward error.  Success on ``H`` gives
       ``H + E = R^H R`` with ``||E||_2 <= gamma_{n+1} tr(H) / (1 - gamma_{n+1})``
       (Demmel 1989; Rump 2006), so ``lambda_min(H) >= -2 (n + 1) eps K^2``,
       the 2 for complex arithmetic, as ``tr(H) <= tr(G) <= K^2``.
    4. The SVD's own error.  LAPACK's singular values are those of a
       matrix within ``w eps sv[0]`` of ``P``, the model behind the
       cutoff's own ``w * eps``; item 1 counts it.
    5. Safety.  Items 2 and 3 sum to ``(w + 2n + 10) eps K^2``, at most
       ``(3w + 10) eps K^2`` as ``n <= w``; ``8 (w + 2) eps K^2`` is at
       least 1.8 times that.  ``4 tau^2 (2 + tau)^2`` is at least 4
       times ``rho^2``.

    So ``delta = K^2 (4 tau^2 (2 + tau)^2 + 8 (w + 2) eps)``, and a head
    that passes, ``H = G - delta I`` as formed, has
    ``sigma_n^2 >= lambda_min(H) + delta - (w + 8) eps K^2 > rho^2 K^2``:
    the SVD passes it too, and no head the SVD fails can pass.  The
    converse does not hold.  A head whose ``sigma_n`` is below about
    ``sqrt(8 (w + 2) eps) K`` goes to the SVD, and so does one where
    ``rows`` is close to ``lam I``: ``P`` is then small beside the terms
    of ``G``, whose cancellation ``K`` counts.
    """
    if not heads:
        return []
    n = len(rows)
    width = n + cols.shape[1]
    tau = max(width * _EPS, tol)
    rho = tau * (2.0 + tau)
    relative = 4.0 * rho * rho + 8.0 * (width + 2) * _EPS
    certified = []
    # Overflow reads inf or NaN, which certifies nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows @ rows.T
        gram += cols @ cols.T
        sym = rows + rows.T
        skew = rows - rows.T
        real_g = np.empty((n, n))
        complex_g = None
        norm_rows = float(np.linalg.norm(rows))
        norm_cols = float(np.linalg.norm(cols))
        root_n = float(np.sqrt(n))
        for lam in heads:
            re, im = float(lam.real), float(lam.imag)
            bound = norm_rows + root_n * abs(lam)
            delta = (bound * bound + norm_cols * norm_cols) * relative
            if im:
                if complex_g is None:
                    complex_g = np.empty((n, n), dtype=complex)
                g = complex_g
                np.multiply(sym, -re, out=g.real)
                g.real += gram
                np.multiply(skew, im, out=g.imag)
            else:
                g = real_g
                np.multiply(sym, -re, out=g)
                g += gram
            g.flat[::n + 1] += (re * re + im * im) - delta
            passed = bool(np.isfinite(delta) and np.isfinite(g).all())
            if passed:
                try:
                    np.linalg.cholesky(g)
                except np.linalg.LinAlgError:
                    passed = False
            certified.append(passed)
    return certified


def _pbh_scan(real: BlockRealization, other: np.ndarray, stack_rows: bool,
              test: str, tol: float) -> PbhTestResult:
    """One rank test per group of repeated eigenvalues on or outside ``1 - tol``.

    A head that :func:`_gram_certified` passes is of full rank; every
    other head runs the SVD (:func:`_rank`), which gives the deficiency.
    """
    _require_tolerance(tol, "tol")
    n = real.n
    outer = [lam for lam in real.eigenvalues if abs(lam) >= 1.0 - tol]
    heads = _group_heads(outer, tol)
    rows, cols = (real.A.T, other.T) if stack_rows else (real.A, other)
    offending = []
    for lam, passed in zip(heads, _gram_certified(rows, cols, heads, tol)):
        if passed:
            continue
        shifted = _shifted(real.A, -lam)
        pencil = np.vstack([shifted, other]) if stack_rows else np.hstack([shifted, other])
        rank = _rank(pencil, tol)
        if rank < n:
            offending.append(OffendingMode(complex(lam), test, n - rank))
    return PbhTestResult(not offending, test, tuple(offending))


def pbh_stabilizable(real: BlockRealization, tol: float = 1e-9) -> PbhTestResult:
    """Rank test ``[A - lambda I, B]`` at every eigenvalue with ``|lambda| >= 1 - tol``.

    Singular values below ``smax * max(max(shape) * eps, tol)`` count as
    zero.  Eigenvalues within ``tol`` (relative to their magnitude, when
    above 1) of each other form one group, tested once and reported as
    one mode whose deficiency covers the whole group.

    Each group is first offered to a certificate: a Cholesky factor of
    ``P P^H - delta I`` for the pencil ``P``, with ``delta`` covering the
    cutoff and every rounding (:func:`_gram_certified`), exists only
    where the SVD would find full rank too.  The SVD runs only where the
    factor fails, so verdicts, offending eigenvalues and deficiencies
    are the SVD's.  A certified group costs one ``n x n`` factor after
    one ``n x n`` product per test, where the SVD of the ``n x (n + m)``
    pencil costs several times more.
    """
    return _pbh_scan(real, real.B, False, "stabilizable", tol)


def pbh_detectable(real: BlockRealization, tol: float = 1e-9) -> PbhTestResult:
    """Rank test ``[A - lambda I; C]`` at every eigenvalue with ``|lambda| >= 1 - tol``.

    Repeated eigenvalues are grouped, and each group certified by a
    Cholesky factor or else tested by SVD, as in :func:`pbh_stabilizable`;
    the factor is of ``P^H P - delta I``.
    """
    return _pbh_scan(real, real.C, True, "detectable", tol)


@dataclass(frozen=True)
class CertificationResult:
    ok: bool
    compatibility: CompatibilityReport
    pbh: PbhReport


def certify_witness(real: BlockRealization, graph: NetworkGraph) -> CertificationResult:
    """Full witness certificate: strict compatibility plus both PBH tests.

    The PBH tests run at their default ``tol``.
    """
    compat = check_compatibility(real, graph)
    stab = pbh_stabilizable(real)
    det = pbh_detectable(real)
    pbh = PbhReport(stab.passed, det.passed, stab.offending + det.offending)
    return CertificationResult(compat.ok and stab.passed and det.passed, compat, pbh)


def spectral_radius(real: BlockRealization) -> float:
    """Largest eigenvalue magnitude of A; zero for a static system.

    Reads :attr:`BlockRealization.eigenvalues`, cached on the
    realization, so the spectrum (taken one strongly connected component
    at a time) is computed once however often this is asked.
    """
    eigs = real.eigenvalues
    return float(np.max(np.abs(eigs))) if eigs.size else 0.0


def eval_transfer(real: BlockRealization, z: complex) -> np.ndarray:
    """Evaluate ``C (zI - A)^{-1} B + D`` at one complex frequency.

    Raises :class:`~netreal.errors.PoleError` when ``M = zI - A`` has
    2-norm condition number at or above ``POLE_COND_LIMIT``.  A cheap
    upper bound on ``cond_2(M)`` that is finite and below half the limit
    passes the point; otherwise the exact ``np.linalg.cond`` decides
    (:func:`_guarded`).  Bound and value come from one stacked pass at
    ``z`` alone (:func:`_transfers`), the pass :func:`circle_samples`
    runs over its circle in chunks of up to 16 points, or more where
    they fit one dense evaluation; ``z`` reads the same bits in either.

    In the order of the strongly connected components of A
    (:attr:`BlockRealization.components`), ``M`` is block lower-triangular,
    with diagonal blocks ``M_ii = zI - A_ii`` and coupling blocks
    ``-A_il``.  Block row ``i`` of ``M X = I`` gives
    ``X_ij = M_ii^{-1} (delta_ij I + sum_l A_il X_lj)``.
    With ``w_i = ||M_ii^{-1}||_F`` and ``H_il = ||M_ii^{-1} A_il||_F``,
    induction down the order gives ``||X_ij||_F <= Y_ij`` for the
    non-negative ``Y = (I - H)^{-1} diag(w)``, so

        cond_2(M) = ||M||_2 ||X||_2 <= ||M||_F ||Y||_2
                  <= ||M||_F sqrt(||Y||_1 ||Y||_inf),

    as the 2-norm of a block matrix is at most that of the matrix of its
    block norms, and grows with the entries of a non-negative matrix.
    The row and column sums of ``Y`` take two substitutions over the
    coupled pairs, and ``||M||_F^2`` is the diagonal blocks' plus the
    couplings', so a point costs the small inverses and products, and
    O(components + coupled pairs) besides.  With one component the
    bound is ``||M||_F ||M^{-1}||_F``.
    Bounding ``H_il`` by ``w_i ||A_il||_F`` would give the classic
    comparison matrix (Feingold and Varga), whose couplings do not
    depend on ``z``; but those products compound along a cascade: on a
    stabilized 40-node chain loop that bound reads 1e13 where this one
    reads 1e3 and the exact cond 12.

    The states take the same blocks, by block forward substitution:
    with ``W_i = M_ii^{-1}`` and the products ``W_i A_il`` the bound
    already formed, ``X_i = W_i B_i + sum_l (W_i A_il) X_l``, the sum
    taken over the coupled pairs in order, ``l`` ascending, each term
    added to the running ``X_i``.  The value is ``C X + D``, with X and
    the columns of C in component order.  With one component this is
    ``M^{-1} B``, from the inverse.  No ``n x n`` matrix is formed and no
    ``np.linalg.solve`` runs.  The values are not the bits of a dense
    solve: the two differ by rounding, within a forward-error bound
    of order ``n * eps * cond_2(M)``.  The pass runs with overflow
    warnings silenced, so a value that overflows reads ``inf`` or NaN.

    Rounding.  A computed inverse of ``M_ii`` is off by about
    ``n_i * eps * kappa_i`` relative, with ``kappa_i = ||M_ii||_F w_i``,
    and a product with it by as much relative to ``w_i ||A_il||_F``.  So
    each ``w_i`` is scaled up by ``1 + n_i * eps * kappa_i`` and each
    ``H_il`` raised by ``n_i * eps * kappa_i * w_i ||A_il||_F``: to first
    order every entry of ``w`` and ``H`` is then at least its exact
    value, and so is ``Y``, which grows with them.  What is left, the
    rounding of the Frobenius norms and of the sums, which add
    non-negative terms, is a relative ``(n + components + pairs) * eps``
    at most; the half margin covers it, and the constant in "about".
    """
    (bound, value), = _transfers(real, np.array([z], dtype=complex))
    return _guarded(real, z, bound, value)


def _guarded(real: BlockRealization, z: complex, bound: float, value) -> np.ndarray:
    """``value`` unless the pole guard refuses ``z``; ``bound`` and ``value`` come from :func:`_transfers`.

    A ``bound`` that is finite and below half of ``POLE_COND_LIMIT``
    passes.  Otherwise the exact ``np.linalg.cond`` of ``zI - A`` decides:
    :class:`~netreal.errors.PoleError` at or above the limit or when it
    is not finite.  A failing SVD, or a point that passes with no value
    (an exactly singular block), raises :class:`~netreal.errors.NumericalError`.
    """
    if bound < 0.5 * POLE_COND_LIMIT:
        return value

    def refuse(cond: float) -> PoleError:
        return PoleError(f"z = {z} is too close to a pole: cond(zI - A) = {cond:.3e}")

    try:
        _refuse_unless_cond_below(_shifted(real.A, complex(z), negate=True), POLE_COND_LIMIT, refuse)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"transfer evaluation failed at z = {z}: {exc}") from exc
    if value is None:
        raise NumericalError(f"transfer evaluation failed at z = {z}: Singular matrix")
    return value


def scaled_deviation(left: np.ndarray, right: np.ndarray) -> float:
    """Largest entrywise gap under a mixed absolute/relative scale.

    Each entry's gap is divided by ``max(1, |left|, |right|)``, so the
    result reads as an absolute error for small values and a relative
    one for large values.
    """
    if left.size == 0:
        return 0.0
    scale = np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))
    return float(np.max(np.abs(left - right) / scale))


@dataclass(frozen=True)
class TransferComparison:
    equal: bool
    max_deviation: float
    num_points: int
    radius: float


_MAX_RESAMPLES = 8


def circle_samples(
    systems: Sequence[BlockRealization], num_points: int, deviations: Callable[..., tuple]
) -> tuple[tuple, float]:
    """Worst deviations among the transfers of ``systems`` on a circle around every pole.

    The circle has radius ``2 (1 + max spectral radius)`` over
    ``systems``, which encloses every pole, and carries ``num_points``
    points in exact conjugate pairs: point ``k <= num_points // 2`` is
    ``radius * exp(2 pi i k / num_points)``, and point ``num_points - k``
    is defined as its conjugate.  Only the ``num_points // 2 + 1`` points
    of the closed upper half are evaluated, each once per system, and
    ``deviations`` takes the transfers in the order of ``systems`` and
    returns a tuple of deviations.  Those must not change when ``z`` is
    conjugated; scaled deviations between sums, products and inverses of
    real transfers do, as ``G(conj z) = conj G(z)``.  Each system's
    pole-guard bounds and values come from one stacked pass over those
    points (:func:`_transfers`), in chunks; then, point by point, the
    guard of :func:`eval_transfer` (:func:`_guarded`) runs on each
    system in order before ``deviations``.

    A point where the guard or ``deviations`` raises
    :class:`~netreal.errors.PoleError` or ``LinAlgError`` is pushed
    outward by a factor 1.37, which keeps its pair conjugate, and every
    system is evaluated there again with :func:`eval_transfer`, the
    one-point case of the pass, a bounded number of times before
    :class:`~netreal.errors.NumericalError` is raised with the last
    refusal's message.  Evaluation runs with overflow warnings silenced;
    a deviation that is not finite raises
    :class:`~netreal.errors.NumericalError`, so no verdict rests on an
    overflow.  Returns the worst of each deviation and the radius.
    """
    _require_count(num_points)
    radius = 2.0 * (1.0 + max(spectral_radius(s) for s in systems))
    count = num_points // 2 + 1
    upper = np.fromiter((radius * np.exp(2j * np.pi * k / num_points) for k in range(count)),
                        complex, count)
    worst = None
    for z, samples in zip(upper, zip(*(_transfers(s, upper) for s in systems))):
        values = (_guarded(s, z, *sample) for s, sample in zip(systems, samples))
        for _ in range(_MAX_RESAMPLES):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    value = deviations(*values)
                break
            except (PoleError, np.linalg.LinAlgError) as exc:
                refusal = exc
                z *= 1.37
                values = (eval_transfer(s, z) for s in systems)
        else:
            raise NumericalError(
                f"no usable sample point found near radius {radius:.3e}; "
                f"the last was refused: {refusal}")
        if not np.isfinite(value).all():
            raise NumericalError(f"sampled value at z = {z:.3e} is not finite: it overflowed")
        # max keeps the earlier of equal values, as a max over all points would.
        worst = value if worst is None else tuple(map(max, worst, value))
    return tuple(worst), radius


def transfer_equal(
    r1: BlockRealization,
    r2: BlockRealization,
    num_points: int = 16,
    rel_tol: float = 1e-8,
) -> TransferComparison:
    """Compare two transfer matrices on a circle of sample frequencies.

    Samples ``num_points`` points with :func:`circle_samples`, which
    evaluates both transfers at the ``num_points // 2 + 1`` points of the
    upper half and keeps the worst :func:`scaled_deviation`; the
    deviation at each conjugate point is the same.  Equality holds when
    that worst deviation is at most ``rel_tol``.
    """
    if (r1.p, r1.m) != (r2.p, r2.m):
        raise InputError(
            f"cannot compare a {r1.p}x{r1.m} transfer with a {r2.p}x{r2.m} one")
    _require_tolerance(rel_tol, "rel_tol")
    (worst,), radius = circle_samples(
        (r1, r2), num_points, lambda g1, g2: (scaled_deviation(g1, g2),))
    return TransferComparison(worst <= rel_tol, worst, num_points, radius)
