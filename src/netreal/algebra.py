"""Structure-preserving arithmetic on block realizations.

Each two-part construction states its textbook block formula: every
matrix is a grid of blocks, one row of blocks per part stacked along its
rows and one block per part along its columns.  :func:`_node_major`
writes each block of the grids to its place in node-major order, so
every node keeps one contiguous block, and :func:`node_major_indices`
is its index map; :mod:`netreal.loops` and :mod:`netreal.imc` build
their composites with it too.  A zero block is written ``None``, so it
comes out exactly zero, and the placement is pure indexing, so
structural zeros of the inputs survive as exact zeros in the output:
when both operands are compatible with a graph (strict direct terms
where required), so is the result.
The builders form their products with overflow warnings silenced and
hand each result's fresh matrices to :func:`_realization`, the one
entrance: the checked constructor's scan is the finiteness check, and
the entrance raises its refusal as :class:`~netreal.errors.NumericalError`.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InputError, InversionError, NumericalError, StabilityWarning
from .graphs import NodeDims, _frozen
from .realization import BlockRealization, _certified_inverse, spectral_radius

#: :func:`invert` refuses a direct term whose condition number reaches this.
_DEFAULT_COND_LIMIT = 1e8


def node_major_indices(*parts: tuple[int, ...]) -> np.ndarray:
    """Index map from ``[all of part 0, all of part 1, ...]`` to node-major order.

    Entry ``k`` of each tuple is the count node ``k`` contributes; the
    result interleaves the parts so node ``k`` owns its entries of part
    0, then its entries of part 1, and so on.
    """
    owners = np.concatenate([np.repeat(np.arange(len(part)), part) for part in parts])
    return np.argsort(owners, kind="stable")


def _assemble(grid, row_at, col_at) -> np.ndarray:
    """The matrix of a block grid, written straight into node-major order.

    ``row_at`` and ``col_at`` hold each part's :func:`_part_positions`.
    Each block is copied to the rows and columns of its parts; ``None``
    blocks stay zero.
    """
    out = np.zeros((sum(map(len, row_at)), sum(map(len, col_at))))
    for blocks, r in zip(grid, row_at):
        for blk, c in zip(blocks, col_at):
            if blk is not None:
                out[np.ix_(r, c)] = blk
    return out


def _part_positions(parts) -> list[np.ndarray]:
    """For each part, the node-major positions of its entries, in order."""
    order = node_major_indices(*parts)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    return np.split(position, np.cumsum([sum(part) for part in parts])[:-1])


def _realization(dims: NodeDims, *matrices: np.ndarray) -> BlockRealization:
    """The realization of a builder's fresh A to D, frozen so that it keeps them.

    The constructor's scan is their one finiteness check: it refuses such arrays only for a
    non-finite entry, so its refusal is raised as :class:`~netreal.errors.NumericalError`.
    """
    try:
        return BlockRealization(dims, *map(_frozen, matrices))
    except InputError as exc:
        raise NumericalError(f"{exc}: a product overflowed") from exc


def _node_major(a, b, c, d, states, inputs, outputs) -> BlockRealization:
    """The realization of four block grids, in node-major order.

    ``states``, ``inputs`` and ``outputs`` each hold, for one axis, the
    per-node counts of the parts stacked along it.  ``a``, ``b``, ``c``
    and ``d`` are grids of blocks: one row of blocks per part along the
    matrix's rows (states for A and B, outputs for C and D), and in each
    row one block per part along its columns (states for A and C, inputs
    for B and D).  ``None`` stands for a zero block, whose shape the
    part counts give.  Each matrix is the grid's stacked matrix reordered
    by :func:`node_major_indices` along both axes (one part keeps an axis
    in order), so node ``k`` of the result counts the sum of its parts'
    entries; :func:`_assemble` writes each block straight to its place,
    one matrix at a time, so no stacked copy is ever held, and
    :func:`_realization` checks and builds the result.
    """
    dims = NodeDims(*(tuple(map(sum, zip(*parts))) for parts in (states, inputs, outputs)))
    s, i, o = (_part_positions(parts) for parts in (states, inputs, outputs))
    grids = [(a, s, s), (b, s, i), (c, o, s), (d, o, i)]
    # Each grid's blocks are released as soon as its matrix is written.
    del a, b, c, d
    return _realization(dims, *(_assemble(*grids.pop(0)) for _ in range(4)))


def add(r1: BlockRealization, r2: BlockRealization) -> BlockRealization:
    """Parallel interconnection realizing the transfer-matrix sum.

    Per node the summands' states are stacked, inputs are shared and
    outputs added; the direct terms add.  Requires identical per-node
    input and output counts.
    """
    if r1.num_nodes != r2.num_nodes:
        raise InputError(
            f"cannot add systems on {r1.num_nodes} and {r2.num_nodes} nodes")
    if r1.dims.inputs != r2.dims.inputs or r1.dims.outputs != r2.dims.outputs:
        raise InputError("summands need identical per-node input and output counts")
    with np.errstate(over="ignore", invalid="ignore"):
        return _node_major(
            [[r1.A, None], [None, r2.A]], [[r1.B], [r2.B]], [[r1.C, r2.C]], [[r1.D + r2.D]],
            (r1.dims.states, r2.dims.states), (r1.dims.inputs,), (r1.dims.outputs,))


def multiply(outer: BlockRealization, inner: BlockRealization) -> BlockRealization:
    """Series interconnection realizing ``outer(z) @ inner(z)``.

    ``inner`` acts first; its per-node output counts must match
    ``outer``'s per-node input counts.  Node ``k`` of the result holds
    ``(inner state, outer state)``.  Unstable factors are flagged with a
    :class:`~netreal.errors.StabilityWarning` but the construction
    proceeds; stabilizability or detectability of the composite is then
    not guaranteed.
    """
    if outer.num_nodes != inner.num_nodes:
        raise InputError(
            f"cannot compose systems on {outer.num_nodes} and {inner.num_nodes} nodes")
    if inner.dims.outputs != outer.dims.inputs:
        raise InputError(
            "inner per-node output counts must match outer per-node input counts, "
            f"got {inner.dims.outputs} vs {outer.dims.inputs}")
    unstable = [
        f"{label} {rho:.3f}"
        for label, rho in (("inner", spectral_radius(inner)), ("outer", spectral_radius(outer)))
        if rho >= 1.0
    ]
    if unstable:
        warnings.warn(
            "composing factors with spectral radius >= 1 ("
            + ", ".join(unstable)
            + "); the composite may lose stabilizability or detectability",
            StabilityWarning,
            stacklevel=2,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return _node_major(
            [[inner.A, None], [outer.B @ inner.C, outer.A]],
            [[inner.B], [outer.B @ inner.D]],
            [[outer.D @ inner.C, outer.C]],
            [[outer.D @ inner.D]],
            (inner.dims.states, outer.dims.states), (inner.dims.inputs,), (outer.dims.outputs,))


def _block_diagonal(real: BlockRealization) -> bool:
    blocks = real.occupancy.D
    return np.array_equal(blocks.rows, blocks.cols)


def _invert_direct(real: BlockRealization) -> np.ndarray:
    """Invert D, blockwise when it is exactly block-diagonal."""
    d = real.D
    try:
        if not _block_diagonal(real):
            return _certified_inverse(
                d, _DEFAULT_COND_LIMIT,
                lambda cond: InversionError(
                    f"direct term is singular or ill-conditioned (cond {cond:.3e})"))
        out = np.zeros_like(d)
        for k, (rows, cols) in enumerate(zip(real.dims.output_slices, real.dims.input_slices)):
            blk = d[rows, cols]
            if blk.size:
                out[rows, cols] = _certified_inverse(
                    blk, _DEFAULT_COND_LIMIT,
                    lambda cond: InversionError(
                        f"direct term of node {k} is singular or ill-conditioned "
                        f"(cond {cond:.3e})"))
        return out
    except np.linalg.LinAlgError as exc:
        raise InversionError(f"direct term inversion failed: {exc}") from exc


def invert(real: BlockRealization) -> BlockRealization:
    """Realization of the transfer-matrix inverse.

    Built as ``(A - B D^{-1} C,  B D^{-1},  -D^{-1} C,  D^{-1})``.
    Requires per-node square channel counts and a direct term whose
    condition number stays below ``_DEFAULT_COND_LIMIT`` (1e8).
    """
    if real.dims.inputs != real.dims.outputs:
        raise InversionError(
            "inversion needs per-node square channel counts, got inputs "
            f"{real.dims.inputs} vs outputs {real.dims.outputs}")
    d_inv = _invert_direct(real)
    with np.errstate(over="ignore", invalid="ignore"):
        b_new = real.B @ d_inv
        a_new = real.A - b_new @ real.C
        c_new = -(d_inv @ real.C)
    dims = NodeDims(real.dims.states, real.dims.outputs, real.dims.inputs)
    return _realization(dims, a_new, b_new, c_new, d_inv)
