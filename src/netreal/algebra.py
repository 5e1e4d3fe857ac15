"""Structure-preserving arithmetic on block realizations.

Each construction assembles the stacked textbook composite and then
reorders states so every node keeps one contiguous state block.  The
reorder is pure indexing, so structural zeros of the inputs survive as
exact zeros in the output: when both operands are compatible with a
graph (strict direct terms where required), so is the result.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InputError, InversionError, StabilityWarning
from .graphs import NodeDims, partition_slices
from .realization import BlockRealization, spectral_radius

_DEFAULT_COND_LIMIT = 1e8


def node_major_indices(first: tuple[int, ...], second: tuple[int, ...]) -> np.ndarray:
    """Index map from ``[all of first, all of second]`` to node-major order.

    Entry ``k`` of each tuple is the count node ``k`` contributes; the
    result interleaves the two ranges so node ``k`` owns its ``first``
    entries followed by its ``second`` entries.
    """
    base = sum(first)
    indices: list[int] = []
    for a, b in zip(partition_slices(first), partition_slices(second)):
        indices.extend(range(a.start, a.stop))
        indices.extend(range(base + b.start, base + b.stop))
    return np.asarray(indices, dtype=int)


def _merged_states(r1: BlockRealization, r2: BlockRealization) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(r1.dims.states, r2.dims.states))


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
    n1, n2 = r1.n, r2.n
    a = np.zeros((n1 + n2, n1 + n2))
    a[:n1, :n1] = r1.A
    a[n1:, n1:] = r2.A
    b = np.vstack([r1.B, r2.B])
    c = np.hstack([r1.C, r2.C])
    d = r1.D + r2.D
    perm = node_major_indices(r1.dims.states, r2.dims.states)
    dims = NodeDims(_merged_states(r1, r2), r1.dims.inputs, r1.dims.outputs)
    return BlockRealization(dims, a[np.ix_(perm, perm)], b[perm, :], c[:, perm], d)


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
    n1, n2 = inner.n, outer.n
    a = np.zeros((n1 + n2, n1 + n2))
    a[:n1, :n1] = inner.A
    a[n1:, :n1] = outer.B @ inner.C
    a[n1:, n1:] = outer.A
    b = np.vstack([inner.B, outer.B @ inner.D])
    c = np.hstack([outer.D @ inner.C, outer.C])
    d = outer.D @ inner.D
    perm = node_major_indices(inner.dims.states, outer.dims.states)
    dims = NodeDims(_merged_states(inner, outer), inner.dims.inputs, outer.dims.outputs)
    return BlockRealization(dims, a[np.ix_(perm, perm)], b[perm, :], c[:, perm], d)


def _block_diagonal(real: BlockRealization) -> bool:
    occupied = real.occupancy.D
    return not np.any(occupied[~np.eye(real.num_nodes, dtype=bool)])


def _invert_direct(real: BlockRealization, cond_limit: float) -> np.ndarray:
    """Invert D, blockwise when it is exactly block-diagonal."""
    d = real.D
    if _block_diagonal(real):
        out = np.zeros_like(d)
        for k in range(real.num_nodes):
            rows = real.dims.output_slice(k)
            cols = real.dims.input_slice(k)
            blk = d[rows, cols]
            if blk.size == 0:
                continue
            sv = np.linalg.svd(blk, compute_uv=False)
            if sv[-1] == 0.0 or sv[0] / sv[-1] >= cond_limit:
                raise InversionError(
                    f"direct term of node {k} is singular or ill-conditioned")
            out[rows, cols] = np.linalg.inv(blk)
        return out
    cond = np.linalg.cond(d) if d.size else 1.0
    if not np.isfinite(cond) or cond >= cond_limit:
        raise InversionError(
            f"direct term is singular or ill-conditioned (cond {cond:.3e})")
    try:
        return np.linalg.inv(d)
    except np.linalg.LinAlgError as exc:
        raise InversionError(f"direct term inversion failed: {exc}") from exc


def invert(real: BlockRealization, cond_limit: float = _DEFAULT_COND_LIMIT) -> BlockRealization:
    """Realization of the transfer-matrix inverse.

    Built as ``(A - B D^{-1} C,  B D^{-1},  -D^{-1} C,  D^{-1})``.
    Requires per-node square channel counts and a direct term whose
    condition number stays below ``cond_limit``.
    """
    if real.dims.inputs != real.dims.outputs:
        raise InversionError(
            "inversion needs per-node square channel counts, got inputs "
            f"{real.dims.inputs} vs outputs {real.dims.outputs}")
    d_inv = _invert_direct(real, cond_limit)
    b_new = real.B @ d_inv
    a_new = real.A - b_new @ real.C
    c_new = -(d_inv @ real.C)
    dims = NodeDims(real.dims.states, real.dims.outputs, real.dims.inputs)
    return BlockRealization(dims, a_new, b_new, c_new, d_inv)
