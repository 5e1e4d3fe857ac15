"""Discrete-time simulation: one product per node per step.

Both simulators run one plan, the nonzero blocks of the realization
(:func:`_plan`).  Node ``i``'s step is one matrix-vector product: its
rows of ``[A B; C D]``, restricted to the states of the nodes ``j`` whose
A or C block ``(i, j)`` holds a nonzero and to the inputs of the nodes
``k`` whose B or D block ``(i, k)`` does, times those states and inputs,
give its next state and its output.  Nodes of about the same size are
stacked into groups, so a step costs one ``take``, one batched
``matmul`` and one slice write per group, whatever the number of nodes.

:func:`simulate_lti` runs that plan on any realization.
:func:`simulate_distributed` first checks strict compatibility, which
proves that every planned read is an in-neighbor's state or the node's
own input, and then runs the same plan.  So the two runs do the same
arithmetic in the same order, and agree under array equality by
construction.  :func:`netreal.imc.simulate_imc_loop` runs the
internal-model loop as :func:`simulate_lti` does.

A run holds each trajectory once and at most one window of its frame.
A row of the frame holds every node's slot and the inputs of one step;
a window holds up to ``_FINITE_ROWS`` steps, and no more entries than
the larger of the plan and the trajectories the run reads and returns.
The run steps through the
horizon one window at a time, copying each window's inputs in and its
outputs out into arrays sized by the horizon.  Both simulators run
:func:`_simulate`, which copies the states out only for a caller that
returns them: ``netreal simulate``, the internal-model loop and the
river demo read outputs alone, so they hold one window and one copy
each of the inputs and outputs.  Divergence is read off each window's
rows, so such a run raises :class:`NumericalError` at the same step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import node_major_indices
from .errors import InputError, NumericalError
from .graphs import (NetworkGraph, _as_counts, _as_floats, _as_int, _frozen, _kept, _node_slice,
                     _ranges, _starts, partition_slices)
from .realization import BlockRealization, DMode, _node_blocks, check_compatibility


@dataclass(frozen=True, eq=False)
class SignalTrajectory:
    """A finite signal: one stacked, node-major vector per step.

    ``values`` has shape ``(length, width)`` where ``width`` is the sum
    of ``partition``; node ``i`` owns the ``partition[i]`` columns at
    its node-major offset.  ``values`` are numbers by the rule files follow
    too (:func:`graphs._as_floats`; a boolean among them reads as 1 or 0).
    They are copied and frozen, except an array :func:`graphs._kept` keeps,
    which is shared and checked alike.
    """

    values: np.ndarray
    partition: tuple[int, ...]
    name: str = "signal"

    def __post_init__(self):
        partition = _as_counts(self.partition, "partition")
        values = (self.values if _kept(self.values)
                  else _as_floats(self.values, "trajectory values are not numeric"))
        width = sum(partition)
        if values.ndim == 1 and values.size == 0:
            values = values.reshape(0, width)
        if values.ndim != 2:
            raise InputError(f"trajectory values must be 2-D, got shape {values.shape}")
        if values.shape[1] != width:
            raise InputError(
                f"trajectory width {values.shape[1]} does not match partition total {width}")
        if values.size and not np.isfinite(values).all():
            raise InputError("trajectory contains non-finite entries")
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "partition", partition)

    @classmethod
    def zeros(cls, partition, length: int, name: str = "signal") -> "SignalTrajectory":
        partition = _as_counts(partition, "partition")
        length = _as_int(length, "length")
        if length < 0:
            raise InputError(f"length must be nonnegative, got {length}")
        return cls(_frozen(np.zeros((length, sum(partition)))), partition, name)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def node_slice(self, i: int) -> slice:
        return _node_slice(partition_slices(self.partition), i)


def _coerce_signal(signal, partition: tuple[int, ...], name: str,
                   length: int | None = None) -> SignalTrajectory:
    """``signal`` as a trajectory on ``partition``, ``length`` steps long when given."""
    if not isinstance(signal, SignalTrajectory):
        signal = SignalTrajectory(signal, partition, name)
    if signal.partition != partition:
        raise InputError(
            f"{name} partition {signal.partition} does not match the system's {partition}")
    if length is not None and signal.length != length:
        raise InputError(f"{name} length {signal.length} does not match {length} steps")
    return signal


def _coerce_state(real: BlockRealization, x0) -> np.ndarray:
    if x0 is None:
        return np.zeros(real.n)
    x = _as_floats(x0, "initial state is not numeric").reshape(-1)
    if x.size != real.n:
        raise InputError(f"initial state must have {real.n} entries, got {x.size}")
    if x.size and not np.isfinite(x).all():
        raise InputError("initial state contains non-finite entries")
    return x


#: The most steps a run's window holds, so the window and the masks of
#: :func:`_check_finite` stay small.
_FINITE_ROWS = 1024


def _check_finite(start: int, *traces: np.ndarray) -> None:
    """Raise :class:`NumericalError` at the first step where a trace is non-finite.

    The traces' rows are the steps from ``start`` on.
    """
    bad = np.zeros(len(traces[0]), dtype=bool)
    for trace in traces:
        bad |= ~np.isfinite(trace).all(axis=1)
    if bad.any():
        raise NumericalError(
            f"simulation diverged: non-finite values at step {start + int(np.argmax(bad))}")


def _bucket(counts: np.ndarray) -> np.ndarray:
    """``k`` such that ``2**(k - 1) < count <= 2**k``, for each positive count."""
    return np.frexp(counts - 1.0)[1]


def _entries(real: BlockRealization, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``[A B; C D][rows[:, :, None], cols[:, None, :]]``, 0 past the matrix.

    Read from the four matrices in place, so the cost follows the entries
    asked for, not the size of ``[A B; C D]``.  Each matrix is gathered
    once, through row and column indices clamped into it, and copied
    where both fall in it, so no full-size index grid is built.
    """
    out = np.zeros((*rows.shape, cols.shape[1]))
    n = real.n
    for matrix, top, left in ((real.A, 0, 0), (real.B, 0, n), (real.C, n, 0), (real.D, n, n)):
        if matrix.size:
            (height, width), row, col = matrix.shape, rows - top, cols - left
            hit = (((row >= 0) & (row < height))[:, :, None]
                   & ((col >= 0) & (col < width))[:, None, :])
            row, col = row.clip(0, height - 1), col.clip(0, width - 1)
            np.copyto(out, matrix[row[:, :, None], col[:, None, :]], where=hit)
    return out


class _Group(NamedTuple):
    """Nodes of one size bucket: their stacked rows and where they read and write."""

    #: ``(nodes, rows, cols)``: each node's rows of ``[A B; C D]`` over its
    #: planned columns, zero-padded to the group's most rows and columns.
    blocks: np.ndarray
    #: ``(nodes, cols)``: the frame position each of those columns reads.
    take: np.ndarray
    #: The frame positions the group writes, its nodes' rows one after another.
    rows: slice


class _Plan(NamedTuple):
    """Every node's step as one product, grouped by size, over a flat frame."""

    groups: tuple[_Group, ...]
    #: Frame width: node slots, then the inputs, then one zero.
    width: int
    #: Frame position of each state, and of each output, node-major.
    states: np.ndarray
    outputs: np.ndarray
    #: Frame position of input 0; the inputs follow it in order.
    inputs: int


def _plan(real: BlockRealization) -> _Plan:
    """The one plan both simulators run: the nonzero blocks of ``real``.

    Node ``i`` reads the states of every node ``j`` whose A or C block
    ``(i, j)`` holds a nonzero (its read sources) and the inputs of every
    node ``k`` whose B or D block ``(i, k)`` does (its drive sources).
    Its columns are the read sources' states, then the drive sources'
    inputs, each in ascending node order; its rows are its states, then
    its outputs.  A node with no planned block is in no group: its
    outputs and its states after the first step are zero.

    Nodes are grouped by the power-of-two bucket of their row count and
    of their column count, and padded to the largest node of their
    group, so padding never doubles a node's rows or its columns: a
    star's hub is not stacked with its leaves.  Each node owns a slot of
    the frame, its group's row count wide (its state count if it is in no
    group); the slot holds its state, then its output.
    """
    dims, occ = real.dims, real.occupancy
    n, m, p = real.n, real.m, real.p
    states, inputs, outputs = (np.array(c, dtype=np.intp)
                               for c in (dims.states, dims.inputs, dims.outputs))
    # Each node's columns of [A B; C D], node after node: the union of the block lists,
    # listed on a grid of one row per node and one column per source, where source
    # j < count stands for node j's states and count + k for node k's inputs.
    count = len(states)
    node, source, *_ = _node_blocks(
        np.concatenate([occ.A.rows, occ.C.rows, occ.B.rows, occ.D.rows]),
        np.concatenate([occ.A.cols, occ.C.cols, count + occ.B.cols, count + occ.D.cols]),
        np.ones(count, dtype=np.intp), np.ones(2 * count, dtype=np.intp))
    col_count = np.concatenate([states, inputs])[source]
    width = np.bincount(node, col_count, count).astype(np.intp)
    cols = _ranges(np.concatenate([_starts(states), n + _starts(inputs)])[source], col_count)
    # Each node's rows of [A B; C D], node after node: its states, then its outputs.
    height = states + outputs
    rows = node_major_indices(dims.states, dims.outputs)

    # Group by bucket (each below 64); the nodes in no group come last.
    active = width > 0
    key = np.where(active, _bucket(height) * 64 + _bucket(width), 64 * 64)
    group = (np.cumsum(np.bincount(key) > 0) - 1)[key]
    group_rows, group_cols = np.zeros((2, group.max() + 1), dtype=np.intp)
    np.maximum.at(group_rows, group, height)
    np.maximum.at(group_cols, group, width)
    slot = np.where(active, group_rows[group], states)
    span = np.where(active, group_cols[group], 0)
    frame_order = np.argsort(group, kind="stable")
    slot_at, span_at = np.empty((2, count), dtype=np.intp)
    slot_at[frame_order] = _starts(slot[frame_order])
    span_at[frame_order] = _starts(span[frame_order])
    first_input = int(slot.sum())
    zero = first_input + m
    state_at = _ranges(slot_at, states)
    output_at = np.where(np.repeat(active, outputs), _ranges(slot_at + states, outputs), zero)
    frame_of_col = np.concatenate([state_at, np.arange(first_input, zero + 1)])
    # The row of [A B; C D] each grouped frame position takes, and the
    # column each stacked column reads.  Padding takes row n + p and column
    # n + m, past the matrix, whose entries read 0.
    row_of = np.full(int(slot[active].sum()), n + p)
    mine = np.repeat(active, height)
    row_of[_ranges(slot_at, height)[mine]] = rows[mine]
    col_of = np.full(int(span.sum()), n + m)
    col_of[_ranges(span_at, width)] = cols

    groups, row_start, col_start = [], 0, 0
    for size, height_g, width_g in zip(np.bincount(group[active]), group_rows, group_cols):
        at_rows = row_of[row_start:row_start + size * height_g].reshape(size, height_g)
        at_cols = col_of[col_start:col_start + size * width_g].reshape(size, width_g)
        groups.append(_Group(_entries(real, at_rows, at_cols),
                             frame_of_col[at_cols], slice(row_start, row_start + at_rows.size)))
        row_start += at_rows.size
        col_start += at_cols.size
    return _Plan(tuple(groups), zero + 1, state_at, output_at, first_input)


def _state_trace(frame: np.ndarray, plan: _Plan, steps: int) -> np.ndarray:
    """The states of the first ``steps`` rows of a run's window, one row per step."""
    return frame[:steps].take(plan.states, axis=1)


def _simulate(real: BlockRealization, u, x0=None, graph: NetworkGraph | None = None,
              states: bool = True) -> tuple[SignalTrajectory, SignalTrajectory | None, int]:
    """The one run behind both simulators, one product per node per step: ``(y, x, messages)``.

    With a ``graph`` it is :func:`simulate_distributed`'s: strict
    compatibility is checked first, and ``messages`` counts one per
    non-self edge per step; without one it is :func:`simulate_lti`'s and
    ``messages`` is 0.  ``x`` is None unless ``states``, so a caller that
    reads only the outputs never builds the state trajectory.

    Row ``t`` of a flat frame holds every node's state ``x[t]`` and output
    ``y[t - 1]`` in its slot, then the input ``u[t]``, then a zero that
    padding reads.  A step gathers each group's columns from row ``t``
    with one ``take``, multiplies them by the group's stacked rows with
    one batched ``matmul``, and writes the products, each node's next
    state and output, into row ``t + 1`` in one slice.  So node ``i``
    computes ``[x_i[t+1]; y_i[t]] = [A_i B_i; C_i D_i] [x_sources[t]; u_sources[t]]``
    as one matrix-vector product over its concatenated planned blocks.

    The run holds one window of the frame, a row more than its steps:
    ``_FINITE_ROWS`` steps, or fewer where more would hold more entries
    than the plan and than the trajectories the run reads and returns,
    and at least one.  Window by window, the inputs are copied in, the
    steps run, the rows are checked for divergence, the outputs (and the
    states, if asked for) are copied out into arrays sized by the
    horizon, and the last row is carried into the next window's first.
    Each step reads the values it would read in a frame of the whole
    horizon, so the bits do not depend on the window.
    """
    if graph is not None:
        report = check_compatibility(real, graph, DMode.STRICT)
        if not report.ok:
            worst = ", ".join(report.violation_labels[:4])
            raise InputError(
                f"realization is not strictly compatible with the graph ({worst})")
    u = _coerce_signal(u, real.dims.inputs, "input")
    x = _coerce_state(real, x0)
    plan = _plan(real)
    steps = u.length
    held = max(sum(group.blocks.size for group in plan.groups),
               u.values.size + steps * (real.p + (real.n if states else 0)))
    length = max(1, min(_FINITE_ROWS, held // plan.width))
    window = np.zeros((min(length, steps) + 1, plan.width))
    window[0, plan.states] = x
    ys = np.empty((steps, real.p))
    xs = np.empty((steps, real.n)) if states else None
    for start in range(0, steps, length):
        stop = min(start + length, steps)
        frame = window[:stop - start + 1]
        frame[:-1, plan.inputs:plan.inputs + real.m] = u.values[start:stop]
        with np.errstate(over="ignore", invalid="ignore"):
            for now, after in zip(frame[:-1], frame[1:]):
                for blocks, take, rows in plan.groups:
                    after[rows] = np.matmul(blocks, now.take(take)[:, :, None]).ravel()
        ys[start:stop] = frame[1:].take(plan.outputs, axis=1)
        # Row t holds x[t], y[t - 1], finite inputs and padding, which is 0
        # times row t - 1's states; so the first step with a non-finite row
        # here or in ys is the first with a non-finite x[t] or y[t], whether
        # or not the states are returned.
        _check_finite(start, frame[:-1], ys[start:stop])
        if states:
            xs[start:stop] = _state_trace(frame, plan, stop - start)
        window[0] = frame[-1]
    if states:
        xs = SignalTrajectory(_frozen(xs), real.dims.states, "x")
    messages = 0 if graph is None else steps * graph.num_non_self_edges
    return SignalTrajectory(_frozen(ys), real.dims.outputs, "y"), xs, messages


def simulate_lti(
    real: BlockRealization, u, x0=None
) -> tuple[SignalTrajectory, SignalTrajectory]:
    """Run the state recursion; returns the output and state trajectories.

    Row ``t`` of the state trajectory is the state at step ``t`` (so row
    0 is the initial state), aligned with the output ``y[t]`` it produced.
    Each node's step is one product over its nonzero blocks
    (:func:`_plan`), the same one :func:`simulate_distributed` runs.
    Raises :class:`~netreal.errors.NumericalError` if the run diverges.
    """
    y, xs, _ = _simulate(real, u, x0)
    return y, xs


def simulate_distributed(
    real: BlockRealization,
    graph: NetworkGraph,
    u,
    x0=None,
) -> tuple[SignalTrajectory, SignalTrajectory, int]:
    """Per-node simulation that only reads state along declared edges.

    Requires strict compatibility: every nonzero A or C block lies on an
    edge and B and D are block-diagonal, so in the plan of nonzero blocks
    (:func:`_plan`) node ``i`` reads only its in-neighbors' states and its
    own input.  That proven, it runs that same plan, so its outputs equal
    :func:`simulate_lti`'s under array equality: the two runs do the same
    arithmetic.  The returned message count, one per non-self edge per
    step, is ``steps * number of non-self edges``, whether or not an
    edge's blocks hold a nonzero.
    """
    return _simulate(real, u, x0, graph)
