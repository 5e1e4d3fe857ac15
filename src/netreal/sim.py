"""Discrete-time simulation with a fixed block evaluation order.

Both simulators run one step loop over a plan that lists, per node,
the state blocks it reads (A and C) and the input blocks that drive it
(B and D), each in ascending node order.  :func:`simulate_lti` plans
the blocks that hold a nonzero entry; :func:`simulate_distributed`
plans the node's in-neighbors and its own input, so no block off an
edge is ever read.  :func:`netreal.imc.simulate_imc_loop` runs the
internal-model loop through :func:`simulate_lti`.

The step loop stacks the planned blocks once, zero-padded to the
largest node, so a step costs one gather, two batched products (the
read and the drive stack, each covering both the state and the output
rows) and an ordered scatter-add, whatever the number of nodes.  Every
node sums its contributions in plan order, reads before drives.  On a
strictly compatible realization the two plans differ only by exact-zero
blocks, whose contributions are exact zeros, and each planned block's
product does not depend on which other blocks are planned, so the two
runs agree under array equality, not tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import InputError, NumericalError
from .graphs import NetworkGraph, _as_counts, _as_floats, _as_int, _node_slice, partition_slices
from .realization import BlockRealization, DMode, check_compatibility


@dataclass(frozen=True, eq=False)
class SignalTrajectory:
    """A finite signal: one stacked, node-major vector per step.

    ``values`` has shape ``(length, width)`` where ``width`` is the sum
    of ``partition``; node ``i`` owns the ``partition[i]`` columns at
    its node-major offset.  ``values`` are numbers by the rule files follow
    too (:func:`graphs._as_floats`; a boolean among them reads as 1 or 0).
    """

    values: np.ndarray
    partition: tuple[int, ...]
    name: str = "signal"

    def __post_init__(self):
        partition = _as_counts(self.partition, "partition")
        values = _as_floats(self.values, "trajectory values are not numeric")
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
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "partition", partition)

    @classmethod
    def zeros(cls, partition, length: int, name: str = "signal") -> "SignalTrajectory":
        partition = _as_counts(partition, "partition")
        length = _as_int(length, "length")
        if length < 0:
            raise InputError(f"length must be nonnegative, got {length}")
        return cls(np.zeros((length, sum(partition))), partition, name)

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


def _check_finite(*traces: np.ndarray) -> None:
    """Raise :class:`NumericalError` at the first step where a trace is non-finite."""
    bad = np.zeros(len(traces[0]), dtype=bool)
    for trace in traces:
        bad |= ~np.isfinite(trace).all(axis=1)
    if bad.any():
        raise NumericalError(
            f"simulation diverged: non-finite values at step {int(np.argmax(bad))}")


def _padded_index(counts: tuple[int, ...], pad: int) -> np.ndarray:
    """Node-major positions of each node's entries, one row per node.

    Row ``i`` lists node ``i``'s ``counts[i]`` positions, then repeats
    ``pad`` up to the width of the widest node.
    """
    counts = np.asarray(counts)
    slot = np.arange(counts.max())
    starts = np.cumsum(counts) - counts
    return np.where(slot < counts[:, None], starts[:, None] + slot, pad)


def _run(
    real: BlockRealization, u: SignalTrajectory, x: np.ndarray, reads, drives
) -> tuple[SignalTrajectory, SignalTrajectory]:
    """Step loop shared by both simulators.

    ``reads`` and ``drives`` are ``(node, source)`` index-array pairs in
    plan order: ascending node, then ascending source.  Node ``i``'s
    next state and output sum its A and C blocks over its ``reads``
    sources, then its B and D blocks over its ``drives`` sources.

    The planned blocks are stacked once.  Each node's rows of ``[A; C]``
    (or ``[B; D]``) are zero-padded to the most states and the most
    outputs of any node, its columns to the most states (or inputs).
    Each step gathers the source states, forms every planned block's
    contribution with one batched ``matmul`` over the read stack and one
    over the drive stack, and adds the contributions into a zeroed
    per-node accumulator with ``np.add.at``: the reads in plan order,
    then the drives in plan order.  So each node's sum runs in its plan
    order, and a planned block of exact zeros, padding included, adds
    exact zeros.
    """
    dims = real.dims
    n, m, p = real.n, real.m, real.p
    count = dims.num_nodes
    # Pads index an appended zero row or column.
    rows = np.hstack([_padded_index(dims.states, n + p), n + _padded_index(dims.outputs, p)])
    state_cols = _padded_index(dims.states, n)
    input_cols = _padded_index(dims.inputs, m)
    width, n_max = rows.shape[1], state_cols.shape[1]

    def stack(top, bottom, cols, plan):
        dst, src = plan
        padded = np.pad(np.vstack([top, bottom]), ((0, 1), (0, 1)))
        at = (dst[:, None] * width + np.arange(width)).ravel()
        return padded[rows[dst][:, :, None], cols[src][:, None, :]], at

    read_blocks, read_at = stack(real.A, real.C, state_cols, reads)
    drive_blocks, drive_at = stack(real.B, real.D, input_cols, drives)
    read_src, drive_src = reads[1], drives[1]
    inputs = np.pad(u.values, ((0, 0), (0, 1)))[:, input_cols]
    steps = u.length
    # Row t + 1 holds every node's padded state x[t + 1] and output y[t];
    # row 0 holds the initial state.
    history = np.zeros((steps + 1, count, width))
    history[0, :, :n_max] = np.append(x, 0.0)[state_cols]
    flat = history.reshape(steps + 1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            state = history[t, :, :n_max]
            np.add.at(flat[t + 1], read_at,
                      np.matmul(read_blocks, state[read_src, :, None]).ravel())
            np.add.at(flat[t + 1], drive_at,
                      np.matmul(drive_blocks, inputs[t, drive_src, :, None]).ravel())
    xs = history[:steps, :, :n_max][:, state_cols != n]
    ys = history[1:, :, n_max:][:, rows[:, n_max:] != n + p]
    _check_finite(xs, ys)
    return (
        SignalTrajectory(ys, dims.outputs, "y"),
        SignalTrajectory(xs, dims.states, "x"),
    )


def simulate_lti(
    real: BlockRealization, u, x0=None
) -> tuple[SignalTrajectory, SignalTrajectory]:
    """Run the state recursion; returns the output and state trajectories.

    Row ``t`` of the state trajectory is the state at step ``t`` (so row
    0 is the initial state), aligned with the output ``y[t]`` it produced.
    Contributions accumulate over the nonzero column blocks in ascending
    node order, matching :func:`simulate_distributed` exactly.  Raises
    :class:`~netreal.errors.NumericalError` if the run diverges.
    """
    u = _coerce_signal(u, real.dims.inputs, "input")
    x = _coerce_state(real, x0)
    occ = real.occupancy
    reads = np.nonzero((occ.A > 0) | (occ.C > 0))
    drives = np.nonzero((occ.B > 0) | (occ.D > 0))
    return _run(real, u, x, reads, drives)


def simulate_distributed(
    real: BlockRealization,
    graph: NetworkGraph,
    u,
    x0=None,
) -> tuple[SignalTrajectory, SignalTrajectory, int]:
    """Per-node simulation that only reads state along declared edges.

    The plan gives node ``i`` the states of its in-neighbors and its own
    input, and nothing else, so a read off an edge cannot happen.
    Requires strict compatibility.  Outputs equal :func:`simulate_lti` under
    array equality, and the returned message count, one per non-self
    edge per step, is ``steps * number of non-self edges``.
    """
    report = check_compatibility(real, graph, DMode.STRICT)
    if not report.ok:
        worst = ", ".join(report.violation_labels[:4])
        raise InputError(
            f"realization is not strictly compatible with the graph ({worst})")
    u = _coerce_signal(u, real.dims.inputs, "input")
    x = _coerce_state(real, x0)
    reads = np.nonzero(graph.adjacency)
    nodes = np.arange(real.num_nodes)
    y, xs = _run(real, u, x, reads, (nodes, nodes))
    return y, xs, u.length * graph.num_non_self_edges
