"""Discrete-time simulation with a fixed block evaluation order.

Both simulators run one step loop over a plan that lists, per node,
the state blocks it reads (A and C) and the input blocks that drive it
(B and D), each in ascending node order.  Every step sums the planned
contributions in that order.  :func:`simulate_lti` plans the blocks that
hold a nonzero entry; :func:`simulate_distributed` plans the node's
in-neighbors and its own input, so no block off an edge is ever read.
On a strictly compatible realization the two plans differ only by
exact-zero blocks, whose contributions are exact zeros, so the two runs
agree under array equality, not tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import InputError, NumericalError
from .graphs import NetworkGraph, partition_slices
from .loops import _check_pair
from .realization import BlockRealization, DMode, check_compatibility


@dataclass(frozen=True, eq=False)
class SignalTrajectory:
    """A finite signal: one stacked, node-major vector per step.

    ``values`` has shape ``(length, width)`` where ``width`` is the sum
    of ``partition``; node ``i`` owns the ``partition[i]`` columns at
    its node-major offset.
    """

    values: np.ndarray
    partition: tuple[int, ...]
    name: str = "signal"

    def __post_init__(self):
        partition = tuple(int(w) for w in self.partition)
        if any(w < 0 for w in partition):
            raise InputError(f"partition must be nonnegative, got {partition}")
        try:
            values = np.array(self.values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError("trajectory values are not numeric") from exc
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
        partition = tuple(int(w) for w in partition)
        return cls(np.zeros((int(length), sum(partition))), partition, name)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def node_slice(self, i: int) -> slice:
        if not 0 <= i < len(self.partition):
            raise InputError(f"node index {i} out of range")
        return partition_slices(self.partition)[i]


def _coerce_input(real: BlockRealization, u) -> SignalTrajectory:
    if isinstance(u, SignalTrajectory):
        if u.partition != real.dims.inputs:
            raise InputError(
                f"input partition {u.partition} does not match system inputs "
                f"{real.dims.inputs}")
        return u
    return SignalTrajectory(u, real.dims.inputs, "u")


def _coerce_state(real: BlockRealization, x0) -> np.ndarray:
    if x0 is None:
        return np.zeros(real.n)
    x = np.array(x0, dtype=float).reshape(-1)
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


def _run(
    real: BlockRealization, u: SignalTrajectory, x: np.ndarray, reads, drives
) -> tuple[SignalTrajectory, SignalTrajectory]:
    """Step loop shared by both simulators.

    Node ``i``'s output and next state sum its A and C blocks over the
    node list ``reads[i]``, then its B and D blocks over ``drives[i]``.
    """
    dims = real.dims
    plan = [
        (
            [(j, np.ascontiguousarray(real.a_block(i, j)),
              np.ascontiguousarray(real.c_block(i, j))) for j in reads[i]],
            [(j, np.ascontiguousarray(real.b_block(i, j)),
              np.ascontiguousarray(real.d_block(i, j))) for j in drives[i]],
        )
        for i in range(dims.num_nodes)
    ]
    steps = u.length
    ys = np.zeros((steps, real.p))
    xs = np.zeros((steps, real.n))
    x_seg = [x[s] for s in dims.state_slices]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            u_seg = [u.values[t, s] for s in dims.input_slices]
            nxt = []
            for i, (read, drive) in enumerate(plan):
                xs[t, dims.state_slices[i]] = x_seg[i]
                y_acc = np.zeros(dims.outputs[i])
                x_acc = np.zeros(dims.states[i])
                for j, a_ij, c_ij in read:
                    y_acc += c_ij @ x_seg[j]
                    x_acc += a_ij @ x_seg[j]
                for j, b_ij, d_ij in drive:
                    y_acc += d_ij @ u_seg[j]
                    x_acc += b_ij @ u_seg[j]
                ys[t, dims.output_slices[i]] = y_acc
                nxt.append(x_acc)
            x_seg = nxt
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
    u = _coerce_input(real, u)
    x = _coerce_state(real, x0)
    nodes = range(real.num_nodes)
    reads = [[j for j in nodes if np.any(real.a_block(i, j)) or np.any(real.c_block(i, j))]
             for i in nodes]
    drives = [[j for j in nodes if np.any(real.b_block(i, j)) or np.any(real.d_block(i, j))]
              for i in nodes]
    return _run(real, u, x, reads, drives)


def simulate_distributed(
    real: BlockRealization,
    graph: NetworkGraph,
    u,
    x0=None,
    access_log: list | None = None,
) -> tuple[SignalTrajectory, SignalTrajectory, int]:
    """Per-node simulation that only reads state along declared edges.

    The plan gives node ``i`` the states of its in-neighbors and its own
    input, and nothing else, so a read off an edge cannot happen.  Pass
    ``access_log`` to receive the ``(step, reader, source)`` state reads
    of the plan, ordered by step, then reader, then source.  Requires
    strict compatibility.  Outputs equal :func:`simulate_lti` under
    array equality, and the returned message count, one per non-self
    edge per step, is ``steps * number of non-self edges``.
    """
    report = check_compatibility(real, graph, DMode.STRICT)
    if not report.ok:
        worst = ", ".join(
            f"{v.matrix}{v.block}" for v in report.violations[:4])
        raise InputError(
            f"realization is not strictly compatible with the graph ({worst})")
    u = _coerce_input(real, u)
    x = _coerce_state(real, x0)
    count = real.num_nodes
    reads = [[] for _ in range(count)]
    for i, j in graph.sorted_edges():
        reads[i].append(j)
    y, xs = _run(real, u, x, reads, [[i] for i in range(count)])
    if access_log is not None:
        access_log.extend(
            (t, i, j) for t, i in product(range(u.length), range(count)) for j in reads[i])
    return y, xs, u.length * graph.num_non_self_edges


def simulate_imc_loop(
    plant: BlockRealization,
    model: BlockRealization,
    q: BlockRealization,
    reference,
    output_disturbance=None,
) -> tuple[SignalTrajectory, SignalTrajectory, SignalTrajectory]:
    """Closed-loop run of the internal-model structure.

    The controller carries its own copy of ``model`` and the design
    parameter ``q``; the actuation is ``u = q(r + model(u) - y)`` where
    ``y`` is the (possibly disturbed) plant output.  Both plant and
    model must be strictly proper, which breaks the algebraic loop.

    Returns ``(u, y, prediction_error)`` where the prediction error is
    the model output minus the measured output.  With ``model`` equal to
    ``plant`` and no disturbance it is identically zero.  Raises
    :class:`~netreal.errors.NumericalError` if the run diverges.
    """
    _check_pair(plant, q, "design parameter")
    _check_pair(model, q, "design parameter")
    if not isinstance(reference, SignalTrajectory):
        reference = SignalTrajectory(reference, model.dims.outputs, "r")
    if reference.partition != model.dims.outputs:
        raise InputError(
            f"reference partition {reference.partition} does not match outputs "
            f"{model.dims.outputs}")
    steps = reference.length
    if output_disturbance is None:
        output_disturbance = SignalTrajectory.zeros(model.dims.outputs, steps, "d")
    elif not isinstance(output_disturbance, SignalTrajectory):
        output_disturbance = SignalTrajectory(
            output_disturbance, model.dims.outputs, "d")
    if output_disturbance.partition != model.dims.outputs:
        raise InputError("disturbance partition does not match outputs")
    if output_disturbance.length != steps:
        raise InputError(
            f"disturbance length {output_disturbance.length} does not match "
            f"reference length {steps}")

    x = np.zeros(plant.n)
    x_hat = np.zeros(model.n)
    xi = np.zeros(q.n)
    us = np.zeros((steps, plant.m))
    ys = np.zeros((steps, plant.p))
    errs = np.zeros((steps, plant.p))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            y = plant.C @ x + output_disturbance.values[t]
            y_hat = model.C @ x_hat
            prediction = y_hat - y
            v = reference.values[t] + prediction
            u = q.C @ xi + q.D @ v
            us[t] = u
            ys[t] = y
            errs[t] = prediction
            x = plant.A @ x + plant.B @ u
            x_hat = model.A @ x_hat + model.B @ u
            xi = q.A @ xi + q.B @ v
    _check_finite(us, ys, errs)
    return (
        SignalTrajectory(us, plant.dims.inputs, "u"),
        SignalTrajectory(ys, plant.dims.outputs, "y"),
        SignalTrajectory(errs, plant.dims.outputs, "prediction_error"),
    )
