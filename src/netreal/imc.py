"""Internal-model control: the controller, the loop it closes, and its run.

The controller wraps a copy of the plant model: for a strictly proper
plant ``(A, B, C)`` and a design parameter ``(E, F, G, H)`` mapping the
predicted-output mismatch to actuation, the loop ``u = q(w + model(u))``
driven by ``w = r - y`` is realized with per-node state pairs
``(model copy, parameter state)``:

    x'[t+1] = (A + B H C) x' + B G xi + B H w
    xi[t+1] = F C x' + E xi + F w
    u       = H C x' + G xi + H w

When B, F and H are block-diagonal and A, C, E, G carry the graph's
sparsity, every nonzero product lands on an edge block, so the
controller passes the strict compatibility check; in all cases the
checker decides.  Blocks with no contributing term come out exactly
zero.  :func:`imc_controller` passes these equations to
:func:`netreal.algebra._node_major` as block grids, which assembles
them and reorders the result node-major, the one home of that layout.

The loop that controller closes around the plant, with a model
``(A_m, B_m, C_m)`` that may differ from it, is one more such
composite, which :func:`simulate_imc_loop` runs.  Write
``dA = A_m - A``, ``dB = B_m - B`` and ``dC = C_m - C``.  Per node its
states are the plant state ``x``, the model error ``e = x_m - x`` and
the parameter state ``xi``; its inputs are the reference ``r`` and the
output disturbance ``d``; its outputs are the actuation ``u``, the
measured output ``y`` and the prediction error ``eps = C_m x_m - y``:

    u       = H dC x + H C_m e + G xi + H r - H d
    y       = C x + d
    eps     = dC x + C_m e - d
    x[t+1]  = A x + B u
    e[t+1]  = dA x + A_m e + dB u
    xi[t+1] = E xi + F (r + eps)

When the model's matrices equal the plant's, every difference is
exactly zero, so ``e`` stays exactly zero and ``eps`` is exactly
``-d``, with no rounding.  A model whose per-node state counts differ
from the plant's is compared after both are padded with zero states to
the larger count per node.
"""

from __future__ import annotations

import numpy as np

from .algebra import _node_major, _part_positions, multiply, node_major_indices
from .graphs import _frozen
from .loops import _check_pair
from .realization import BlockRealization
from .sim import SignalTrajectory, _coerce_signal, _simulate


def imc_controller(plant: BlockRealization, q: BlockRealization) -> BlockRealization:
    """Controller realization of ``Q (I - P Q)^{-1}`` driven by ``r - y``.

    ``q`` maps plant-output-sized signals to plant-input-sized signals.
    Node ``k`` of the result holds ``(plant-model state, parameter state)``;
    its input is the per-node reference error and its output the per-node
    actuation.
    """
    _check_pair(plant, q, "design parameter")
    a, b, c = plant.A, plant.B, plant.C
    e, f, g, h = q.A, q.B, q.C, q.D
    with np.errstate(over="ignore", invalid="ignore"):
        bh = b @ h
        return _node_major(
            [[a + bh @ c, b @ g], [f @ c, e]], [[bh], [f]], [[h @ c, g]], [[h]],
            (plant.dims.states, q.dims.states), (plant.dims.outputs,), (plant.dims.inputs,))


def _imc_loop(
    plant: BlockRealization, model: BlockRealization, q: BlockRealization
) -> BlockRealization:
    """The internal-model loop from ``(r, d)`` to ``(u, y, eps)``, as above.

    Node ``k`` of the result holds ``(x, e, xi)``, its inputs
    ``(r, d)`` and its outputs ``(u, y, eps)``.  The callers check
    ``plant`` and ``model`` against ``q`` with ``_check_pair``.
    """
    states = tuple(map(max, plant.dims.states, model.dims.states))
    plant, model = (
        _node_major(
            [[real.A, None], [None, None]], [[real.B], [None]], [[real.C, None]], [[real.D]],
            (real.dims.states, tuple(k - n for k, n in zip(states, real.dims.states))),
            (real.dims.inputs,), (real.dims.outputs,))
        for real in (plant, model))
    a, b, c = plant.A, plant.B, plant.C
    a_m, c_m = model.A, model.C
    e, f, g, h = q.A, q.B, q.C, q.D
    outputs = plant.dims.outputs
    eye = np.eye(plant.p)
    with np.errstate(over="ignore", invalid="ignore"):
        da, db, dc = a_m - a, model.B - b, c_m - c
        # u = h_x x + h_e e + G xi + H r - H d
        h_x, h_e = h @ dc, h @ c_m
        bh, dbh = b @ h, db @ h
        return _node_major(
            [[a + b @ h_x, b @ h_e, b @ g],
             [da + db @ h_x, a_m + db @ h_e, db @ g],
             [f @ dc, f @ c_m, e]],
            [[bh, -bh], [dbh, -dbh], [f, -f]],
            [[h_x, h_e, g], [c, None, None], [dc, c_m, None]],
            [[h, -h], [None, eye], [None, -eye]],
            (states, states, q.dims.states), (outputs, outputs),
            (plant.dims.inputs, outputs, outputs))


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

    The loop is built as one realization from ``(reference,
    disturbance)`` to ``(u, y, prediction_error)``, whose equations the
    module docstring gives, and run as :func:`~netreal.sim.simulate_lti`
    runs it, without building the loop's state trajectory.
    Returns ``(u, y, prediction_error)`` where the prediction error is
    the model output minus the measured output.  When the model's
    matrices equal the plant's it is exactly minus the disturbance, so
    exactly zero without one.  Raises
    :class:`~netreal.errors.NumericalError` if the run diverges.
    """
    _check_pair(plant, q, "design parameter")
    _check_pair(model, q, "design parameter")
    outputs = model.dims.outputs
    reference = _coerce_signal(reference, outputs, "reference")
    steps = reference.length
    if output_disturbance is None:
        output_disturbance = SignalTrajectory.zeros(outputs, steps, "disturbance")
    output_disturbance = _coerce_signal(output_disturbance, outputs, "disturbance", steps)

    loop = _imc_loop(plant, model, q)
    # Each array below is a fresh gather, frozen so its trajectory keeps it.
    inputs = np.hstack([reference.values, output_disturbance.values]).take(
        node_major_indices(outputs, outputs), axis=1)
    out, _, _ = _simulate(
        loop, SignalTrajectory(_frozen(inputs), loop.dims.inputs, "input"), states=False)
    parts = (plant.dims.inputs, outputs, outputs)
    return tuple(
        SignalTrajectory(_frozen(out.values.take(at, axis=1)), part, name)
        for at, part, name in zip(_part_positions(parts), parts, ("u", "y", "prediction_error")))


def ideal_maps(
    plant: BlockRealization, q: BlockRealization
) -> tuple[BlockRealization, BlockRealization]:
    """Exact-model closed-loop maps ``(r -> u, r -> y)``.

    With the model matching the plant the loop collapses: the reference
    drives the actuation through ``q`` alone and the output through the
    series system, so the maps are ``q`` itself and ``plant . q``.
    """
    _check_pair(plant, q, "design parameter")
    return q, multiply(plant, q)
