"""Internal-model controller construction.

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
"""

from __future__ import annotations

import numpy as np

from .algebra import _node_major, multiply
from .loops import _check_pair
from .realization import BlockRealization


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
