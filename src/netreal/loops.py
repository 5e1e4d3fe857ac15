"""Closed-loop assembly for a plant/controller feedback pair.

For a strictly proper plant P (m inputs, p outputs per the node
partition) and a controller C mapping p-channels to m-channels, the
closed loop is the inverse of the loop system ``[[I, -P], [C, I]]``.
Its four channel blocks are the classical closed-loop maps

    (1,1)  (I + PC)^{-1}          (1,2)  P (I + CP)^{-1}
    (2,1)  -C (I + PC)^{-1}       (2,2)  (I + CP)^{-1}

and the negated (2,1) block is the controller's feedback parameter.
The loop system's direct term ``[[I, 0], [D_C, I]]`` has the exact
inverse ``[[I, 0], [-D_C, I]]``, so :func:`close_loop` writes the
inverse as its block formula, solving nothing, and passes it to
:func:`netreal.algebra._node_major`, the one home of the node-major
layout; :class:`ClosedLoop` reads its channel groups back through
:func:`netreal.algebra._part_positions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _node_major, _part_positions
from .errors import InputError, PoleError
from .graphs import NodeDims
from .realization import (
    POLE_COND_LIMIT,
    BlockRealization,
    _certified_inverse,
    _require_tolerance,
    circle_samples,
    scaled_deviation,
    spectral_radius,
)


def _check_pair(plant: BlockRealization, other: BlockRealization, role: str) -> None:
    """Require a strictly proper plant and ``other`` mapping its outputs to its inputs."""
    if plant.num_nodes != other.num_nodes:
        raise InputError(
            f"plant has {plant.num_nodes} nodes, {role} has {other.num_nodes}")
    if np.any(plant.D):
        raise InputError("plant must be strictly proper (zero direct term)")
    if other.dims.inputs != plant.dims.outputs:
        raise InputError(
            f"{role} per-node input counts must match plant output counts, "
            f"got {other.dims.inputs} vs {plant.dims.outputs}")
    if other.dims.outputs != plant.dims.inputs:
        raise InputError(
            f"{role} per-node output counts must match plant input counts, "
            f"got {other.dims.outputs} vs {plant.dims.inputs}")


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """All four closed-loop maps as one realization plus a channel map.

    Per node the realization's channels stack the p-sized group first
    (plant-output shaped) and the m-sized group second (plant-input
    shaped); :meth:`block` extracts one of the four maps.
    """

    realization: BlockRealization
    p_dims: tuple[int, ...]
    m_dims: tuple[int, ...]

    def _channel_indices(self, group: int) -> np.ndarray:
        return _part_positions((self.p_dims, self.m_dims))[group - 1]

    def block(self, row: int, col: int) -> BlockRealization:
        """Sub-realization for one channel-group pair, 1-based as displayed above."""
        if row not in (1, 2) or col not in (1, 2):
            raise InputError(f"channel blocks are indexed by (1|2, 1|2), got ({row}, {col})")
        rows = self._channel_indices(row)
        cols = self._channel_indices(col)
        h = self.realization
        dims = NodeDims(
            h.dims.states,
            self.p_dims if col == 1 else self.m_dims,
            self.p_dims if row == 1 else self.m_dims,
        )
        return BlockRealization(
            dims, h.A, h.B[:, cols], h.C[rows, :], h.D[np.ix_(rows, cols)])

    @property
    def spectral_radius(self) -> float:
        return spectral_radius(self.realization)

    @property
    def stable(self) -> bool:
        return self.spectral_radius < 1.0


def close_loop(plant: BlockRealization, controller: BlockRealization) -> ClosedLoop:
    """Solve the feedback loop of a strictly proper plant and a controller.

    Per node the states are (plant, controller) and the channels
    (p-group, m-group); the inverse of ``[[I, -P], [C, I]]`` is

        A = [[A_P - B_P D_C C_P, -B_P C_C], [B_C C_P, A_C]]
        B = [[-B_P D_C, B_P], [B_C, 0]]
        C = [[C_P, 0], [-D_C C_P, -C_C]]
        D = [[I, 0], [-D_C, I]]
    """
    _check_pair(plant, controller, "controller")
    chan = (plant.dims.outputs, plant.dims.inputs)
    a_p, b_p, c_p = plant.A, plant.B, plant.C
    a_c, b_c, c_c, d_c = controller.A, controller.B, controller.C, controller.D
    with np.errstate(over="ignore", invalid="ignore"):
        bd = b_p @ d_c
        closed = _node_major(
            [[a_p - bd @ c_p, -(b_p @ c_c)], [b_c @ c_p, a_c]],
            [[-bd, b_p], [b_c, None]],
            [[c_p, None], [-(d_c @ c_p), -c_c]],
            [[np.eye(plant.p), None], [-d_c, np.eye(plant.m)]],
            (plant.dims.states, controller.dims.states), chan, chan)
    return ClosedLoop(closed, plant.dims.outputs, plant.dims.inputs)


def q_param(plant: BlockRealization, controller: BlockRealization) -> BlockRealization:
    """Feedback parameter ``C (I + PC)^{-1}`` of the closed loop.

    Extracted as the negated (2,1) channel block; channel selection
    restricts B/D columns and C/D rows per node, so block-diagonal
    input structure is preserved.
    """
    loop = close_loop(plant, controller)
    sub = loop.block(2, 1)
    return BlockRealization(sub.dims, sub.A, sub.B, -sub.C, -sub.D)


def _loop_inverse(p_z: np.ndarray, c_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``L = I + P(z) C(z)`` and ``L^{-1}`` at one sample point.

    The one guard of that inverse: :func:`_certified_inverse` raises
    :class:`~netreal.errors.PoleError` when ``cond(L)`` reaches
    ``POLE_COND_LIMIT``, the limit of every sample point, so
    :func:`circle_samples` pushes the point outward.
    """
    loop = np.eye(len(p_z)) + p_z @ c_z
    loop_inv = _certified_inverse(
        loop, POLE_COND_LIMIT,
        lambda cond: PoleError(f"I + PC is ill-conditioned: cond {cond:.3e}"))
    return loop, loop_inv


#: The identities :func:`_identity_deviations` checks, in its order.
_IDENTITIES = ("inverse-complement", "triangular-inverse")


def _identity_deviations(p_z: np.ndarray, c_z: np.ndarray) -> tuple[float, float]:
    """Deviations of the two closed-loop identities at one sample point.

    With ``L = I + P(z) C(z)`` from :func:`_loop_inverse`:

    * ``L^{-1} = I - P(z) C(z) L^{-1}``
    * ``[[L, 0], [C(z), I]]^{-1} = [[L^{-1}, 0], [-C(z) L^{-1}, I]]``
    """
    p, m = p_z.shape
    zero, eye_m = np.zeros((p, m)), np.eye(m)
    loop, loop_inv = _loop_inverse(p_z, c_z)
    rhs = np.eye(p) - p_z @ c_z @ loop_inv
    tri = np.block([[loop, zero], [c_z, eye_m]])
    expected = np.block([[loop_inv, zero], [-c_z @ loop_inv, eye_m]])
    return (scaled_deviation(loop_inv, rhs),
            scaled_deviation(np.linalg.inv(tri), expected))


@dataclass(frozen=True)
class IdentityReport:
    passed: bool
    deviations: dict[str, float]
    num_points: int
    rel_tol: float


def verify_identities(
    plant: BlockRealization,
    controller: BlockRealization,
    num_points: int = 16,
    rel_tol: float = 1e-8,
) -> IdentityReport:
    """Check the two closed-loop matrix identities pointwise.

    At ``num_points`` sample frequencies z on a circle enclosing all
    poles, :func:`circle_samples` evaluates the plant and the controller
    and passes their values to :func:`_identity_deviations`; points where
    ``I + P(z) C(z)`` is ill-conditioned are pushed outward and retried.
    The points come in conjugate pairs, where the deviations are equal,
    so only the ``num_points // 2 + 1`` of the upper half are evaluated.
    Returns the worst deviation per identity, as :func:`circle_samples`
    keeps it; passes when every deviation is at most ``rel_tol``.
    """
    _check_pair(plant, controller, "controller")
    _require_tolerance(rel_tol, "rel_tol")
    worst, _ = circle_samples((plant, controller), num_points, _identity_deviations)
    passed = all(v <= rel_tol for v in worst)
    return IdentityReport(passed, dict(zip(_IDENTITIES, worst)), num_points, rel_tol)
