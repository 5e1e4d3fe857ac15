"""Closed-loop assembly for a plant/controller feedback pair.

For a strictly proper plant P (m inputs, p outputs per the node
partition) and a controller C mapping p-channels to m-channels, the loop
equations are packed into the block system ``[[I, -P], [C, I]]`` as one
realization with per-node stacked channels and inverted in realization
form.  The four blocks of the inverse are the classical closed-loop maps

    (1,1)  (I + PC)^{-1}          (1,2)  P (I + CP)^{-1}
    (2,1)  -C (I + PC)^{-1}       (2,2)  (I + CP)^{-1}

and the negated (2,1) block is the controller's feedback parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import invert, node_major_indices
from .errors import InputError, PoleError
from .graphs import NodeDims
from .realization import (
    BlockRealization,
    _certified_solve,
    circle_samples,
    eval_transfer,
    scaled_deviation,
    spectral_radius,
)

_IDENTITY_COND_LIMIT = 1e12


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
        positions = np.argsort(node_major_indices(self.p_dims, self.m_dims))
        split = sum(self.p_dims)
        return positions[:split] if group == 1 else positions[split:]

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


def close_loop(
    plant: BlockRealization,
    controller: BlockRealization,
    cond_limit: float = 1e8,
) -> ClosedLoop:
    """Solve the feedback loop of a strictly proper plant and a controller.

    Assembles ``[[I, -P], [C, I]]`` as a single realization (states and
    channels interleaved node-major) and inverts it.  Because the plant
    is strictly proper the pre-inversion direct term is unit
    block-triangular per node, hence always invertible; ``cond_limit``
    still guards against a pathological controller direct term.
    """
    _check_pair(plant, controller, "controller")
    n_p, n_c = plant.n, controller.n
    p, m = plant.p, plant.m

    a = np.zeros((n_p + n_c, n_p + n_c))
    a[:n_p, :n_p] = plant.A
    a[n_p:, n_p:] = controller.A
    b = np.zeros((n_p + n_c, p + m))
    b[:n_p, p:] = plant.B
    b[n_p:, :p] = controller.B
    c = np.zeros((p + m, n_p + n_c))
    c[:p, :n_p] = -plant.C
    c[p:, n_p:] = controller.C
    d = np.zeros((p + m, p + m))
    d[:p, :p] = np.eye(p)
    d[p:, p:] = np.eye(m)
    d[p:, :p] = controller.D

    state_perm = node_major_indices(plant.dims.states, controller.dims.states)
    chan_perm = node_major_indices(plant.dims.outputs, plant.dims.inputs)
    chan = tuple(pk + mk for pk, mk in zip(plant.dims.outputs, plant.dims.inputs))
    dims = NodeDims(
        tuple(x + y for x, y in zip(plant.dims.states, controller.dims.states)),
        chan,
        chan,
    )
    stacked = BlockRealization(
        dims,
        a[np.ix_(state_perm, state_perm)],
        b[np.ix_(state_perm, chan_perm)],
        c[np.ix_(chan_perm, state_perm)],
        d[np.ix_(chan_perm, chan_perm)],
    )
    closed = invert(stacked, cond_limit)
    return ClosedLoop(closed, plant.dims.outputs, plant.dims.inputs)


def q_param(
    plant: BlockRealization,
    controller: BlockRealization,
    cond_limit: float = 1e8,
) -> BlockRealization:
    """Feedback parameter ``C (I + PC)^{-1}`` of the closed loop.

    Extracted as the negated (2,1) channel block; channel selection
    restricts B/D columns and C/D rows per node, so block-diagonal
    input structure is preserved.
    """
    loop = close_loop(plant, controller, cond_limit)
    sub = loop.block(2, 1)
    return BlockRealization(sub.dims, sub.A, sub.B, -sub.C, -sub.D)


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

    At sample frequencies z on a circle enclosing all poles, with
    ``L = I + P(z) C(z)``:

    * ``L^{-1} = I - P(z) C(z) L^{-1}``
    * ``[[L, 0], [C(z), I]]^{-1} = [[L^{-1}, 0], [-C(z) L^{-1}, I]]``

    Ill-conditioned sample points are pushed outward and retried.
    Returns the worst deviation per identity; passes when every
    deviation is at most ``rel_tol``.
    """
    _check_pair(plant, controller, "controller")
    p, m = plant.p, plant.m
    eye_p = np.eye(p)
    eye_m = np.eye(m)

    def deviations(z):
        p_z = eval_transfer(plant, z)
        c_z = eval_transfer(controller, z)
        loop = eye_p + p_z @ c_z
        _, loop_inv = _certified_solve(
            loop, None, _IDENTITY_COND_LIMIT,
            lambda cond: PoleError(f"I + PC ill-conditioned at z = {z}"))
        rhs = eye_p - p_z @ c_z @ loop_inv

        tri = np.zeros((p + m, p + m), dtype=complex)
        tri[:p, :p] = loop
        tri[p:, :p] = c_z
        tri[p:, p:] = eye_m
        expected = np.zeros_like(tri)
        expected[:p, :p] = loop_inv
        expected[p:, :p] = -c_z @ loop_inv
        expected[p:, p:] = eye_m
        return (scaled_deviation(loop_inv, rhs),
                scaled_deviation(np.linalg.inv(tri), expected))

    gaps, _ = circle_samples((plant, controller), num_points, deviations)
    worst = {
        "inverse-complement": max(g[0] for g in gaps),
        "triangular-inverse": max(g[1] for g in gaps),
    }
    passed = all(v <= rel_tol for v in worst.values())
    return IdentityReport(passed, worst, num_points, rel_tol)
