import numpy as np
import pytest

from netreal import (
    BlockRealization,
    DMode,
    InputError,
    NodeDims,
    check_compatibility,
    eval_transfer,
    ideal_maps,
    imc_controller,
    multiply,
    q_param,
    scaled_deviation,
    transfer_equal,
)
from netreal.imc import _imc_loop
from _support import random_imc_case, random_loop_pair, random_system

# hand-assembled controller for the cascade plant with the packaged
# design parameter: per node the states interleave (plant copy, parameter)
EXPECTED_A = np.array([
    [0.9, -0.2, 0.0, 0.0, 0.0, 0.0],
    [1.0, 0.5, 0.0, 0.0, 0.0, 0.0],
    [0.1, 0.2, 0.8, -0.2, 0.0, 0.0],
    [0.0, 0.1, 1.0, 0.5, 0.0, 0.0],
    [0.0, 0.0, 0.2, 0.2, 0.7, -0.2],
    [0.0, 0.0, 0.0, 0.1, 1.0, 0.5],
])
EXPECTED_B = np.zeros((6, 3))
EXPECTED_B[1, 0] = EXPECTED_B[3, 1] = EXPECTED_B[5, 2] = 1.0
EXPECTED_C = np.zeros((3, 6))
EXPECTED_C[0, 1] = EXPECTED_C[1, 3] = EXPECTED_C[2, 5] = 0.2


def test_cascade_controller_matrices_exact(river, river_q):
    plant, graph = river
    controller = imc_controller(plant, river_q)
    assert controller.dims.states == (2, 2, 2)
    assert controller.dims.inputs == plant.dims.outputs
    assert controller.dims.outputs == plant.dims.inputs
    assert np.array_equal(controller.A, EXPECTED_A)
    assert np.array_equal(controller.B, EXPECTED_B)
    assert np.array_equal(controller.C, EXPECTED_C)
    assert not controller.D.any()
    assert check_compatibility(controller, graph, DMode.STRICT).ok


def test_controller_transfer_is_q_times_inverse_model(river, river_q):
    plant, _ = river
    controller = imc_controller(plant, river_q)
    for z in (2.2, -1.7, 1.4 + 1.1j):
        p_z = eval_transfer(plant, z)
        q_z = eval_transfer(river_q, z)
        want = q_z @ np.linalg.inv(np.eye(3) - p_z @ q_z)
        assert scaled_deviation(eval_transfer(controller, z), want) < 1e-10


@pytest.mark.parametrize("gain", [1e3, 1e5])
def test_high_gain_controller_is_q_times_inverse_model(river_wide, river_q, gain):
    plant, _ = river_wide
    q = BlockRealization(river_q.dims, river_q.A, river_q.B, river_q.C, gain * np.eye(3))
    controller = imc_controller(plant, q)
    for z in (2.2, -1.7, 1.4 + 1.1j):
        p_z = eval_transfer(plant, z)
        q_z = eval_transfer(q, z)
        want = q_z @ np.linalg.inv(np.eye(3) - p_z @ q_z)
        assert scaled_deviation(eval_transfer(controller, z), want) < 1e-9


def test_roundtrip_recovers_design_parameter(river, river_q):
    plant, _ = river
    controller = imc_controller(plant, river_q)
    recovered = q_param(plant, controller)
    assert transfer_equal(recovered, river_q, rel_tol=1e-10).equal


def test_roundtrip_on_random_pairs(rng):
    done = 0
    while done < 8:
        plant, q, _ = random_loop_pair(rng)
        if plant.p == 0 or plant.m == 0:
            continue
        controller = imc_controller(plant, q)
        recovered = q_param(plant, controller)
        assert transfer_equal(recovered, q, rel_tol=1e-8).equal
        done += 1


def test_controller_inherits_strict_compatibility(rng):
    from _support import random_graph

    done = 0
    while done < 8:
        plant, q, graph = random_loop_pair(rng)
        controller = imc_controller(plant, q)
        assert check_compatibility(controller, graph).ok
        done += 1


@pytest.mark.parametrize("self_loops", [True, False])
def test_imc_loop_inherits_strict_compatibility(rng, self_loops):
    for k in range(12):
        plant, q, graph = random_imc_case(rng, self_loops=self_loops, zero_width=k % 2 == 1)
        states = tuple(int(v) for v in rng.integers(0, 4, plant.num_nodes))
        model = random_system(
            rng, graph, NodeDims(states, plant.dims.inputs, plant.dims.outputs),
            strictly_proper=True)
        loop = _imc_loop(plant, model, q)
        assert check_compatibility(loop, graph, DMode.STRICT).ok


def test_ideal_maps_returns_parameter_and_cascade(river, river_q):
    plant, _ = river
    r_to_u, r_to_y = ideal_maps(plant, river_q)
    assert r_to_u is river_q
    reference = multiply(plant, river_q)
    assert transfer_equal(r_to_y, reference, rel_tol=1e-12).equal
    assert r_to_y.dims.inputs == plant.dims.outputs
    assert r_to_y.dims.outputs == plant.dims.outputs


def test_imc_rejects_bad_shapes(river, river_q):
    plant, _ = river
    direct = BlockRealization(
        plant.dims, A=plant.A, B=plant.B, C=plant.C, D=np.eye(3))
    with pytest.raises(InputError):
        imc_controller(direct, river_q)
    wrong = BlockRealization(
        NodeDims((1, 1), (1, 1), (1, 1)), A=np.eye(2) * 0.5)
    with pytest.raises(InputError):
        imc_controller(plant, wrong)
    wide_in = BlockRealization(NodeDims((1, 1, 1), (1, 2, 1), (1, 1, 1)), A=np.eye(3) * 0.5)
    with pytest.raises(InputError, match="input counts must match plant output counts"):
        imc_controller(plant, wide_in)
