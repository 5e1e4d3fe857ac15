import warnings

import numpy as np
import pytest

from netreal import (
    BlockRealization,
    InputError,
    NodeDims,
    NumericalError,
    SignalTrajectory,
    build_graph,
    multiply,
    simulate_distributed,
    simulate_imc_loop,
    simulate_lti,
)
from netreal.sim import _coerce_state, _plan
from _support import (
    oracle_grid_node_major,
    oracle_imc_loop,
    random_dims,
    random_graph,
    random_imc_case,
    random_system,
)


def test_trajectory_validation():
    with pytest.raises(InputError):
        SignalTrajectory(np.zeros((4, 3)), (1, 1))
    with pytest.raises(InputError):
        SignalTrajectory([[np.nan, 0.0]], (1, 1))
    with pytest.raises(InputError, match="trajectory values are not numeric"):
        SignalTrajectory([[10**400 - 1, 0.0]], (1, 1))
    with pytest.raises(InputError):
        SignalTrajectory(np.zeros((2, 2)), (1, -1))
    for bad in ("11", 2, None, ("a",), (1.0, 1), (True, 1), (2**62,)):
        with pytest.raises(InputError, match="partition"):
            SignalTrajectory(np.zeros((2, 2)), bad)
    traj = SignalTrajectory.zeros((2, 0, 1), 5, "u")
    assert traj.length == 5 and traj.width == 3
    assert traj.node_slice(0) == slice(0, 2)
    assert traj.node_slice(1) == slice(2, 2)
    with pytest.raises(InputError):
        traj.node_slice(3)
    with pytest.raises(ValueError):
        traj.values[0, 0] = 1.0


def test_zeros_length_is_a_nonnegative_integer():
    """``length`` follows the rule of every other count: no strings, floats or booleans."""
    for bad, message in (("3", "length must be an integer, got '3'"),
                         (2.9, "length must be an integer, got 2.9"),
                         (True, "length must be an integer, got True"),
                         (-1, "length must be nonnegative, got -1")):
        with pytest.raises(InputError) as info:
            SignalTrajectory.zeros((2, 0, 1), bad)
        assert str(info.value) == message
    for length in (0, 3, np.int64(3)):
        traj = SignalTrajectory.zeros((2, 0, 1), length, "u")
        assert traj.values.shape == (int(length), 3) and traj.name == "u"
        assert not traj.values.any()


#: Entries that are not numbers, and the reason each refusal ends with.
_NOT_NUMBERS = (("0.5", "a string"), (True, "true or false"), (None, "null"),
                (0.5j, "a complex number"), (1 + 0j, "a complex number"))


def test_library_inputs_follow_the_file_readers_number_rule():
    """Matrices, trajectory values and initial states refuse what system files refuse.

    A string, a boolean array, ``None`` or a complex number raises
    InputError naming what it holds, given as a list, as an array or
    (but for the boolean) as an object array, without a ComplexWarning;
    floats, integers and float32 still convert to float64, into memory
    the caller's array does not share.
    """
    graph = build_graph(1, [(0, 0)])
    dims = NodeDims((1,), (1,), (1,))
    plant = BlockRealization(dims, A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    u = np.ones((3, 1))
    inputs = {
        "A": lambda value: BlockRealization(dims, A=value, B=[[1.0]], C=[[1.0]], D=[[0.0]]),
        "trajectory": lambda value: SignalTrajectory(value, (1,)),
        "initial state": lambda value: simulate_lti(plant, u, value),
        "distributed initial state": lambda value: simulate_distributed(plant, graph, u, value),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry, holds in _NOT_NUMBERS:
            for build in inputs.values():
                forms = [[[entry]], np.array([[entry]])]
                if entry is not True:
                    forms.append(np.array([[entry]], dtype=object))
                for value in forms:
                    with pytest.raises(InputError, match=f"numeric.*: it holds {holds}$"):
                        build(value)
    want = simulate_lti(plant, u, [0.25])
    for value in ([[0.25]], [[1]], np.array([[0.25]]), np.array([[1]]),
                  np.array([[0.25]], dtype=np.float32), np.array([[0.25]]).T):
        real = inputs["A"](value)
        traj = inputs["trajectory"](value)
        x0 = _coerce_state(plant, value)
        for got in (real.A, traj.values, x0):
            assert got.dtype == np.float64 and not np.shares_memory(got, value)
            assert got.ravel().tolist() == np.asarray(value, dtype=float).ravel().tolist()
        if value[0][0] == 0.25:
            for run in (inputs["initial state"], inputs["distributed initial state"]):
                assert all(np.array_equal(a.values, b.values)
                           for a, b in zip(run(value), want))


def test_simulate_scalar_recursion_exact():
    real = BlockRealization(
        NodeDims((1,), (1,), (1,)), A=[[0.5]], B=[[2.0]], C=[[3.0]], D=[[0.25]])
    u = np.array([[1.0], [0.0], [-1.0], [0.5]])
    y, x = simulate_lti(real, u)
    xs, ys = 0.0, []
    for t in range(4):
        ys.append(3.0 * xs + 0.25 * u[t, 0])
        xs = 0.5 * xs + 2.0 * u[t, 0]
    assert np.array_equal(y.values[:, 0], ys)
    assert x.values[0, 0] == 0.0
    assert x.values[1, 0] == 2.0


def test_simulate_initial_state_and_errors(river):
    real, _ = river
    u = np.zeros((3, 3))
    y, x = simulate_lti(real, u, x0=[1.0, 0.0, 0.0])
    assert y.values[0, 0] == 1.0
    assert y.values[1, 0] == 0.9
    with pytest.raises(InputError):
        simulate_lti(real, u, x0=[1.0])
    for bad in ("abc", [10**400 - 1, 0.0, 0.0]):
        with pytest.raises(InputError, match="initial state is not numeric"):
            simulate_lti(real, u, x0=bad)
    with pytest.raises(InputError):
        simulate_lti(real, np.zeros((3, 2)))
    with pytest.raises(InputError):
        simulate_lti(real, SignalTrajectory(np.zeros((3, 2)), (1, 1)))


def test_distributed_requires_strict_compatibility(river):
    real, graph = river
    with pytest.raises(InputError):
        simulate_distributed(real, graph, np.zeros((2, 3)))


def test_distributed_matches_centralized_bitwise(river_wide, rng):
    real, graph = river_wide
    u = SignalTrajectory(rng.normal(size=(40, 3)), (1, 1, 1), "u")
    x0 = rng.normal(size=5)
    y_c, x_c = simulate_lti(real, u, x0)
    y_d, x_d, messages = simulate_distributed(real, graph, u, x0)
    assert np.array_equal(y_c.values, y_d.values)
    assert np.array_equal(x_c.values, x_d.values)
    assert messages == 40 * graph.num_non_self_edges


def _dense_recursion(real, u, x0):
    x, ys = x0.copy(), []
    for u_t in u:
        ys.append(real.C @ x + real.D @ u_t)
        x = real.A @ x + real.B @ u_t
    return np.array(ys).reshape(len(u), real.p)


def test_distributed_matches_centralized_on_random_systems(rng):
    for k in range(24):
        graph = random_graph(rng, int(rng.integers(2, 5)), self_loops=k % 2 == 0)
        dims = random_dims(rng, graph.num_nodes)
        real = random_system(rng, graph, dims, rho=0.8)
        u = SignalTrajectory(
            rng.normal(size=(25, dims.m_total)), dims.inputs, "u")
        x0 = rng.normal(size=dims.n_total)
        y_c, x_c = simulate_lti(real, u, x0)
        y_d, x_d, _ = simulate_distributed(real, graph, u, x0)
        assert np.array_equal(y_c.values, y_d.values)
        assert np.array_equal(x_c.values, x_d.values)
        y_ref = _dense_recursion(real, u.values, x0)
        scale = max(1.0, float(np.max(np.abs(y_ref), initial=0.0)))
        assert np.max(np.abs(y_c.values - y_ref), initial=0.0) <= 1e-12 * scale


MIXED_DIMS = NodeDims((16, 0, 1, 1, 0), (2, 1, 0, 1, 3), (3, 1, 1, 0, 2))


def _check_plan_run(real, graph, u, x0):
    y_c, x_c = simulate_lti(real, u, x0)
    y_d, x_d, messages = simulate_distributed(real, graph, u, x0)
    assert np.array_equal(y_c.values, y_d.values)
    assert np.array_equal(x_c.values, x_d.values)
    y_ref = _dense_recursion(real, u.values, x0)
    scale = max(1.0, float(np.max(np.abs(y_ref), initial=0.0)))
    assert np.max(np.abs(y_c.values - y_ref), initial=0.0) <= 1e-12 * scale
    assert x_c.values.shape == (u.length, real.n)
    assert messages == u.length * graph.num_non_self_edges
    return y_c, x_c


def test_kernel_pads_mixed_node_sizes(rng):
    count = MIXED_DIMS.num_nodes
    for k in range(8):
        graph = random_graph(rng, count, self_loops=k % 2 == 0)
        real = random_system(rng, graph, MIXED_DIMS, rho=0.9)
        u = SignalTrajectory(
            rng.normal(size=(30, MIXED_DIMS.m_total)), MIXED_DIMS.inputs, "u")
        _check_plan_run(real, graph, u, rng.normal(size=MIXED_DIMS.n_total))


def test_kernel_runs_an_empty_plan(rng):
    # No nonzero block and no edge: neither simulator plans a state read.
    real = BlockRealization(MIXED_DIMS)
    graph = build_graph(MIXED_DIMS.num_nodes, [])
    u = SignalTrajectory(rng.normal(size=(6, MIXED_DIMS.m_total)), MIXED_DIMS.inputs, "u")
    x0 = rng.normal(size=MIXED_DIMS.n_total)
    y, x = _check_plan_run(real, graph, u, x0)
    assert not y.values.any()
    assert np.array_equal(x.values[0], x0) and not x.values[1:].any()


def _planned_entries(real):
    """Entries of each node's rows of [A B; C D] over the columns of its nonzero blocks."""
    occ, dims = real.occupancy, real.dims
    total = 0
    for listed, counts in (((occ.A, occ.C), dims.states), ((occ.B, occ.D), dims.inputs)):
        blocks = {(i, j) for part in listed for i, j in zip(part.rows.tolist(), part.cols.tolist())}
        total += sum((dims.states[i] + dims.outputs[i]) * counts[j] for i, j in blocks)
    return total


def test_kernel_stacks_a_star_without_padding_leaves_to_the_hub(rng):
    """The hub of a 300-node star reads every node; the leaves read one or two.

    Stacking every node at the hub's width would hold about N times the
    planned entries.  Grouped by size, the stack holds at most twice them.
    """
    count = 300
    edges = ([(0, j) for j in range(count)] + [(j, j) for j in range(1, count)]
             + [(j, 0) for j in range(1, count, 3)])
    graph = build_graph(count, edges)
    dims = NodeDims((2,) * count, (1,) * count, (1,) * count)
    real = random_system(rng, graph, dims, rho=0.9)
    planned = _planned_entries(real)
    assert sum(group.blocks.size for group in _plan(real).groups) <= 2 * planned
    u = SignalTrajectory(rng.normal(size=(6, count)), dims.inputs, "u")
    _check_plan_run(real, graph, u, rng.normal(size=dims.n_total))


def test_kernel_pads_one_wide_node_apart_from_the_narrow_ones(rng):
    """A 16-state node among 1-state nodes pads no other node's rows.

    Grouped by size, each node's stacked rows and columns stay below
    twice its own, so the stack holds under 4 times the planned entries.
    """
    dims = NodeDims((16,) + (1,) * 11, (1,) * 12, (1,) * 12)
    for k in range(8):
        graph = random_graph(rng, dims.num_nodes, self_loops=k % 2 == 0)
        real = random_system(rng, graph, dims, rho=0.9)
        stacked = sum(group.blocks.size for group in _plan(real).groups)
        assert stacked < 4 * _planned_entries(real)
        u = SignalTrajectory(rng.normal(size=(7, dims.m_total)), dims.inputs, "u")
        _check_plan_run(real, graph, u, rng.normal(size=dims.n_total))


def test_kernel_counts_messages_on_edges_whose_blocks_are_zero(rng):
    """An edge whose A and C blocks hold only zeros still carries one message a step."""
    for k in range(8):
        graph = random_graph(rng, 6, edge_prob=0.6, self_loops=k % 2 == 0)
        dims = random_dims(rng, 6, min_channels=1)
        real = random_system(rng, graph, dims, rho=0.8)
        a, c = real.A.copy(), real.C.copy()
        remote = [(i, j) for i, j in graph.sorted_edges() if i != j]
        for i, j in remote[::2]:
            a[dims.state_slice(i), dims.state_slice(j)] = 0.0
            c[dims.output_slice(i), dims.state_slice(j)] = 0.0
        real = BlockRealization(dims, a, real.B, c, real.D)
        listed = set(zip(real.occupancy.A.rows.tolist(), real.occupancy.A.cols.tolist()))
        assert not listed & set(remote[::2])
        u = SignalTrajectory(rng.normal(size=(20, dims.m_total)), dims.inputs, "u")
        _check_plan_run(real, graph, u, rng.normal(size=dims.n_total))


ZERO_WIDTH_DIMS = NodeDims((2, 0, 1, 0, 3), (1, 0, 0, 2, 1), (1, 0, 2, 1, 0))


@pytest.mark.parametrize("steps", [0, 1, 2])
@pytest.mark.parametrize("self_loops", [True, False])
def test_kernel_runs_short_horizons_on_zero_width_nodes(rng, steps, self_loops):
    """T = 0 and 1, a node with no state, input or output, and graphs without self-loops."""
    for dims in (ZERO_WIDTH_DIMS, MIXED_DIMS):
        graph = random_graph(rng, dims.num_nodes, self_loops=self_loops)
        real = random_system(rng, graph, dims, rho=0.9)
        u = SignalTrajectory(rng.normal(size=(steps, dims.m_total)), dims.inputs, "u")
        x0 = rng.normal(size=dims.n_total)
        y, x = _check_plan_run(real, graph, u, x0)
        assert y.values.shape == (steps, dims.p_total)
        if steps:
            assert np.array_equal(x.values[0], x0)


def test_kernel_reports_first_diverging_step_on_mixed_sizes():
    dims = MIXED_DIMS
    a = np.zeros((dims.n_total, dims.n_total))
    a[:16, :16] = 10.0 * np.eye(16)
    b = np.zeros((dims.n_total, dims.m_total))
    b[:16, :2] = 1.0
    c = np.zeros((dims.p_total, dims.n_total))
    c[:3, :16] = 1.0
    real = BlockRealization(dims, a, b, c)
    graph = build_graph(dims.num_nodes, [(0, 0), (2, 0), (3, 2)])
    u = np.ones((400, dims.m_total))
    with np.errstate(over="ignore", invalid="ignore"):
        y_ref = _dense_recursion(real, u, np.zeros(dims.n_total))
    first_bad = int(np.argmax(~np.isfinite(y_ref).all(axis=1)))
    assert first_bad > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"step {first_bad}$"):
            simulate_lti(real, u)
        with pytest.raises(NumericalError, match=f"step {first_bad}$"):
            simulate_distributed(real, graph, u)


def test_diverging_run_raises_numerical_error():
    real = BlockRealization(
        NodeDims((1,), (1,), (1,)), A=[[10.0]], B=[[1.0]], C=[[1.0]])
    graph = build_graph(1, [(0, 0)])
    u = np.ones((400, 1))
    x, first_bad = 0.0, None
    for t in range(400):
        if not np.isfinite(x):
            first_bad = t
            break
        x = 10.0 * x + 1.0
    static_q = BlockRealization(NodeDims((0,), (1,), (1,)), D=[[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"step {first_bad}$"):
            simulate_lti(real, u)
        with pytest.raises(NumericalError, match=f"step {first_bad}$"):
            simulate_distributed(real, graph, u)
        with pytest.raises(NumericalError, match=f"step {first_bad}$"):
            simulate_imc_loop(real, real, static_q, u)


def test_imc_loop_exact_model_error_is_zero(river, river_q, rng):
    plant, _ = river
    r = SignalTrajectory(rng.normal(size=(60, 3)), (1, 1, 1), "r")
    u, y, err = simulate_imc_loop(plant, plant, river_q, r)
    assert np.all(err.values == 0.0)
    y_ref, _ = simulate_lti(multiply(plant, river_q), r)
    assert np.max(np.abs(y.values - y_ref.values)) < 1e-10
    u_ref, _ = simulate_lti(river_q, r)
    assert np.max(np.abs(u.values - u_ref.values)) < 1e-10


def test_imc_loop_mismatch_shows_up_in_error(river, river_q):
    plant, _ = river
    drifted = BlockRealization(
        plant.dims, plant.A * 0.95, plant.B, plant.C, plant.D)
    r = SignalTrajectory(np.ones((30, 3)), (1, 1, 1), "r")
    _, _, err = simulate_imc_loop(plant, drifted, river_q, r)
    assert np.max(np.abs(err.values)) > 1e-3


def test_imc_loop_disturbance_feeds_error(river, river_q):
    plant, _ = river
    steps = 20
    r = SignalTrajectory.zeros((1, 1, 1), steps, "r")
    d = SignalTrajectory(np.ones((steps, 3)) * 0.5, (1, 1, 1), "d")
    u, y, err = simulate_imc_loop(plant, plant, river_q, r, d)
    assert err.values[0, 0] == -0.5
    assert np.any(u.values != 0.0)


def test_imc_loop_validates_inputs(river, river_q):
    plant, _ = river
    r = SignalTrajectory.zeros((1, 1, 1), 5, "r")
    direct = BlockRealization(
        plant.dims, plant.A, plant.B, plant.C, np.eye(3))
    with pytest.raises(InputError):
        simulate_imc_loop(direct, plant, river_q, r)
    with pytest.raises(InputError):
        simulate_imc_loop(plant, plant, river_q, np.zeros((5, 2)))
    short = SignalTrajectory.zeros((1, 1, 1), 3, "d")
    with pytest.raises(InputError):
        simulate_imc_loop(plant, plant, river_q, r, short)


def _check_imc_run(rng, plant, model, q, disturbed, steps=40):
    """Run the loop against the dense oracle; returns the prediction error and ``d``."""
    r = rng.normal(size=(steps, plant.p))
    d = rng.normal(size=(steps, plant.p)) if disturbed else np.zeros((steps, plant.p))
    got = simulate_imc_loop(plant, model, q, r, d if disturbed else None)
    for traj, ref in zip(got, oracle_imc_loop(plant, model, q, r, d)):
        scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
        assert np.max(np.abs(traj.values - ref), initial=0.0) <= 1e-12 * scale, traj.name
    return got[2].values, d


def _perturbed(rng, real, spread):
    """``real`` with every entry of A, B and C scaled by its own ``1 + spread * N(0, 1)``."""
    return BlockRealization(real.dims, *(
        mat * (1.0 + spread * rng.normal(size=mat.shape)) for mat in (real.A, real.B, real.C)))


@pytest.mark.parametrize("self_loops", [True, False])
@pytest.mark.parametrize("zero_width", [False, True])
def test_imc_loop_exact_model_error_is_minus_disturbance(rng, self_loops, zero_width):
    for k in range(12):
        plant, q, _ = random_imc_case(rng, self_loops=self_loops, zero_width=zero_width)
        # An equal copy, not the same object.
        model = BlockRealization(plant.dims, plant.A.copy(), plant.B.copy(), plant.C.copy())
        err, d = _check_imc_run(rng, plant, model, q, disturbed=k % 2 == 1)
        assert np.array_equal(err, -d)


@pytest.mark.parametrize("self_loops", [True, False])
def test_imc_loop_mismatched_model_matches_oracle(rng, self_loops):
    for k in range(12):
        plant, q, _ = random_imc_case(rng, self_loops=self_loops, zero_width=k % 2 == 1)
        _check_imc_run(rng, plant, _perturbed(rng, plant, 0.1), q, disturbed=k % 3 == 0)


def test_imc_loop_hidden_model_states_keep_error_zero(rng):
    # The model adds, per node, states that the input cannot reach and the
    # output cannot see: the prediction error stays exactly zero.
    for k in range(12):
        plant, q, _ = random_imc_case(rng, self_loops=k % 2 == 0, zero_width=k % 3 == 0)
        extra = tuple(int(v) for v in rng.integers(1, 3, plant.num_nodes))
        hidden = rng.normal(scale=0.4, size=(sum(extra), sum(extra)))
        states = (plant.dims.states, extra)
        model = BlockRealization(
            NodeDims(tuple(map(sum, zip(*states))), plant.dims.inputs, plant.dims.outputs),
            oracle_grid_node_major([[plant.A, None], [None, hidden]], states, states),
            oracle_grid_node_major([[plant.B], [None]], states, (plant.dims.inputs,)),
            oracle_grid_node_major([[plant.C, None]], (plant.dims.outputs,), states))
        err, _ = _check_imc_run(rng, plant, model, q, disturbed=False)
        assert not err.any()


def test_imc_loop_smaller_model_matches_oracle(rng):
    for k in range(12):
        plant, q, graph = random_imc_case(rng, self_loops=k % 2 == 0, zero_width=k % 3 == 0)
        states = tuple(max(0, v - 1) for v in plant.dims.states)
        model = random_system(
            rng, graph, NodeDims(states, plant.dims.inputs, plant.dims.outputs),
            rho=float(rng.uniform(0.3, 0.9)), strictly_proper=True, scale=0.4)
        _check_imc_run(rng, plant, model, q, disturbed=k % 2 == 1)
