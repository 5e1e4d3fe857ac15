import numpy as np
import pytest

from netreal import (
    BlockRealization,
    DMode,
    InputError,
    NodeDims,
    add,
    check_compatibility,
    close_loop,
    eval_transfer,
    imc_controller,
    invert,
    q_param,
    scaled_deviation,
    simulate_imc_loop,
    verify_identities,
    write_system,
)
from netreal.cli import main
from _support import (
    oracle_grid_node_major,
    oracle_identities,
    oracle_node_major,
    oracle_taps,
    random_loop_pair,
)

SAMPLE_Z = (2.1, -2.6, 1.3 + 1.8j)


def _loop_oracle(plant, controller, z):
    """Channel blocks of the closed loop from dense algebra."""
    p_z = eval_transfer(plant, z)
    c_z = eval_transfer(controller, z)
    eye_p = np.eye(plant.p)
    eye_m = np.eye(plant.m)
    s = np.linalg.inv(eye_p + p_z @ c_z)
    t = np.linalg.inv(eye_m + c_z @ p_z)
    return {
        (1, 1): s,
        (1, 2): p_z @ t,
        (2, 1): -c_z @ s,
        (2, 2): t,
    }


def test_close_loop_blocks_match_dense_oracle(rng):
    checked = 0
    while checked < 8:
        plant, controller, graph = random_loop_pair(rng)
        if plant.p == 0 or plant.m == 0:
            continue
        loop = close_loop(plant, controller)
        assert check_compatibility(loop.realization, graph).ok
        for z in SAMPLE_Z:
            expected = _loop_oracle(plant, controller, z)
            for key, want in expected.items():
                got = eval_transfer(loop.block(*key), z)
                assert scaled_deviation(got, want) < 1e-9, key
        checked += 1


@pytest.mark.parametrize("self_loops", [True, False])
def test_close_loop_is_its_block_formula_and_composites_stay_strict(rng, self_loops):
    """The closed loop is the inverse of ``[[I, -P], [C, I]]`` written out, laid out node-major."""
    zero_width = 0
    for _ in range(40):
        plant, controller, graph = random_loop_pair(rng, self_loops=self_loops)
        a_p, b_p, c_p = plant.A, plant.B, plant.C
        a_c, b_c, c_c, d_c = controller.A, controller.B, controller.C, controller.D
        bd = b_p @ d_c
        states = (plant.dims.states, controller.dims.states)
        chan = (plant.dims.outputs, plant.dims.inputs)
        loop = close_loop(plant, controller).realization
        for got, grid, rows, cols in (
            (loop.A, [[a_p - bd @ c_p, -(b_p @ c_c)], [b_c @ c_p, a_c]], states, states),
            (loop.B, [[-bd, b_p], [b_c, None]], states, chan),
            (loop.C, [[c_p, None], [-(d_c @ c_p), -c_c]], chan, states),
            (loop.D, [[np.eye(plant.p), None], [-d_c, np.eye(plant.m)]], chan, chan),
        ):
            assert np.array_equal(got, oracle_grid_node_major(grid, rows, cols))

        imc = imc_controller(plant, controller)
        for real in (loop, imc, add(controller, imc), invert(loop)):
            assert check_compatibility(real, graph, DMode.STRICT).ok
        zero_width += 0 in (*controller.dims.states, *chan[0], *chan[1])
    assert zero_width > 10


def test_close_loop_channel_layout(river_wide, river_q):
    plant, graph = river_wide
    controller = imc_controller(plant, river_q)
    loop = close_loop(plant, controller)
    # per node: p_k outputs first, then m_k inputs
    assert loop.realization.dims.inputs == (2, 2, 2)
    assert loop.realization.dims.outputs == (2, 2, 2)
    assert loop.p_dims == (1, 1, 1)
    assert loop.m_dims == (1, 1, 1)
    assert loop.realization.dims.states == tuple(
        a + b for a, b in zip(plant.dims.states, controller.dims.states))


def test_close_loop_requires_strictly_proper_plant(river_q):
    dims = NodeDims((1, 1, 1), (1, 1, 1), (1, 1, 1))
    direct = BlockRealization(dims, A=np.eye(3) * 0.5, D=np.eye(3))
    with pytest.raises(InputError):
        close_loop(direct, river_q)


def test_close_loop_rejects_mismatched_shapes(river):
    plant, _ = river
    bad = BlockRealization(
        NodeDims((1, 1), (1, 1), (1, 1)), A=np.eye(2) * 0.5)
    with pytest.raises(InputError, match="plant has 3 nodes, controller has 2"):
        close_loop(plant, bad)


def test_pair_refuses_outputs_that_do_not_match_plant_inputs(river, tmp_path, capsys):
    """A controller or parameter that reads the plant's outputs but drives other inputs.

    Its per-node input counts match the plant's outputs, so only the
    second count check refuses it, naming both count tuples; the CLI
    exits 2.
    """
    plant, graph = river
    wide_out = BlockRealization(NodeDims((1, 1, 1), (1, 1, 1), (1, 2, 1)), A=np.eye(3) * 0.5)
    message = ("per-node output counts must match plant input counts, "
               r"got \(1, 2, 1\) vs \(1, 1, 1\)$")
    reference = np.zeros((2, 3))
    for role, call in (
        ("controller", lambda: close_loop(plant, wide_out)),
        ("controller", lambda: q_param(plant, wide_out)),
        ("design parameter", lambda: imc_controller(plant, wide_out)),
        ("design parameter", lambda: simulate_imc_loop(plant, plant, wide_out, reference)),
    ):
        with pytest.raises(InputError, match=f"^{role} {message}"):
            call()
    paths = [str(tmp_path / "plant.json"), str(tmp_path / "controller.json")]
    write_system(paths[0], plant, graph)
    write_system(paths[1], wide_out, graph)
    assert main(["closeloop", *paths]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: controller per-node output counts") and err.count("\n") == 1
    assert "got (1, 2, 1) vs (1, 1, 1)" in err


def test_block_extraction_validates_indices(river_wide, river_q):
    plant, _ = river_wide
    loop = close_loop(plant, imc_controller(plant, river_q))
    with pytest.raises(InputError):
        loop.block(0, 1)
    with pytest.raises(InputError):
        loop.block(1, 3)


def test_loop_stability_flag(river_wide, river_q):
    plant, _ = river_wide
    loop = close_loop(plant, imc_controller(plant, river_q))
    assert loop.stable
    assert loop.spectral_radius < 1.0


def test_q_param_matches_dense_formula(rng):
    checked = 0
    while checked < 8:
        plant, controller, _ = random_loop_pair(rng)
        if plant.p == 0 or plant.m == 0:
            continue
        q = q_param(plant, controller)
        for z in SAMPLE_Z:
            p_z = eval_transfer(plant, z)
            c_z = eval_transfer(controller, z)
            want = c_z @ np.linalg.inv(np.eye(plant.p) + p_z @ c_z)
            assert scaled_deviation(eval_transfer(q, z), want) < 1e-9
        checked += 1


@pytest.mark.parametrize("self_loops", [True, False])
def test_q_param_taps_follow_the_walks_of_the_graph(rng, self_loops):
    """Necessity: each tap of ``q_param(P, K)`` lies on the graph's walks.

    P is compatible with zero D and K compatible with block-diagonal D.
    Tap k <= 2N of Q reads exactly 0.0 on each block (i, j) where the
    graph has no walk of exactly k steps from node j to node i; for tap
    0 that is every block off the diagonal.  The taps come from
    :func:`oracle_taps`, which the transfer at a point far outside the
    spectrum pins first.
    """
    zero_blocks = 0
    for _ in range(12):
        plant, controller, graph = random_loop_pair(rng, max_nodes=6, self_loops=self_loops)
        q = q_param(plant, controller)
        count = graph.num_nodes
        taps = oracle_taps(q, 2 * count)
        z = 4.0 * (1.0 + np.linalg.norm(q.A, 2))
        series = sum(tap * z ** -k for k, tap in enumerate(oracle_taps(q, 40)))
        assert scaled_deviation(eval_transfer(q, z), series) < 1e-9
        edges = np.zeros((count, count), dtype=int)
        for i, j in graph.edges:
            edges[i, j] = 1
        walks = np.eye(count, dtype=int)
        for tap in taps:
            for i, j in zip(*np.nonzero(walks == 0)):
                block = tap[q.dims.output_slice(i), q.dims.input_slice(j)]
                assert np.all(block == 0.0), (self_loops, i, j)
                zero_blocks += block.size > 0
            walks = np.minimum(edges @ walks, 1)
    assert zero_blocks > 100


def test_verify_identities_on_certified_loop(river_wide, river_q):
    plant, _ = river_wide
    controller = imc_controller(plant, river_q)
    report = verify_identities(plant, controller)
    assert report.passed
    assert set(report.deviations) == {"inverse-complement", "triangular-inverse"}
    assert max(report.deviations.values()) < 1e-12
    assert report.num_points == 16


def test_verify_identities_random_pairs(rng):
    for _ in range(5):
        plant, controller, _ = random_loop_pair(rng)
        report = verify_identities(plant, controller, num_points=8)
        assert report.passed


def test_verify_identities_validates_points(river_wide, river_q):
    plant, _ = river_wide
    controller = imc_controller(plant, river_q)
    with pytest.raises(InputError):
        verify_identities(plant, controller, num_points=0)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(InputError, match="rel_tol must be finite and nonnegative"):
            verify_identities(plant, controller, rel_tol=bad)


def test_verify_identities_and_q_param_keep_their_bits(rng):
    for _ in range(12):
        plant, controller, _ = random_loop_pair(rng)
        report = verify_identities(plant, controller, num_points=6)
        assert report.deviations == oracle_identities(plant, controller, 6)

        # q_param is the negated (2,1) channel block of the closed loop.
        q = q_param(plant, controller)
        loop = close_loop(plant, controller).realization
        order = oracle_node_major(plant.dims.outputs, plant.dims.inputs)
        rows = [k for k, i in enumerate(order) if i >= plant.p]
        cols = [k for k, i in enumerate(order) if i < plant.p]
        assert q.dims == NodeDims(loop.dims.states, plant.dims.outputs, plant.dims.inputs)
        for got, want in ((q.A, loop.A), (q.B, loop.B[:, cols]), (q.C, -loop.C[rows]),
                          (q.D, -loop.D[np.ix_(rows, cols)])):
            assert np.array_equal(got, want)
