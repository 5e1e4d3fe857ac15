import re

import numpy as np
import pytest

from netreal import (
    BlockRealization,
    DMode,
    InputError,
    InversionError,
    NodeDims,
    StabilityWarning,
    add,
    build_graph,
    check_compatibility,
    eval_transfer,
    invert,
    multiply,
    node_major_indices,
    scaled_deviation,
)
from netreal.algebra import _block_diagonal
from _support import (
    oracle_block_diagonal_d,
    random_add_pair,
    random_dims,
    random_graph,
    random_mul_pair,
    random_system,
    with_forbidden_entries,
)

SAMPLE_Z = (2.3, -1.9, 1.1 + 2.2j, 0.4 - 3.0j)


def test_node_major_indices_interleave():
    perm = node_major_indices((2, 1), (1, 2))
    assert perm.tolist() == [0, 1, 3, 2, 4, 5]
    assert node_major_indices((1, 1), (1, 1)).tolist() == [0, 2, 1, 3]
    assert node_major_indices((0, 0), (1, 1)).tolist() == [0, 1]


def test_add_matches_pointwise_sum(rng):
    for _ in range(10):
        r1, r2, graph = random_add_pair(rng, max_nodes=4)
        total = add(r1, r2)
        assert check_compatibility(total, graph, zero_tol=0.0).ok
        for z in SAMPLE_Z:
            got = eval_transfer(total, z)
            want = eval_transfer(r1, z) + eval_transfer(r2, z)
            assert scaled_deviation(got, want) < 1e-10


def test_add_requires_matching_channels(river, river_q):
    plant, _ = river
    other = BlockRealization(NodeDims((1, 1), (1, 1), (1, 1)), A=np.eye(2) * 0.5)
    with pytest.raises(InputError):
        add(plant, other)
    widened = BlockRealization(
        NodeDims((1, 1, 1), (1, 1, 2), (1, 1, 1)),
        A=np.eye(3) * 0.5, B=np.zeros((3, 4)))
    with pytest.raises(InputError):
        add(plant, widened)


def test_multiply_matches_pointwise_product(rng):
    for _ in range(10):
        outer, inner, graph = random_mul_pair(rng, max_nodes=4)
        prod = multiply(outer, inner)
        assert check_compatibility(prod, graph, zero_tol=0.0).ok
        for z in SAMPLE_Z:
            got = eval_transfer(prod, z)
            want = eval_transfer(outer, z) @ eval_transfer(inner, z)
            assert scaled_deviation(got, want) < 1e-10


def test_multiply_state_layout_is_node_major(river, river_q):
    plant, _ = river
    prod = multiply(plant, river_q)
    assert prod.dims.states == (2, 2, 2)
    assert prod.dims.inputs == plant.dims.inputs
    assert prod.dims.outputs == plant.dims.outputs
    # node 0 holds (inner, outer) so A's top-left entry is the inner pole
    assert prod.A[0, 0] == 0.5
    assert prod.A[1, 1] == 0.9


def test_multiply_rejects_mismatched_channels(river):
    plant, _ = river
    skinny = BlockRealization(
        NodeDims((1, 1, 1), (1, 1, 1), (1, 1, 2)), A=np.eye(3) * 0.5,
        C=np.zeros((4, 3)))
    with pytest.raises(InputError):
        multiply(plant, skinny)


def test_multiply_warns_on_unstable_factor():
    dims = NodeDims((1,), (1,), (1,))
    stable = BlockRealization(dims, A=[[0.5]], B=[[1.0]], C=[[1.0]])
    unstable = BlockRealization(dims, A=[[1.5]], B=[[1.0]], C=[[1.0]])
    with pytest.warns(StabilityWarning):
        multiply(stable, unstable)
    with pytest.warns(StabilityWarning):
        multiply(unstable, stable)


def test_invert_matches_pointwise_inverse(rng):
    for _ in range(10):
        count = int(rng.integers(2, 4))
        graph = build_graph(
            count,
            [(i, i) for i in range(count)]
            + [(i, j) for i in range(count) for j in range(count)
               if i != j and rng.random() < 0.4],
        )
        chan = tuple(int(v) for v in rng.integers(1, 3, count))
        dims = NodeDims(
            tuple(int(v) for v in rng.integers(0, 3, count)), chan, chan)
        real = random_system(rng, graph, dims, rho=0.6, scale=0.3)
        # push the direct term away from singularity
        d = real.D + np.eye(real.m) * 3.0
        real = BlockRealization(dims, real.A, real.B, real.C, d)
        inv = invert(real)
        assert check_compatibility(inv, graph, zero_tol=0.0).ok
        for z in SAMPLE_Z:
            got = eval_transfer(inv, z)
            want = np.linalg.inv(eval_transfer(real, z))
            assert scaled_deviation(got, want) < 1e-9


def test_invert_roundtrip(rng):
    dims = NodeDims((2,), (2,), (2,))
    graph = build_graph(1, [(0, 0)])
    real = random_system(rng, graph, dims, rho=0.5)
    real = BlockRealization(
        dims, real.A, real.B, real.C, real.D + np.eye(2) * 2.0)
    back = invert(invert(real))
    for z in SAMPLE_Z:
        assert scaled_deviation(eval_transfer(back, z), eval_transfer(real, z)) < 1e-10


def test_invert_block_diagonal_d_keeps_exact_zeros():
    dims = NodeDims((1, 1), (1, 1), (1, 1))
    real = BlockRealization(
        dims,
        A=[[0.5, 0.0], [0.3, 0.4]],
        B=np.eye(2),
        C=[[1.0, 0.0], [0.7, 1.0]],
        D=[[2.0, 0.0], [0.0, 4.0]],
    )
    inv = invert(real)
    assert inv.D[0, 1] == 0.0 and inv.D[1, 0] == 0.0
    assert inv.D[0, 0] == 0.5 and inv.D[1, 1] == 0.25
    assert inv.B[0, 1] == 0.0 and inv.B[1, 0] == 0.0


def test_block_diagonal_matches_block_scan_oracle(rng):
    seen = set()
    for k in range(80):
        graph = random_graph(rng, int(rng.integers(1, 6)), self_loops=k % 2 == 0)
        dims = random_dims(rng, graph.num_nodes)
        mode = DMode.EDGE_SPARSE if k % 2 else DMode.STRICT
        real = random_system(rng, graph, dims, mode=mode)
        if k % 3 == 0:
            real = with_forbidden_entries(rng, real, count=1)
        expected = oracle_block_diagonal_d(real)
        assert _block_diagonal(real) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_invert_rejects_nonsquare_channels():
    real = BlockRealization(
        NodeDims((1, 1), (2, 0), (1, 1)), A=np.eye(2) * 0.5,
        B=np.zeros((2, 2)), C=np.eye(2), D=np.zeros((2, 2)))
    with pytest.raises(InversionError):
        invert(real)


def test_invert_rejects_singular_direct_term(river_q):
    with pytest.raises(InversionError):
        invert(river_q)


def test_invert_cond_limit_is_enforced():
    dims = NodeDims((0,), (2,), (2,))
    real = BlockRealization(dims, D=[[1.0, 0.0], [0.0, 1e-12]])
    with pytest.raises(InversionError):
        invert(real)
    loose = invert(real, cond_limit=1e15)
    assert loose.D[1, 1] == pytest.approx(1e12)


def test_invert_full_direct_term_keeps_bits_and_cond_message(rng):
    dims = NodeDims((1, 1), (2, 1), (2, 1))
    d = rng.normal(size=(3, 3))
    real = BlockRealization(dims, rng.normal(size=(2, 2)) * 0.3, rng.normal(size=(2, 3)),
                            rng.normal(size=(3, 2)), d)
    assert not _block_diagonal(real)
    assert np.array_equal(invert(real).D, np.linalg.inv(d))
    for last in (d[:, 1] * 3.0 + 1e-10, d[:, 1] * 3.0):
        bad = np.column_stack([d[:, :2], last])
        message = f"(cond {np.linalg.cond(bad):.3e})"
        with pytest.raises(InversionError, match=re.escape(message)):
            invert(BlockRealization(dims, D=bad))


def test_compositions_preserve_structural_zeros_bitwise(rng):
    for _ in range(10):
        outer, inner, graph = random_mul_pair(rng, max_nodes=5)
        prod = multiply(outer, inner)
        for i in range(graph.num_nodes):
            for j in range(graph.num_nodes):
                if not graph.has_edge(i, j):
                    assert not prod.a_block(i, j).any()
                    assert not prod.c_block(i, j).any()
                if i != j:
                    assert not prod.b_block(i, j).any()
                    assert not prod.d_block(i, j).any()
