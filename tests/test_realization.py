from collections import Counter

import numpy as np
import pytest

from netreal import (
    BlockRealization,
    DMode,
    InputError,
    NodeDims,
    NumericalError,
    PoleError,
    build_graph,
    certify_witness,
    check_compatibility,
    eval_transfer,
    pbh_detectable,
    pbh_stabilizable,
    scaled_deviation,
    spectral_radius,
    transfer_equal,
)
from netreal.realization import (
    POLE_COND_LIMIT,
    _certified_solve,
    _frobenius_cond_bound,
    _shifted,
)
from _support import (
    oracle_detectable,
    oracle_stabilizable,
    oracle_transfer,
    oracle_violations,
    probe_points,
    random_dims,
    random_graph,
    random_system,
    with_forbidden_entries,
)

DIMS1 = NodeDims((1,), (1,), (1,))


def test_matrices_default_to_zero_and_freeze():
    real = BlockRealization(NodeDims((2,), (1,), (1,)))
    assert real.A.shape == (2, 2)
    assert not real.A.any()
    with pytest.raises(ValueError):
        real.A[0, 0] = 1.0


def test_matrix_shape_and_content_validation():
    with pytest.raises(InputError):
        BlockRealization(DIMS1, A=[[1.0, 2.0]])
    with pytest.raises(InputError):
        BlockRealization(DIMS1, A=[[np.inf]])
    with pytest.raises(InputError):
        BlockRealization(DIMS1, B="text")
    with pytest.raises(InputError):
        BlockRealization("dims")


def test_flat_input_is_reshaped():
    real = BlockRealization(NodeDims((2,), (1,), (1,)), A=[1.0, 2.0, 3.0, 4.0])
    assert real.A[1, 0] == 3.0


def test_block_accessors(river):
    real, _ = river
    assert np.array_equal(real.a_block(1, 0), [[0.1]])
    assert np.array_equal(real.b_block(2, 1), [[1.0]])
    assert np.array_equal(real.c_block(0, 0), [[1.0]])


def test_river_original_violates_strict_exactly_at_b_blocks(river):
    real, graph = river
    report = check_compatibility(real, graph, DMode.STRICT)
    assert not report.ok
    assert {(v.matrix, v.block) for v in report.violations} == {
        ("B", (1, 0)),
        ("B", (2, 1)),
    }
    assert all(v.max_abs == 1.0 for v in report.violations)


def test_river_widened_is_strictly_compatible(river_wide):
    real, graph = river_wide
    report = check_compatibility(real, graph, DMode.STRICT)
    assert report.ok
    assert report.violations == ()


def test_zero_tol_masks_small_entries(river_wide):
    real, graph = river_wide
    bumped = BlockRealization(
        real.dims, real.A, real.B + 1e-12, real.C, real.D)
    assert not check_compatibility(bumped, graph).ok
    assert check_compatibility(bumped, graph, zero_tol=1e-10).ok
    with pytest.raises(InputError):
        check_compatibility(real, graph, zero_tol=-1.0)


def test_edge_sparse_mode_relaxes_only_d():
    graph = build_graph(2, [(0, 0), (1, 1), (1, 0)])
    dims = NodeDims((1, 1), (1, 1), (1, 1))
    real = BlockRealization(
        dims, A=np.diag([0.5, 0.5]), D=[[1.0, 0.0], [1.0, 1.0]])
    assert not check_compatibility(real, graph, DMode.STRICT).ok
    assert check_compatibility(real, graph, DMode.EDGE_SPARSE).ok
    off_b = BlockRealization(dims, B=[[0.0, 0.0], [1.0, 0.0]])
    assert not check_compatibility(off_b, graph, DMode.EDGE_SPARSE).ok


def test_check_compatibility_matches_block_scan_oracle(rng):
    zero_width = no_self_loops = violating = 0
    for k in range(120):
        graph = random_graph(rng, int(rng.integers(1, 7)), self_loops=k % 2 == 0)
        dims = random_dims(rng, graph.num_nodes, max_states=int(rng.integers(0, 5)))
        mode = DMode.EDGE_SPARSE if k % 3 == 0 else DMode.STRICT
        real = random_system(rng, graph, dims, mode=mode, rho=0.8)
        if k % 4:
            real = with_forbidden_entries(rng, real)
        zero_width += 0 in dims.states + dims.inputs + dims.outputs
        no_self_loops += k % 2
        for check_mode in DMode:
            for zero_tol in (0.0, 1e-6):
                found = check_compatibility(real, graph, check_mode, zero_tol)
                expected = oracle_violations(real, graph, check_mode, zero_tol)
                got = [(v.matrix, v.block, v.max_abs) for v in found.violations]
                assert got == expected
                assert [np.float64(v[2]).tobytes() for v in got] == [
                    np.float64(v[2]).tobytes() for v in expected]
                assert found.ok == (not expected)
                violating += bool(expected)
    assert zero_width and no_self_loops and violating


def test_block_occupancy_of_zero_width_and_empty_blocks():
    dims = NodeDims((2, 0, 1), (1, 1, 0), (0, 1, 1))
    a = np.zeros((3, 3))
    a[0, 2] = -4.0
    a[1, 0] = 0.5
    real = BlockRealization(dims, A=a, B=[[0.0, 0.0], [0.0, -3.0], [0.0, 0.0]])
    assert np.array_equal(real.occupancy.A, [[0.5, 0.0, 4.0], [0.0] * 3, [0.0] * 3])
    assert np.array_equal(real.occupancy.B, [[0.0, 3.0, 0.0], [0.0] * 3, [0.0] * 3])
    assert real.occupancy.C.shape == (3, 3) and not real.occupancy.C.any()
    assert real.occupancy is real.occupancy
    with pytest.raises(ValueError):
        real.occupancy.A[0, 0] = 1.0


def test_node_count_mismatch_rejected(river):
    real, _ = river
    with pytest.raises(InputError):
        check_compatibility(real, build_graph(2, [(0, 0)]))


def test_pbh_flags_uncontrollable_unstable_mode():
    dims = NodeDims((2,), (1,), (1,))
    real = BlockRealization(
        dims, A=np.diag([0.5, 2.0]), B=[[1.0], [0.0]], C=[[1.0, 1.0]])
    result = pbh_stabilizable(real)
    assert not result.passed
    assert result.offending[0].eigenvalue == pytest.approx(2.0)
    assert result.offending[0].deficiency == 1
    assert pbh_detectable(real).passed


def test_pbh_reports_a_repeated_eigenvalue_once():
    dims = NodeDims((4,), (1,), (1,))
    real = BlockRealization(dims, A=np.diag([1.5, 1.5, 1.5, 2.0]))
    for result in (pbh_stabilizable(real), pbh_detectable(real)):
        assert not result.passed
        assert [(m.eigenvalue, m.deficiency) for m in result.offending] == [
            (1.5, 3), (2.0, 1)]
    triple = BlockRealization(NodeDims((3,), (1,), (1,)), A=np.diag([1.5, 1.5, 1.5]))
    for result in (pbh_stabilizable(triple), pbh_detectable(triple)):
        assert [(m.eigenvalue, m.deficiency) for m in result.offending] == [(1.5, 3)]
    # Reachable through B and seen through C along one direction only.
    partly = BlockRealization(
        NodeDims((3,), (1,), (1,)), A=np.diag([1.5, 1.5, 1.5]),
        B=[[1.0], [0.0], [0.0]], C=[[0.0, 1.0, 0.0]])
    assert [m.deficiency for m in pbh_stabilizable(partly).offending] == [2]
    assert [m.deficiency for m in pbh_detectable(partly).offending] == [2]


def test_pbh_ignores_stable_hidden_mode():
    dims = NodeDims((2,), (1,), (1,))
    real = BlockRealization(
        dims, A=np.diag([0.5, 2.0]), B=[[0.0], [1.0]], C=[[0.0, 1.0]])
    assert pbh_stabilizable(real).passed
    assert pbh_detectable(real).passed


def test_pbh_boundary_eigenvalue_is_tested():
    dims = NodeDims((1,), (1,), (1,))
    real = BlockRealization(dims, A=[[1.0]], B=[[0.0]], C=[[1.0]])
    assert not pbh_stabilizable(real).passed
    assert pbh_detectable(real).passed


def test_pbh_static_system_passes():
    dims = NodeDims((0,), (1,), (1,))
    real = BlockRealization(dims, D=[[2.0]])
    assert pbh_stabilizable(real).passed
    assert pbh_detectable(real).passed


def test_pbh_matches_oracle_on_random_systems(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        radius = np.max(np.abs(np.linalg.eigvals(a)))
        if radius > 0:
            a *= float(rng.choice([0.6, 1.4])) / radius
        b = rng.normal(size=(n, int(rng.integers(1, 3))))
        c = rng.normal(size=(int(rng.integers(1, 3)), n))
        dims = NodeDims((n,), (b.shape[1],), (c.shape[0],))
        real = BlockRealization(dims, a, b, c)
        assert pbh_stabilizable(real).passed == oracle_stabilizable(a, b)
        assert pbh_detectable(real).passed == oracle_detectable(a, c)


def test_certify_witness_combines_checks(river_wide):
    real, graph = river_wide
    cert = certify_witness(real, graph)
    assert cert.ok
    assert cert.compatibility.ok
    assert cert.pbh.stabilizable and cert.pbh.detectable
    assert cert.pbh.offending_modes == ()


def test_certify_witness_fails_on_violation(river):
    real, graph = river
    cert = certify_witness(real, graph)
    assert not cert.ok
    assert cert.pbh.stabilizable and cert.pbh.detectable


def test_spectral_radius_is_cached_and_bitwise_unchanged(rng, monkeypatch):
    a = rng.normal(size=(7, 7))
    expected = float(np.max(np.abs(np.linalg.eigvals(a))))
    real = BlockRealization(NodeDims((7,), (1,), (1,)), A=a)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(1) or eigvals(m))
    assert spectral_radius(real) == expected
    assert spectral_radius(real) == expected
    pbh_stabilizable(real)
    pbh_detectable(real)
    assert len(calls) == 1


def test_spectral_radius(river):
    real, _ = river
    assert spectral_radius(real) == pytest.approx(0.9)
    static = BlockRealization(NodeDims((0,), (1,), (1,)), D=[[1.0]])
    assert spectral_radius(static) == 0.0


def test_eval_transfer_at_dc(river):
    real, _ = river
    value = eval_transfer(real, 1.0)
    expected = np.diag([-10.0, -5.0, -10.0 / 3.0])
    assert np.max(np.abs(value - expected)) < 1e-12


def test_eval_transfer_against_dense_solve(rng):
    a = rng.normal(size=(3, 3)) * 0.4
    b = rng.normal(size=(3, 2))
    c = rng.normal(size=(2, 3))
    d = rng.normal(size=(2, 2))
    real = BlockRealization(NodeDims((3,), (2,), (2,)), a, b, c, d)
    z = 1.7 + 0.3j
    expected = c @ np.linalg.solve(z * np.eye(3) - a, b) + d
    assert np.allclose(eval_transfer(real, z), expected, atol=1e-12)


def test_eval_transfer_near_pole_raises(river):
    real, _ = river
    with pytest.raises(PoleError):
        eval_transfer(real, 0.9)


def _guard_probe_systems(rng, count=90):
    """Systems with zero-width nodes, half without self-loops, every third with diagonal A."""
    for k in range(count):
        graph = random_graph(rng, int(rng.integers(1, 6)), self_loops=k % 2 == 0)
        dims = random_dims(rng, graph.num_nodes)
        real = random_system(rng, graph, dims, scale=float(rng.choice([0.3, 1.0, 3.0])))
        if k % 3 == 0:
            real = BlockRealization(dims, np.diag(rng.normal(size=real.n)), real.B, real.C, real.D)
        yield real


def _outcome(evaluate, real, z):
    try:
        return evaluate(real, z)
    except (PoleError, NumericalError) as exc:
        return type(exc)


def test_eval_transfer_matches_exact_cond_oracle(rng):
    seen = Counter()
    for real in _guard_probe_systems(rng):
        for z in probe_points(rng, real):
            got, want = _outcome(eval_transfer, real, z), _outcome(oracle_transfer, real, z)
            if isinstance(want, type):
                assert got is want, (z, got, want)
                seen[want] += 1
                seen["singular"] += bool(real.n and np.any(np.diag(real.A) == z))
            else:
                assert isinstance(got, np.ndarray) and got.dtype == want.dtype
                assert np.array_equal(got, want), z
                seen["value"] += 1
    assert seen["value"] > 300 and seen[PoleError] > 100 and seen["singular"] > 20


def test_eval_transfer_single_input_above_100_states_agrees_to_rounding(rng):
    # OpenBLAS solves a lone right-hand side with level-2 kernels above
    # about 100 states, which round differently from the blocked solve of
    # [B | I]; the values then agree to rounding rather than bitwise.
    a = rng.normal(size=(120, 120)) * 0.05
    real = BlockRealization(
        NodeDims((120,), (1,), (2,)), a, rng.normal(size=(120, 1)), rng.normal(size=(2, 120)))
    for z in (1.5, 0.3 + 2.0j, -2.5 - 0.1j):
        assert scaled_deviation(eval_transfer(real, z), oracle_transfer(real, z)) <= 1e-13


def test_shift_matches_the_textbook_shift_and_keeps_a_real_pencil_real(rng):
    a = rng.normal(size=(5, 5))
    for lam in (np.float64(1.5), np.complex128(0.3 - 1.2j)):
        expected = a - lam * np.eye(5)
        shifted = _shifted(a, -lam)
        assert shifted.dtype == expected.dtype and np.array_equal(shifted, expected)
    z = 0.7 + 0.2j
    shifted = _shifted(a, z, negate=True)
    assert shifted.dtype == complex and np.array_equal(shifted, z * np.eye(5) - a)


def test_certified_bound_is_never_below_half_the_exact_cond(rng):
    certified = refused = 0
    for real in _guard_probe_systems(rng):
        for z in probe_points(rng, real):
            if real.n == 0:
                continue
            shifted = _shifted(real.A, z, negate=True)
            try:
                _, inverse = _certified_solve(shifted, real.B, np.inf, PoleError)
            except PoleError:
                continue  # exactly singular: the solve raised and cond is inf
            bound = _frobenius_cond_bound(shifted, inverse)
            cond = np.linalg.cond(shifted)
            # The guard passes without an SVD only below half the limit,
            # so it never passes a point the exact cond would refuse.
            assert bound >= 0.5 * min(cond, POLE_COND_LIMIT), (z, bound, cond)
            certified += bound < 0.5 * POLE_COND_LIMIT
            refused += cond >= POLE_COND_LIMIT
    assert certified > 300 and refused > 50


def test_eval_transfer_exactly_singular_shift_raises_pole_error():
    a = np.diag([0.5, -0.25])
    real = BlockRealization(NodeDims((1, 1), (1, 1), (1, 1)), a, np.eye(2), np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(0.5 * np.eye(2) - a, np.eye(2))
    with pytest.raises(PoleError, match=r"cond\(zI - A\) = inf"):
        eval_transfer(real, 0.5)


def test_transfer_equal_runs_no_svd_condition_number(river, river_wide, monkeypatch):
    original, _ = river
    widened, _ = river_wide
    expected = transfer_equal(original, widened)
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m, *args: calls.append(1) or cond(m, *args))
    assert transfer_equal(original, widened, num_points=16) == expected
    assert calls == []


def test_nonfinite_eigenvalues_raise_numerical_error():
    real = BlockRealization(NodeDims((2,), (1,), (1,)), A=np.full((2, 2), 1.7e308))
    with pytest.raises(NumericalError, match="non-finite"):
        real.eigenvalues


def test_eval_transfer_static_returns_d():
    real = BlockRealization(NodeDims((0,), (2,), (1,)), D=[[1.0, 2.0]])
    assert np.array_equal(eval_transfer(real, 5.0), [[1.0, 2.0]])


def test_scaled_deviation_mixed_scale():
    a = np.array([[0.0, 100.0]])
    assert scaled_deviation(a, np.array([[1e-9, 100.0]])) == pytest.approx(1e-9)
    assert scaled_deviation(a, np.array([[0.0, 101.0]])) == pytest.approx(1 / 101.0)
    assert scaled_deviation(np.zeros((0, 2)), np.zeros((0, 2))) == 0.0


def test_transfer_equal_accepts_equivalent_realizations(river, river_wide):
    original, _ = river
    widened, _ = river_wide
    result = transfer_equal(original, widened, rel_tol=1e-9)
    assert result.equal
    assert result.max_deviation <= 1e-9
    assert result.num_points == 16


def test_transfer_equal_detects_difference(river):
    real, _ = river
    bumped = BlockRealization(
        real.dims, real.A, real.B, real.C, real.D + 1e-5)
    result = transfer_equal(real, bumped)
    assert not result.equal
    assert result.max_deviation >= 1e-6


def test_transfer_equal_rejects_shape_mismatch(river):
    real, _ = river
    other = BlockRealization(NodeDims((1,), (1,), (1,)), A=[[0.5]])
    with pytest.raises(InputError):
        transfer_equal(real, other)
    with pytest.raises(InputError):
        transfer_equal(real, real, num_points=0)


def test_random_compatible_generator_is_bitwise_clean(rng):
    from _support import random_dims, random_graph

    for _ in range(10):
        graph = random_graph(rng, int(rng.integers(2, 5)))
        dims = random_dims(rng, graph.num_nodes)
        real = random_system(rng, graph, dims)
        assert check_compatibility(real, graph, zero_tol=0.0).ok
