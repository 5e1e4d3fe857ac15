from collections import Counter

import numpy as np
import pytest

import netreal.realization

from netreal import (
    BlockRealization,
    DMode,
    InputError,
    NodeDims,
    NumericalError,
    PoleError,
    StabilityWarning,
    add,
    build_graph,
    certify_witness,
    check_compatibility,
    eval_transfer,
    invert,
    multiply,
    packaged_system,
    pbh_detectable,
    pbh_stabilizable,
    scaled_deviation,
    spectral_radius,
    transfer_equal,
)
from netreal.loops import _identity_deviations, _loop_inverse, close_loop
from netreal.graphs import strongly_connected_components
from netreal.sysio import _MATRIX_AXES, _nonzero_blocks
from netreal.realization import (
    POLE_COND_LIMIT,
    _certified_inverse,
    _frobenius_cond_bound,
    _EPS,
    _gram_certified,
    _group_heads,
    _shifted,
    _stacked_pass,
    _transfers,
    circle_samples,
)
from _support import (
    hidden_mode_case,
    oracle_block_transfer,
    oracle_component_bound,
    oracle_components,
    oracle_dense_violations,
    oracle_detectable,
    oracle_occupancy_grid,
    oracle_pbh,
    oracle_spectrum,
    oracle_stabilizable,
    oracle_transfer,
    oracle_violations,
    probe_points,
    random_add_pair,
    random_chain,
    random_dag,
    random_dims,
    random_graph,
    random_loop_pair,
    random_mul_pair,
    random_system,
    stabilized_chain,
    with_forbidden_entries,
)

DIMS1 = NodeDims((1,), (1,), (1,))


def test_matrices_default_to_zero_and_freeze():
    real = BlockRealization(NodeDims((2,), (1,), (1,)))
    assert real.A.shape == (2, 2)
    assert not real.A.any()
    with pytest.raises(ValueError):
        real.A[0, 0] = 1.0


def test_frozen_owned_matrices_are_kept_and_others_copied():
    dims = NodeDims((2,), (2,), (2,))
    frozen = np.arange(4.0).reshape(2, 2).copy()
    frozen.setflags(write=False)
    writable = np.arange(4.0).reshape(2, 2)
    owner = np.arange(4.0).reshape(2, 2).copy()
    view = owner[:, :]
    view.setflags(write=False)
    real = BlockRealization(dims, frozen, writable, view, frozen.astype(np.float32))
    assert real.A is frozen and real.C is not view and real.D.dtype == np.float64
    writable[0, 0] = owner[0, 0] = 7.0
    assert real.B[0, 0] == real.C[0, 0] == 0.0
    assert not (real.B.flags.writeable or real.C.flags.writeable or real.D.flags.writeable)
    # A composite's matrices are frozen and owned, so a realization built from them shares them.
    total = add(real, real)
    assert BlockRealization(total.dims, total.A, total.B, total.C, total.D).A is total.A
    # A kept matrix is checked like a copied one.
    infinite = np.array([[np.inf]])
    infinite.setflags(write=False)
    with pytest.raises(InputError, match="non-finite"):
        BlockRealization(DIMS1, A=infinite)
    # ... and so is its shape: a wrong-shaped one is refused, a flat one reshaped into a copy.
    square = np.eye(3)
    square.setflags(write=False)
    with pytest.raises(InputError, match=r"A must have shape \(2, 2\)"):
        BlockRealization(NodeDims((2,), (1,), (1,)), A=square)
    wide = np.zeros((1, 4))
    wide.setflags(write=False)
    with pytest.raises(InputError, match=r"D must have shape \(2, 2\)"):
        BlockRealization(dims, D=wide)
    flat = np.arange(4.0)
    flat.setflags(write=False)
    real = BlockRealization(dims, A=flat)
    assert real.A.shape == (2, 2) and real.A[1, 0] == 2.0 and real.A.base is not flat


def test_matrix_shape_and_content_validation():
    with pytest.raises(InputError):
        BlockRealization(DIMS1, A=[[1.0, 2.0]])
    with pytest.raises(InputError):
        BlockRealization(DIMS1, A=[[np.inf]])
    with pytest.raises(InputError):
        BlockRealization(DIMS1, B="text")
    # An integer beyond float range: numpy raises OverflowError converting it.
    with pytest.raises(InputError, match="C is not a numeric matrix"):
        BlockRealization(DIMS1, C=[[10**400 - 1]])
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


def test_compatibility_check_is_exact(river_wide):
    real, graph = river_wide
    bumped = BlockRealization(
        real.dims, real.A, real.B + 1e-12, real.C, real.D)
    assert not check_compatibility(bumped, graph).ok


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
            found = check_compatibility(real, graph, check_mode)
            expected = oracle_violations(real, graph, check_mode)
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
    listed = {name: [part.tolist() for part in blocks]
              for name, blocks in zip("ABCD", real.occupancy)}
    assert listed["A"] == [[0, 0], [0, 2], [0.5, 4.0]]
    assert listed["B"] == [[0], [1], [3.0]]
    assert listed["C"] == listed["D"] == [[], [], []]
    assert real.occupancy is real.occupancy
    for blocks in real.occupancy:
        for part in blocks:
            with pytest.raises(ValueError):
                part[:1] = 1


def _with_negative_zeros(rng, real):
    """Copy of ``real`` with some entries of each matrix set to ``-0.0``.

    In each matrix one random node block is cleared first, so a block may
    hold ``-0.0`` and nothing else.
    """
    dims = real.dims
    mats = []
    for matrix, rows, cols in (
            (real.A, dims.state_slices, dims.state_slices),
            (real.B, dims.state_slices, dims.input_slices),
            (real.C, dims.output_slices, dims.state_slices),
            (real.D, dims.output_slices, dims.input_slices)):
        matrix = matrix.copy()
        i, j = rng.integers(0, dims.num_nodes, 2)
        matrix[rows[i], cols[j]] = 0.0
        matrix[rng.random(matrix.shape) < 0.2] = -0.0
        mats.append(matrix)
    return BlockRealization(dims, *mats)


def test_block_lists_match_dense_grid_oracles(rng):
    """The node block lists against the dense N x N grids and masks they replace.

    Over generated systems with zero-width nodes, graphs without
    self-loops, forbidden entries and planted ``-0.0`` entries:
    ``occupancy`` lists exactly the blocks whose dense max-magnitude grid
    is positive, row-major, with the same magnitudes; the writer lists
    the blocks with a nonzero bit, ``-0.0`` ones too; and
    ``check_compatibility`` gives the dense-mask violations in order.
    """
    zero_width = no_self_loops = negative_zero_blocks = violating = 0
    for k in range(120):
        graph = random_graph(rng, int(rng.integers(1, 7)), self_loops=k % 2 == 0)
        dims = random_dims(rng, graph.num_nodes, max_states=int(rng.integers(0, 4)))
        mode = DMode.EDGE_SPARSE if k % 3 == 0 else DMode.STRICT
        real = random_system(rng, graph, dims, mode=mode, rho=0.8)
        if k % 4:
            real = with_forbidden_entries(rng, real)
        real = _with_negative_zeros(rng, real)
        zero_width += 0 in dims.states + dims.inputs + dims.outputs
        no_self_loops += k % 2
        for (name, axes), blocks in zip(_MATRIX_AXES.items(), real.occupancy):
            matrix = getattr(real, name)
            counts = [{"n": dims.states, "m": dims.inputs, "p": dims.outputs}[a] for a in axes]
            grid = oracle_occupancy_grid(matrix, *counts)
            rows, cols = np.nonzero(grid > 0)
            assert (blocks.rows.tolist(), blocks.cols.tolist()) == (rows.tolist(), cols.tolist())
            assert blocks.top.tobytes() == grid[rows, cols].tobytes()
            bits = oracle_occupancy_grid((matrix.view(np.uint64) != 0).astype(float), *counts)
            written = [(i, j) for i, j, _ in _nonzero_blocks(matrix, dims, axes)]
            assert written == list(zip(*(part.tolist() for part in np.nonzero(bits))))
            negative_zero_blocks += int(np.count_nonzero((bits > 0) & (grid == 0)))
        for check_mode in DMode:
            found = check_compatibility(real, graph, check_mode)
            expected = oracle_dense_violations(real, graph, check_mode)
            got = [(v.matrix, v.block, v.max_abs) for v in found.violations]
            assert got == expected
            assert np.array([v[2] for v in got]).tobytes() == np.array(
                [v[2] for v in expected]).tobytes()
            violating += bool(expected)
    assert zero_width and no_self_loops and negative_zero_blocks and violating


def test_node_count_mismatch_rejected(river):
    real, _ = river
    with pytest.raises(InputError):
        check_compatibility(real, build_graph(2, [(0, 0)]))
    with pytest.raises(InputError, match="unknown D mode 'strict'"):
        check_compatibility(real, build_graph(3, [(0, 0)]), "strict")


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


def test_pbh_refuses_unusable_tolerances():
    # An unstable mode that neither B nor C touches fails both tests at the default.
    real = BlockRealization(DIMS1, A=[[1.5]])
    assert not pbh_stabilizable(real).passed and not pbh_detectable(real).passed
    for bad in (-1.0, np.nan, np.inf):
        for test in (pbh_stabilizable, pbh_detectable):
            with pytest.raises(InputError, match="tol must be finite and nonnegative"):
                test(real, bad)
    assert pbh_stabilizable(real, 0.0).offending[0].eigenvalue == 1.5


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


def _pbh_bits(result):
    """A PBH result with each offending eigenvalue as the hex of its real and imaginary parts."""
    return (result.passed, result.test, [(m.eigenvalue.real.hex(), m.eigenvalue.imag.hex(),
                                          m.test, m.deficiency) for m in result.offending])


def _pbh_parity_cases(rng):
    """Systems whose PBH reports must equal the all-SVD oracle's.

    Generated systems on graphs with and without cycles, nodes of 0 to
    3 states and 0 to 2 channels, A scaled to a spectral radius inside,
    on or outside the unit circle; ``hidden_mode_case`` systems, whose
    hidden modes a random orthogonal similarity mixes into every
    coordinate; the remark1 product; ``diag(1.5, 1.5, 1.5)`` and a 2 x 2
    Jordan block at 1.5, with B and C zero.
    """
    for k in range(60):
        count = int(rng.integers(1, 7))
        graph = (random_dag if k % 2 else random_graph)(rng, count)
        dims = random_dims(rng, count)
        yield random_system(rng, graph, dims, rho=float(rng.choice([0.8, 1.0, 1.3, 1.7])))
    for k in range(20):
        a, b, _ = hidden_mode_case(rng, int(rng.integers(0, 3)), int(rng.integers(1, 3)), k % 2 == 0)
        n, m = a.shape[0], b.shape[1]
        yield BlockRealization(NodeDims((n,), (m,), (m,)), a, b, b.T)
    with pytest.warns(StabilityWarning):
        yield multiply(packaged_system("remark1_g1")[0], packaged_system("remark1_g2")[0])
    yield BlockRealization(NodeDims((3,), (1,), (1,)), A=np.diag([1.5, 1.5, 1.5]))
    yield BlockRealization(NodeDims((2,), (1,), (1,)), A=[[1.5, 1.0], [0.0, 1.5]])


def test_pbh_reports_equal_the_all_svd_scan_bitwise(rng):
    """Verdicts, offending eigenvalue bits and deficiencies match the oracle, at two tolerances."""
    outcomes = Counter()
    for real in _pbh_parity_cases(rng):
        for tol in (1e-9, 1e-4):
            for test, name in ((pbh_stabilizable, "stabilizable"), (pbh_detectable, "detectable")):
                result = test(real, tol)
                assert _pbh_bits(result) == _pbh_bits(oracle_pbh(real, name, tol)), (real.dims, tol)
                outcomes[result.passed] += 1
                outcomes["deficiency", max((m.deficiency for m in result.offending), default=0)] += 1
    # Both verdicts occur, and the triple eigenvalue's deficiency of 3.
    assert outcomes[True] and outcomes[False] and outcomes["deficiency", 3]


def _planted_mode(rng, scale, rotate):
    """(A, B) with one unstable mode, or a pair, that B reaches only through ``scale``.

    In the basis ``V`` of ``A = V diag V^-1``, the mode's rows of
    ``V^-1 B`` are multiplied by ``scale``; with ``rotate`` the mode is
    a complex pair, a scaled rotation block.
    """
    n = int(rng.integers(3, 7))
    block = np.diag(rng.uniform(-0.9, 0.9, size=n))
    radius = float(rng.uniform(1.1, 1.8))
    if rotate:
        angle = float(rng.uniform(0.3, 2.8))
        block[:2, :2] = radius * np.array([[np.cos(angle), -np.sin(angle)],
                                           [np.sin(angle), np.cos(angle)]])
    else:
        block[0, 0] = radius * float(rng.choice([-1.0, 1.0]))
    coords = rng.normal(size=(n, int(rng.integers(1, 3))))
    coords[:2 if rotate else 1] *= scale
    basis = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
    return basis @ block @ np.linalg.inv(basis), basis @ coords


def test_pbh_certificate_passes_only_heads_the_svd_passes(rng):
    """Soundness and reach of the Cholesky certificate as a planted mode's input fades.

    The input reaching one unstable mode (real, or a complex pair) is
    scaled by 1e-14 to 1e-2.  Every head the certificate passes has
    full rank by the oracle's SVD, at the default tolerance and a wide
    one; and at the default every head whose smallest singular value is
    at least 1e-5 of the pencil's Frobenius norm is passed, so the
    certificate is not vacuous.  The scan itself matches the oracle.
    """
    certified = Counter()
    for scale in np.logspace(-14, -2, 13):
        for k in range(6):
            a, b = _planted_mode(rng, scale, k % 2 == 1)
            n = a.shape[0]
            real = BlockRealization(NodeDims((n,), (b.shape[1],), (1,)), a, b)
            for tol in (1e-9, 1e-3):
                heads = _group_heads([lam for lam in real.eigenvalues if abs(lam) >= 1.0 - tol], tol)
                for lam, passed in zip(heads, _gram_certified(real.A, real.B, heads, tol)):
                    pencil = np.hstack([_shifted(real.A, -lam), real.B])
                    sv = np.linalg.svd(pencil, compute_uv=False)
                    full_rank = sv[n - 1] > sv[0] * max(pencil.shape[1] * _EPS, tol)
                    assert full_rank or not passed, (scale, lam, sv[n - 1] / sv[0])
                    if tol == 1e-9 and sv[n - 1] >= 1e-5 * np.linalg.norm(pencil):
                        assert passed, (scale, lam, sv[n - 1] / np.linalg.norm(pencil))
                    certified[passed] += 1
                result = pbh_stabilizable(real, tol)
                assert _pbh_bits(result) == _pbh_bits(oracle_pbh(real, "stabilizable", tol))
    assert certified[True] and certified[False]


def test_pbh_certifies_a_chain_with_no_svd(rng, monkeypatch):
    """A 40-node chain, a quarter of its nodes unstable: one Cholesky per head and test, no SVD."""
    real = random_chain(rng, 40, 10)
    heads = int(np.count_nonzero(np.abs(np.linalg.eigvals(real.A)) >= 1.0))
    assert heads == 10
    calls = Counter()
    for name in ("svd", "cholesky"):
        def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    assert pbh_stabilizable(real).passed and pbh_detectable(real).passed
    assert calls == {"cholesky": 2 * heads}


def test_pbh_refuses_a_chain_driven_only_at_its_head():
    """A 30-node chain with one input, at its head, is not stabilizable.

    The modes far downstream are reached only through many couplings of
    about 0.3, so the pencil's smallest singular value at them is below
    1e-10 of its largest: far under the cutoff.  The certificate must
    pass none of those heads; the offending list is the oracle's, and the
    controllability-matrix oracle agrees.
    """
    full = random_chain(np.random.default_rng(1), 30, 7)
    real = BlockRealization(NodeDims((2,) * 30, (1,) + (0,) * 29, (1,) * 30),
                            full.A, full.B[:, :1], full.C)
    result = pbh_stabilizable(real)
    assert not result.passed
    assert _pbh_bits(result) == _pbh_bits(oracle_pbh(real, "stabilizable"))
    assert not oracle_stabilizable(real.A, real.B)


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


def _spectrum_cases(rng):
    """Realizations on DAGs and on graphs with cycles, with and without self-loops.

    Nodes carry 0 to 3 states, so zero-width nodes and components of
    several sizes occur; some A blocks have complex eigenvalues.  The
    last case is a 4x4 grid, which is one component.
    """
    for k in range(48):
        count = int(rng.integers(1, 11))
        make, top = (random_dag, 0.5) if k % 2 else (random_graph, 0.3)
        graph = make(rng, count, edge_prob=float(rng.uniform(0.05, top)), self_loops=k % 4 < 2)
        yield random_system(rng, graph, random_dims(rng, count))
    graph = build_graph(16, [(i, j) for i in range(16) for j in range(16)
                             if abs(i // 4 - j // 4) + abs(i % 4 - j % 4) <= 1])
    yield random_system(rng, graph, NodeDims((2,) * 16, (1,) * 16, (1,) * 16))


def test_components_match_transitive_closure_oracle(rng):
    for real in _spectrum_cases(rng):
        blocks = list(zip(real.occupancy.A.rows.tolist(), real.occupancy.A.cols.tolist()))
        components = strongly_connected_components(real.num_nodes, blocks)
        assert sorted(components) == sorted(oracle_components(real))
        # Each component reads only itself and components listed before it.
        position = {node: k for k, comp in enumerate(components) for node in comp}
        for i, j in blocks:
            assert position[j] <= position[i]


def test_eigenvalues_match_per_component_oracle(rng):
    """The spectrum is the oracle's, bitwise; one component gives ``eigvals(A)`` itself."""
    one_component = 0
    for real in _spectrum_cases(rng):
        expected = oracle_spectrum(real)
        assert real.eigenvalues.dtype == expected.dtype
        assert np.array_equal(np.sort(real.eigenvalues), np.sort(expected))
        occupied = [comp for comp in oracle_components(real)
                    if sum(real.dims.states[k] for k in comp)]
        if len(occupied) == 1:
            one_component += 1
            assert np.array_equal(real.eigenvalues, np.linalg.eigvals(real.A))
    assert one_component >= 5


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
    """Refusals are the dense oracle's; each value is the block oracle's, bit for bit."""
    seen = Counter()
    for real in _guard_probe_systems(rng):
        for z in probe_points(rng, real):
            got, want = _outcome(eval_transfer, real, z), _outcome(oracle_transfer, real, z)
            if isinstance(want, type):
                assert got is want, (z, got, want)
                seen[want] += 1
                seen["singular"] += bool(real.n and np.any(np.diag(real.A) == z))
            else:
                want = oracle_block_transfer(real, z)
                assert isinstance(got, np.ndarray) and got.dtype == want.dtype
                assert np.array_equal(got, want), z
                seen["value"] += 1
    assert seen["value"] > 300 and seen[PoleError] > 100 and seen["singular"] > 20


def test_eval_transfer_single_input_above_100_states_matches_oracle_bitwise(rng):
    # One component of 120 states and a lone input column: the value is
    # the inverse of zI - A times B, then C times that, as the block
    # oracle forms it, and so has its bits.
    a = rng.normal(size=(120, 120)) * 0.05
    real = BlockRealization(
        NodeDims((120,), (1,), (2,)), a, rng.normal(size=(120, 1)), rng.normal(size=(2, 120)))
    assert len(real.components) == 1
    for z in (1.5, 0.3 + 2.0j, -2.5 - 0.1j):
        got, want = eval_transfer(real, z), oracle_block_transfer(real, z)
        assert got.dtype == want.dtype and np.array_equal(got, want), z


def _mirror_probes(rng, systems):
    """Upper-half circle points of 16 around the systems' poles, then :func:`probe_points`."""
    radius = 2.0 * (1.0 + max(spectral_radius(s) for s in systems))
    points = [radius * np.exp(2j * np.pi * k / 16) for k in range(9)]
    for real in systems:
        points.extend(probe_points(rng, real))
    return points


def _mirrored(evaluate, *args, z):
    """``evaluate(*args, z)`` and ``evaluate(*args, conj z)``, an error as its type."""
    def outcome(point):
        try:
            return evaluate(*args, point)
        except (PoleError, NumericalError) as exc:
            return type(exc)
    return outcome(z), outcome(np.conj(z))


def test_eval_transfer_is_conjugate_symmetric_bitwise(rng):
    """Real systems: ``G(conj z)`` is ``conj G(z)`` bit for bit, and a refusal is mirrored too."""
    # One input and more than 100 states, as in the rounding-only oracle test above.
    a = rng.normal(size=(120, 120)) * 0.05
    level2 = BlockRealization(
        NodeDims((120,), (1,), (2,)), a, rng.normal(size=(120, 1)), rng.normal(size=(2, 120)))
    seen = Counter()
    for real in [*_guard_probe_systems(rng), level2]:
        for z in _mirror_probes(rng, [real]):
            got, mirrored = _mirrored(eval_transfer, real, z=z)
            if isinstance(got, type):
                assert mirrored is got, (z, got, mirrored)
                seen[got] += 1
            else:
                assert isinstance(mirrored, np.ndarray), z
                assert np.array_equal(mirrored, np.conj(got)), z
                seen["value"] += 1
    assert seen["value"] > 1200 and seen[PoleError] > 200


def test_pointwise_checks_are_conjugate_symmetric_bitwise(rng):
    """The loop identities, the guarded loop inverse and the compose oracles mirror exactly."""
    seen = Counter()
    for _ in range(12):
        plant, controller, _ = random_loop_pair(rng)
        for z in _mirror_probes(rng, [plant, controller]):
            values = [_mirrored(eval_transfer, s, z=z) for s in (plant, controller)]
            if any(isinstance(v, type) for pair in values for v in pair):
                continue
            (p_z, p_bar), (c_z, c_bar) = values
            try:
                loop, loop_inv = _loop_inverse(p_z, c_z)
            except PoleError:
                for refused in (_loop_inverse, _identity_deviations):
                    with pytest.raises(PoleError):
                        refused(p_bar, c_bar)
                seen[PoleError] += 1
                continue
            loop_bar, inv_bar = _loop_inverse(p_bar, c_bar)
            assert np.array_equal(loop_bar, np.conj(loop))
            assert np.array_equal(inv_bar, np.conj(loop_inv))
            assert _identity_deviations(p_z, c_z) == _identity_deviations(p_bar, c_bar)
            seen["loop"] += 1

    def square(rng):
        graph = random_graph(rng, int(rng.integers(2, 5)))
        chan = tuple(int(v) for v in rng.integers(0, 3, graph.num_nodes))
        real = random_system(rng, graph, NodeDims(
            tuple(int(v) for v in rng.integers(0, 4, graph.num_nodes)), chan, chan), rho=0.8)
        return BlockRealization(real.dims, real.A, real.B, real.C, real.D + 2.0 * np.eye(real.p))

    for _ in range(8):
        left, right, _ = random_add_pair(rng)
        outer, inner, _ = random_mul_pair(rng)
        unit = square(rng)
        for op, result, factors, combine in (
            ("add", add(left, right), (left, right), lambda vals: vals[0] + vals[1]),
            ("mul", multiply(outer, inner), (outer, inner), lambda vals: vals[0] @ vals[1]),
            ("inv", invert(unit), (unit,), lambda vals: np.linalg.inv(vals[0])),
        ):
            def gap(z):
                return scaled_deviation(
                    eval_transfer(result, z), combine([eval_transfer(f, z) for f in factors]))

            for z in _mirror_probes(rng, [result, *factors]):
                got, mirrored = _mirrored(gap, z=z)
                assert got == mirrored, (op, z, got, mirrored)
                seen[op] += not isinstance(got, type)
    assert seen["loop"] > 150 and min(seen["add"], seen["mul"], seen["inv"]) > 100


def test_circle_samples_evaluates_the_closed_upper_half(river, monkeypatch):
    """Points 0 .. N // 2 are evaluated once per system, in order; each deviation's worst is kept.

    Each system's bounds and values come from one pass over those
    points; then the guard runs on each system in order at each point.
    A point refused by the guard or by ``deviations`` is pushed once by
    1.37 and every system is evaluated there again with
    ``eval_transfer``; no conjugate point is evaluated.
    """
    real, _ = river
    slower = BlockRealization(real.dims, 0.5 * real.A, real.B, real.C, real.D)
    systems = [real, slower]
    radius = 2.0 * (1.0 + spectral_radius(real))
    passes = []
    seen = []
    refused = set()

    def stacked(system, points):
        passes.append((systems.index(system), list(points)))
        for z in points:
            yield ("bound", z), z

    def guarded(system, z, bound, value):
        assert bound == ("bound", z) and value == z
        seen.append(("guard", systems.index(system), z))
        if seen[-1][1:] in refused:
            raise PoleError("refused by the guard")
        return value

    def one_point(system, z):
        seen.append(("eval", systems.index(system), z))
        return z

    monkeypatch.setattr(netreal.realization, "_transfers", stacked)
    monkeypatch.setattr(netreal.realization, "_guarded", guarded)
    monkeypatch.setattr(netreal.realization, "eval_transfer", one_point)

    def deviations(g1, g2):
        assert g1 == g2
        if ("deviations", g1) in refused:
            raise PoleError("refused by the deviations")
        return (g1.imag, g1.real, -g1.real)

    def worst(points):
        return tuple(max(values) for values in zip(*(deviations(z, z) for z in points)))

    def visits(points, how="guard"):
        return [(how, k, z) for z in points for k in range(len(systems))]

    for num_points in (1, 2, 3, 16):
        upper = [radius * np.exp(2j * np.pi * k / num_points)
                 for k in range(num_points // 2 + 1)]
        passes.clear()
        seen.clear()
        got, got_radius = circle_samples(systems, num_points, deviations)
        assert got_radius == radius
        assert passes == [(0, upper), (1, upper)], num_points
        assert seen == visits(upper), num_points
        assert got == worst(upper), num_points
        # The evaluated points lie on the closed upper half; the rest are their conjugates.
        assert all(z.imag >= 0.0 for *_, z in seen)

    upper = [radius * np.exp(2j * np.pi * k / 16) for k in range(9)]
    for refuser, k in ((0, 3), ("deviations", 8)):
        refused = {(refuser, upper[k])}
        passes.clear()
        seen.clear()
        got, _ = circle_samples(systems, 16, deviations)
        pushed = upper[k] * 1.37
        # A guard refusal stops at the refusing system; the deviations see every value.
        tried = [("guard", 0, upper[k])] if refuser == 0 else visits([upper[k]])
        assert passes == [(0, upper), (1, upper)]
        assert seen == [*visits(upper[:k]), *tried, *visits([pushed], "eval"), *visits(upper[k + 1:])]
        assert got == worst([*upper[:k], pushed, *upper[k + 1:]])
        assert np.conj(pushed) not in [z for *_, z in seen]

    # A deviation that refuses every push ends the sampling with the last refusal.
    pushes = [upper[0]]
    while len(pushes) < 8:
        pushes.append(pushes[-1] * 1.37)
    refused = {("deviations", z) for z in pushes}
    seen.clear()
    with pytest.raises(NumericalError, match="refused: refused by the deviations"):
        circle_samples(systems, 16, deviations)
    assert seen == visits(pushes[:1]) + visits(pushes[1:], "eval")


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
                inverse = _certified_inverse(shifted, np.inf, PoleError)
            except PoleError:
                continue  # exactly singular: the inverse raised and cond is inf
            bound = _frobenius_cond_bound(shifted, inverse)
            cond = np.linalg.cond(shifted)
            # The guard passes without an SVD only below half the limit,
            # so it never passes a point the exact cond would refuse.
            assert bound >= 0.5 * min(cond, POLE_COND_LIMIT), (z, bound, cond)
            certified += bound < 0.5 * POLE_COND_LIMIT
            refused += cond >= POLE_COND_LIMIT
    assert certified > 300 and refused > 50


def test_component_bound_is_never_below_the_exact_cond(rng):
    """The comparison-matrix bound tops cond_2(zI - A); with one component it is the Frobenius bound.

    Up to the rounding of the exact cond itself, about ``cond * eps``
    relative, so within 1e-3 below the limit.  The library's bound, from
    inverses stacked over points and components and two substitutions
    per point, is the oracle's rounded up by its error estimate for the
    small inverses: never below it, and within 1e-6 above it while it is
    below 1e8.  All points of several circles and the probes, but those
    whose block is exactly singular, go through one stacked pass, and
    each bound is bitwise the one-point pass's.
    """
    seen = Counter()
    for real in _spectrum_cases(rng):
        if real.n == 0:
            continue
        rho = spectral_radius(real)
        circles = [(2.0 * (1.0 + rho), 16), (rho, 12), (0.5 * rho + 1e-3, 7)]
        points = probe_points(rng, real) + [
            complex(radius * np.exp(2j * np.pi * k / count))
            for radius, count in circles for k in range(count // 2 + 1)]
        alone = [next(_transfers(real, np.array([z]))) for z in points]
        regular = [k for k, (_, value) in enumerate(alone) if value is not None]
        # The pass takes any number of points; the chunks of _transfers only bound its memory.
        with np.errstate(over="ignore", invalid="ignore"):
            stacked, _ = _stacked_pass(real, np.array([points[k] for k in regular]))
        assert stacked.shape == (len(regular),)
        for k, got in zip(regular, stacked):
            assert np.array_equal(got, alone[k][0], equal_nan=True), points[k]
        seen["singular"] += len(points) - len(regular)
        for z, (got, _) in zip(points, alone):
            shifted = _shifted(real.A, z, negate=True)
            bound, cond = oracle_component_bound(real, z), np.linalg.cond(shifted)
            assert bound >= (1.0 - 1e-3) * min(cond, POLE_COND_LIMIT), (z, bound, cond)
            seen["certified"] += bound < 0.5 * POLE_COND_LIMIT
            seen["refused"] += cond >= POLE_COND_LIMIT
            if bound < 1e300:
                assert bound * (1.0 - 1e-12) <= got, z
                assert bound >= 1e8 or got <= bound * (1.0 + 1e-6), z
            else:
                assert not got < 0.5 * POLE_COND_LIMIT, z
            if len(real.components) > 1:
                seen["several"] += 1
            elif np.isfinite(bound):
                assert bound == _frobenius_cond_bound(shifted, np.linalg.inv(shifted)), z
                seen["one"] += 1
    assert seen["certified"] > 1000 and seen["refused"] > 100
    assert seen["several"] > 1000 and seen["one"] > 100
    assert seen["singular"] > 0


def _one_state_cascade(diagonal):
    """A cascade of one-state nodes, driven at its head and read at its tail; node ``i`` reads ``i - 1``."""
    count = len(diagonal)
    a = np.diag(diagonal) + np.diag([0.4] * (count - 1), k=-1)
    b, c = np.zeros((count, 1)), np.zeros((1, count))
    b[0, 0], c[0, -1] = 1.0, 1.0
    none = (0,) * (count - 1)
    return BlockRealization(NodeDims((1,) * count, (1,) + none, none + (1,)), a, b, c)


def test_stacked_bound_reads_inf_only_at_a_singular_point(monkeypatch):
    """An eigenvalue of one diagonal block makes its own point ``(inf, None)``, not its whole chunk.

    A 30-node cascade with one state per node, one input and one output
    is thirty components, 120 entries per point, so a chunk takes the
    floor's sixteen points.  The chunk that holds the eigenvalue 0.5
    fails as a whole; each of its points is then run alone, and the
    others come out, bounds and values, as they would in a chunk without
    it.
    """
    diagonal = 0.6 * np.cos(np.arange(30))
    diagonal[14] = 0.5
    real = _one_state_cascade(diagonal)
    assert len(real.components) == 30 and real._bound_terms.step == 16
    circle = [complex(1.5 * np.exp(2j * np.pi * k / 28)) for k in range(15)]
    regular = list(_transfers(real, np.array(circle)))
    for place in range(16):
        got = list(_transfers(real, np.array(circle[:place] + [0.5] + circle[place:])))
        assert len(got) == 16 and got[place] == (np.inf, None)
        others = got[:place] + got[place + 1:]
        for (bound, value), (want_bound, want_value) in zip(others, regular):
            assert np.isfinite(bound) and bound == want_bound
            assert np.array_equal(value, want_value)
    calls = _counting_linalg(monkeypatch)
    list(_transfers(real, np.array(circle + [0.5])))
    assert calls == [("inv", (16 * 30, 1, 1))] + [("inv", (30, 1, 1))] * 16


def test_transfers_leave_the_overflow_setting_as_they_found_it():
    """The pass silences overflow while it runs, not while its points wait to be taken."""
    real = _one_state_cascade([1e200, 0.5, -0.5])
    points = np.array([1.5, -1.5j])
    with np.errstate(over="raise", invalid="ignore"), pytest.raises(FloatingPointError, match="overflow"):
        _stacked_pass(real, points)
    before = np.geterr()
    transfers = _transfers(real, points)
    bound, _ = next(transfers)
    assert np.geterr() == before and bound == np.inf
    transfers.close()


def _entries_per_point(real):
    """The working entries of one point of the stacked pass, counted block by block."""
    sizes = [len(states) for states in real.components]
    coupled = sum(sizes[i] * sizes[l]
                  for i, rows in enumerate(real.components)
                  for l, cols in enumerate(real.components)
                  if i != l and np.any(real.A[np.ix_(rows, cols)]))
    return 2 * sum(size * size for size in sizes) + coupled + (real.n + real.p) * real.m


def _dense_step(real):
    """Points per chunk under the dense budget alone, ``n (n + m)`` entries, and at least one."""
    return max(1, real.n * (real.n + real.m) // _entries_per_point(real))


def test_step_holds_the_most_points_whose_working_arrays_fit_one_evaluation(rng):
    """A chunk fits one dense evaluation, or the floor; one more point would fit neither.

    Per point: the diagonal blocks and their inverses, ``2 sum n_i^2``;
    the coupling products, ``sum n_i n_l`` over the coupled pairs; the
    states and the values, ``(n + p) m``.  The dense budget is one
    evaluation's ``n x n`` shift and ``n x m`` states, ``n (n + m)``
    entries.  The floor admits up to 16 points whose working arrays hold
    at most ``2**15`` entries.  A chunk holds at least one point, however
    large.  The stabilized 40-node chain's loop (n = 160) takes one
    point per chunk; its plant (n = 80, m = p = 40), six.
    """
    cases = [*_spectrum_cases(rng), *_several_component_cases(rng)]
    plant, controller, _ = stabilized_chain(rng, 40, 10)
    cases += [plant, close_loop(plant, controller).realization]
    kinds = Counter()
    for real in cases:
        if real.n == 0:
            continue
        per_point, dense = _entries_per_point(real), _dense_step(real)
        budget, step = real.n * (real.n + real.m), real._bound_terms.step
        assert step >= dense
        if step > dense:
            assert step <= 16 and step * per_point <= 2 ** 15
        assert budget < (step + 1) * per_point
        assert step + 1 > 16 or 2 ** 15 < (step + 1) * per_point
        kinds["one" if step == 1 else "dense" if step == dense else "floored"] += 1
    assert min(kinds[k] for k in ("one", "dense", "floored")) > 0, kinds
    assert plant._bound_terms.step == 6


def _several_component_cases(rng):
    """Systems whose A has two or more strongly connected components with states.

    DAGs and graphs with cycles, with and without self-loops, with
    zero-width nodes; closed loops of stabilized chains; and a cascade
    of 120 states driven by one input at its head.
    """
    k = 0
    while k < 60:
        count = int(rng.integers(2, 9))
        make = random_dag if k % 2 else random_graph
        graph = make(rng, count, edge_prob=float(rng.uniform(0.05, 0.4)), self_loops=k % 4 < 2)
        real = random_system(rng, graph, random_dims(rng, count),
                             scale=float(rng.choice([0.3, 1.0, 3.0])))
        if len(real.components) > 1:
            k += 1
            yield real
    for count in (3, 12):
        plant, controller, _ = stabilized_chain(rng, count, 1)
        yield close_loop(plant, controller).realization
    chain = build_graph(60, [(i, i) for i in range(60)] + [(i, i - 1) for i in range(1, 60)])
    yield random_system(rng, chain, NodeDims((2,) * 60, (1,) + (0,) * 59, (1,) * 60), rho=0.8)


def test_eval_transfer_matches_oracle_bitwise_with_several_components(rng):
    """Each value is the block oracle's, bit for bit, or both it and the dense oracle refuse.

    A refusal names the exact cond.  The single-input cascade above 100
    states is bitwise too, as the block oracle forms the same products.
    """
    seen = Counter()
    for real in _several_component_cases(rng):
        assert len(real.components) > 1
        radius = 2.0 * (1.0 + spectral_radius(real))
        for z in [radius * np.exp(2j * np.pi * k / 16) for k in range(9)] + probe_points(rng, real):
            got, want = _outcome(eval_transfer, real, z), _outcome(oracle_transfer, real, z)
            if isinstance(want, type):
                assert got is want, (z, got, want)
                seen[want] += 1
                if want is PoleError:
                    cond = np.linalg.cond(_shifted(real.A, z, negate=True))
                    with pytest.raises(PoleError) as refusal:
                        eval_transfer(real, z)
                    assert str(refusal.value).endswith(f"cond(zI - A) = {cond:.3e}"), z
            else:
                want = oracle_block_transfer(real, z)
                assert isinstance(got, np.ndarray) and got.dtype == want.dtype
                assert np.array_equal(got, want), z
                seen["value"] += 1
                seen["single input"] += real.n > 100 and real.m == 1
    assert seen["value"] > 500 and seen[PoleError] > 150 and seen["single input"] > 40


def test_block_oracle_is_within_forward_error_of_dense_solve(rng):
    """The block substitution and the dense solve agree within a first-order forward-error bound.

    With ``M = zI - A``, ``c = cond_2(M)``, ``kappa`` the largest
    ``cond_2(M_ii)`` over the components, ``X = M^{-1} B`` and ``u = eps / 2``
    (norms Frobenius unless marked 2), the two values differ by at most
    ``7 n eps c (kappa ||C|| ||X|| + ||D||)``.  To first order in ``u``:

    - the dense LU solve with partial pivoting solves ``(M + E) X = B``
      with ``||E||_2 <= 3 n u ||M||_2`` (the ``gamma_3n`` backward error,
      taking the growth of ``|L| |U|`` over ``|M|`` as 1, as partial
      pivoting gives in practice), so its states are off by
      ``3 n u c ||X||``;
    - in block row ``i`` of the substitution, put back as a residual
      ``M_ii (error of X_i)``: the inverse, itself an LU solve against
      ``I``, leaves ``M_ii W_i - I`` of size ``3 n u kappa``, times
      ``||M_ii X_i|| <= ||M||_2 ||X||``; the products ``W_i B_i``,
      ``W_i A_il`` and ``(W_i A_il) X_l`` add ``n u kappa ||M||_2 ||X||``
      each (Cauchy-Schwarz over the block row bounds the sum over
      ``l``), and the additions ``u ||M||_2 ||X||``: 7 in all.  Down the
      order these residuals become states off by ``||M^{-1}||_2`` times
      them, ``7 n u kappa c ||X||``;
    - ``C X`` adds ``n u ||C|| ||X||`` on each side, and ``+ D``
      ``u (||C|| ||X|| + ||D||)`` on each side.

    Summed, with ``c, kappa, n >= 1``: ``(3 + 7 + 2 + 2) n u`` times
    ``c (kappa ||C|| ||X|| + ||D||)``, which is ``7 n eps`` times it.
    The largest ratio of the gap to this bound seen here is 0.010: a
    gap of one unit in the last place at a 4-state point with ``c`` 1.5.
    """
    worst = 0.0
    count = 0
    for real in [*_guard_probe_systems(rng), *_several_component_cases(rng)]:
        if real.n == 0:
            continue
        radius = 2.0 * (1.0 + spectral_radius(real))
        for z in [radius * np.exp(2j * np.pi * k / 16) for k in range(9)] + probe_points(rng, real):
            dense = _outcome(oracle_transfer, real, z)
            if isinstance(dense, type):
                continue
            shifted = complex(z) * np.eye(real.n) - real.A
            states = np.linalg.solve(shifted, real.B.astype(complex))
            kappa = max(np.linalg.cond(shifted[np.ix_(c, c)]) for c in real.components)
            scale = kappa * np.linalg.norm(real.C) * np.linalg.norm(states) + np.linalg.norm(real.D)
            bound = 7 * real.n * _EPS * np.linalg.cond(shifted) * scale
            gap = np.linalg.norm(oracle_block_transfer(real, z) - dense)
            assert gap <= bound, (z, gap, bound)
            worst = max(worst, gap / bound if bound else 0.0)
            count += 1
    assert count > 1000 and worst > 0.0


def _value_pass_cases(rng):
    """Systems for the values of the stacked pass.

    Components of mixed sizes, zero-width nodes and components that read
    several earlier ones (:func:`_several_component_cases`).  Each comes
    again with one input at its first node and one output at its last,
    so that chunks hold several points; some come without inputs and
    without outputs.  Then a plant like the benchmark's pipeline, a
    stabilized 40-node chain (n = 80, m = p = 40), whose chunks take the
    floor, six points each; and again with one node's block triangular,
    with the exact eigenvalue 0.5.  Last, the one-component grid of
    :func:`_spectrum_cases`.
    """
    for k, real in enumerate(_several_component_cases(rng)):
        yield real
        d, none = real.dims, (0,) * real.num_nodes
        ends = NodeDims(d.states, (1,) + none[1:], none[1:] + (1,))
        yield BlockRealization(ends, real.A, rng.normal(size=(real.n, 1)),
                               rng.normal(size=(1, real.n)), rng.normal(size=(1, 1)))
        if k % 8 == 0:
            yield BlockRealization(NodeDims(d.states, none, d.outputs), real.A, None, real.C)
            yield BlockRealization(NodeDims(d.states, d.inputs, none), real.A, real.B)
    plant, _, _ = stabilized_chain(rng, 40, 10)
    yield plant
    a = plant.A.copy()
    a[40:42, 40:42] = [[0.5, 0.3], [0.0, -0.2]]
    yield BlockRealization(plant.dims, a, plant.B, plant.C)
    *_, grid = _spectrum_cases(rng)
    yield grid


def test_stacked_values_are_the_one_point_values_bitwise(rng):
    """Each point of a stacked pass reads the bound and the value of the pass at that point alone.

    Where the guard passes, that value is :func:`eval_transfer`'s; a
    point whose block is exactly singular reads ``(inf, None)`` in both,
    and the other points of its chunk read their own.  Every case also
    takes ``z = 0.5``, after the circle: on the pipeline-like plant with
    that exact eigenvalue, the fourth point of its second floored chunk.
    """
    seen = Counter()
    for real in _value_pass_cases(rng):
        radius = 2.0 * (1.0 + spectral_radius(real))
        points = np.array([radius * np.exp(2j * np.pi * k / 16) for k in range(9)] + [0.5]
                          + probe_points(rng, real), dtype=complex)
        floored = real.n > 0 and real._bound_terms.step > _dense_step(real)
        pipeline = floored and real.n == 80 and real.m == real.p == 40
        stacked = list(_transfers(real, points))
        assert len(stacked) == len(points)
        for z, (bound, value) in zip(points, stacked):
            (one_bound, one_value), = _transfers(real, np.array([z]))
            assert np.array_equal(bound, one_bound, equal_nan=True), z
            if value is None:
                assert one_value is None and bound == np.inf
                seen["singular"] += 1
                seen["singular in a floored chunk"] += floored
                seen["singular in a pipeline-like chunk"] += pipeline
                continue
            assert value.dtype == complex and value.shape == (real.p, real.m)
            assert np.array_equal(value, one_value, equal_nan=True), z
            evaluated = _outcome(eval_transfer, real, z)
            if not isinstance(evaluated, type):
                assert np.array_equal(evaluated, value), z
                seen["value"] += 1
        pairs = Counter(i for i, _ in real._bound_terms.pairs)
        seen["stacked"] += real._bound_terms.step > 1
        seen["floored"] += floored
        seen["pipeline-like"] += pipeline
        seen["mixed sizes"] += len({len(states) for states in real.components}) > 1
        seen["zero-width node"] += 0 in real.dims.states
        seen["several read"] += max(pairs.values(), default=0) > 1
        seen["no inputs"] += real.m == 0
        seen["no outputs"] += real.p == 0
        seen["one component"] += len(real.components) == 1
    assert seen["value"] > 800 and seen["singular"] > 0
    assert min(seen[k] for k in ("mixed sizes", "zero-width node", "several read")) > 10
    assert seen["stacked"] > 5 and seen["floored"] > 5 and seen["pipeline-like"] == 2
    assert seen["singular in a floored chunk"] > 1 and seen["singular in a pipeline-like chunk"] == 1
    assert min(seen[k] for k in ("no inputs", "no outputs", "one component")) > 0


def test_circle_samples_peaks_below_one_dense_shift():
    """A 300-node chain, two states per node, samples in less memory than one ``zI - A``.

    One dense evaluation forms the 600 x 600 complex shift, 5.76 MB.
    The stacked pass holds the 2 x 2 diagonal blocks, their inverses,
    the coupling products, the states and the values of one chunk.
    """
    import tracemalloc

    real = _single_input_chain(300)
    shift_bytes = real.n * real.n * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        (worst,), _ = circle_samples([real], 16, lambda value: (float(np.abs(value).max()),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(worst)
    assert peak < shift_bytes, (peak, shift_bytes)


def _counting_linalg(monkeypatch):
    """Record every ``np.linalg`` ``solve``, ``inv``, ``cond`` and ``svd`` call.

    A solve is recorded with its right-hand side's width, an inverse
    with its stack's shape.
    """
    calls = []
    for name in ("solve", "inv", "cond", "svd"):
        def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            if _name == "solve":
                calls.append((_name, args[1].shape[1]))
            elif _name == "inv":
                calls.append((_name, args[0].shape))
            else:
                calls.append((_name,))
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_eval_transfer_substitutes_over_the_components_without_a_solve(rng, monkeypatch):
    """A 40-node chain and a grid each invert their diagonal blocks once per point, and solve nothing.

    The chain inverts its components' diagonal blocks, one stack per
    block size; the grid, one component, inverts its n x n matrix.
    Neither runs a solve, an exact cond or an SVD on the sampling circle.
    """
    plant, controller, _ = stabilized_chain(rng, 40, 10)
    chain = close_loop(plant, controller).realization
    *_, grid = _spectrum_cases(rng)
    assert len(chain.components) == 40 and len(grid.components) == 1
    calls = _counting_linalg(monkeypatch)
    for real in (chain, grid):
        sizes = Counter(len(states) for states in real.components)
        stacks = [("inv", (sizes[size], size, size)) for size in sorted(sizes)]
        radius = 2.0 * (1.0 + spectral_radius(real))
        for k in range(9):
            calls.clear()
            eval_transfer(real, radius * np.exp(2j * np.pi * k / 16))
            assert calls == stacks, (k, calls)
    assert stacks == [("inv", (1, grid.n, grid.n))]


def _single_input_chain(count):
    """A cascade of ``count`` two-state nodes, driven at its head and read at its tail.

    Node ``i`` reads itself and node ``i - 1``; every node block is the
    same stable rotation, and every coupling the same.
    """
    n = 2 * count
    a = np.zeros((n, n))
    for i in range(count):
        a[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[0.5, -0.3], [0.3, 0.5]]
        if i:
            a[2 * i:2 * i + 2, 2 * i - 2:2 * i] = [[0.2, 0.0], [0.1, 0.3]]
    b, c = np.zeros((n, 1)), np.zeros((1, n))
    b[:2, 0], c[0, -2:] = [1.0, 0.5], [0.5, 1.0]
    dims = NodeDims((2,) * count, (1,) + (0,) * (count - 1), (0,) * (count - 1) + (1,))
    return BlockRealization(dims, a, b, c)


def test_circle_samples_bounds_each_system_in_one_stacked_pass(rng, monkeypatch):
    """One inverse stack per component size and chunk for each system, and no solve.

    Bounds and values come from the same pass.  The single-input
    chain's nine upper-half points fit one chunk of one dense
    evaluation; the grid's, one component, fit one chunk of the floor,
    eleven points of 2816 entries.  A point pushed outward takes the
    one-point pass for every system.
    """
    chain = _single_input_chain(60)
    *_, grid = _spectrum_cases(rng)
    assert chain._bound_terms.step >= 9 and grid._bound_terms.step == 11
    one_point = {chain: [("inv", (60, 2, 2))], grid: [("inv", (1, grid.n, grid.n))]}
    attempts = []

    def deviations(*values):
        attempts.append(len(attempts))
        if len(attempts) == 4:
            raise PoleError("refused once")
        return (0.0,)

    calls = _counting_linalg(monkeypatch)
    circle_samples([chain, grid], 16, deviations)
    pushed = one_point[chain] + one_point[grid]
    assert calls == [("inv", (9 * 60, 2, 2)), ("inv", (9, grid.n, grid.n))] + pushed


def test_eval_transfer_exactly_singular_shift_raises_pole_error():
    a = np.diag([0.5, -0.25])
    real = BlockRealization(NodeDims((1, 1), (1, 1), (1, 1)), a, np.eye(2), np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(0.5 * np.eye(2) - a, np.eye(2))
    with pytest.raises(PoleError, match=r"cond\(zI - A\) = inf"):
        eval_transfer(real, 0.5)


def test_refusal_messages_print_z_as_given():
    """A pole refusal prints ``z`` as the caller passed it; the sampler's two errors keep their text."""
    a = np.diag([0.25, -0.5])
    real = BlockRealization(NodeDims((1, 1), (1, 1), (1, 1)), a, np.eye(2), np.eye(2))
    for z, shown in ((0.25, "0.25"), (0.25 + 0j, "(0.25+0j)"), (np.complex128(0.25), "(0.25+0j)")):
        with pytest.raises(PoleError) as refusal:
            eval_transfer(real, z)
        assert str(refusal.value) == f"z = {shown} is too close to a pole: cond(zI - A) = inf"

    def refusing(_):
        raise PoleError("refused")

    one = BlockRealization(DIMS1, A=[[0.5]], B=[[1.0]], C=[[1.0]])
    with pytest.raises(NumericalError) as failure:
        circle_samples([one], 4, refusing)
    assert str(failure.value) == (
        "no usable sample point found near radius 3.000e+00; the last was refused: refused")
    with pytest.raises(NumericalError) as failure:
        circle_samples([one], 4, lambda _: (np.inf,))
    assert str(failure.value) == "sampled value at z = 3.000e+00+0.000e+00j is not finite: it overflowed"


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
    # An infinite tolerance would call any two transfers equal.
    bumped = BlockRealization(real.dims, real.A, real.B, real.C, real.D + 1.0)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(InputError, match="rel_tol must be finite and nonnegative"):
            transfer_equal(real, bumped, rel_tol=bad)


def test_transfer_equal_refuses_counts_that_are_not_integers_or_too_large(river):
    """A count is an integer, never a bool, and its points must fit one complex array."""
    real, _ = river
    for bad in (2.5, "4", True):
        with pytest.raises(InputError, match="num_points must be an integer"):
            transfer_equal(real, real, num_points=bad)
    with pytest.raises(InputError, match="num_points must be below"):
        transfer_equal(real, real, num_points=2**62)
    assert transfer_equal(real, real, num_points=np.int64(3)).equal


def test_random_compatible_generator_is_bitwise_clean(rng):
    from _support import random_dims, random_graph

    for _ in range(10):
        graph = random_graph(rng, int(rng.integers(2, 5)))
        dims = random_dims(rng, graph.num_nodes)
        real = random_system(rng, graph, dims)
        assert check_compatibility(real, graph).ok
