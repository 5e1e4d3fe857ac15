"""Acceptance suite: one verdict line per criterion.

Each test prints ``acceptance NN <name>: PASS|FAIL`` before asserting,
so a full run (``pytest -v -s tests/test_acceptance.py``) reads as a
checklist.  Tolerances are pinned here and never loosened to make a
test green; a FAIL line means the library genuinely missed the mark.
"""

import time

import numpy as np
import pytest

from netreal import (
    BlockRealization,
    StabilityWarning,
    DMode,
    NodeDims,
    SignalTrajectory,
    certify_witness,
    check_compatibility,
    eval_transfer,
    imc_controller,
    multiply,
    packaged_system,
    pbh_detectable,
    pbh_stabilizable,
    q_param,
    run_demo_remark1,
    scaled_deviation,
    simulate_distributed,
    simulate_imc_loop,
    simulate_lti,
    transfer_equal,
    verify_identities,
)
from _support import (
    hidden_mode_case,
    oracle_detectable,
    oracle_stabilizable,
    random_add_pair,
    random_dims,
    random_graph,
    random_loop_pair,
    random_mul_pair,
    random_system,
)


def _verdict(num: int, name: str, ok: bool) -> bool:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_01_widened_cascade_certificate_and_equivalence():
    start = time.monotonic()
    plant, graph, _ = packaged_system("river")
    widened, _, _ = packaged_system("river_bar")
    cert = certify_witness(widened, graph)
    agreement = transfer_equal(plant, widened, num_points=16, rel_tol=1e-9)
    elapsed = time.monotonic() - start
    ok = cert.ok and agreement.equal and elapsed < 1.0
    assert _verdict(1, "widened-cascade-certificate", ok), (
        cert, agreement.max_deviation, elapsed)


def test_02_cascade_dc_gain_and_step_response():
    plant, _, _ = packaged_system("river")
    dc = eval_transfer(plant, 1.0)
    expected = np.diag([-10.0, -5.0, -10.0 / 3.0])
    dc_ok = np.max(np.abs(dc - expected)) <= 1e-9
    steps = 201
    u = SignalTrajectory(np.ones((steps, 3)), (1, 1, 1), "u")
    y, _ = simulate_lti(plant, u)
    final = expected @ np.ones(3)
    settle_ok = np.max(np.abs(y.values[200] - final)) <= 1e-6
    ok = dc_ok and settle_ok
    assert _verdict(2, "cascade-dc-gain-and-step", ok), (dc, y.values[200])


def test_03_imc_controller_structure_bitwise():
    plant, graph, _ = packaged_system("river")
    q, _, _ = packaged_system("river_q")
    controller = imc_controller(plant, q)
    expected_a = np.array([
        [0.9, -0.2, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.5, 0.0, 0.0, 0.0, 0.0],
        [0.1, 0.2, 0.8, -0.2, 0.0, 0.0],
        [0.0, 0.1, 1.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.2, 0.2, 0.7, -0.2],
        [0.0, 0.0, 0.0, 0.1, 1.0, 0.5],
    ])
    expected_b = np.zeros((6, 3))
    expected_b[1, 0] = expected_b[3, 1] = expected_b[5, 2] = 1.0
    expected_c = np.zeros((3, 6))
    expected_c[0, 1] = expected_c[1, 3] = expected_c[2, 5] = 0.2
    ok = (
        controller.n == 6
        and np.array_equal(controller.A, expected_a)
        and np.array_equal(controller.B, expected_b)
        and np.array_equal(controller.C, expected_c)
        and np.array_equal(controller.D, np.zeros((3, 3)))
        and check_compatibility(controller, graph, DMode.STRICT).ok
    )
    assert _verdict(3, "imc-controller-structure", ok), controller.A


def test_04_random_compositions_stay_compatible_and_exact():
    rng = np.random.default_rng(41)
    start = time.monotonic()
    sample_z = (2.4, -1.8, 1.2 + 2.1j, 0.3 - 2.7j, -3.1)
    ok = True
    for index in range(200):
        if index % 2 == 0:
            left, right, graph = random_add_pair(rng, max_nodes=6, max_states=3)
            from netreal import add

            result = add(left, right)
            oracle = lambda z: eval_transfer(left, z) + eval_transfer(right, z)
        else:
            outer, inner, graph = random_mul_pair(rng, max_nodes=6, max_states=3)
            result = multiply(outer, inner)
            oracle = lambda z: eval_transfer(outer, z) @ eval_transfer(inner, z)
        if not check_compatibility(result, graph, DMode.STRICT).ok:
            ok = False
            break
        worst = max(
            scaled_deviation(eval_transfer(result, z), oracle(z))
            for z in sample_z
        )
        if worst > 1e-8:
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    assert _verdict(4, "random-composition-closure", ok), (index, elapsed)


def test_05_closed_loops_and_parameter_roundtrips():
    rng = np.random.default_rng(52)
    from netreal import close_loop

    ok = True
    loops = 0
    while loops < 100 and ok:
        plant, controller, graph = random_loop_pair(rng, max_nodes=4, max_states=2)
        loop = close_loop(plant, controller)
        if not check_compatibility(
                loop.realization, graph, DMode.STRICT).ok:
            ok = False
            break
        report = verify_identities(plant, controller, num_points=8, rel_tol=1e-8)
        ok = ok and report.passed
        loops += 1
    roundtrips = 0
    while roundtrips < 100 and ok:
        plant, q, _ = random_loop_pair(rng, max_nodes=4, max_states=2)
        if plant.m == 0 or plant.p == 0:
            continue
        recovered = q_param(plant, imc_controller(plant, q))
        ok = ok and transfer_equal(recovered, q, num_points=8, rel_tol=1e-8).equal
        roundtrips += 1
    assert _verdict(5, "feedback-closure-and-roundtrip", ok), (loops, roundtrips)


def test_06_exact_model_loop_tracks_ideal_map():
    plant, _, _ = packaged_system("river")
    q, _, _ = packaged_system("river_q")
    controller = imc_controller(plant, q)
    ideal = multiply(plant, q_param(plant, controller))
    rng = np.random.default_rng(63)
    steps = 100
    reference = SignalTrajectory(
        np.vstack([np.ones((50, 3)), rng.normal(size=(50, 3))]), (1, 1, 1), "r")
    u, y, err = simulate_imc_loop(plant, plant, q, reference)
    y_ideal, _ = simulate_lti(ideal, reference)
    error_zero = bool(np.all(err.values == 0.0))
    track = float(np.max(np.abs(y.values - y_ideal.values)))
    map_match = transfer_equal(ideal, multiply(plant, q), rel_tol=1e-8).equal
    ok = error_zero and track <= 1e-8 and map_match and err.length == steps
    assert _verdict(6, "exact-model-loop-tracking", ok), (error_zero, track)


def test_07_distributed_equals_centralized_bitwise():
    rng = np.random.default_rng(74)
    widened, graph, _ = packaged_system("river_bar")
    ok = True
    cases = [(widened, graph)]
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(2, 6)))
        dims = random_dims(rng, g.num_nodes)
        cases.append((random_system(rng, g, dims, rho=0.85), g))
    for real, g in cases:
        u = SignalTrajectory(
            rng.normal(size=(100, real.m)), real.dims.inputs, "u")
        x0 = rng.normal(size=real.n)
        y_c, x_c = simulate_lti(real, u, x0)
        y_d, x_d, messages = simulate_distributed(real, g, u, x0)
        if not (np.array_equal(y_c.values, y_d.values)
                and np.array_equal(x_c.values, x_d.values)):
            ok = False
            break
        if messages != 100 * g.num_non_self_edges:
            ok = False
            break
    assert _verdict(7, "distributed-equals-centralized", ok)


def test_08_fan_in_demo_reports_mixed_certificates():
    report = run_demo_remark1()
    stages = {s.name: s for s in report.stages}
    first, graph, _ = packaged_system("remark1_g1")
    strict = check_compatibility(first, graph, DMode.STRICT)
    violations_ok = {(v.matrix, v.block) for v in strict.violations} == {
        ("D", (2, 1)),
        ("D", (3, 1)),
    }
    with pytest.warns(StabilityWarning):
        product = multiply(first, packaged_system("remark1_g2")[0])
    worst = 0.0
    for z in (3.0, 4.0, 1.0 + 2.0j):
        expected = np.zeros((4, 4), dtype=complex)
        for cell in ((2, 0), (2, 1), (3, 0), (3, 1)):
            expected[cell] = 1.0 / (z - 2.0)
        worst = max(worst, float(np.max(np.abs(eval_transfer(product, z) - expected))))
    # verdicts describe this construction only; whether some other
    # compatible realization of the product admits certificates is left open
    certificates_ok = (
        pbh_stabilizable(product).passed
        and not pbh_detectable(product).passed
        and oracle_stabilizable(product.A, product.B)
        and not oracle_detectable(product.A, product.C)
    )
    ok = (
        report.passed
        and bool(report.note)
        and set(stages) == {
            "first-factor-strict", "first-factor-edge-sparse",
            "second-factor-strict", "product-strict",
            "product-transfer", "product-pbh",
        }
        and violations_ok
        and worst <= 1e-10
        and certificates_ok
    )
    assert _verdict(8, "fan-in-mixed-certificates", ok), (worst, stages.keys())


def test_09_pbh_agrees_with_brute_force_oracle():
    rng = np.random.default_rng(95)
    ok = True
    for _ in range(60):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        radius = np.max(np.abs(np.linalg.eigvals(a)))
        if radius > 0:
            a *= float(rng.uniform(*rng.choice([(0.4, 0.8), (1.1, 1.7)]))) / radius
        b = rng.normal(size=(n, int(rng.integers(1, 3))))
        c = rng.normal(size=(int(rng.integers(1, 3)), n))
        real = BlockRealization(
            NodeDims((n,), (b.shape[1],), (c.shape[0],)), a, b, c)
        ok = ok and pbh_stabilizable(real).passed == oracle_stabilizable(a, b)
        ok = ok and pbh_detectable(real).passed == oracle_detectable(a, c)
        if not ok:
            break
    count = 0
    while ok and count < 40:
        visible = int(rng.integers(0, 3))
        hidden = int(rng.integers(1, 3))
        a, b, expected = hidden_mode_case(rng, visible, hidden, count % 2 == 0)
        dims = NodeDims((a.shape[0],), (b.shape[1],), (a.shape[0],))
        real = BlockRealization(dims, a, b, np.eye(a.shape[0]))
        got = pbh_stabilizable(real).passed
        ok = ok and got == expected == oracle_stabilizable(a, b)
        dual = BlockRealization(
            NodeDims((a.shape[0],), (a.shape[0],), (b.shape[1],)),
            a.T, np.eye(a.shape[0]), b.T)
        got_det = pbh_detectable(dual).passed
        ok = ok and got_det == expected == oracle_detectable(a.T, b.T)
        count += 1
    assert _verdict(9, "pbh-matches-brute-force", ok)
