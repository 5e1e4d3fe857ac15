"""Packaged demonstration scenarios.

Two scenarios ship with the library.  ``run_demo_river`` exercises the
full pipeline on a three-node cascade (a chain of river reaches where
each node reads its upstream neighbor): certificate for the widened
five-state realization, transfer agreement with the dense three-state
model, internal-model controller construction, feedback identities, and
an exact-model closed-loop run.  ``run_demo_remark1`` probes a fan-in
network where two individually compatible factors compose into a system
whose unstable mode is invisible from the outputs; the verdicts record
what the certificates actually say.
"""

from __future__ import annotations

import warnings
from importlib import resources

import numpy as np

from .algebra import multiply
from .errors import InputError, StabilityWarning
from .imc import ideal_maps, imc_controller, simulate_imc_loop
from .loops import verify_identities
from .realization import (
    BlockRealization,
    DMode,
    check_compatibility,
    certify_witness,
    eval_transfer,
    pbh_detectable,
    pbh_stabilizable,
    transfer_equal,
)
from .sim import SignalTrajectory, simulate_lti
from .sysio import Report, read_system

_PACKAGED = ("river", "river_bar", "river_q", "remark1_g1", "remark1_g2")


def packaged_system(name: str):
    """Load one of the shipped example systems by file stem."""
    if name not in _PACKAGED:
        raise InputError(
            f"unknown packaged system '{name}'; available: {', '.join(_PACKAGED)}")
    with resources.as_file(resources.files("netreal").joinpath("data", f"{name}.json")) as path:
        return read_system(path)


def run_demo_river(
    q: BlockRealization | None = None,
    num_points: int = 16,
    rel_tol: float = 1e-8,
) -> Report:
    """Certificates, composition, and a closed-loop run on the cascade.

    ``q`` overrides the packaged design parameter; it must map the
    plant's outputs back to its inputs node by node.
    """
    plant, graph, _ = packaged_system("river")
    widened, _, _ = packaged_system("river_bar")
    if q is None:
        q, _, _ = packaged_system("river_q")

    report = Report(name="river")
    cert = certify_witness(widened, graph)
    report.add(
        "nonminimal-certificate",
        cert.ok,
        states=widened.n,
        compatible=cert.compatibility.ok,
        stabilizable=cert.pbh.stabilizable,
        detectable=cert.pbh.detectable,
    )
    agreement = transfer_equal(plant, widened, num_points=num_points, rel_tol=1e-9)
    report.add(
        "transfer-equivalence",
        agreement.equal,
        max_deviation=agreement.max_deviation,
        num_points=agreement.num_points,
        rel_tol=1e-9,
    )
    controller = imc_controller(plant, q)
    compat = check_compatibility(controller, graph, DMode.STRICT)
    report.add(
        "imc-compatibility",
        compat.ok,
        controller_states=controller.n,
        violations=compat.violation_labels,
    )
    if compat.ok:
        identities = verify_identities(
            plant, controller, num_points=num_points, rel_tol=rel_tol)
        report.add(
            "feedback-identities",
            identities.passed,
            deviations=identities.deviations,
            rel_tol=rel_tol,
        )
        steps = 100
        reference = SignalTrajectory(
            np.ones((steps, plant.p)), plant.dims.outputs, "r")
        _, y, prediction_error = simulate_imc_loop(plant, plant, q, reference)
        _, ideal = ideal_maps(plant, q)
        y_ref, _ = simulate_lti(ideal, reference)
        loop_dev = float(np.max(np.abs(y.values - y_ref.values)))
        error_zero = bool(np.all(prediction_error.values == 0.0))
        report.add(
            "exact-model-loop",
            error_zero and loop_dev <= rel_tol,
            steps=steps,
            prediction_error_zero=error_zero,
            reference_map_deviation=loop_dev,
        )
    else:
        report.note = (
            "controller breaks locality, so the loop stages were skipped")
    return report


_FANIN_EXPECTED_CELLS = ((2, 0), (2, 1), (3, 0), (3, 1))
#: Largest entry gap the cascade's transfer may show against ``1 / (z - 2)``.
_FANIN_TRANSFER_TOL = 1e-10


def run_demo_remark1() -> Report:
    """Certificates for the fan-in factors and their cascade.

    The cascade inherits compatibility from the factors, but its
    certificates are genuinely mixed: the pole at z = 2 stays reachable
    from the inputs yet drops out of the outputs.  The report records
    both facts without taking a position on whether a different,
    certified realization of the same transfer exists.
    """
    first, graph, _ = packaged_system("remark1_g1")
    second, _, _ = packaged_system("remark1_g2")

    report = Report(name="fan-in cascade")
    report.note = (
        "Edges point reader -> source: nodes 2 and 3 read nodes 0 and 1. "
        "The first factor needs its direct terms on the cross edges, so it "
        "only passes the relaxed direct-term rule; the cascade passes the "
        "strict rule but its z = 2 mode is undetectable, so this pair of "
        "certificates does not settle realizability of the product.")

    strict_first = check_compatibility(first, graph, DMode.STRICT)
    found = sorted(
        v.block for v in strict_first.violations if v.matrix == "D")
    report.add(
        "first-factor-strict",
        (not strict_first.ok)
        and found == [(2, 1), (3, 1)]
        and all(v.matrix == "D" for v in strict_first.violations),
        violations=strict_first.violation_labels,
    )
    relaxed_first = check_compatibility(first, graph, DMode.EDGE_SPARSE)
    report.add(
        "first-factor-edge-sparse",
        relaxed_first.ok,
        violations=relaxed_first.violation_labels,
    )
    strict_second = check_compatibility(second, graph, DMode.STRICT)
    report.add(
        "second-factor-strict",
        strict_second.ok,
        violations=strict_second.violation_labels,
    )

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        product = multiply(first, second)
    warned = any(issubclass(w.category, StabilityWarning) for w in caught)
    strict_product = check_compatibility(product, graph, DMode.STRICT)
    report.add(
        "product-strict",
        strict_product.ok,
        states=product.n,
        stability_warning=warned,
        violations=strict_product.violation_labels,
    )

    worst = 0.0
    for z in (3.0, 4.0, 1.0 + 2.0j):
        value = eval_transfer(product, z)
        expected = np.zeros((4, 4), dtype=complex)
        for cell in _FANIN_EXPECTED_CELLS:
            expected[cell] = 1.0 / (z - 2.0)
        worst = max(worst, float(np.max(np.abs(value - expected))))
    report.add(
        "product-transfer",
        worst <= _FANIN_TRANSFER_TOL,
        max_deviation=worst,
        tol=_FANIN_TRANSFER_TOL,
        checked_points=["3", "4", "1+2j"],
    )

    pbh_stab = pbh_stabilizable(product)
    pbh_det = pbh_detectable(product)
    report.add(
        "product-pbh",
        pbh_stab.passed and not pbh_det.passed,
        stabilizable=pbh_stab.passed,
        detectable=pbh_det.passed,
        undetectable_modes=[
            {"eigenvalue": m.eigenvalue, "deficiency": m.deficiency}
            for m in pbh_det.offending
        ],
    )
    return report
