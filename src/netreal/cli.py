"""Command-line front end.

Every checking subcommand (``check``, ``compose``, ``closeloop``,
``imc``) opens its report with the compatibility stage of the system it
checks (:func:`_opened`) and ends in :func:`_emit`.  That prints the
report (human-readable by default, ``--json`` for the machine format
described by ``schemas/report.schema.json``) and exits 0 when all
stages pass, 1 when a mathematical check fails, 2 on unusable input.
``--save`` and then ``-o`` are written before the report is printed,
also when a stage fails, so a write that fails leaves stdout empty.

Each sampled check is one :func:`~netreal.realization.circle_samples`
call, which evaluates each of its systems once per evaluated point, its
pole-guard bounds and transfer values from one stacked pass over the
strongly connected components of A, and keeps the worst deviation; no
realization is built only to be evaluated.
The ``--points`` points come in conjugate pairs, so only the
``points // 2 + 1`` of the closed upper half are evaluated.  ``compose``
compares the result with its factors combined pointwise (:func:`_pointwise`),
``closeloop`` samples the loop, plant and controller in one pass for
both its ``pointwise-inverse`` and ``identities`` stages, and ``imc``'s
``parameter-roundtrip`` compares ``q`` with ``C (I + P C)^-1`` formed
from the plant's and the controller's values.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .algebra import add, invert, multiply, node_major_indices
from .demos import run_demo_remark1, run_demo_river
from .errors import InputError, NetRealError
from .imc import imc_controller
from .loops import _IDENTITIES, _identity_deviations, _loop_inverse, close_loop
from .realization import (
    DMode,
    _require_count,
    _require_tolerance,
    check_compatibility,
    circle_samples,
    pbh_detectable,
    pbh_stabilizable,
    scaled_deviation,
)
from .sim import simulate_distributed, simulate_lti
from .sysio import (
    Report,
    json_text,
    read_system,
    read_trajectory,
    trajectory_to_csv,
    trajectory_to_obj,
    write_json,
    write_system,
    write_trajectory,
)


def _opened(args, name, real, graph, stage="compatibility", **detail) -> Report:
    """A report named ``name`` whose first stage checks ``real`` against ``graph``."""
    compat = check_compatibility(
        real, graph, DMode.EDGE_SPARSE if args.d_mode == "edge" else DMode.STRICT)
    report = Report(name=name)
    report.add(stage, compat.ok, mode=args.d_mode, **detail,
               violations=compat.violation_labels)
    return report


def _emit(report: Report, args, saved=None) -> int:
    """Write ``saved`` (a realization and its graph) to ``--save``, write ``-o``, print."""
    if getattr(args, "save", None):
        write_system(args.save, *saved, name=report.name)
    if args.out:
        write_json(args.out, report.to_obj())
    if args.json:
        print(json_text(report.to_obj()))
    else:
        if report.name:
            print(f"report: {report.name}")
        for stage in report.stages:
            verdict = "PASS" if stage.passed else "FAIL"
            parts = ", ".join(f"{k}={_fmt(v)}" for k, v in stage.detail.items())
            print(f"  [{verdict}] {stage.name}" + (f" ({parts})" if parts else ""))
        if report.note:
            print(f"note: {report.note}")
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3e}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def _pointwise(result, factors, combine, num_points):
    """Worst scaled gap between the result's transfer and a pointwise oracle.

    :func:`~netreal.realization.circle_samples` evaluates the result and
    each factor once per evaluated sample point; ``combine`` forms the
    oracle from the factors' values, in order, and must commute with
    conjugation, as sums, products and inverses do.
    """
    (worst,), _ = circle_samples(
        [result, *factors], num_points,
        lambda value, *values: (scaled_deviation(value, combine(values)),))
    return worst


def _add_pointwise(report: Report, stage: str, worst: float, args) -> None:
    """A stage that passes when the worst scaled gap is at most ``--rtol``."""
    report.add(stage, worst <= args.rtol,
               max_deviation=worst, rel_tol=args.rtol, num_points=args.points)


def _cmd_check(args) -> int:
    real, graph, name = read_system(args.system)
    report = _opened(args, name or str(args.system), real, graph)
    for result in (pbh_stabilizable(real, args.pbh_tol), pbh_detectable(real, args.pbh_tol)):
        report.add(f"pbh-{result.test}", result.passed,
                   offending=[str(m.eigenvalue) for m in result.offending])
    return _emit(report, args)


def _read_pair(first_path, second_path, what: str):
    """Two systems on one graph, with the graph and each one's name (or path)."""
    first, graph, name1 = read_system(first_path)
    second, graph2, name2 = read_system(second_path)
    if graph2 != graph:
        raise InputError(f"{what} must share one graph")
    return first, second, graph, name1 or first_path, name2 or second_path


def _cmd_compose(args) -> int:
    if args.op == "inv":
        if args.second is not None:
            raise InputError("--op inv takes a single system")
        first, graph, name1 = read_system(args.first)
        result = invert(first)
        factors = [first]
        combine = lambda vals: np.linalg.inv(vals[0])
        label = f"inv({name1 or args.first})"
    else:
        if args.second is None:
            raise InputError(f"--op {args.op} needs two systems")
        first, second, graph, label1, label2 = _read_pair(
            args.first, args.second, "composed systems")
        factors = [first, second]
        if args.op == "add":
            result = add(first, second)
            combine = lambda vals: vals[0] + vals[1]
        else:
            result = multiply(first, second)
            combine = lambda vals: vals[0] @ vals[1]
        label = f"{args.op}({label1}, {label2})"

    report = _opened(args, label, result, graph, states=result.n)
    _add_pointwise(report, "pointwise-transfer",
                   _pointwise(result, factors, combine, args.points), args)
    return _emit(report, args, (result, graph))


def _cmd_closeloop(args) -> int:
    plant, controller, graph, label1, label2 = _read_pair(
        args.plant, args.controller, "plant and controller")
    loop = close_loop(plant, controller)

    report = _opened(args, f"loop({label1}, {label2})", loop.realization, graph,
                     states=loop.realization.n)
    chan_perm = node_major_indices(plant.dims.outputs, plant.dims.inputs)

    def deviations(loop_z, p_z, c_z):
        big = np.block([[np.eye(plant.p), -p_z], [c_z, np.eye(plant.m)]])
        gap = scaled_deviation(loop_z, np.linalg.inv(big[np.ix_(chan_perm, chan_perm)]))
        return (gap, *_identity_deviations(p_z, c_z))

    # One circle for both sampled stages: each system is evaluated once per point.
    (worst, *identities), _ = circle_samples(
        (loop.realization, plant, controller), args.points, deviations)
    _add_pointwise(report, "pointwise-inverse", worst, args)
    report.add(
        "identities", all(v <= args.rtol for v in identities),
        deviations=dict(zip(_IDENTITIES, identities)), rel_tol=args.rtol,
    )
    report.add(
        "stability", loop.stable, spectral_radius=loop.spectral_radius,
    )
    return _emit(report, args, (loop.realization, graph))


def _cmd_imc(args) -> int:
    plant, q, graph, label1, label2 = _read_pair(
        args.plant, args.q, "plant and design parameter")
    controller = imc_controller(plant, q)

    report = _opened(args, f"imc({label1}, {label2})", controller, graph,
                     "controller-compatibility", states=controller.n)
    # Closing the loop must give q back: q = C (I + P C)^-1, pointwise.
    worst = _pointwise(
        q, [plant, controller], lambda vals: vals[1] @ _loop_inverse(*vals)[1], args.points)
    _add_pointwise(report, "parameter-roundtrip", worst, args)
    return _emit(report, args, (controller, graph))


def _cmd_simulate(args) -> int:
    real, graph, _ = read_system(args.system)
    u = read_trajectory(args.input, real.dims.inputs)
    x0 = None
    if args.x0:
        try:
            x0 = [float(v) for v in args.x0.split(",")]
        except ValueError:
            raise InputError(
                f"--x0 must be comma-separated numbers, got {args.x0!r}") from None
    if args.distributed:
        y, _, messages = simulate_distributed(real, graph, u, x0)
        print(f"messages: {messages}", file=sys.stderr)
    else:
        y, _ = simulate_lti(real, u, x0)
    if args.out:
        write_trajectory(args.out, y)
    else:
        if args.json:
            print(json.dumps(trajectory_to_obj(y)))
        else:
            sys.stdout.write(trajectory_to_csv(y))
    return 0


def _cmd_demo(args) -> int:
    if args.scenario == "river":
        q = None
        if args.q_file:
            q, _, _ = read_system(args.q_file)
        report = run_demo_river(q, num_points=args.points, rel_tol=args.rtol)
    else:
        report = run_demo_remark1()
    return _emit(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netreal",
        description="Certify, compose, and simulate networked state-space systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, d_mode=True):
        if d_mode:
            p.add_argument("--d-mode", choices=["strict", "edge"], default="strict",
                           help="direct-term rule: block-diagonal only, or edges too")
        p.add_argument("--json", action="store_true",
                       help="print the machine-readable report")
        p.add_argument("-o", "--out", help="also write the JSON report to this path")

    def refusing(name, convert, require):
        """An option type: ``convert`` the text, then refuse what ``require`` refuses."""
        def parse(text: str):
            value = convert(text)
            try:
                require(value)
            except InputError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
            return value
        parse.__name__ = name  # argparse's "invalid <name> value" message
        return parse

    # NaN, negative and infinite tolerances are refused, as are sample counts below one.
    tolerance = refusing("tolerance", float, lambda v: _require_tolerance(v, "tolerance"))
    count = refusing("count", int, _require_count)

    def tolerances(p):
        p.add_argument("--points", type=count, default=16,
                       help="sample frequencies per pointwise check")
        p.add_argument("--rtol", type=tolerance, default=1e-8,
                       help="scaled-deviation tolerance for pointwise checks")

    p = sub.add_parser("check", help="certify one system against its graph")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--pbh-tol", type=tolerance, default=1e-9,
                   help="rank-test tolerance for the PBH certificates")
    common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("compose", help="combine systems and check the result")
    p.add_argument("first", help="system JSON file (left factor)")
    p.add_argument("second", nargs="?", help="system JSON file (right factor)")
    p.add_argument("--op", choices=["add", "mul", "inv"], required=True)
    p.add_argument("--save", help="write the composed system to this path")
    tolerances(p)
    common(p)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("closeloop", help="close a feedback loop and check it")
    p.add_argument("plant", help="plant system JSON file (strictly proper)")
    p.add_argument("controller", help="controller system JSON file")
    p.add_argument("--save", help="write the closed-loop system to this path")
    tolerances(p)
    common(p)
    p.set_defaults(handler=_cmd_closeloop)

    p = sub.add_parser("imc", help="build an internal-model controller")
    p.add_argument("plant", help="plant system JSON file (strictly proper)")
    p.add_argument("q", help="design-parameter system JSON file")
    p.add_argument("--save", help="write the controller to this path")
    tolerances(p)
    common(p)
    p.set_defaults(handler=_cmd_imc)

    p = sub.add_parser("simulate", help="run a system on an input trajectory")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--input", required=True,
                   help="input trajectory (.csv or .json)")
    p.add_argument("--x0", help="comma-separated initial state")
    p.add_argument("--distributed", action="store_true",
                   help="per-node run that only reads along edges")
    p.add_argument("--json", action="store_true",
                   help="print the trajectory as JSON instead of CSV")
    p.add_argument("-o", "--out",
                   help="write the output trajectory here (.csv or .json)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("demo", help="run a packaged scenario")
    p.add_argument("scenario", choices=["river", "remark1"])
    p.add_argument("--q-file", help="river only: design parameter override")
    tolerances(p)
    common(p, d_mode=False)
    p.set_defaults(handler=_cmd_demo)

    return parser


#: Built by the first ``main`` call, not at import, and kept: each build
#: leaves a few hundred objects in reference cycles.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NetRealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
