"""The benchmark's workloads: seeded input files, command lists, checks.

A workload writes its inputs once, then is run as passes.  A pass is the
workload's command sequence, each command a ``netreal`` CLI invocation
on the generated files, followed by the correctness checks of its
outputs.  Every command is one operation for ``attempted``/``failed``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gen

#: A CLI command result as seen by a check: exit code, stdout, stderr.
Outcome = tuple[int, str, str]

#: Largest scaled gap allowed between ``simulate`` and the dense numpy
#: recursion: ``max|y - y_ref| <= DENSE_RTOL * max(1, max|y_ref|)``.
#: Both sum the same products in different orders; on these stable
#: systems the gap stays within a few hundred ulps of the largest output.
DENSE_RTOL = 1e-12


@dataclass
class Command:
    """One CLI invocation, the metric it counts toward, and its check."""

    metric: str
    argv: list[str]
    outputs: list[str]
    check: Callable[[Outcome], str | None]


@dataclass
class Prepared:
    """A workload's inputs on disk, ready to be run pass after pass."""

    commands: list[Command]
    sizes: dict
    #: The simulated system and its input, for the dense baseline.
    sim_system: gen.System | None = None
    sim_input: np.ndarray | None = None
    #: Per-layer properties of the workload that need no timing.
    counts: dict = field(default_factory=dict)


def _report_check(outcome: Outcome) -> str | None:
    """A reporting command must exit 0 with every stage passing."""
    rc, out, err = outcome
    if rc != 0:
        return f"exit code {rc}, expected 0: {err.strip()[:200]}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not a JSON report"
    failed = [s["name"] for s in report.get("stages", []) if not s.get("pass")]
    if report.get("pass") is not True or failed:
        return f"report pass={report.get('pass')}, failing stages {failed}"
    return None


def _sim_counts(sys_: gen.System, steps: int) -> dict:
    blocks = sys_.nonzero_blocks()
    a_blocks = np.any(
        sys_.A.reshape(sys_.count, sys_.n, sys_.count, sys_.n) != 0.0, axis=(1, 3))
    remote = [(i, j) for i, j in sys_.edges if i != j]
    return {
        "sim.useful_flops": 2 * steps * sum(r * c for r, c in blocks),
        "sim.nonzero_block_frac": float(np.count_nonzero(a_blocks)) / sys_.count ** 2,
        "sim.messages": steps * len(remote),
        "sim.message_floats": steps * sys_.n * len(remote),
    }


def _simulation(workdir: str, sys_: gen.System, u: np.ndarray, name: str) -> Prepared:
    """Dense and distributed ``simulate`` of one system on one input."""
    system = os.path.join(workdir, f"{name}.json")
    u_path = os.path.join(workdir, "u.csv")
    gen.write_system(system, sys_, name)
    gen.write_csv(u_path, u, sys_.count, sys_.m)
    y_lti = os.path.join(workdir, "y_lti.csv")
    y_dist = os.path.join(workdir, "y_dist.csv")
    counts = _sim_counts(sys_, u.shape[0])
    seen: dict = {}

    def check_lti(outcome: Outcome) -> str | None:
        rc, _, err = outcome
        seen.pop("y", None)
        if rc != 0:
            return f"simulate exit code {rc}: {err.strip()[:200]}"
        y = gen.read_csv(y_lti)
        seen["y"] = y
        if "ref" not in seen:
            seen["ref"] = gen.dense_response(sys_, u)
        ref = seen["ref"]
        if y.shape != ref.shape:
            return f"output shape {y.shape}, expected {ref.shape}"
        gap = float(np.max(np.abs(y - ref))) if y.size else 0.0
        limit = DENSE_RTOL * max(1.0, float(np.max(np.abs(ref))))
        if not gap <= limit:
            return f"simulate differs from the dense recursion by {gap:.3e} > {limit:.3e}"
        return None

    def check_dist(outcome: Outcome) -> str | None:
        rc, _, err = outcome
        if rc != 0:
            return f"simulate --distributed exit code {rc}: {err.strip()[:200]}"
        want = f"messages: {counts['sim.messages']}"
        if err.strip() != want:
            return f"stderr {err.strip()[:80]!r}, expected {want!r}"
        y = gen.read_csv(y_dist)
        if "y" not in seen or not np.array_equal(y, seen["y"]):
            return "distributed output is not bitwise equal to the dense run"
        return None

    commands = [
        Command("simulate_s", ["simulate", system, "--input", u_path, "-o", y_lti],
                [y_lti], check_lti),
        Command("simulate_dist_s",
                ["simulate", system, "--input", u_path, "--distributed", "-o", y_dist],
                [y_dist], check_dist),
    ]
    sizes = {"N": sys_.count, "n_per_node": sys_.n, "m_per_node": sys_.m,
             "p_per_node": sys_.p, "edges": len(sys_.edges), "T": int(u.shape[0])}
    return Prepared(commands, sizes, sys_, u, counts)


def sim_grid(rng, workdir: str, scale: dict) -> Prepared:
    rows, cols, steps = scale["rows"], scale["cols"], scale["T"]
    sys_ = gen.scaled_system(rng, rows * cols, 2, 1, 1, gen.grid_edges(rows, cols))
    return _simulation(workdir, sys_, rng.normal(size=(steps, rows * cols)), "grid")


def sim_wide(rng, workdir: str, scale: dict) -> Prepared:
    count, steps = scale["N"], scale["T"]
    edges = gen.random_in_edges(rng, count, scale["k"])
    sys_ = gen.scaled_system(rng, count, 16, 4, 4, edges)
    return _simulation(workdir, sys_, rng.normal(size=(steps, count * 4)), "wide")


#: Closed loops built by the pipeline stay below this spectral radius.
_LOOP_RADIUS = 0.9


def pipeline_chain(rng, workdir: str, scale: dict) -> Prepared:
    """River cascade at scale: certificate, compositions, loop, IMC."""
    count = scale["N"]
    n, m, p = 2, 1, 1
    unstable = rng.choice(count, size=count // 4, replace=False)
    systems = {
        "plant_u": gen.chain_system(rng, count, n, m, p, unstable=unstable),
        "g1": gen.chain_system(rng, count, n, m, p, direct=0.5),
        "g2": gen.chain_system(rng, count, n, m, p, direct=0.5),
        "g3": gen.chain_system(rng, count, n, m, p, direct=2.0),
        "plant": gen.chain_system(rng, count, n, m, p),
        "q": gen.chain_system(rng, count, n, m, p, direct=0.5),
    }
    # As the gain falls the loop's spectrum tends to the open-loop poles,
    # all within 0.7, so the search ends.
    gain = 0.2
    for _ in range(40):
        ctrl = gen.chain_system(rng, count, n, m, p, direct=0.0, gain=gain)
        if gen.chain_closed_loop_radius(systems["plant"], ctrl) < _LOOP_RADIUS:
            break
        gain *= 0.5
    else:
        raise RuntimeError("no stabilising controller gain found")
    systems["ctrl"] = ctrl
    path = {}
    for name, sys_ in systems.items():
        path[name] = os.path.join(workdir, f"{name}.json")
        gen.write_system(path[name], sys_, name)
    saved = os.path.join(workdir, "imc_ctrl.json")
    per_node = n + systems["q"].n

    def check_imc(outcome: Outcome) -> str | None:
        problem = _report_check(outcome)
        if problem:
            return problem
        if not os.path.isfile(saved):
            return "imc --save wrote no controller file"
        with open(saved, "r", encoding="utf-8") as fh:
            dims = json.load(fh)["dims"]
        if len(dims) != count or any(d["n"] != per_node for d in dims):
            return "saved controller does not hold a plant copy and q per node"
        return None

    commands = [
        Command("check_s", ["check", path["plant_u"], "--json"], [], _report_check),
        Command("compose_s", ["compose", "--op", "add", path["g1"], path["g2"], "--json"],
                [], _report_check),
        Command("compose_s", ["compose", "--op", "mul", path["g1"], path["g2"], "--json"],
                [], _report_check),
        Command("compose_s", ["compose", "--op", "inv", path["g3"], "--json"],
                [], _report_check),
        Command("closeloop_s", ["closeloop", path["plant"], path["ctrl"], "--json"],
                [], _report_check),
        Command("imc_s", ["imc", path["plant"], path["q"], "--save", saved, "--json"],
                [saved], check_imc),
    ]
    sizes = {"N": count, "n_per_node": n, "m_per_node": m, "p_per_node": p,
             "edges": len(gen.chain_edges(count)), "unstable_nodes": len(unstable),
             "controller_gain": gain}
    return Prepared(commands, sizes)


#: Each workload's input builder, its full-size scale, and the reference
#: kernel (see ``reference.py``) whose speed tracks its own work.
WORKLOADS = {
    "sim-grid": (sim_grid, {"rows": 8, "cols": 8, "T": 10}, "loop"),
    "sim-wide": (sim_wide, {"N": 12, "k": 4, "T": 500}, "loop"),
    "pipeline-chain": (pipeline_chain, {"N": 40}, "lapack"),
}
