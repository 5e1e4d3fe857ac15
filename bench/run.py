"""Seeded end-to-end benchmark of the netreal command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sim-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One client drives ``netreal.cli.main(argv)`` in this process, command
after command (a closed loop), on input files generated from the seed.
Every command's output is checked.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` measures half the
time untraced and half with spans around each layer's public functions,
and reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The last line of stdout is the result as JSON;
``.bench_out/`` keeps a fuller record of each run and the traced spans.
"""

import os

#: BLAS threads, fixed before numpy loads: one client, one thread, so the
#: dense baseline is single-threaded and timings do not depend on the
#: machine's other load through a thread pool.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import gen
import spans
import workloads
from reference import SpeedReference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Set-up is repeated this often per run; ``setup_s`` uses the median.
SETUP_REPEATS = 9
#: Repeats of the dense numpy recursion behind ``sim.dense_ref_s``.
DENSE_REPEATS = 21


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_netreal():
    """Import the checkout's netreal and return its CLI module."""
    if not (SRC / "netreal" / "cli.py").is_file():
        raise BenchError(f"no netreal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("netreal.cli")
    if Path(cli.__file__).resolve().parent != SRC / "netreal":
        raise BenchError(f"netreal was imported from {cli.__file__}, not {SRC}")
    return cli


def declared_metrics() -> tuple[dict, dict]:
    """``(end_to_end, per_layer)`` name-to-unit maps from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_command(cli, cmd: workloads.Command) -> tuple[float, str | None]:
    """Time one CLI invocation, then check it; returns (seconds, problem)."""
    for path in cmd.outputs:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    problem = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(cmd.argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        rc, problem = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if problem is None:
        problem = cmd.check((rc, out.getvalue(), err.getvalue()))
    return elapsed, problem


def run_passes(cli, prepared: workloads.Prepared, seconds: float,
               ref: SpeedReference, tracer: spans.Tracer | None = None) -> list[dict]:
    """Whole passes until ``seconds`` have gone by; at least one.

    Command times are raw seconds.  The reference kernel runs between
    passes, and each pass keeps the factor to reference seconds that its
    two neighbouring kernel runs give.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    before = ref.measure()
    while not passes or time.perf_counter() < deadline:
        gc.collect()
        lo = len(tracer.spans) if tracer else 0
        by_metric: dict = defaultdict(float)
        failures = []
        for cmd in prepared.commands:
            elapsed, problem = run_command(cli, cmd)
            by_metric[cmd.metric] += elapsed
            if problem:
                label = " ".join(os.path.basename(a) for a in cmd.argv[:3])
                failures.append(f"{label}: {problem}")
        after = ref.measure()
        passes.append({"wall": sum(by_metric.values()), "by_metric": dict(by_metric),
                       "factor": ref.factor(before, after),
                       "spans": (lo, len(tracer.spans) if tracer else 0),
                       "attempted": len(prepared.commands), "failures": failures})
        before = after
    return passes


def median_ref(passes, key=lambda p: p["wall"]) -> float:
    """Median over passes of a raw time converted to reference seconds."""
    return statistics.median(key(p) * p["factor"] for p in passes)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0 for no values."""
    return float(np.quantile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: spans.Tracer, prepared, untraced, traced,
                  ref: SpeedReference) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass sums.

    Times are in reference seconds, like the end-to-end ones.
    """
    recs = tracer.spans
    own = spans.self_times(recs)
    per_pass = []
    evals = []
    for p in traced:
        busy: dict = defaultdict(float)
        calls: Counter = Counter()
        io_bytes = {"in": 0, "out": 0}
        for k in range(*p["spans"]):
            name = recs[k][spans.NAME]
            busy[name] += own[k] * p["factor"]
            calls[name] += 1
            if name.startswith("sysio.read"):
                io_bytes["in"] += recs[k][spans.BYTES]
            elif name.startswith("sysio.write"):
                io_bytes["out"] += recs[k][spans.BYTES]
            elif name == "realization.eval_transfer":
                evals.append((own[k] * p["factor"], recs[k][spans.OK]))
        per_pass.append((busy, calls, io_bytes))

    def busy(*names):
        return statistics.median(sum(b[n] for n in names) for b, _, _ in per_pass)

    def calls(name):
        return statistics.median(c[name] for _, c, _ in per_pass)

    metrics = {
        f"{layer}.{fname}_s": busy(f"{layer}.{fname}")
        for layer, names in spans.LAYERS.items() for fname in names
        if layer != "cli" and not fname.startswith("pbh_")
    }
    metrics["realization.pbh_s"] = busy("realization.pbh_stabilizable",
                                        "realization.pbh_detectable")
    metrics["cli.self_s"] = busy("cli.main")
    for name in ("realization.check_compatibility", "realization.eval_transfer"):
        metrics[f"{name}_calls"] = calls(name)
    metrics["realization.eval_transfer_p50_ms"] = 1e3 * quantile([d for d, _ in evals], 0.5)
    metrics["realization.eval_transfer_p90_ms"] = 1e3 * quantile([d for d, _ in evals], 0.9)
    metrics["realization.eval_transfer_useful_frac"] = (
        sum(ok for _, ok in evals) / len(evals) if evals else 0.0)
    metrics["sysio.bytes_in"] = statistics.median(b["in"] for _, _, b in per_pass)
    metrics["sysio.bytes_out"] = statistics.median(b["out"] for _, _, b in per_pass)

    counts = {"sim.useful_flops": 0, "sim.nonzero_block_frac": 0.0,
              "sim.messages": 0, "sim.message_floats": 0}
    counts.update(prepared.counts)
    metrics.update(counts)
    dense = 0.0
    if prepared.sim_system is not None:
        _, dense = ref.timed(
            lambda: gen.dense_response(prepared.sim_system, prepared.sim_input),
            DENSE_REPEATS)
    lti, dist = metrics["sim.simulate_lti_s"], metrics["sim.simulate_distributed_s"]
    flops = counts["sim.useful_flops"]
    metrics["sim.dense_ref_s"] = dense
    metrics["sim.lti_over_dense"] = lti / dense if dense else 0.0
    metrics["sim.lti_useful_gflops"] = flops / lti / 1e9 if lti else 0.0
    metrics["sim.dist_useful_gflops"] = flops / dist / 1e9 if dist else 0.0
    metrics["trace.overhead_frac"] = median_ref(traced) / median_ref(untraced) - 1.0
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: dict | None = None) -> tuple[dict, dict]:
    """Set up and run one workload; returns (last-line result, full record)."""
    end_to_end, per_layer = declared_metrics()
    build, full_scale, kernel = workloads.WORKLOADS[name]
    ref = SpeedReference(kernel)
    cli, import_s = ref.timed(import_netreal)
    scale = scale or full_scale
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    origin = time.perf_counter()
    tracer = spans.Tracer() if trace else None
    traced = []
    try:
        prepared, generate_s = ref.timed(
            lambda: build(np.random.default_rng(seed), str(workdir), scale), SETUP_REPEATS)
        setup_s = import_s + generate_s

        untraced = run_passes(cli, prepared, seconds / 2 if trace else seconds, ref)
        if trace:
            tracer.install()
            try:
                traced = run_passes(cli, prepared, seconds / 2, ref, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    e2e = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "workload_s": (median_ref(untraced), "s", len(untraced)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1),
    }
    for metric in sorted({m for p in untraced for m in p["by_metric"]}):
        e2e[metric] = (median_ref(untraced, lambda p: p["by_metric"][metric]),
                       "s", len(untraced))
    e2e["fail_frac"] = (len(failures) / attempted, "ratio", attempted)
    e2e["workload_raw_s"] = (statistics.median(p["wall"] for p in untraced), "s",
                             len(untraced))
    e2e["reference_factor"] = (statistics.median(p["factor"] for p in untraced), "x",
                               len(untraced))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": prepared.sizes, "environment": environment(),
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in e2e.items()},
        "failures": failures[:20],
    }
    if trace:
        layers = layer_metrics(tracer, prepared, untraced, traced, ref)
        record["per_layer"] = {k: {"value": v, "unit": per_layer.get(k),
                                   "samples": len(traced)}
                               for k, v in layers.items()}
        tracer.write(str(OUT / f"trace-{name}-seed{seed}.jsonl"), origin)
        reported, declared = layers, per_layer
    else:
        reported, declared = {k: v for k, (v, _, _) in e2e.items()}, end_to_end
    missing = set(declared) - set(reported)
    if missing:
        raise BenchError(f"metrics declared but not measured: {sorted(missing)}")
    values = {k: float(reported[k]) for k in declared}
    result = {
        "correct": not failures and all(np.isfinite(v) for v in values.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in values.items()},
    }
    return result, record


def describe(record: dict) -> str:
    """Human-readable lines: every metric with its unit and sample count."""
    env = record["environment"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
        f"sizes {json.dumps(record['sizes'])}",
        f"  python {env['python']}, numpy {env['numpy']}, {env['blas']} "
        f"{env['blas_version']}, {env['blas_threads']} BLAS thread(s), nproc {env['nproc']}",
    ]
    for section in ("end_to_end", "per_layer"):
        for key, m in record.get(section, {}).items():
            lines.append(f"  {key:40s} {m['value']:>14.6g} {m['unit']:8s} n={m['samples']}")
    lines.extend(f"  FAILED {f}" for f in record["failures"])
    return "\n".join(lines)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak memory is its own."""
    ok = True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}: {proc.stderr.strip()}")
            ok = False
            continue
        result = json.loads(lines[-1])
        print(f"  -> correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
        fh.write("\n")
    print(describe(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
