"""Reduced-size smoke check of the benchmark harness.

Runs every workload once at a small scale, untraced and traced, in this
process, and checks that:

* every command passes its correctness check;
* the metrics printed are exactly those BENCHMARK.json declares, and
  ``layer_map.json`` maps every per-layer metric;
* an untraced run leaves every netreal function unwrapped, and a traced
  run restores them;
* the correctness gate rejects a perturbed output and a wrong message
  count.

Usage, from the root of a checkout: ``python3 bench/smoke.py``.  Exits 0
when all checks hold.
"""

import json
import os
import shutil
import sys

import numpy as np

import run
import workloads

#: Reduced sizes for the smoke check of the harness.
SCALE = {
    "sim-grid": {"rows": 3, "cols": 3, "T": 5},
    "sim-wide": {"N": 5, "k": 2, "T": 20},
    "pipeline-chain": {"N": 8},
}


def _wrapped(module) -> list[str]:
    return [name for name, value in vars(module).items()
            if callable(value) and hasattr(value, "__wrapped__")]


def _check_gate(cli) -> None:
    """Break a correct sim output and a correct message count on purpose."""
    workdir = run.OUT / f"smoke-gate-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        prepared = workloads.sim_grid(np.random.default_rng(0), str(workdir),
                                      SCALE["sim-grid"])
        lti, dist = prepared.commands
        assert run.run_command(cli, lti)[1] is None
        _, problem = run.run_command(cli, dist)
        assert problem is None, problem
        assert dist.check((0, "", "messages: 1\n")), "wrong message count passed"
        y_path = lti.outputs[0]
        with open(y_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[1].split(",")
        cells[0] = repr(float(cells[0]) + 1e-6)
        lines[1] = ",".join(cells)
        with open(y_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert lti.check((0, "", "")), "perturbed output passed the dense check"
        assert workloads._report_check((1, '{"pass": false, "stages": []}', ""))
    finally:
        shutil.rmtree(workdir)


def main() -> int:
    end_to_end, per_layer = run.declared_metrics()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(os.path.dirname(__file__), "layer_map.json"),
              encoding="utf-8") as fh:
        mapped = {entry["metric"] for entry in json.load(fh)["map"]}
    assert mapped == set(per_layer), sorted(mapped ^ set(per_layer))

    for name in workloads.WORKLOADS:
        scale = SCALE[name]
        for trace in (False, True):
            result, record = run.run_workload(name, 0, 0.0, trace, scale)
            declared = per_layer if trace else end_to_end
            assert result["correct"], (name, trace, record["failures"])
            assert result["attempted"] > 0 and result["failed"] == 0
            assert set(result["metrics"]) == set(declared), (name, trace)
            for module in [m for k, m in sys.modules.items() if k.startswith("netreal")]:
                assert not _wrapped(module), (name, trace, module.__name__)
            print(f"smoke {name} trace={int(trace)}: ok, "
                  f"{result['attempted']} commands")
    _check_gate(sys.modules["netreal.cli"])
    print("smoke gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
