"""Opt-in spans around the public functions of each netreal layer.

``Tracer.install`` rebinds every traced function, in every loaded
``netreal`` module that holds it, to a wrapper that records one span per
call: name, start, end, parent span and problem sizes.  Nothing under
``netreal`` changes on disk, and an untraced run never calls
``install``.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

#: Traced functions, by the netreal module that defines them.
LAYERS = {
    "cli": ("main",),
    "sim": ("simulate_lti", "simulate_distributed"),
    "realization": ("check_compatibility", "eval_transfer", "pbh_stabilizable",
                    "pbh_detectable", "transfer_equal", "spectral_radius"),
    "algebra": ("add", "multiply", "invert"),
    "loops": ("close_loop", "q_param", "verify_identities"),
    "imc": ("imc_controller",),
    "sysio": ("read_system", "write_system", "read_trajectory", "write_trajectory"),
}

# Span record fields.
NAME, START, END, PARENT, SIZES, OK, BYTES = range(7)


def _sizes(values) -> dict:
    """Problem sizes found among call arguments and results."""
    # Imported here: the harness times netreal's first import as set-up.
    from netreal.graphs import NetworkGraph
    from netreal.realization import BlockRealization
    from netreal.sim import SignalTrajectory

    sizes = {}
    for value in values:
        if isinstance(value, BlockRealization):
            sizes.setdefault("N", value.num_nodes)
            sizes.setdefault("n", value.n)
        elif isinstance(value, NetworkGraph):
            sizes.setdefault("edges", len(value.edges))
        elif isinstance(value, SignalTrajectory):
            sizes.setdefault("T", value.length)
        elif isinstance(value, list) and value and isinstance(value[0], str):
            sizes.setdefault("command", value[0])
    return sizes


class Tracer:
    """Records nested spans of traced calls made on this thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        # Every traced sysio function takes a file path first; its span
        # carries the file's size.
        file_io = name.startswith("sysio.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False, 0]
            stack.append(len(spans))
            spans.append(record)
            result = None
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                record[OK] = True
                return result
            finally:
                record[END] = time.perf_counter()
                stack.pop()
                found = result if isinstance(result, tuple) else (result,)
                record[SIZES] = _sizes(args + found)
                if file_io and os.path.isfile(args[0]):
                    record[BYTES] = os.path.getsize(args[0])

        return traced

    def install(self) -> None:
        """Rebind each traced function wherever a netreal module holds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "netreal" or key.startswith("netreal.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"netreal.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def write(self, path: str, origin: float) -> None:
        """Spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": rec[NAME], "parent": rec[PARENT],
                    "start": rec[START] - origin, "end": rec[END] - origin,
                    "sizes": rec[SIZES], "ok": rec[OK], "bytes": rec[BYTES],
                }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap.
    """
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own
