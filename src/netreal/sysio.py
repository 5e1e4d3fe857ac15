"""Serialization: systems and trajectories on disk, check reports as JSON.

System files are JSON objects with a graph, per-node dimensions, and the
four dense matrices row-major::

    {
      "name": "river",
      "graph": {"num_nodes": 3, "edges": [[0, 0], [1, 0], ...]},
      "dims": [{"n": 1, "m": 1, "p": 1}, ...],
      "A": [[0.9, 0, 0], ...], "B": ..., "C": ..., "D": ...
    }

A matrix key may be omitted only when one of its dimensions is zero.

Trajectories travel as JSON ({"name", "partition", "values"}) or CSV
with one column per channel, headed ``<name><node>_<channel>``.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .graphs import NetworkGraph, NodeDims, _as_int, build_graph
from .realization import BlockRealization
from .sim import SignalTrajectory

_HEADER_RE = re.compile(r"^(.+?)(\d+)_(\d+)$")


def _require(obj: dict, key: str, context: str = "system"):
    if key not in obj:
        raise InputError(f"missing required field '{key}' in {context}")
    return obj[key]


def system_from_obj(obj) -> tuple[BlockRealization, NetworkGraph, str | None]:
    """Build a realization and its graph from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise InputError(f"system document must be an object, got {type(obj).__name__}")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError("field 'name' must be a string")
    graph_obj = _require(obj, "graph")
    if not isinstance(graph_obj, dict):
        raise InputError("field 'graph' must be an object")
    num_nodes = _require(graph_obj, "num_nodes", "graph")
    edges = _require(graph_obj, "edges", "graph")
    if not isinstance(edges, list):
        raise InputError("graph.edges must be a list of [i, j] pairs")
    graph = build_graph(num_nodes, edges)

    dims_obj = _require(obj, "dims")
    if not isinstance(dims_obj, list) or len(dims_obj) != graph.num_nodes:
        raise InputError(
            f"field 'dims' must list one entry per node ({graph.num_nodes}), "
            f"got {len(dims_obj) if isinstance(dims_obj, list) else type(dims_obj).__name__}")
    triples = []
    for k, entry in enumerate(dims_obj):
        if not isinstance(entry, dict):
            raise InputError(f"dims[{k}] must be an object with keys n, m, p")
        triples.append(tuple(
            _as_int(_require(entry, key, f"dims[{k}]"), f"dims[{k}].{key}")
            for key in ("n", "m", "p")))
    dims = NodeDims.from_triples(triples)

    def matrix(key: str, rows: int, cols: int) -> np.ndarray:
        if key not in obj or obj[key] is None:
            if rows == 0 or cols == 0:
                return np.zeros((rows, cols))
            raise InputError(f"missing required field '{key}' in system")
        try:
            value = np.array(obj[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"field '{key}' is not a numeric matrix") from exc
        if value.shape != (rows, cols):
            raise InputError(
                f"field '{key}' has shape {value.shape}, expected ({rows}, {cols})")
        return value

    n, m, p = dims.n_total, dims.m_total, dims.p_total
    real = BlockRealization(
        dims,
        A=matrix("A", n, n),
        B=matrix("B", n, m),
        C=matrix("C", p, n),
        D=matrix("D", p, m),
    )
    return real, graph, name


def system_to_obj(
    real: BlockRealization, graph: NetworkGraph, name: str | None = None
) -> dict:
    obj: dict = {}
    if name is not None:
        obj["name"] = name
    obj["graph"] = {
        "num_nodes": graph.num_nodes,
        "edges": [list(e) for e in graph.sorted_edges()],
    }
    obj["dims"] = [
        {"n": n, "m": m, "p": p} for n, m, p in real.dims.triples()
    ]
    for key, value in (("A", real.A), ("B", real.B), ("C", real.C), ("D", real.D)):
        if value.size:
            obj[key] = value.tolist()
    return obj


def read_system(path) -> tuple[BlockRealization, NetworkGraph, str | None]:
    """Load a system file; raises InputError with position info on bad JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return system_from_obj(obj)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def write_system(path, real, graph, name=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_obj(real, graph, name), fh, indent=2)
        fh.write("\n")


def trajectory_to_obj(traj: SignalTrajectory) -> dict:
    return {
        "name": traj.name,
        "partition": list(traj.partition),
        "values": traj.values.tolist(),
    }


def trajectory_from_obj(obj) -> SignalTrajectory:
    if not isinstance(obj, dict):
        raise InputError("trajectory document must be an object")
    partition = _require(obj, "partition", "trajectory")
    values = _require(obj, "values", "trajectory")
    name = obj.get("name", "signal")
    if not isinstance(name, str):
        raise InputError("trajectory field 'name' must be a string")
    return SignalTrajectory(values, partition, name)


def trajectory_to_csv(traj: SignalTrajectory) -> str:
    """CSV with one header per channel; zero-width nodes leave no column."""
    header = []
    for i, width in enumerate(traj.partition):
        header.extend(f"{traj.name}{i}_{c}" for c in range(width))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in traj.values:
        writer.writerow([repr(float(v)) for v in row])
    return out.getvalue()


def trajectory_from_csv(text: str) -> SignalTrajectory:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("trajectory CSV is empty") from None
    if not header:
        raise InputError("trajectory CSV has no columns")
    name = None
    seen: list[tuple[int, int]] = []
    for col in header:
        match = _HEADER_RE.match(col.strip())
        if match is None:
            raise InputError(
                f"column '{col}' does not follow the <name><node>_<channel> pattern")
        base, node, channel = match.group(1), int(match.group(2)), int(match.group(3))
        if name is None:
            name = base
        elif base != name:
            raise InputError(
                f"column '{col}' names signal '{base}' but earlier columns use '{name}'")
        seen.append((node, channel))
    widths: dict[int, int] = {}
    expected_node, expected_channel = 0, 0
    for node, channel in seen:
        if node != expected_node or channel != expected_channel:
            if channel == 0 and node > expected_node:
                expected_node, expected_channel = node, 0
            if node != expected_node or channel != expected_channel:
                raise InputError(
                    f"columns out of order near {name}{node}_{channel}; expected "
                    f"{name}{expected_node}_{expected_channel}")
        widths[node] = channel + 1
        expected_channel = channel + 1
    num_nodes = max(widths) + 1
    partition = tuple(widths.get(i, 0) for i in range(num_nodes))
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise InputError(
                f"row {lineno} has {len(row)} values, header has {len(header)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise InputError(f"row {lineno} contains a non-numeric value") from exc
    values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return SignalTrajectory(values, partition, name)


def read_trajectory(path) -> SignalTrajectory:
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        try:
            return trajectory_from_obj(obj)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
    try:
        return trajectory_from_csv(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def write_trajectory(path, traj: SignalTrajectory) -> None:
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        if path.endswith(".json"):
            json.dump(trajectory_to_obj(traj), fh, indent=2)
            fh.write("\n")
        else:
            fh.write(trajectory_to_csv(traj))


def jsonable(value):
    """Rewrite numpy types and complex numbers into plain JSON values."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"real": float(value.real), "imag": float(value.imag)}
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


@dataclass
class Stage:
    """One named verdict inside a report, with free-form detail."""

    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class Report:
    """Ordered collection of stages; passes only when every stage does."""

    name: str | None = None
    note: str | None = None
    stages: list = field(default_factory=list)

    def add(self, name: str, passed, **detail) -> Stage:
        stage = Stage(name, bool(passed), detail)
        self.stages.append(stage)
        return stage

    @property
    def passed(self) -> bool:
        return all(stage.passed for stage in self.stages)

    def to_obj(self) -> dict:
        obj: dict = {}
        if self.name is not None:
            obj["name"] = self.name
        obj["stages"] = [
            {"name": s.name, "pass": s.passed, "detail": jsonable(s.detail)}
            for s in self.stages
        ]
        obj["pass"] = self.passed
        if self.note is not None:
            obj["note"] = self.note
        return obj
