"""Directed graphs and per-node dimension bookkeeping.

Edges are ordered pairs ``(i, j)`` of 0-based node indices, read as
"node i may use information from node j": block ``(i, j)`` of a state
or output matrix may be nonzero only when ``(i, j)`` is an edge.
Self-loops are never implicit; a node with internal dynamics must
declare ``(i, i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

#: Largest number of rows or columns a float64 array can have.
_MAX_TOTAL = np.iinfo(np.intp).max // np.dtype(float).itemsize


def _as_int(value, what: str) -> int:
    """``value`` as a Python int; bools, floats, strings and other types raise InputError."""
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


#: What an array of each dtype kind, or an object array's entry, holds that is not a number.
_KIND_HOLDS = {"U": "a string", "S": "a string", "b": "true or false", "c": "a complex number"}
_ENTRY_HOLDS = ((type(None), "null"), ((str, bytes), "a string"),
                ((complex, np.complexfloating), "a complex number"))


def _as_floats(value, message: str) -> np.ndarray:
    """``value`` as a new float64 array: the one rule of what counts as a number.

    Files and library callers share it.  By the dtype numpy finds, or by
    each entry of an object array, a string, a boolean array, a complex
    number or ``None`` raises InputError(``message`` + ": it holds a
    string", "true or false", "a complex number" or "null"); a cast would
    read a number, NaN or a real part.  The one hole: a boolean among
    numbers, in any array, reads as 1.0 or 0.0, as a scan per entry would
    cost about what the conversion costs.  Other failures to convert, ints
    beyond float range too, raise InputError(``message``).  A float64
    array numpy builds from a list or tuple is kept; any other is copied.
    """
    try:
        array = np.asarray(value)
        holds = _KIND_HOLDS.get(array.dtype.kind)
        if array.dtype.kind == "O":
            holds = next((what for item in array.flat for kinds, what in _ENTRY_HOLDS
                          if isinstance(item, kinds)), None)
        if holds is None:
            keep = array.dtype == float and isinstance(value, (list, tuple))
            return array if keep else array.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(message) from exc
    raise InputError(f"{message}: it holds {holds}")


def _as_edge(item) -> tuple[int, int]:
    try:
        i, j = item
    except (TypeError, ValueError) as exc:
        raise InputError(f"edge {item!r} is not an (i, j) pair") from exc
    return _as_int(i, "edge node"), _as_int(j, "edge node")


@dataclass(frozen=True)
class NetworkGraph:
    """Directed graph on nodes ``0 .. num_nodes - 1`` with an explicit edge set.

    Immutable after construction and safe to share between threads.
    """

    num_nodes: int
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        count = _as_int(self.num_nodes, "num_nodes")
        if count < 1:
            raise InputError(f"num_nodes must be a positive integer, got {self.num_nodes!r}")
        object.__setattr__(self, "num_nodes", count)
        edges = frozenset(_as_edge(e) for e in self.edges)
        for i, j in edges:
            if not (0 <= i < count and 0 <= j < count):
                raise InputError(f"edge ({i}, {j}) out of range for {count} nodes")
        object.__setattr__(self, "edges", edges)

    def has_edge(self, i: int, j: int) -> bool:
        """True when information may flow from node ``j`` into node ``i``."""
        if not (0 <= i < self.num_nodes and 0 <= j < self.num_nodes):
            raise InputError(f"node pair ({i}, {j}) out of range for {self.num_nodes} nodes")
        return (i, j) in self.edges

    def transpose(self) -> "NetworkGraph":
        """Graph with every edge reversed. An involution on edge sets."""
        return NetworkGraph(self.num_nodes, frozenset((j, i) for i, j in self.edges))

    @property
    def num_non_self_edges(self) -> int:
        return sum(1 for i, j in self.edges if i != j)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def build_graph(num_nodes: int, edges: Iterable) -> NetworkGraph:
    """Validate an edge list (duplicates allowed, deduplicated) into a graph."""
    return NetworkGraph(num_nodes, edges)


def strongly_connected_components(num_nodes: int, edges: Iterable) -> list[list[int]]:
    """Strongly connected components of the graph on ``num_nodes`` nodes with ``edges``.

    Edge ``(i, j)``: node ``i`` reads node ``j``.  An iterative Tarjan pass,
    O(nodes + edges), taking each node's edges in the order given.  Each
    component comes after every component it reads, so ordering the nodes
    component by component makes a matrix with these nonzero blocks block
    lower-triangular.  Nodes within a component ascend.
    """
    successors = [[] for _ in range(num_nodes)]
    for i, j in edges:
        successors[i].append(j)
    index = [-1] * num_nodes
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: list[int] = []
    components: list[list[int]] = []
    visited = 0

    def visit(v: int) -> None:
        nonlocal visited
        index[v] = low[v] = visited
        visited += 1
        stack.append(v)
        on_stack[v] = True

    for root in range(num_nodes):
        if index[root] >= 0:
            continue
        visit(root)
        work = [(root, iter(successors[root]))]
        while work:
            v, pending = work[-1]
            for w in pending:
                if index[w] < 0:
                    visit(w)
                    work.append((w, iter(successors[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(stack.pop())
                        on_stack[component[-1]] = False
                    components.append(sorted(component))
    return components


def _as_counts(values, label: str) -> tuple[int, ...]:
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise InputError(f"{label} must be a sequence of integers, got {values!r}")
    what = f"{label} entry"
    counts = tuple(_as_int(v, what) for v in values)
    if any(v < 0 for v in counts):
        raise InputError(f"{label} must be nonnegative, got {counts}")
    if sum(counts) > _MAX_TOTAL:
        raise InputError(f"{label} total {sum(counts)} exceeds the array limit {_MAX_TOTAL}")
    return counts


def partition_slices(counts: Sequence[int]) -> tuple[slice, ...]:
    """Node-major slices: node ``i`` owns ``counts[i]`` entries after nodes ``0 .. i-1``."""
    return tuple(
        slice(stop - width, stop) for width, stop in zip(counts, accumulate(counts)))


def _node_slice(slices: tuple[slice, ...], index: int) -> slice:
    if not 0 <= index < len(slices):
        raise InputError(f"node index {index} out of range for {len(slices)} nodes")
    return slices[index]


@dataclass(frozen=True)
class NodeDims:
    """Per-node state/input/output counts partitioning global matrices.

    All three sequences have one entry per node; entries may be zero.
    Global vectors and matrix blocks are ordered node-major: node 0's
    rows and columns first, then node 1's, and so on.
    """

    states: tuple[int, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        states = _as_counts(self.states, "states")
        inputs = _as_counts(self.inputs, "inputs")
        outputs = _as_counts(self.outputs, "outputs")
        if not states:
            raise InputError("dimension lists must cover at least one node")
        if not (len(states) == len(inputs) == len(outputs)):
            raise InputError(
                "states, inputs and outputs must have one entry per node, got "
                f"lengths {len(states)}, {len(inputs)}, {len(outputs)}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @classmethod
    def from_triples(cls, triples: Iterable) -> "NodeDims":
        """Build from per-node ``(n_i, m_i, p_i)`` triples."""
        rows = list(triples)
        try:
            return cls(
                tuple(r[0] for r in rows),
                tuple(r[1] for r in rows),
                tuple(r[2] for r in rows),
            )
        except (IndexError, TypeError) as exc:
            raise InputError("each dims entry must be an (n, m, p) triple") from exc

    def triples(self) -> list[tuple[int, int, int]]:
        return list(zip(self.states, self.inputs, self.outputs))

    @property
    def num_nodes(self) -> int:
        return len(self.states)

    @property
    def n_total(self) -> int:
        return sum(self.states)

    @property
    def m_total(self) -> int:
        return sum(self.inputs)

    @property
    def p_total(self) -> int:
        return sum(self.outputs)

    # Cached outside the dataclass fields, so equality and hashing ignore them.
    @cached_property
    def state_slices(self) -> tuple[slice, ...]:
        return partition_slices(self.states)

    @cached_property
    def input_slices(self) -> tuple[slice, ...]:
        return partition_slices(self.inputs)

    @cached_property
    def output_slices(self) -> tuple[slice, ...]:
        return partition_slices(self.outputs)

    def state_slice(self, i: int) -> slice:
        return _node_slice(self.state_slices, i)

    def input_slice(self, i: int) -> slice:
        return _node_slice(self.input_slices, i)

    def output_slice(self, i: int) -> slice:
        return _node_slice(self.output_slices, i)
