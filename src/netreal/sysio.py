"""Serialization: systems and trajectories on disk, check reports as JSON.

System files are JSON objects with a graph, per-node dimensions, and the
four matrices A, B, C and D.  A matrix is stored in one of two forms:

* dense, a list of rows: ``"A": [[0.9, 0, 0], [0.1, 0.8, 0], [0, 0.2, 0.7]]``;
* by blocks, ``"A": {"blocks": [[i, j, rows], ...]}``: ``i`` is a node of
  the matrix's row partition, ``j`` one of its column partition, and
  ``rows`` that block, row-major.  A block that is not listed is zero.

The reader takes either form, matrix by matrix; :func:`system_to_obj`
and :func:`write_system` write only the second, with every block that
holds an entry whose bits are not all zero (so ``-0.0`` is kept), sorted
by ``(i, j)``::

    {
      "name": "river",
      "graph": {
        "num_nodes": 3,
        "edges": [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]]
      },
      "dims": [
        {"n": 1, "m": 1, "p": 1},
        ...
      ],
      "A": {
        "blocks": [
          [0, 0, [[0.9]]],
          [1, 0, [[0.1]]],
          ...
        ]
      },
      ...
    }

A matrix key may be omitted only when one of its dimensions is zero.  A
system without states needs inputs and outputs both or neither: otherwise
no stored matrix would hold its channels.

Trajectories travel as JSON ({"name", "partition", "values"}) or CSV
with one column per channel, headed ``<name><node>_<channel>``.  A
trajectory is always read against the partition of the system it
drives: a JSON file must declare that partition, and a CSV header must
be exactly the one it gives, so zero-width nodes leave no column.  A
signal of total width 0 is written as an empty header line and one
empty line per step, and read back the same way.

System and JSON trajectory files are parsed by :func:`_json`, with
``orjson.loads`` when orjson is installed (the ``fast`` extra) and
``json.loads`` for every document orjson refuses, so each refusal and
its message is json's.  CSV trajectories take orjson too, with the same
bytes and values either way (:func:`trajectory_to_csv`,
:func:`trajectory_from_csv`), and so does the system writer
(:func:`write_system`).  Matrix entries and trajectory values
follow :func:`graphs._as_floats`: strings, ``true``, ``false`` and
``null`` are refused.

Files are read as bytes, and one rule says what text they hold
(:func:`_read`): strict UTF-8, with ``\\r\\n`` and a lone ``\\r`` read as
``\\n``, as text mode reads a file.  Every parser then takes those bytes:
orjson and the CSV gate as they are, ``json.loads`` decoded, and the
csv reader through a UTF-8 wrapper.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from typing import Collection

import numpy as np

try:
    import orjson as _orjson
except ImportError:
    _orjson = None

from .errors import InputError
from .graphs import (NetworkGraph, NodeDims, _as_counts, _as_floats, _as_int, _frozen,
                     build_graph)
from .realization import BlockRealization, _node_blocks
from .sim import SignalTrajectory, _coerce_signal


def _require(obj: dict, key: str, context: str = "system"):
    if key not in obj:
        raise InputError(f"missing required field '{key}' in {context}")
    return obj[key]


def _require_stored_channels(dims: NodeDims) -> None:
    """Refuse a system without states whose channels sit on one side only.

    Its matrices are all empty, so no stored matrix holds those channels,
    yet later code sizes arrays by channel.  Reader and writer both refuse it.
    """
    m = dims.m_total
    if dims.n_total == 0 and (m == 0) != (dims.p_total == 0):
        key, counts = ("m", dims.inputs) if m else ("p", dims.outputs)
        k = next(k for k, c in enumerate(counts) if c)
        raise InputError(
            f"field 'dims[{k}].{key}' is {counts[k]} but no matrix holds those channels: "
            f"the system has no states and no {'outputs' if m else 'inputs'}")


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
        triples.append(tuple(_require(entry, key, f"dims[{k}]") for key in ("n", "m", "p")))
    try:
        dims = NodeDims.from_triples(triples)
    except InputError:
        # NodeDims checked each count; name the first that is not an integer.
        for k, triple in enumerate(triples):
            for key, value in zip(("n", "m", "p"), triple):
                _as_int(value, f"dims[{k}].{key}")
        raise
    _require_stored_channels(dims)
    matrices = {key: _matrix_from_obj(obj.get(key), key, dims, axes)
                for key, axes in _MATRIX_AXES.items()}
    return BlockRealization(dims, **matrices), graph, name


#: The dims key that partitions the rows and the columns of each matrix.
_MATRIX_AXES = {"A": ("n", "n"), "B": ("n", "m"), "C": ("p", "n"), "D": ("p", "m")}


def _axis(dims: NodeDims, axis: str) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    """Per-node counts and node-major slices of dims key ``axis``."""
    if axis == "n":
        return dims.states, dims.state_slices
    if axis == "m":
        return dims.inputs, dims.input_slices
    return dims.outputs, dims.output_slices


def _matrix_from_obj(value, key: str, dims: NodeDims, axes: tuple[str, str]) -> np.ndarray:
    """Matrix ``key`` of a system document, dense or by blocks, frozen (:func:`graphs._frozen`).

    ``None`` (the key absent) stands for a matrix with a zero dimension.
    """
    totals = {"n": dims.n_total, "m": dims.m_total, "p": dims.p_total}
    shape = (totals[axes[0]], totals[axes[1]])
    if value is None:
        if 0 in shape:
            return np.zeros(shape)
        raise InputError(f"missing required field '{key}' in system")
    if isinstance(value, dict):
        matrix = _from_blocks(value, key, dims, axes)
    else:
        matrix = _as_floats(value, f"field '{key}' is not a numeric matrix")
        if matrix.shape != shape:
            raise InputError(f"field '{key}' has shape {matrix.shape}, expected {shape}")
    return _frozen(matrix)


def _from_blocks(obj: dict, key: str, dims: NodeDims, axes: tuple[str, str]) -> np.ndarray:
    """The matrix of ``{"blocks": [[i, j, rows], ...]}``; every block not listed is zero.

    ``i`` counts nodes along the rows' axis and ``j`` along the columns';
    each must be a JSON integer naming a node with a nonzero count on its
    axis, no ``(i, j)`` may repeat, and ``rows`` must have the shape of
    the block.  Any other entry raises InputError naming the block.
    """
    blocks = _require(obj, "blocks", f"field '{key}'")
    if not isinstance(blocks, list):
        raise InputError(f"field '{key}.blocks' must be a list of [i, j, rows] entries")
    (row_counts, row_slices), (col_counts, col_slices) = (_axis(dims, axis) for axis in axes)
    matrix = np.zeros((sum(row_counts), sum(col_counts)))
    seen = set()
    for k, entry in enumerate(blocks):
        what = f"field '{key}.blocks[{k}]'"
        if type(entry) is not list or len(entry) != 3:
            raise InputError(f"{what} must be an [i, j, rows] entry")
        nodes = []
        for node, axis, axis_counts, label in zip(entry, axes, (row_counts, col_counts), "ij"):
            node = _as_int(node, f"{what} node {label}")
            if not 0 <= node < dims.num_nodes:
                raise InputError(
                    f"{what} node {label} is {node}, out of range for {dims.num_nodes} nodes")
            if not axis_counts[node]:
                raise InputError(
                    f"{what} node {label} is {node}, whose 'dims[{node}].{axis}' is 0")
            nodes.append(node)
        i, j = nodes
        if (i, j) in seen:
            raise InputError(f"{what} repeats block ({i}, {j})")
        seen.add((i, j))
        rows = _as_floats(entry[2], f"{what} rows are not a numeric matrix")
        want = (row_counts[i], col_counts[j])
        if rows.shape != want:
            raise InputError(f"{what} rows have shape {rows.shape}, expected {want}")
        matrix[row_slices[i], col_slices[j]] = rows
    return matrix


def _nonzero_blocks(matrix: np.ndarray, dims: NodeDims, axes: tuple[str, str]) -> list:
    """``[i, j, rows]`` for each block of ``matrix`` with an entry whose bits are not all zero.

    ``axes`` are the dims keys that partition its rows and its columns.
    Blocks are sorted by ``(i, j)`` (:func:`realization._node_blocks`).  The
    test is on bits, not values, so a block of ``-0.0`` is listed.  Cost grows
    with such entries and blocks, plus one pass over ``matrix``.
    """
    (row_counts, row_slices), (col_counts, col_slices) = (_axis(dims, axis) for axis in axes)
    rows, cols, *_ = _node_blocks(*np.nonzero(matrix.view(np.uint64)), row_counts, col_counts)
    return [[i, j, matrix[row_slices[i], col_slices[j]].tolist()]
            for i, j in zip(rows.tolist(), cols.tolist())]


def system_to_obj(
    real: BlockRealization, graph: NetworkGraph, name: str | None = None
) -> dict:
    """The system document of ``real`` on ``graph``, each matrix by its nonzero blocks."""
    dims = real.dims
    _require_stored_channels(dims)
    obj: dict = {}
    if name is not None:
        obj["name"] = name
    obj["graph"] = {
        "num_nodes": graph.num_nodes,
        "edges": [list(e) for e in graph.sorted_edges()],
    }
    obj["dims"] = [
        {"n": n, "m": m, "p": p} for n, m, p in dims.triples()
    ]
    for key, axes in _MATRIX_AXES.items():
        value = getattr(real, key)
        if value.size:
            obj[key] = {"blocks": _nonzero_blocks(value, dims, axes)}
    return obj


def _system_text(obj: dict, fast: Collection[str] = ()) -> str:
    """A :func:`system_to_obj` document laid out like the packaged data files.

    The edges stand on one line, each dims entry and each block on its
    own.  Each list is one ``json.dumps`` call, which json's C encoder
    serves, broken into lines where one entry ends and the next begins:
    at ``}, {`` between dims entries, and at ``]]], [`` between blocks.
    Neither occurs inside an entry, as a dims entry holds three integers
    and a block's rows are a nonempty list of nonempty rows of numbers.
    The block lists of the matrices named in ``fast`` are one
    ``orjson.dumps`` call each, with json's ``", "`` put back: the same
    text where orjson writes every entry as ``repr`` does
    (:func:`_repr_digits`).
    """

    def listed(items, indent: str, close: str, open_: str, dumps=json.dumps) -> str:
        if not items:
            return "[]"
        body = dumps(items)[1:-1].replace(f"{close}, {open_}", f"{close},\n{indent}{open_}")
        return f"[\n{indent}{body}\n{indent[:-2]}]"

    def orjson_dumps(items) -> str:
        return _orjson.dumps(items).decode().replace(",", ", ")

    graph = obj["graph"]
    members = [f'"name": {json.dumps(obj["name"])}'] if "name" in obj else []
    members.append(f'"graph": {{\n    "num_nodes": {json.dumps(graph["num_nodes"])},\n'
                   f'    "edges": {json.dumps(graph["edges"])}\n  }}')
    members.append(f'"dims": {listed(obj["dims"], "    ", "}", "{")}')
    members.extend(
        f'"{key}": {{\n    "blocks": '
        f'{listed(obj[key]["blocks"], "      ", "]]]", "[", orjson_dumps if key in fast else json.dumps)}\n  }}'
        for key in _MATRIX_AXES if key in obj)
    return "{\n  " + ",\n  ".join(members) + "\n}\n"


def _read(path, parse):
    """``parse`` of a file's bytes under the one text rule; InputError names the file.

    The rule is text mode's.  Bytes that are not all ASCII must be strict
    UTF-8; they are checked before any line break moves, so a refusal
    gives the offset of the bad byte in the file.  Then ``\\r\\n`` and a
    lone ``\\r`` become ``\\n``; neither byte occurs inside a multibyte
    UTF-8 sequence.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if not data.isascii():
            data.decode()
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return parse(data)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


#: Nesting depth from which a document goes to ``json.loads`` alone.  json
#: refuses nesting near the recursion limit (1000), orjson does not, and the
#: check keeps orjson 3.8.3 from crashing (it segfaults nested 1000000 deep).
_ORJSON_DEPTH = 64

#: Every byte but brackets, quotes, backslashes and the characters an
#: escape puts after a backslash: what :func:`_nesting` deletes first.
_NOT_NESTING = bytes(sorted(set(range(256)) - set(b'[]{}"\\/bfnrtu')))

#: Opening brackets step the depth by 1, closing ones by -1 (255 as int8).
_DEPTH_STEP = bytes.maketrans(b"[{]}", bytes([1, 1, 255, 255]))


def _nesting(data: bytes) -> int:
    """How deep arrays and objects nest in ``data``, if it is JSON.

    Only brackets outside strings count.  Escapes are dropped before the
    strings, so an escaped quote ends none; ``true``, ``false`` and
    ``null`` leave letters that the last step deletes.  For bytes that
    are not JSON the count means nothing, and orjson refuses them.
    """
    marks = data.translate(None, _NOT_NESTING)
    if b"\\" in marks:
        marks = re.sub(rb"\\.", b"", marks)
    steps = re.sub(rb'"[^"]*"', b"", marks).translate(_DEPTH_STEP, b"/bfnrtu")
    return int(np.frombuffer(steps, np.int8).cumsum().max(initial=0))


def _json(data: bytes):
    """The JSON document in UTF-8 bytes; bad JSON raises InputError with its place.

    An integer literal too long for Python to convert, or nesting deeper
    than the decoder's recursion limit, raises InputError too.  orjson,
    when installed, reads the bytes first unless they nest
    ``_ORJSON_DEPTH`` deep; bytes it refuses (a byte order mark, say) go
    to ``json.loads`` decoded, never as bytes, which json would read as
    UTF-16 or UTF-32.  The two agree on every document but one holding an
    integer literal outside [-2**63, 2**64), which orjson reads as the
    nearest float.
    """
    if _orjson is not None and _nesting(data) < _ORJSON_DEPTH:
        try:
            return _orjson.loads(data)
        except _orjson.JSONDecodeError:
            pass
    # Outside the try: bytes that are not UTF-8 are not bad JSON.
    text = data.decode()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def json_text(obj, prefix: str = "") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, with less of the pure-Python encoder.

    Reports (``--json``, ``-o``) and JSON trajectories keep these bytes;
    system files have their own layout (:func:`write_system`).  Given an
    indent, json takes its pure-Python encoder, which is slow on long
    float rows and leaves its nested closures in reference cycles.  Here
    lists and dicts with string keys are laid out the same way by
    recursion, ``prefix`` being the current line's leading spaces; a list
    of finite floats is joined with ``float.__repr__``, which is what
    json writes for each; every other value is one ``json.dumps`` call
    without indent, which json's C encoder serves.  Only a dict with a
    key that is not a ``str`` is left to ``json.dumps(..., indent=2)``
    itself, its lines moved in by ``prefix`` (a JSON string holds no raw
    newline).
    """
    inner = prefix + "  "
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            items = map(float.__repr__, obj)
        else:
            items = [json_text(item, inner) for item in obj]
        brackets = "[]"
    elif isinstance(obj, dict) and all(type(key) is str for key in obj):
        items = [f"{json.dumps(key)}: {json_text(item, inner)}" for key, item in obj.items()]
        brackets = "{}"
    elif isinstance(obj, dict):
        return json.dumps(obj, indent=2).replace("\n", "\n" + prefix)
    else:
        return json.dumps(obj)
    if not obj:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{prefix}{brackets[1]}"


def write_json(path, obj) -> None:
    """``obj`` as JSON indented by 2 (:func:`json_text`), with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(obj) + "\n")


def read_system(path) -> tuple[BlockRealization, NetworkGraph, str | None]:
    """Load a system file; raises InputError naming the file, and the position of bad JSON."""
    return _read(path, lambda data: system_from_obj(_json(data)))


def write_system(path, real, graph, name=None) -> None:
    """Save ``real`` on ``graph`` as a system file, each matrix by its nonzero blocks.

    The file is :func:`system_to_obj`'s document in the layout of
    :func:`_system_text`; a system the writer refuses leaves no file.
    With orjson installed, a matrix whose nonzero entries are all of
    magnitude in [1e-4, 1e16) has its blocks written by ``orjson.dumps``,
    any other by ``json.dumps``; the text is the same.
    """
    obj = system_to_obj(real, graph, name)
    matrices = {key: getattr(real, key) for key in _MATRIX_AXES if key in obj}
    fast = () if _orjson is None else [
        key for key, matrix in matrices.items() if _repr_digits(matrix[np.nonzero(matrix)])]
    text = _system_text(obj, fast)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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


def _csv_header(name: str, partition: tuple[int, ...]) -> list[str]:
    """One ``<name><node>_<channel>`` label per channel, node-major."""
    return [f"{name}{i}_{c}" for i, width in enumerate(partition) for c in range(width)]


def _csv_line(row: list) -> str:
    return ",".join(map(repr, row)) + "\n"


#: Rows whose writer :func:`_csv_lines` picks at once, so a write holds one block's test.
_CSV_BLOCK_ROWS = 1024


def _csv_lines(values: np.ndarray):
    """One CSV line per row of ``values``, by :func:`trajectory_to_csv`'s rule."""
    if _orjson is None:
        return (_csv_line(row.tolist()) for row in values)
    return (line for start in range(0, len(values), _CSV_BLOCK_ROWS)
            for line in _orjson_lines(values[start:start + _CSV_BLOCK_ROWS]))


def _repr_digits(values: np.ndarray, axis=None):
    """Whether ``orjson.dumps`` writes all of ``values``, along ``axis``, as ``repr`` does.

    The one rule of both writers that take orjson (:func:`write_system`,
    :func:`_orjson_lines`).  repr writes +-0 and magnitudes in [1e-4,
    1e16) in fixed notation, and orjson the same digits; outside, orjson
    writes 1e-05 as 0.00001, 1e+16 as 1e16, and NaN and +-inf as null.
    """
    size = np.abs(values)
    return ((size == 0) | ((size >= 1e-4) & (size < 1e16))).all(axis=axis)


def _orjson_lines(block: np.ndarray):
    """:func:`_csv_lines` of a block of rows: orjson's line where it writes ``repr``'s digits."""
    return (_orjson.dumps(row, option=_orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode() + "\n" if ok
            else _csv_line(row.tolist())
            for row, ok in zip(np.ascontiguousarray(block), _repr_digits(block, axis=1).tolist()))


def _write_csv(out, traj: SignalTrajectory) -> None:
    """Write :func:`trajectory_to_csv`'s text to the text stream ``out``, a line at a time."""
    csv.writer(out, lineterminator="\n").writerow(_csv_header(traj.name, traj.partition))
    out.writelines(_csv_lines(traj.values))


def trajectory_to_csv(traj: SignalTrajectory) -> str:
    """CSV with one header per channel; zero-width nodes leave no column.

    Each value is written as ``repr`` writes it, so it reads back to the
    same bits.  With orjson installed, a row whose entries are all +-0 or
    of magnitude in [1e-4, 1e16) is written by ``orjson.dumps``, any other
    row by ``repr``; the text is the same.  The string is built in memory;
    :func:`write_trajectory` writes the same text to a file a line at a
    time, without it.
    """
    out = io.StringIO()
    _write_csv(out, traj)
    return out.getvalue()


#: The bytes of a CSV body orjson may read: deleted, they leave b"".
_CSV_NUMBER_BYTES = b"0123456789eE.,+-\n"

#: ``-0`` as an integer literal: orjson reads it as the int 0, float() as -0.0.
_NEGATIVE_ZERO = re.compile(rb"-0(?![.eE0-9])")

#: Bytes of a CSV body that orjson parses in one call.  orjson's parse
#: buffers, outside Python's allocator, are several times the text (a
#: 66 kB parse raised a fresh process's peak RSS by 384 kB), and chunks
#: from 2**12 to 2**16 read sim-wide's input equally fast.
_CSV_CHUNK = 1 << 13


def _orjson_rows(data: bytes, start: int, width: int) -> list | None:
    """The rows of the CSV body ``data[start:]`` as orjson reads them, or None.

    The body is cut at line breaks into chunks of about ``_CSV_CHUNK``
    bytes, each wrapped as ``[[...],[...]]``; a final line break ends the
    last line.  None, for the csv reader, when a chunk fails the byte gate
    (which every byte beyond ASCII fails) or holds an integer literal
    ``-0``, orjson refuses it, or a line does not hold ``width`` values.
    JSON numbers are a subset of what ``float`` reads, to the same floats;
    an int converts to its literal's float.
    """
    end = len(data) - data.endswith(b"\n")
    rows = []
    while start <= end:
        stop = data.find(b"\n", min(start + _CSV_CHUNK, end), end)
        stop = end if stop < 0 else stop
        chunk = data[start:stop]
        if chunk.translate(None, _CSV_NUMBER_BYTES) or _NEGATIVE_ZERO.search(chunk):
            return None
        try:
            lines = _orjson.loads(b"[[" + chunk.replace(b"\n", b"],[") + b"]]")
        except _orjson.JSONDecodeError:
            return None
        if set(map(len, lines)) != {width}:
            return None
        rows += lines
        start = stop + 1
    return rows


def _csv_rows(data: bytes):
    """The csv reader's rows of UTF-8 ``data``; text it refuses raises InputError.

    The reader refuses a field over its size limit (131072 characters)
    and a line break inside an unquoted field.  A UTF-8 wrapper hands it
    the text a line at a time, so no copy of the whole text is made, and
    ends lines at ``\\n`` alone, so a ``\\r`` reaches the reader as it stands.
    """
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n"))
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"trajectory CSV line {reader.line_num} is not valid CSV: {exc}") from exc


def trajectory_from_csv(data: bytes, partition) -> SignalTrajectory:
    """The trajectory of a signal split by ``partition``, from a CSV file's bytes.

    ``data`` is UTF-8 with ``\\n`` line breaks, as :func:`_read` hands a
    file on.  The header must be the one ``trajectory_to_csv`` writes for
    that partition; the signal's name is the first label less its node
    and channel suffix.  A partition of total width 0 has no column: its
    header line is empty, every line after it is one step, and the
    trajectory is named ``"signal"``, since no label carries the name.

    With orjson installed, the lines after the header go to
    ``orjson.loads`` (:func:`_orjson_rows`) when they hold only digits,
    ``e E . , + -`` and line breaks, no integer literal ``-0``, and rows of
    the header's width that orjson accepts.  Any other body, with a
    quote, a space, ``nan``, ``+1``, ``.5``, a blank line, a ragged row or
    a byte beyond ASCII, is read by the csv reader, so each value and
    refusal is the one it gives without orjson.  Text the csv reader
    refuses (:func:`_csv_rows`) raises InputError naming its line, and
    bytes that start with a UTF-8 byte order mark raise InputError too.
    No path copies the whole text.
    """
    partition = _as_counts(partition, "partition")
    width = sum(partition)
    if data.startswith(b"\xef\xbb\xbf"):
        raise InputError("trajectory CSV starts with a UTF-8 byte order mark; save it without one")
    reader = _csv_rows(data)
    header = next(reader, None)
    if header is None or (width and not header):
        raise InputError("trajectory CSV has no columns")
    if len(header) != width:
        raise InputError(
            f"trajectory CSV has {len(header)} columns, partition {partition} "
            f"has {width} channels")
    name = "signal"
    if width:
        suffix = f"{next(i for i, w in enumerate(partition) if w)}_0"
        if not header[0].endswith(suffix):
            raise InputError(
                f"column 1 is '{header[0]}', expected '<name>{suffix}' for partition {partition}")
        name = header[0][:-len(suffix)]
        for k, (label, want) in enumerate(zip(header, _csv_header(name, partition))):
            if label != want:
                raise InputError(
                    f"column {k + 1} is '{label}', expected '{want}' for partition {partition}")
    # A header csv read across lines leaves its closing quote or a label's
    # "_" after the first line break, which orjson's path declines.
    start = data.find(b"\n") + 1
    if _orjson is not None and start:
        rows = _orjson_rows(data, start, width)
        if rows is not None:
            return SignalTrajectory(rows, partition, name)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if width and (not row or (len(row) == 1 and not row[0].strip())):
            continue
        if len(row) != width:
            raise InputError(
                f"row {lineno} has {len(row)} values, header has {width}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise InputError(f"row {lineno} contains a non-numeric value") from exc
    return SignalTrajectory(rows, partition, name)


def read_trajectory(path, partition) -> SignalTrajectory:
    """Load a trajectory (.json, else CSV) of a signal split by ``partition``."""
    path = str(path)
    if path.endswith(".json"):
        return _read(path, lambda data: _coerce_signal(
            trajectory_from_obj(_json(data)), _as_counts(partition, "partition"), "trajectory"))
    return _read(path, lambda data: trajectory_from_csv(data, partition))


def write_trajectory(path, traj: SignalTrajectory) -> None:
    """Save a trajectory as JSON (.json) or else as CSV.

    The CSV text is :func:`trajectory_to_csv`'s, written a line at a time,
    so the write holds one line of it, not the whole text.
    """
    path = str(path)
    if path.endswith(".json"):
        write_json(path, trajectory_to_obj(traj))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _write_csv(fh, traj)


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
