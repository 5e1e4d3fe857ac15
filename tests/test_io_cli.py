import copy
import gc
import json
import os
import struct
import subprocess
import sys
import warnings
from collections import Counter
from decimal import Decimal
from functools import cached_property
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import netreal.realization
import netreal.sysio as sysio
from netreal import (
    BlockRealization,
    DMode,
    InputError,
    NodeDims,
    SignalTrajectory,
    StabilityWarning,
    add,
    build_graph,
    close_loop,
    eval_transfer,
    imc_controller,
    invert,
    multiply,
    packaged_system,
    q_param,
    read_system,
    read_trajectory,
    run_demo_remark1,
    run_demo_river,
    simulate_lti,
    system_from_obj,
    system_to_obj,
    write_system,
    write_trajectory,
)
from netreal.cli import main
from netreal.graphs import _MAX_TOTAL
from netreal.sysio import (
    _MATRIX_AXES,
    Report,
    _axis,
    _json,
    _matrix_from_obj,
    _nonzero_blocks,
    json_text,
    trajectory_from_csv,
    trajectory_from_obj,
    trajectory_to_csv,
    trajectory_to_obj,
)
from _support import (
    oracle_spectrum,
    random_chain,
    random_dag,
    random_dims,
    random_graph,
    random_system,
    stabilized_chain,
)


@pytest.fixture
def json_paths(monkeypatch):
    """The readers' and the CSV writer's paths in turn: orjson's when it is
    installed, then ``json.loads``, ``csv`` and ``repr`` alone.

    A reader test runs its body once per item; the second item sets
    sysio's orjson handle to ``None``.
    """
    def paths():
        if sysio._orjson is not None:
            yield "orjson"
        monkeypatch.setattr(sysio, "_orjson", None)
        yield "json"
    return paths()


@pytest.fixture
def csv_outcomes(monkeypatch):
    """How often orjson's CSV path read a text (True) or left it to the csv reader (False)."""
    outcomes, read_rows = Counter(), sysio._orjson_rows

    def counting(*args):
        rows = read_rows(*args)
        outcomes[rows is not None] += 1
        return rows

    monkeypatch.setattr(sysio, "_orjson_rows", counting)
    return outcomes


@pytest.fixture(scope="module")
def report_schema():
    text = (
        resources.files("netreal")
        .joinpath("schemas", "report.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def test_system_roundtrip_through_obj(rng):
    graph = random_graph(rng, 3)
    dims = random_dims(rng, 3)
    real = random_system(rng, graph, dims)
    back, graph2, name = system_from_obj(system_to_obj(real, graph, "case-17"))
    assert graph2 == graph
    assert name == "case-17"
    assert np.array_equal(back.A, real.A)
    assert np.array_equal(back.B, real.B)
    assert np.array_equal(back.C, real.C)
    assert np.array_equal(back.D, real.D)


def test_system_roundtrip_through_file(tmp_path, river):
    real, graph = river
    path = tmp_path / "sys.json"
    write_system(path, real, graph, "river")
    back, graph2, name = read_system(path)
    assert name == "river"
    assert graph2 == graph
    assert np.array_equal(back.A, real.A)


def test_system_file_roundtrip_is_bit_exact_over_seeds(tmp_path):
    """``write_system`` then ``read_system`` gives every matrix back bit for bit.

    Entries span 1e-300 to 1e300, with signed zeros, a subnormal and the
    largest float spliced in; every third system has a node without
    states or channels.  A system without states whose channels sit on
    one side only is refused by the writer, as by the reader, and no
    file is written.
    """
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
               1.0 / 3.0, float(np.nextafter(1.0, 2.0))]
    read_back = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 6))
        graph = random_graph(rng, count, self_loops=seed % 2 == 0)
        dims = random_dims(rng, count)
        if seed % 3 == 0:
            empty = int(rng.integers(count))
            dims = NodeDims(*(tuple(0 if k == empty else v for k, v in enumerate(counts))
                              for counts in (dims.states, dims.inputs, dims.outputs)))
        mode = DMode.EDGE_SPARSE if seed % 2 else DMode.STRICT
        real = random_system(rng, graph, dims, mode)
        matrices = []
        for matrix in (real.A, real.B, real.C, real.D):
            matrix = matrix * 10.0 ** rng.integers(-300, 300, size=matrix.shape)
            if matrix.size:
                matrix.flat[rng.integers(0, matrix.size, 2)] = rng.choice(special, 2)
            matrices.append(matrix)
        real = BlockRealization(dims, *matrices)
        path = tmp_path / f"case-{seed}.json"
        if dims.n_total == 0 and (dims.m_total == 0) != (dims.p_total == 0):
            with pytest.raises(InputError, match="no matrix holds those channels"):
                write_system(path, real, graph, f"case-{seed}")
            assert not path.exists()
            continue
        write_system(path, real, graph, f"case-{seed}")
        read_back += 1
        back, graph2, name = read_system(path)
        assert (graph2, name, back.dims) == (graph, f"case-{seed}", dims)
        for got, want in zip((back.A, back.B, back.C, back.D), matrices):
            assert got.shape == want.shape
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
    assert read_back >= 55


def test_system_parse_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"graph": [,]}')
    with pytest.raises(InputError, match=r"line 1 column 12"):
        read_system(bad)
    bad.write_text('{"graph": %s}' % ("1" * 4301))
    with pytest.raises(InputError, match="invalid JSON: Exceeds the limit"):
        read_system(bad)
    for missing, message in [
        ({}, "missing required field 'graph'"),
        ({"graph": {"num_nodes": 1}}, "missing required field 'edges'"),
        (
            {"graph": {"num_nodes": 1, "edges": []}},
            "missing required field 'dims'",
        ),
        (
            {
                "graph": {"num_nodes": 1, "edges": [[0, 0]]},
                "dims": [{"n": 1, "m": 1, "p": 1}],
            },
            "missing required field 'A'",
        ),
    ]:
        with pytest.raises(InputError, match=message):
            system_from_obj(missing)


def test_system_matrix_shape_diagnostics():
    obj = {
        "graph": {"num_nodes": 1, "edges": [[0, 0]]},
        "dims": [{"n": 1, "m": 1, "p": 1}],
        "A": [[1.0, 2.0]],
    }
    with pytest.raises(InputError, match=r"'A' has shape \(1, 2\)"):
        system_from_obj(obj)
    for bad in ("not numbers", [[10**400 - 1]]):
        obj["A"] = bad
        with pytest.raises(InputError, match="'A' is not a numeric matrix"):
            system_from_obj(obj)


def test_zero_width_matrices_may_be_omitted():
    obj = {
        "graph": {"num_nodes": 2, "edges": [[0, 0], [1, 0], [1, 1]]},
        "dims": [{"n": 0, "m": 1, "p": 1}, {"n": 0, "m": 1, "p": 1}],
        "D": [[1.0, 0.0], [2.0, 1.0]],
    }
    real, graph, _ = system_from_obj(obj)
    assert real.n == 0
    assert real.A.shape == (0, 0)
    # and they are dropped again on the way out
    out = system_to_obj(real, graph)
    assert "A" not in out and "B" not in out and "C" not in out
    assert "D" in out


def test_system_refuses_channels_no_matrix_holds():
    graph = {"num_nodes": 2, "edges": [[0, 0], [1, 1]]}
    for dims, field in [
        ([{"n": 0, "m": 0, "p": 0}, {"n": 0, "m": 3, "p": 0}], r"'dims\[1\]\.m' is 3"),
        ([{"n": 0, "m": 0, "p": 2}, {"n": 0, "m": 0, "p": 0}], r"'dims\[0\]\.p' is 2"),
    ]:
        with pytest.raises(InputError, match=field):
            system_from_obj({"graph": graph, "dims": dims})
    # with neither inputs nor outputs there is nothing to store
    real, _, _ = system_from_obj({"graph": graph, "dims": [{"n": 0, "m": 0, "p": 0}] * 2})
    assert real.D.shape == (0, 0)


def test_block_form_diagnostics():
    """Each malformed block raises InputError naming its field and block."""
    base = {
        "graph": {"num_nodes": 3, "edges": [[0, 0], [1, 1], [2, 2], [2, 0]]},
        "dims": [{"n": 2, "m": 1, "p": 1}, {"n": 0, "m": 1, "p": 0}, {"n": 1, "m": 0, "p": 1}],
        "A": {"blocks": [[0, 0, [[0.5, 0.0], [0.0, 0.5]]], [2, 0, [[1.0, -0.0]]]]},
        "B": {"blocks": [[0, 0, [[1.0], [0.0]]]]},
        "C": {"blocks": [[0, 0, [[1.0, 0.0]]], [2, 2, [[1.0]]]]},
        "D": {"blocks": []},
    }
    real, _, _ = system_from_obj(base)
    assert real.A[2].tolist() == [1.0, -0.0, 0.0] and np.signbit(real.A[2, 1])
    assert real.C[1].tolist() == [0.0, 0.0, 1.0] and not real.D.any()
    square = [[1.0, 2.0], [3.0, 4.0]]
    for key, value, message in [
        ("A", {}, r"missing required field 'blocks' in field 'A'"),
        ("B", {"blocks": {"0": []}}, r"field 'B.blocks' must be a list"),
        ("A", {"blocks": [[0, 0]]}, r"field 'A.blocks\[0\]' must be an \[i, j, rows\] entry"),
        ("A", {"blocks": [{"i": 0}]}, r"field 'A.blocks\[0\]' must be an \[i, j, rows\] entry"),
        ("A", {"blocks": [[0, 0, square, 1]]}, r"'A.blocks\[0\]' must be an \[i, j, rows\]"),
        ("A", {"blocks": [[True, 0, square]]}, r"'A.blocks\[0\]' node i must be an integer"),
        ("A", {"blocks": [[0, 1.0, square]]}, r"'A.blocks\[0\]' node j must be an integer"),
        ("A", {"blocks": [[0, "0", square]]}, r"'A.blocks\[0\]' node j must be an integer"),
        ("A", {"blocks": [[-1, 0, square]]}, r"'A.blocks\[0\]' node i is -1, out of range"),
        ("C", {"blocks": [[0, 3, [[1.0]]]]}, r"'C.blocks\[0\]' node j is 3, out of range"),
        ("A", {"blocks": [[0, 0, square], [0, 0, square]]},
         r"field 'A.blocks\[1\]' repeats block \(0, 0\)"),
        ("A", {"blocks": [[0, 0, [[1.0, 2.0]]]]},
         r"'A.blocks\[0\]' rows have shape \(1, 2\), expected \(2, 2\)"),
        ("A", {"blocks": [[0, 0, square], [2, 0, [[1.0], [2.0]]]]},
         r"'A.blocks\[1\]' rows have shape \(2, 1\), expected \(1, 2\)"),
        ("A", {"blocks": [[0, 0, "x"]]}, r"'A.blocks\[0\]' rows are not a numeric matrix"),
        ("A", {"blocks": [[0, 0, [[1.0, 2.0], [3.0]]]]}, r"'A.blocks\[0\]' rows are not a numeric"),
        ("A", {"blocks": [[1, 0, []]]}, r"'A.blocks\[0\]' node i is 1, whose 'dims\[1\]\.n' is 0"),
        ("B", {"blocks": [[0, 2, [[1.0], [1.0]]]]},
         r"'B.blocks\[0\]' node j is 2, whose 'dims\[2\]\.m' is 0"),
        ("C", {"blocks": [[1, 0, []]]}, r"'C.blocks\[0\]' node i is 1, whose 'dims\[1\]\.p' is 0"),
    ]:
        with pytest.raises(InputError, match=message):
            system_from_obj({**base, key: value})


def test_matrix_entries_must_be_json_numbers(json_paths):
    """A string, true, false or null in a matrix, dense or by blocks, or in trajectory values exits 2.

    Each refusal names the field, and the block in the block form; JSON
    integers still read as floats.  A boolean among numbers is not
    caught (numpy reads it as a number), so each literal fills its
    matrix here.
    """
    head = ('{"graph": {"num_nodes": 2, "edges": [[0, 0], [1, 0], [1, 1]]}, '
            '"dims": [{"n": 1, "m": 1, "p": 1}, {"n": 1, "m": 0, "p": 1}], '
            '"A": [[0.5, 0], [1, 0.25]], "C": [[1, 0], [0, 1]], "D": [[0], [0]], ')
    dense = head + '"B": [[%s], [%s]]}'
    blocks = head + '"B": {"blocks": [[0, 0, [[%s]]], [1, 0, [[%s]]]]}}'
    trajectory = '{"partition": [1, 1], "values": [[%s, %s]]}'
    for _ in json_paths:
        for text in (dense, blocks):
            real = system_from_obj(_json(text % (1, 0)))[0]
            assert real.A.tolist() == [[0.5, 0.0], [1.0, 0.25]] and real.B.tolist() == [[1.0], [0.0]]
        assert trajectory_from_obj(_json(trajectory % (1, 0))).values.tolist() == [[1.0, 0.0]]
        for literal, holds in (('"0.5"', "a string"), ('" 1e0 "', "a string"),
                               ("true", "true or false"), ("false", "true or false"),
                               ("null", "null")):
            for text, read, what in (
                (dense, system_from_obj, "field 'B' is not a numeric matrix"),
                (blocks, system_from_obj, r"field 'B\.blocks\[0\]' rows are not a numeric matrix"),
                (trajectory, trajectory_from_obj, "trajectory values are not numeric"),
            ):
                with pytest.raises(InputError, match=f"{what}: it holds {holds}$"):
                    read(_json(text % (literal, literal)))
            # Among numbers, a string or null is still refused.
            if literal not in ("true", "false"):
                with pytest.raises(InputError, match=f"it holds {holds}$"):
                    system_from_obj(_json(dense % (literal, 0.5)))


def test_wide_integers_do_not_let_strings_or_null_in(json_paths):
    """A string or null beside an integer beyond 2**64 is refused on both JSON paths.

    json reads such an integer as an int, so numpy finds an object array
    and the gate judges its entries; orjson reads it as a float.
    """
    text = ('{"graph": {"num_nodes": 1, "edges": [[0, 0]]}, "dims": [{"n": 2, "m": 0, "p": 0}], '
            '"A": [[%s, 0], [0, %s]]}')
    wide, what = "9" * 20, "field 'A' is not a numeric matrix"
    for _ in json_paths:
        assert system_from_obj(_json(text % (wide, 0)))[0].A[0, 0] == float(wide)
        for literal, holds in (('"0.5"', "a string"), ("null", "null")):
            with pytest.raises(InputError, match=f"{what}: it holds {holds}$"):
                system_from_obj(_json(text % (wide, literal)))
        with pytest.raises(InputError, match=f"{what}$"):
            system_from_obj(_json(text % (wide, "[1]")))


def test_dense_and_block_forms_read_back_bit_for_bit(json_paths):
    """The dense rows and the nonzero blocks of one matrix read back to the same bytes.

    Graphs are DAGs or cyclic, with or without self-loops; every third
    system has a node without states or channels.  In each matrix one
    filled block is overwritten with ``-0.0`` only, and in every fourth
    system signed zeros, a subnormal, NaN and +-inf are spliced in.  Both
    documents go through JSON text and the reader's parser, on each of
    its paths.  A system either form refuses, for a non-finite entry or
    for channels no matrix holds, is refused by the other with the same
    message; every other reads back whole, and :func:`system_to_obj`
    writes it as the same blocks.
    """
    for _ in json_paths:
        _check_dense_and_block_forms()


def _check_dense_and_block_forms():
    special = [0.0, -0.0, 5e-324, float("nan"), float("inf"), -float("inf")]
    refused = 0
    for seed in range(48):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 6))
        graph = (random_dag if seed % 2 else random_graph)(rng, count, self_loops=seed % 4 < 2)
        dims = random_dims(rng, count)
        if seed % 3 == 0:
            empty = int(rng.integers(count))
            dims = NodeDims(*(tuple(0 if k == empty else v for k, v in enumerate(counts))
                              for counts in (dims.states, dims.inputs, dims.outputs)))
        real = random_system(rng, graph, dims, DMode.EDGE_SPARSE if seed % 5 else DMode.STRICT)
        matrices = {}
        for key, axes in _MATRIX_AXES.items():
            matrix = getattr(real, key).copy()
            row_slices, col_slices = (_axis(dims, axis)[1] for axis in axes)
            filled = [(r, c) for r in row_slices for c in col_slices if matrix[r, c].any()]
            if filled:
                r, c = filled[int(rng.integers(len(filled)))]
                matrix[r, c] = -0.0
            if matrix.size and seed % 4 == 3:
                matrix.flat[rng.integers(0, matrix.size, 2)] = rng.choice(special, 2)
            matrices[key] = matrix
        head = {"graph": {"num_nodes": count, "edges": [list(e) for e in graph.sorted_edges()]},
                "dims": [{"n": n, "m": m, "p": p} for n, m, p in dims.triples()]}
        forms = {key: ({"blocks": _nonzero_blocks(matrix, dims, _MATRIX_AXES[key])},
                       matrix.tolist())
                 for key, matrix in matrices.items() if matrix.size}
        docs = [_json(json.dumps({**head, **{key: pair[k] for key, pair in forms.items()}}))
                for k in (0, 1)]
        for key, (blocks, _) in forms.items():
            # Sorted by (i, j) without repeats, and none holds only zero bits.
            places = [tuple(b[:2]) for b in blocks["blocks"]]
            assert places == sorted(set(places)), (seed, key)
            assert all(np.array(b[2]).view(np.uint64).any() for b in blocks["blocks"])
            for doc in docs:
                got = _matrix_from_obj(doc[key], key, dims, _MATRIX_AXES[key])
                assert got.tobytes() == matrices[key].tobytes(), (seed, key)
        outcomes = []
        for doc in docs:
            try:
                outcomes.append(system_from_obj(doc)[0])
            except InputError as exc:
                outcomes.append(str(exc))
        if isinstance(outcomes[0], str):
            refused += 1
            assert outcomes[1] == outcomes[0], seed
            continue
        for back in outcomes:
            for key, matrix in matrices.items():
                assert getattr(back, key).tobytes() == matrix.tobytes(), (seed, key)
        written = system_to_obj(outcomes[0], graph)
        assert {key: written[key] for key in forms} == {key: pair[0] for key, pair in forms.items()}
    assert 6 <= refused <= 24, refused


def test_packaged_systems_survive_a_block_form_round_trip(tmp_path):
    """Every packaged system, dense on disk, reads back bit for bit from the file it saves."""
    data = resources.files("netreal").joinpath("data")
    names = sorted(p.name for p in data.iterdir() if p.name.endswith(".json"))
    assert len(names) == 5
    for file_name in names:
        real, graph, name = read_system(str(data / file_name))
        dense = json.loads((data / file_name).read_text("utf-8"))
        assert all(isinstance(dense[key], list) for key in "ABCD" if key in dense)
        path = tmp_path / file_name
        write_system(path, real, graph, name)
        saved = json.loads(path.read_text("utf-8"))
        assert all(isinstance(saved[key], dict) for key in "ABCD" if key in saved)
        back, graph2, name2 = read_system(path)
        assert (graph2, name2, back.dims) == (graph, name, real.dims)
        for key in "ABCD":
            assert getattr(back, key).tobytes() == getattr(real, key).tobytes(), (file_name, key)


def test_saved_file_size_follows_the_nonzero_blocks(tmp_path, capsys):
    """``compose --op add --save`` on 100- and 200-node chains: the file less than 2.2 times larger.

    Each sum has four states per node, so its dense A would grow fourfold.
    """
    sizes = {}
    for count in (100, 200):
        real = random_chain(np.random.default_rng(count), count, 0)
        graph = build_graph(count, [(i, i) for i in range(count)]
                            + [(i, i - 1) for i in range(1, count)])
        chain, saved = tmp_path / f"chain{count}.json", tmp_path / f"sum{count}.json"
        write_system(chain, real, graph, "chain")
        assert main(["compose", "--op", "add", str(chain), str(chain), "--save", str(saved)]) == 0
        summed = read_system(saved)[0]
        dense = json_text({key: getattr(summed, key).tolist() for key in "ABCD"})
        sizes[count] = (saved.stat().st_size, len(dense))
    capsys.readouterr()
    assert sizes[200][0] / sizes[100][0] < 2.2, sizes
    assert sizes[200][1] / sizes[100][1] > 3.5, sizes


def test_trajectory_csv_roundtrip(rng):
    traj = SignalTrajectory(rng.normal(size=(6, 4)), (2, 0, 1, 1), "y")
    text = trajectory_to_csv(traj)
    header = text.splitlines()[0]
    assert header == "y0_0,y0_1,y2_0,y3_0"
    back = trajectory_from_csv(text, (2, 0, 1, 1))
    assert back.name == "y"
    assert back.partition == (2, 0, 1, 1)
    assert np.array_equal(back.values, traj.values)


def test_trajectory_csv_header_diagnostics():
    for text, partition, message in [
        ("alpha,beta\n1,2\n", (1, 1), "column 1 is 'alpha', expected '<name>0_0'"),
        ("u0_0,u0_2\n1,2\n", (2,), "column 2 is 'u0_2', expected 'u0_1'"),
        ("u0_0,y1_0\n1,2\n", (1, 1), "column 2 is 'y1_0', expected 'u1_0'"),
        ("u0_0\n1.0\nnope\n", (1,), "row 3"),
        # column count: a header for another partition
        ("u0_0,u1_0\n1,2\n", (1, 1, 1), "2 columns, partition \\(1, 1, 1\\) has 3"),
        ("u0_0\n1\n", (0, 0), "1 columns, partition \\(0, 0\\) has 0"),
        # wrong name: node 0 has no channel, so the first label must name node 1
        ("u0_0,u1_0\n1,2\n", (0, 2), "column 1 is 'u0_0', expected '<name>1_0'"),
        ("u99999999999_0\n1\n", (1,), "expected '<name>0_0'"),
        ("", (1,), "no columns"),
    ]:
        with pytest.raises(InputError, match=message):
            trajectory_from_csv(text, partition)


#: A field longer than the csv reader's limit of 131072 characters.
_LONG_FIELD = "1" * 140000


def test_csv_reader_refusals_are_input_errors(json_paths):
    """Text the csv reader refuses raises InputError naming its line, on both paths.

    The reader refuses a field over its size limit, and a carriage return
    inside an unquoted field, with ``csv.Error``.
    """
    for _ in json_paths:
        for text, message in [
            ("u0_0\r1\n", "line 1 is not valid CSV: new-line character"),
            ("u0_0\n1\r2\n", "line 2 is not valid CSV: new-line character"),
            (f"u0_0\n{_LONG_FIELD}\n", r"line 2 is not valid CSV: field larger than field limit"),
            (f"u0_0\n1\n{_LONG_FIELD}.5\n", r"line 3 is not valid CSV: field larger"),
            (f'"u{_LONG_FIELD}0_0"\n1\n', r"line 1 is not valid CSV: field larger"),
        ]:
            with pytest.raises(InputError, match=message):
                trajectory_from_csv(text, (1,))


def test_cli_simulate_refuses_an_oversized_csv_field(tmp_path, capsys, json_paths):
    """An input CSV field over the csv reader's limit exits 2 with a message, not a traceback."""
    paths = _write_river(tmp_path)
    u_path = tmp_path / "u.csv"
    for _ in json_paths:
        for body in (f"{_LONG_FIELD},0,0\n", f"1,0,0\n0,{_LONG_FIELD}.5,0\n"):
            u_path.write_text("u0_0,u1_0,u2_0\n" + body)
            assert main(["simulate", paths["wide"], "--input", str(u_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert f"{u_path}: trajectory CSV line" in captured.err
            assert "field larger than field limit" in captured.err


def _writer_rows(rng) -> np.ndarray:
    """Rows of width 8: in repr's fixed range, random bit patterns, and both mixed."""
    signs = rng.choice([-1.0, 1.0], size=(3000, 8))
    fixed = signs[:1000] * 10.0 ** rng.uniform(-4, 16, size=(1000, 8))
    bits = rng.integers(0, 2**64, size=(1000, 8), dtype=np.uint64).view(np.float64)
    wide = signs[2000:] * 10.0 ** rng.uniform(-330, 308, size=(1000, 8))
    mixed = fixed.copy()
    mixed[np.arange(1000), rng.integers(0, 8, size=1000)] = np.concatenate([bits, wide])[:1000, 0]
    return np.concatenate([fixed, bits, wide, mixed])


#: Values at the edges of repr's fixed notation, and values orjson writes apart.
_WRITER_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.1125369292536007e-308,
                 1e-4, -1e-4, float(np.nextafter(1e-4, 0)), float(np.nextafter(1e-4, 1)),
                 1e-5, float(np.nextafter(1e16, 0)), -float(np.nextafter(1e16, 0)), 1e16, -1e16,
                 1e15, 0.5, 2.0**53 + 2, 1.7976931348623157e308, float("nan"), float("inf"),
                 float("-inf"))


def test_csv_writer_paths_write_repr(rng, json_paths):
    """Both writer paths give ``repr`` of every value, byte for byte.

    Finite rows go through :func:`trajectory_to_csv`, partitions 1 and 0
    wide too; NaN and +-inf, which a trajectory refuses, through the line
    writer itself.  Each edge value stands alone in a row and inside a
    row of values orjson writes.
    """
    rows = _writer_rows(rng)
    edges = np.array(_WRITER_EDGES)
    inside = np.repeat(rows[:1], len(edges), axis=0)
    inside[np.arange(len(edges)), rng.integers(0, 8, size=len(edges))] = edges
    rows = np.concatenate([rows, inside])
    finite = rows[np.isfinite(rows).all(axis=1)]
    cases = [(finite, (3, 0, 5)), (finite[:, :1], (0, 1)), (edges[np.isfinite(edges), None], (1,)),
             (np.zeros((3, 0)), (0,)), (np.zeros((2, 0)), (0, 0)), (finite[:0], (8,))]
    for _ in json_paths:
        for values, partition in cases:
            text = trajectory_to_csv(SignalTrajectory(values, partition, "u"))
            header = ",".join(f"u{i}_{c}" for i, w in enumerate(partition) for c in range(w))
            assert text == header + "\n" + "".join(
                ",".join(map(repr, row)) + "\n" for row in values.tolist())
        for values in (rows, edges[:, None], np.array([[1.5, float("nan"), 2.5]])):
            assert list(sysio._csv_lines(values)) == [
                ",".join(map(repr, row)) + "\n" for row in values.tolist()]


#: Literals the csv path and orjson read differently, or one of them refuses.
_CSV_LITERALS = ("-0", "-0.0", "-0e0", "-0E0", "0", "-1", "2.5e-3", "1E+5", "+1", ".5", "1.", "01",
                 "-00", " 1", "1 ", "1_0", "nan", "inf", "-Infinity", "1e400", "1e-400", "-1e-400",
                 "true", "null", "[1]", '"1"', '""', str(2**53 + 1), str(2**63 + 1),
                 str(2**64 - 1), str(2**64), str(-2**63 - 1), "1" * 400, "e", "-", "1e-0")


def _csv_cases(rng) -> list[tuple[str, tuple[int, ...]]]:
    """CSV texts and the partitions to read them by."""
    cases = []
    for literal in _CSV_LITERALS:
        cases += [(f"u0_0\n{literal}\n", (1,)), (f"u0_0\n{literal}", (1,)),
                  (f"u0_0,u1_0\n{literal},-1\n-1,{literal}\n", (1, 1)),
                  (f"u0_0,u0_1\n0.5,2\n{literal},{literal}", (2,))]
    body = "".join(",".join(map(repr, row)) + "\n" for row in rng.normal(size=(40, 2)).tolist())
    cases += [
        ("u0_0,u0_1\n", (2,)), ("u0_0,u0_1", (2,)), ("u0_0,u0_1\n" + body, (2,)),
        ("u0_0,u0_1\n" + body[:-1], (2,)), ("u0_0,u0_1\n" + body + "\n" + body, (2,)),
        ("u0_0,u0_1\n" + body + "\n", (2,)), ("u0_0,u0_1\n\n" + body, (2,)),
        ("u0_0,u0_1\n" + body.replace("\n", "\r\n"), (2,)),
        ("u0_0,u0_1\r\n" + body, (2,)),
        ("u0_0,u0_1\n" + body + "1.5\n", (2,)), ("u0_0,u0_1\n" + body + "1,2,3\n", (2,)),
        ("u0_0,u0_1\n" + body + "1,2,\n", (2,)), ("u0_0,u0_1\n" + body + ",\n", (2,)),
        ('"u0_0",u0_1\n' + body, (2,)), ('u0_0,"u0_1\n' + body, (2,)),
        # Headers csv reads across lines, named "a\n" and "a\n1".
        ('"a\n0_0"\n1\n', (1,)), ('"a\n0_0', (1,)), ('"a\n10_0"\n1\n-2\n', (1,)),
        ("u0_0,u0_1\n" + body.replace("-", "-0", 3), (2,)),
        # Bodies of several default chunks, refused in the last one or not.
        ("u0_0,u0_1\n" + body * 12, (2,)), ("u0_0,u0_1\n" + body * 12 + "1\n", (2,)),
        ("u0_0,u0_1\n" + body * 12 + "-0,1", (2,)),
        ("\n", (0,)), ("\n\n\n", (0,)), ("\n\n\n", (0, 0)), ("\n1\n", (0,)),
        ("\n\n,\n", (0,)), ("", (0,)), ("u0_0\n", (2,)), ("u1_0,u1_1\n1,2\n", (0, 2)),
    ]
    return cases


def test_csv_reader_paths_agree(rng, monkeypatch, json_paths, csv_outcomes):
    """orjson's CSV path gives the csv path's values bit for bit, or the same InputError.

    The csv path is float() of each field.  Both paths read every case
    with the body cut into chunks of the default size and of 5 characters,
    so the cases also fall across chunk boundaries.
    """
    cases = _csv_cases(rng)
    keys = {}
    for path in json_paths:
        for chunk in (sysio._CSV_CHUNK, 5):
            monkeypatch.setattr(sysio, "_CSV_CHUNK", chunk)
            keys[path, chunk] = [
                _read_key(lambda text: trajectory_from_csv(text, partition), text)
                for text, partition in cases]
    want = keys["json", 5]
    for (path, chunk), got in keys.items():
        for (text, partition), got_key, want_key in zip(cases, got, want):
            assert got_key == want_key, (path, chunk, text, partition)
    assert dict(zip(cases, want))["u0_0\n-0\n", (1,)][3] == struct.pack("<d", -0.0)
    assert dict(zip(cases, want))["u0_0\n" + str(2**64 - 1), (1,)][3] == struct.pack("<d", 2.0**64)
    if ("orjson", 5) in keys:
        assert csv_outcomes[True] >= 40 and csv_outcomes[False] >= 40, csv_outcomes


def test_trajectory_json_roundtrip(tmp_path, rng, json_paths):
    traj = SignalTrajectory(rng.normal(size=(5, 2)), (1, 1), "meas")
    path = tmp_path / "t.json"
    write_trajectory(path, traj)
    for _ in json_paths:
        back = read_trajectory(path, (1, 1))
        assert back.name == "meas"
        assert back.values.tobytes() == traj.values.tobytes()
        with pytest.raises(InputError, match=r"partition \(1, 1\) does not match the system's"):
            read_trajectory(path, (2,))


@pytest.mark.parametrize("inputs", [(0, 1, 2), (1, 0, 2), (2, 1, 0)])
def test_zero_width_nodes_through_csv(tmp_path, capsys, rng, inputs):
    graph = random_graph(rng, 3)
    real = random_system(rng, graph, NodeDims((1, 2, 1), inputs, inputs), rho=0.8)
    u = SignalTrajectory(rng.normal(size=(7, 3)), inputs, "u")
    back = trajectory_from_csv(trajectory_to_csv(u), inputs)
    assert back.partition == inputs and back.name == "u"
    assert np.array_equal(back.values, u.values)

    system, u_path, y_path = (str(tmp_path / f) for f in ("sys.json", "u.csv", "y.csv"))
    write_system(system, real, graph)
    write_trajectory(u_path, u)
    assert main(["simulate", system, "--input", u_path, "-o", y_path]) == 0, \
        capsys.readouterr().err
    y_cli = read_trajectory(y_path, real.dims.outputs)
    y_lib, _ = simulate_lti(real, u)
    assert np.array_equal(y_cli.values, y_lib.values)


@pytest.mark.parametrize("partition", [(0,), (0, 0)])
@pytest.mark.parametrize("steps", [0, 4])
def test_zero_width_signal_through_csv(tmp_path, capsys, rng, partition, steps):
    nodes = len(partition)
    graph = random_graph(rng, nodes)
    ones = (1,) * nodes
    u = SignalTrajectory(np.zeros((steps, 0)), partition, "u")
    text = trajectory_to_csv(u)
    assert text == "\n" * (steps + 1)
    back = trajectory_from_csv(text, partition)
    assert back.partition == partition and back.name == "signal"
    assert back.values.shape == (steps, 0)

    # A system without inputs reads u from CSV; one without outputs writes y to CSV.
    wide = SignalTrajectory(rng.normal(size=(steps, nodes)), ones, "u")
    for dims, signal in ((NodeDims(ones, partition, ones), u),
                         (NodeDims(ones, ones, partition), wide)):
        real = random_system(rng, graph, dims, rho=0.8)
        system, u_path, y_path = (str(tmp_path / f) for f in ("sys.json", "u.csv", "y.csv"))
        write_system(system, real, graph)
        write_trajectory(u_path, signal)
        assert main(["simulate", system, "--input", u_path, "-o", y_path]) == 0, \
            capsys.readouterr().err
        y_cli = read_trajectory(y_path, real.dims.outputs)
        y_lib, _ = simulate_lti(real, signal)
        assert y_cli.length == steps
        assert np.array_equal(y_cli.values, y_lib.values)


def test_report_objects_validate_against_schema(report_schema):
    report = Report(name="example")
    report.add("first", True, value=1.5, eigen=complex(1, 2))
    report.add("second", False, blocks=[(0, 1)], flag=np.bool_(True))
    obj = report.to_obj()
    jsonschema.validate(obj, report_schema)
    assert obj["pass"] is False
    assert obj["stages"][0]["detail"]["eigen"] == {"real": 1.0, "imag": 2.0}
    json.dumps(obj)


def test_demo_reports_validate_against_schema(report_schema):
    for report in (run_demo_river(), run_demo_remark1()):
        obj = report.to_obj()
        jsonschema.validate(obj, report_schema)
        assert obj["pass"] is True
        json.dumps(obj)


def _write_river(tmp_path):
    plant, graph, _ = packaged_system("river")
    wide, _, _ = packaged_system("river_bar")
    q, _, _ = packaged_system("river_q")
    paths = {}
    for key, real in (("plant", plant), ("wide", wide), ("q", q)):
        paths[key] = str(tmp_path / f"{key}.json")
        write_system(paths[key], real, graph, key)
    return paths


def test_cli_check_exit_codes(tmp_path, capsys):
    paths = _write_river(tmp_path)
    assert main(["check", paths["wide"]]) == 0
    assert main(["check", paths["plant"]]) == 1
    out = capsys.readouterr().out
    assert "overall: PASS" in out and "overall: FAIL" in out


def test_cli_check_json_is_schema_valid(tmp_path, capsys, report_schema):
    paths = _write_river(tmp_path)
    assert main(["check", paths["wide"], "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    jsonschema.validate(obj, report_schema)
    assert obj["pass"] is True


def test_cli_missing_file_and_usage(tmp_path, capsys):
    assert main(["check", str(tmp_path / "none.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main([]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    # Nesting past the decoder's recursion limit is bad input, not a traceback.
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "graph": {"num_nodes": 1, "edges": [[0, 0]]}, "dims": [{"n": 1, "m": 1, "p": 1}],
        "A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}))
    deep_system, deep_input = tmp_path / "deep-sys.json", tmp_path / "deep-u.json"
    deep_system.write_text('{"graph": ' + "[" * 100_000)
    deep_input.write_text('{"partition": [1], "values": ' + "[" * 100_000)
    for argv in (["check", str(deep_system)],
                 ["simulate", str(system), "--input", str(deep_input)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid JSON" in captured.err, argv
    # Well-formed JSON whose top level is not an object is bad input too.
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    for argv, message in ((["check", str(listed)], "system document must be an object"),
                          (["simulate", str(system), "--input", str(listed)],
                           "trajectory document must be an object")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, argv
    bad.write_bytes(b'{"name": "\xff"}')
    assert main(["check", str(bad)]) == 2
    assert "not UTF-8 text (invalid start byte at byte 10)" in capsys.readouterr().err
    assert main(["demo", "river", "--d-mode", "edge"]) == 2
    assert "unrecognized arguments: --d-mode edge" in capsys.readouterr().err


def test_cli_refuses_non_integer_counts(tmp_path, capsys, json_paths):
    paths = _write_river(tmp_path)
    plant = json.loads(open(paths["plant"], encoding="utf-8").read())
    bad = tmp_path / "bad.json"
    for _ in json_paths:
        # 1e400 parses as an infinite float.
        for edge in ("[0.5, 0]", "[true, 0]", '["1", 0]', '{"a": 1}', "[1e400, 0]"):
            doc = json.dumps(plant).replace("[1, 0]", edge, 1)
            assert edge in doc
            bad.write_text(doc)
            assert main(["check", str(bad)]) == 2, edge
            assert "error:" in capsys.readouterr().err
        for partition in ('["a"]', "5", "null", '"11"'):
            bad.write_text(f'{{"partition": {partition}, "values": [[0.0, 0.0, 0.0]]}}')
            assert main(["simulate", paths["plant"], "--input", str(bad)]) == 2, partition
            assert "error:" in capsys.readouterr().err


def test_cli_numbers_beyond_float_range_exit_2(tmp_path, capsys, json_paths):
    scalar = {"graph": {"num_nodes": 1, "edges": [[0, 0]]},
              "dims": [{"n": 1, "m": 1, "p": 1}], "A": [[0.5]], "B": [[1.0]],
              "C": [[1.0]], "D": [[0.0]]}
    beyond_float, beyond_digits = "9" * 400, "1" * 4301
    system = tmp_path / "sys.json"
    system.write_text(json.dumps(scalar))
    cases = [
        ("sys", json.dumps(scalar).replace("0.5", beyond_float), ["check"]),
        ("sys", json.dumps(scalar).replace('"n": 1', f'"n": {beyond_digits}'), ["check"]),
        ("u", f'{{"partition": [1], "values": [[{beyond_float}]]}}',
         ["simulate", str(system), "--input"]),
        ("u", f'{{"partition": [1], "values": [[{beyond_digits}]]}}',
         ["simulate", str(system), "--input"]),
    ]
    for _ in json_paths:
        for kind, text, argv in cases:
            path = tmp_path / f"{kind}-bad.json"
            path.write_text(text)
            assert main([*argv, str(path)]) == 2, text[:40]
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:"), captured.err


def test_cli_refuses_unusable_tolerances(tmp_path, capsys):
    """NaN, negative and infinite tolerances exit 2 before any report is printed."""
    data = Path(str(resources.files("netreal").joinpath("data")))
    river, river_bar, river_q = (str(data / f"{n}.json") for n in ("river", "river_bar", "river_q"))
    # An unstable mode that neither B nor C touches: both PBH stages fail at the default.
    scalar = str(tmp_path / "scalar.json")
    write_system(scalar, BlockRealization(NodeDims((1,), (1,), (1,)), A=[[1.5]]),
                 build_graph(1, [(0, 0)]))
    assert main(["check", scalar]) == 1
    capsys.readouterr()
    for bad in ("nan", "-1", "inf"):
        for argv in (
            ["check", scalar, "--pbh-tol", bad],
            ["compose", "--op", "add", river_bar, river_bar, "--rtol", bad],
            ["compose", "--op", "mul", river, river_q, "--rtol", bad],
            ["closeloop", river_bar, river_q, "--rtol", bad],
            ["imc", river, river_q, "--rtol", bad],
            ["demo", "river", "--rtol", bad],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert "tolerance must be finite and nonnegative" in captured.err, argv


def test_cli_refuses_nonpositive_points_before_reading(monkeypatch, capsys):
    """A sample count below one exits 2 at parse time: no file is read, nothing is built."""
    import netreal.cli as cli

    data = Path(str(resources.files("netreal").joinpath("data")))
    river, river_bar, river_q = (str(data / f"{n}.json") for n in ("river", "river_bar", "river_q"))

    def refuse(*args, **kwargs):
        raise AssertionError("an input was read or a composite built")

    for name in ("read_system", "run_demo_river", "add", "multiply", "invert", "close_loop",
                 "imc_controller"):
        monkeypatch.setattr(cli, name, refuse)
    for bad in ("0", "-3"):
        for argv in (
            ["compose", "--op", "add", river_bar, river_bar, "--points", bad],
            ["compose", "--op", "mul", river, river_q, "--points", bad],
            ["compose", "--op", "inv", river_q, "--points", bad],
            ["closeloop", river_bar, river_q, "--points", bad],
            ["imc", river, river_q, "--points", bad],
            ["demo", "river", "--points", bad],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert "argument --points: num_points must be positive" in captured.err, argv


_UNDER_2_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from netreal.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_cli_inputs_sized_beyond_memory_exit_2(tmp_path):
    """Inputs whose declared sizes do not fit under a 2 GiB address space exit 2.

    The block form of a matrix needs no case of its own: it sizes no
    allocation beyond ``dims``.  Its matrix is the one ``dims`` gives,
    and every block must match the counts of its two nodes.  A
    ``--points`` count whose points no array can hold is refused by the
    argument parser.  60000 nodes without states or channels do fit:
    no check forms an N x N node grid, so they pass.
    """
    huge = str(tmp_path / "huge.json")
    Path(huge).write_text(json.dumps({
        "graph": {"num_nodes": 1, "edges": [[0, 0]]},
        "dims": [{"n": 0, "m": 1099511627776, "p": 0}]}))
    u_json = str(tmp_path / "u.json")
    Path(u_json).write_text('{"partition": [1099511627776], "values": []}')
    scalar = str(tmp_path / "scalar.json")
    write_system(scalar, BlockRealization(
        NodeDims((1,), (1,), (1,)), A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]]),
        build_graph(1, [(0, 0)]))
    u_csv = str(tmp_path / "u.csv")
    Path(u_csv).write_text("u99999999999_0\n1.0\n")
    # Small on disk; an N x N node grid of it would not fit under the cap.
    many = str(tmp_path / "many.json")
    Path(many).write_text(json.dumps({
        "graph": {"num_nodes": 60000, "edges": [[0, 0]]},
        "dims": [{"n": 0, "m": 0, "p": 0}] * 60000}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    # One BLAS thread keeps the interpreter itself well inside the cap.
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for argv in (
        ["check", huge],
        ["compose", "--op", "add", huge, huge],
        ["simulate", huge, "--input", u_json],
        ["simulate", scalar, "--input", u_csv],
    ):
        done = subprocess.run([sys.executable, "-c", _UNDER_2_GIB, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, (argv, done.stderr)
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1, done.stderr
    for points in ("4611686018427387904", "99999999999999999999999"):
        argv = ["compose", "--op", "add", scalar, scalar, "--points", points]
        done = subprocess.run([sys.executable, "-c", _UNDER_2_GIB, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, (argv, done.stderr)
        errors = [line for line in done.stderr.splitlines() if "error:" in line]
        assert errors == [done.stderr.splitlines()[-1]], done.stderr
        assert f"argument --points: num_points must be below {2 * (_MAX_TOTAL // 2)}, got {points}" \
            in errors[0], done.stderr
    for argv in (["check", many], ["compose", "--op", "add", many, many]):
        done = subprocess.run([sys.executable, "-c", _UNDER_2_GIB, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, ""), (argv, done.stderr)
        lines = done.stdout.splitlines()
        assert lines[-1] == "overall: PASS" and len(lines) >= 4, done.stdout
        assert all(line.startswith("  [PASS] ") for line in lines[1:-1]), done.stdout


def test_cli_deep_nesting_exits_2(tmp_path):
    """A system or JSON trajectory nested a million deep exits 2 as invalid JSON.

    orjson crashes the interpreter on such text, so ``_json`` must route
    it to ``json.loads``; each run is a subprocess, so a regression fails
    here instead of killing the test run.
    """
    deep = "[" * 1_000_000 + "]" * 1_000_000
    system = tmp_path / "deep.json"
    system.write_text(deep)
    u_json = tmp_path / "u.json"
    u_json.write_text('{"partition": [1], "values": %s}' % deep)
    scalar = str(tmp_path / "scalar.json")
    write_system(scalar, BlockRealization(
        NodeDims((1,), (1,), (1,)), A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]]),
        build_graph(1, [(0, 0)]))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for path, argv in ((system, ["check", str(system)]),
                       (u_json, ["simulate", scalar, "--input", str(u_json)])):
        done = subprocess.run([sys.executable, "-c", _UNDER_2_GIB, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, (argv, done.returncode, done.stderr)
        assert done.stderr.startswith(f"error: {path}: invalid JSON"), done.stderr
        assert done.stderr.count("\n") == 1, done.stderr


#: Integer literals that :func:`_as_text` splices in for their placeholders:
#: one beyond float range, one beyond the digits Python converts to an int.
_LITERALS = {"@beyond-float": "9" * 400, "@beyond-digits": "1" * 4301}

_JUNK = (None, True, 0, -1, 3, 0.5, 2**70, float("inf"), float("nan"), "1", "", "ab",
         [], [0], [[1.0, "x"]], {}, {"a": 1}, *_LITERALS)


def _slots(doc, found):
    """Every ``(container, key)`` below ``doc``, parents before children."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        items = []
    for key, value in items:
        found.append((doc, key))
        _slots(value, found)
    return found


def _mutated(rng, doc):
    """A copy of a JSON document with one to three random edits."""
    doc = json.loads(json.dumps(doc))
    for _ in range(int(rng.integers(1, 4))):
        slots = _slots(doc, [])
        if not slots:
            return copy.deepcopy(_JUNK[int(rng.integers(len(_JUNK)))])
        container, key = slots[int(rng.integers(len(slots)))]
        action = int(rng.integers(3))
        if action == 0:
            # A copy: later edits must not reach _JUNK, or a junk list could come to hold itself.
            container[key] = copy.deepcopy(_JUNK[int(rng.integers(len(_JUNK)))])
        elif action == 1:
            del container[key]
        else:
            container[key] = [container[key]]
    return doc


def _as_text(doc):
    """``doc`` as JSON text, with each placeholder of ``_LITERALS`` spliced in as its literal."""
    text = json.dumps(doc)
    for placeholder, literal in _LITERALS.items():
        text = text.replace(json.dumps(placeholder), literal)
    return text


def _mutated_text(rng, text):
    """``text`` with one to three characters replaced, inserted or deleted."""
    alphabet = "0123456789_,.-e u\n"
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(len(text) + 1))
        char = alphabet[int(rng.integers(len(alphabet)))]
        action = int(rng.integers(3))
        if action == 0:
            text = text[:at] + char + text[at + 1:]
        elif action == 1:
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


def _matrix_forms(doc) -> set:
    """"blocks" and "dense" for the matrices of a system document held in each form."""
    if not isinstance(doc, dict):
        return set()
    return {"blocks" if isinstance(doc[key], dict) else "dense"
            for key in "ABCD" if isinstance(doc.get(key), (dict, list))}


def test_parsers_return_a_result_or_input_error(rng, json_paths, csv_outcomes):
    """Mutated system documents, in the block form the writer gives and the dense one, and trajectories.

    Each path of the readers takes its own 400 rounds; on orjson's, the
    CSV texts reach both its CSV path and the csv reader after it.
    """
    for _ in json_paths:
        _check_parsers(rng)
        if sysio._orjson is not None:
            assert csv_outcomes[True] >= 50 and csv_outcomes[False] >= 50, csv_outcomes


def _check_parsers(rng):
    graph = random_graph(rng, 3)
    system = system_to_obj(random_system(rng, graph, NodeDims((2, 0, 1), (1, 0, 2), (1, 1, 0))),
                           graph, "s")
    river = json.loads(resources.files("netreal").joinpath("data", "river.json").read_text("utf-8"))
    systems = (system, river)
    assert [_matrix_forms(doc) for doc in systems] == [{"blocks"}, {"dense"}]
    traj = SignalTrajectory(rng.normal(size=(3, 3)), (2, 0, 1), "u")
    traj_obj = trajectory_to_obj(traj)
    csv_text = trajectory_to_csv(traj)
    spliced = dict.fromkeys(_LITERALS.values(), 0)
    forms = Counter()
    for k in range(400):
        mutated = _mutated(rng, systems[k % 2])
        forms.update(_matrix_forms(mutated))
        for parse, doc in (
            (lambda text: system_from_obj(_json(text)), _as_text(mutated)),
            (lambda text: trajectory_from_obj(_json(text)), _as_text(_mutated(rng, traj_obj))),
            (lambda text: trajectory_from_csv(text, traj.partition),
             _mutated_text(rng, csv_text)),
        ):
            for literal in spliced:
                spliced[literal] += literal in doc
            try:
                parse(doc)
            except InputError:
                pass
    assert all(spliced.values()), spliced
    assert forms["blocks"] >= 100 and forms["dense"] >= 100, forms


def _same_json(got, want) -> bool:
    """``got`` equals ``want`` in types and float bits, but that an int outside
    [-2**63, 2**64) in ``want`` may be its nearest float in ``got``."""
    if type(want) is int and not -2**63 <= want < 2**64 and type(got) is float:
        return struct.pack("<d", got) == struct.pack("<d", float(want))
    if type(got) is not type(want):
        return False
    if type(want) is float:
        return struct.pack("<d", got) == struct.pack("<d", want)
    if type(want) is list:
        return len(got) == len(want) and all(map(_same_json, got, want))
    if type(want) is dict:
        return list(got) == list(want) and all(map(_same_json, got.values(), want.values()))
    return got == want


def _holds_wide_int(obj) -> bool:
    """Whether a JSON document holds an int outside [-2**63, 2**64)."""
    if type(obj) is int:
        return not -2**63 <= obj < 2**64
    if isinstance(obj, (list, dict)):
        return any(map(_holds_wide_int, obj.values() if isinstance(obj, dict) else obj))
    return False


def _read_key(read, obj):
    """What ``read`` makes of a parsed document, as a comparable value, or its InputError."""
    try:
        got = read(obj)
    except InputError as exc:
        return f"InputError: {exc}"
    if isinstance(got, SignalTrajectory):
        return got.name, got.partition, got.values.shape, got.values.tobytes()
    real, graph, name = got
    return graph, name, real.dims, *(getattr(real, key).tobytes() for key in "ABCD")


def _float_literals(rng, count: int) -> list[str]:
    """Decimal literals that are hard to round: short and long, halfway and near-halfway."""
    bits = rng.integers(0, 2**63, size=count, dtype=np.uint64)
    doubles = bits.view(np.float64)
    doubles = doubles[np.isfinite(doubles)]
    literals = [repr(float(x)) for x in doubles]
    for x in doubles[:count // 4].tolist():
        # The exact midpoint to the next double, and a digit either side of it.
        mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
        literals += [str(mid), f"{mid}1", f"{mid:.16e}", f"{mid:.25e}"]
    for _ in range(count):
        digits = "".join(rng.choice(list("0123456789"), size=int(rng.integers(1, 40))))
        literals.append(f"{'-' if rng.random() < 0.5 else ''}{digits}e{int(rng.integers(-345, 310))}")
        literals.append(f"0.{digits}e-{int(rng.integers(300, 330))}")
    return literals


def test_orjson_reads_what_json_reads(tmp_path, capsys, monkeypatch, rng):
    """orjson's path gives every document ``json.loads`` gives, and refuses with json's message.

    Documents: generated system files in both matrix forms and JSON
    trajectories, each mutated by value and by character; literals the
    two parsers treat differently (NaN, +-Infinity, numbers beyond double
    range, a lone surrogate, a BOM, deep nesting, a trailing comma, the
    64-bit bounds) alone and spliced into documents; and fuzzed float and
    integer literals.  The one difference allowed is an integer literal
    outside [-2**63, 2**64), which orjson reads as its nearest float: a
    reader may then refuse the document with another message, and in a
    count or an index it must (exit 2 on both paths).
    """
    orjson = pytest.importorskip("orjson")

    def both(parse, text):
        outcomes = []
        for handle in (orjson, None):
            monkeypatch.setattr(sysio, "_orjson", handle)
            try:
                outcomes.append(parse(text))
            except InputError as exc:
                outcomes.append(exc)
        return outcomes

    def compare(text, read=None):
        fast, slow = both(_json, text)
        if isinstance(slow, InputError) or isinstance(fast, InputError):
            assert str(fast) == str(slow), (text[:80], fast, slow)
            return
        assert _same_json(fast, slow), text[:80]
        if read is not None:
            keys = _read_key(read, fast), _read_key(read, slow)
            if keys[0] != keys[1]:
                assert _holds_wide_int(slow) and all(isinstance(k, str) for k in keys), \
                    (text[:80], keys)

    systems, trajectories = [], []
    for seed in range(6):
        gen = np.random.default_rng(seed)
        count = int(gen.integers(1, 5))
        graph = random_graph(gen, count)
        real = random_system(gen, graph, random_dims(gen, count))
        scaled = [m * 10.0 ** gen.integers(-300, 300, size=m.shape) for m in (real.A, real.B, real.C, real.D)]
        real = BlockRealization(real.dims, *scaled)
        doc = system_to_obj(real, graph, "sé\"[\\")
        systems.append(doc)
        systems.append({**doc, **{key: getattr(real, key).tolist() for key in doc if key in "ABCD"}})
        trajectories.append(trajectory_to_obj(SignalTrajectory(
            gen.normal(size=(4, count)) * 10.0 ** gen.integers(-300, 300, size=(4, count)),
            (1,) * count, "u")))
    texts = [(sysio._system_text(doc), system_from_obj) for doc in systems[::2]]
    texts += [(json.dumps(doc), system_from_obj) for doc in systems]
    texts += [(json_text(doc), trajectory_from_obj) for doc in trajectories]
    for text, read in texts:
        compare(text, read)
        compare("\ufeff" + text, read)
    for k in range(300):
        text, read = texts[k % len(texts)]
        compare(_mutated_text(rng, text), read)
        doc = (systems + trajectories)[k % (len(systems) + len(trajectories))]
        compare(_as_text(_mutated(rng, doc)), system_from_obj if "graph" in doc else trajectory_from_obj)

    literals = ["NaN", "-NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1.7976931348623159e308",
                "9" * 400, "1" * 4301, "1" * 4300, '"\\ud800"', '"\\udc00\\ud800"', '"\ud800"',
                "[1, 2,]", "{}",
                "[" * 2000 + "]" * 2000, "[" * 100 + "0.5" + "]" * 100, "[" * 63 + "]" * 63,
                # Closing brackets in a string: alone, after an escaped quote, and
                # after a string that ends in an escaped backslash.
                *(start + "]" * 2000 + '", ' + "[" * 2000 + "]" * 2001
                  for start in ('["', '["\\"', '["\\\\", "')),
                *(str(b + d) for b in (2**63, -2**63, 2**64) for d in (-1, 0, 1))]
    system = json.dumps(systems[1])
    first = next(iter(systems[1]["A"][0])) if systems[1].get("A") else None
    for literal in literals:
        compare(literal)
        compare(f'{{"partition": [1], "values": [[{literal}]]}}', trajectory_from_obj)
        compare(system.replace('"num_nodes": ', f'"num_nodes": {literal}, "was": ', 1),
                system_from_obj)
        if first is not None:
            compare(system.replace(repr(first), literal, 1), system_from_obj)
    compare("[" + ", ".join(_float_literals(rng, 2000)) + "]")
    ints = rng.integers(-2**63, 2**63, size=500, dtype=np.int64).tolist()
    ints += [b + d for b in (2**53, 2**63, -2**63, 2**64, 10**19, -10**19, 10**30) for d in range(-3, 4)]
    compare(json.dumps(ints))

    # An integer literal of 2**64 as the node count, an edge end and a block
    # node: refused on both paths, with another message on orjson's.
    scalar = {"graph": {"num_nodes": 1, "edges": [[0, 0]]}, "dims": [{"n": 1, "m": 1, "p": 1}],
              "A": {"blocks": [[0, 0, [[0.5]]]]}, "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}
    text = json.dumps(scalar)
    path = tmp_path / "wide.json"
    for old, new, slow in (('"num_nodes": 1', '"num_nodes": 18446744073709551616',
                            "one entry per node (18446744073709551616)"),
                           ('"edges": [[0, 0]]', '"edges": [[18446744073709551616, 0]]',
                            "edge (18446744073709551616, 0) out of range for 1 nodes"),
                           ('[[0, 0, [[0.5]]]]', '[[0, 18446744073709551616, [[0.5]]]]',
                            "node j is 18446744073709551616, out of range for 1 nodes")):
        path.write_text(text.replace(old, new))
        for handle, message in ((orjson, "must be an integer, got 1.8446744073709552e+19"),
                                (None, slow)):
            monkeypatch.setattr(sysio, "_orjson", handle)
            assert main(["check", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err, (handle, captured.err)


def test_cli_compose_and_save(tmp_path, capsys):
    paths = _write_river(tmp_path)
    saved = str(tmp_path / "cascade.json")
    assert main([
        "compose", "--op", "mul", paths["plant"], paths["q"], "--save", saved,
    ]) == 0
    capsys.readouterr()
    real, graph, _ = read_system(saved)
    assert real.n == 6
    assert main(["compose", "--op", "inv", paths["q"]]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["compose", "--op", "add", paths["plant"]]) == 2
    assert main(["compose", "--op", "inv", paths["q"], paths["q"]]) == 2
    assert "--op inv takes a single system" in capsys.readouterr().err
    plant, _, _ = read_system(paths["plant"])
    elsewhere = str(tmp_path / "elsewhere.json")
    write_system(elsewhere, plant, build_graph(3, [(0, 0), (1, 1), (2, 2)]))
    assert main(["compose", "--op", "add", paths["plant"], elsewhere]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "composed systems must share one graph" in captured.err


def test_cli_rejects_nonpositive_points(tmp_path, capsys):
    paths = _write_river(tmp_path)
    static = str(tmp_path / "static.json")
    write_system(static, BlockRealization(NodeDims((0,), (1,), (1,)), D=[[2.0]]),
                 build_graph(1, [(0, 0)]), "static")
    for argv in (
        ["compose", "--op", "add", paths["wide"], paths["wide"], "--points", "0"],
        ["compose", "--op", "mul", paths["plant"], paths["q"], "--points", "0"],
        ["compose", "--op", "inv", static, "--points", "0"],
        ["closeloop", paths["wide"], paths["q"], "--points", "-1"],
    ):
        assert main(argv) == 2, argv
        assert "num_points must be positive" in capsys.readouterr().err


def test_cli_numerical_failures_exit_1(tmp_path, capsys):
    graph = build_graph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    huge = str(tmp_path / "huge.json")
    write_system(huge, BlockRealization(
        NodeDims((1, 1), (1, 1), (1, 1)), A=np.full((2, 2), 1.7e308),
        B=np.eye(2), C=np.eye(2)), graph, "huge")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", huge]) == 1
    assert "error:" in capsys.readouterr().err

    scalar = str(tmp_path / "scalar.json")
    write_system(scalar, BlockRealization(
        NodeDims((1,), (1,), (1,)), A=[[10.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]]),
        build_graph(1, [(0, 0)]), "scalar")
    u_path = str(tmp_path / "u.csv")
    write_trajectory(u_path, SignalTrajectory(np.ones((400, 1)), (1,), "u"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for extra in ([], ["--distributed"]):
            assert main(["simulate", scalar, "--input", u_path, *extra]) == 1
            assert "error: simulation diverged" in capsys.readouterr().err

    # Every number is finite, so the file parses; the products overflow.
    wide, wide_graph, _ = packaged_system("river_bar")
    big = str(tmp_path / "big.json")
    write_system(big, BlockRealization(
        wide.dims, wide.A, wide.B * 1e200, wide.C * 1e200, wide.D), wide_graph, "big")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["compose", "--op", "add", big, big], ["compose", "--op", "mul", big, big],
                     ["closeloop", big, big]):
            assert main([*argv, "--json"]) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1, argv


def test_cli_sampling_failure_names_the_refusal(tmp_path, capsys):
    # Every point of the circle is refused with cond(zI - A) = inf, not for
    # nearness to a pole; the error must say which check refused it.
    wide, wide_graph, _ = packaged_system("river_bar")
    big = str(tmp_path / "big.json")
    write_system(big, BlockRealization(
        wide.dims, wide.A, wide.B * 1e200, wide.C * 1e200, wide.D), wide_graph, "big")
    river_bar = str(tmp_path / "river_bar.json")
    write_system(river_bar, wide, wide_graph, "river_bar")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compose", "--op", "mul", big, river_bar]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no usable sample point") and "cond" in err


def test_cli_sampling_memory_does_not_grow_with_the_points(tmp_path, capsys):
    """``--points 20001`` peaks under tracemalloc within 64 bytes per evaluated point of ``--points 5``.

    The system is four one-state nodes with four inputs and four
    outputs, so one point's states and values already fill the dense
    budget of the stacked pole-guard pass, and its chunks take the floor:
    16 points, 40 entries each, well within ``2**15``.  The run grows by
    about 35 to 39 bytes per evaluated point on CPython 3.11 with numpy
    2.4 (32 with one point per chunk), and takes about 7 s where one
    point per chunk took 19 to 28 s.  With the entry floor and no point
    cap, a chunk of 819 points grew by about 193 bytes per point; a pass
    stacked over all 10001 points at once, by about 1300, its working
    arrays for both systems; and a sampler that keeps every point's
    deviations until the end, by about 103.
    """
    import tracemalloc

    path = str(tmp_path / "diag.json")
    real = BlockRealization(NodeDims((1,) * 4, (1,) * 4, (1,) * 4),
                            np.diag([-0.5, -0.2, 0.2, 0.5]), np.eye(4), np.eye(4), np.eye(4))
    write_system(path, real, build_graph(4, [(i, i) for i in range(4)]), "diag")
    assert real._bound_terms.step == 16
    peaks = {}
    for points in (5, 5, 20001):
        tracemalloc.start()
        try:
            assert main(["compose", "--op", "inv", path, "--points", str(points)]) == 0
            peaks[points] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "overall: PASS" in capsys.readouterr().out
    assert peaks[20001] - peaks[5] < 64 * 10001, peaks


def test_cli_closeloop_and_imc(tmp_path, capsys):
    paths = _write_river(tmp_path)
    controller = str(tmp_path / "controller.json")
    assert main([
        "imc", paths["plant"], paths["q"], "--save", controller,
    ]) == 0
    assert main(["closeloop", paths["wide"], controller]) == 0
    out = capsys.readouterr().out
    assert "parameter-roundtrip" in out
    assert "pointwise-inverse" in out


def _counting_spectra(monkeypatch):
    """Record the shape of A each time a realization computes its spectrum; returns the list."""
    calls = []
    compute = BlockRealization.eigenvalues.func

    def counting(real):
        calls.append(real.A.shape)
        return compute(real)

    prop = cached_property(counting)
    prop.__set_name__(BlockRealization, "eigenvalues")
    monkeypatch.setattr(BlockRealization, "eigenvalues", prop)
    return calls


def test_cli_closeloop_computes_each_spectrum_once(tmp_path, capsys, monkeypatch):
    paths = _write_river(tmp_path)
    controller = str(tmp_path / "controller.json")
    assert main(["imc", paths["plant"], paths["q"], "--save", controller]) == 0
    capsys.readouterr()
    plant, _, _ = read_system(paths["wide"])
    ctrl, _, _ = read_system(controller)
    loop = close_loop(plant, ctrl).realization
    expected = float(np.max(np.abs(oracle_spectrum(loop))))

    calls = _counting_spectra(monkeypatch)
    assert main(["closeloop", paths["wide"], controller, "--json"]) == 0
    stages = {s["name"]: s for s in json.loads(capsys.readouterr().out)["stages"]}
    # One spectrum per realization: plant, controller, loop.
    assert sorted(calls) == sorted([plant.A.shape, ctrl.A.shape, loop.A.shape])
    assert stages["stability"]["detail"]["spectral_radius"] == expected


def test_cli_closeloop_passes_a_stabilized_chain(tmp_path, capsys, rng):
    """A stable cascade loop whose node poles repeat 40 times reads radius 0.3.

    Every node block of the loop has the poles 0.1, 0.2, 0.25 and 0.3.
    Dense eigenvalues of the whole loop spread each 40-fold pole by about
    eps^(1/40) and read a radius above 1; per component they do not.
    """
    plant, controller, graph = stabilized_chain(rng, 40, 10)
    paths = [str(tmp_path / f"{name}.json") for name in ("plant", "controller")]
    for path, real in zip(paths, (plant, controller)):
        write_system(path, real, graph, Path(path).stem)
        assert main(["check", path]) == 0
    capsys.readouterr()
    assert main(["closeloop", *paths, "--json"]) == 0
    stages = {s["name"]: s for s in json.loads(capsys.readouterr().out)["stages"]}
    assert stages["stability"]["pass"]
    radius = stages["stability"]["detail"]["spectral_radius"]
    assert abs(radius - 0.3) < 1e-10
    assert radius == float(np.max(np.abs(oracle_spectrum(close_loop(plant, controller).realization))))


def test_cli_evaluates_each_system_once_per_point(tmp_path, capsys, monkeypatch):
    """Sampled stages: one evaluation per system and upper-half point, one spectrum each.

    Each system's bounds and values come from one stacked pass over the
    upper-half points, and the pole guard runs once per system and
    point; no point is evaluated alone.
    """
    paths = _write_river(tmp_path)
    controller = str(tmp_path / "controller.json")
    assert main(["imc", paths["wide"], paths["q"], "--save", controller]) == 0
    capsys.readouterr()
    plant, q, ctrl = (read_system(path)[0] for path in (paths["wide"], paths["q"], controller))
    loop = close_loop(plant, ctrl).realization
    q_inv = str(tmp_path / "q_inv.json")
    write_system(q_inv, BlockRealization(q.dims, q.A, q.B, q.C, np.eye(q.p)),
                 read_system(paths["q"])[1], "q-inv")
    unit_q = read_system(q_inv)[0]

    def key(real):
        return real.A.shape, real.A.tobytes()

    calls, alone, original = Counter(), [], eval_transfer
    passes, guard, stacked = Counter(), netreal.realization._guarded, netreal.realization._transfers

    def counting(real, z):
        alone.append(key(real))
        return original(real, z)

    def guarding(real, z, bound, value):
        calls[key(real)] += 1
        return guard(real, z, bound, value)

    def passing(real, points):
        passes[key(real), len(points)] += 1
        return stacked(real, points)

    # An entry of None marks a module blocked from import.
    for module in list(sys.modules.values()):
        if module is None:
            continue
        if module.__name__.startswith("netreal") and vars(module).get("eval_transfer") is original:
            monkeypatch.setattr(module, "eval_transfer", counting)
    monkeypatch.setattr(netreal.realization, "_guarded", guarding)
    monkeypatch.setattr(netreal.realization, "_transfers", passing)
    spectra = _counting_spectra(monkeypatch)
    cases = (
        (["imc", paths["wide"], paths["q"]], (plant, q, ctrl)),
        (["closeloop", paths["wide"], controller], (plant, ctrl, loop)),
        (["compose", "--op", "add", paths["wide"], paths["wide"]],
         (add(plant, plant), plant, plant)),
        (["compose", "--op", "mul", paths["q"], paths["wide"]],
         (multiply(q, plant), q, plant)),
        (["compose", "--op", "inv", q_inv], (invert(unit_q), unit_q)),
    )
    # Points k and N - k are conjugate, so k = 0 .. N // 2 are evaluated.
    for points, evaluated in ((5, 3), (4, 3)):
        for argv, systems in cases:
            calls.clear()
            alone.clear()
            passes.clear()
            spectra.clear()
            assert main([*argv, "--points", str(points), "--json"]) == 0, argv
            assert json.loads(capsys.readouterr().out)["stages"][1]["detail"]["num_points"] \
                == points, argv
            assert calls == Counter(key(s) for s in systems for _ in range(evaluated)), argv
            assert passes == Counter((key(s), evaluated) for s in systems), argv
            assert alone == [], argv
            assert sorted(spectra) == sorted(s.A.shape for s in systems), argv
    # imc evaluates no realization larger than the controller it checks.
    assert ctrl.n == plant.n + q.n < loop.n


@pytest.mark.parametrize("gain", [1e3, 1e5])
def test_cli_imc_high_gain_roundtrip_passes(tmp_path, capsys, gain):
    """The controller of a design parameter with direct term ``gain * I`` gives it back."""
    data = Path(str(resources.files("netreal").joinpath("data")))
    q, graph, _ = read_system(str(data / "river_q.json"))
    high = str(tmp_path / "q_high.json")
    write_system(high, BlockRealization(q.dims, q.A, q.B, q.C, gain * np.eye(q.p)), graph, "q")
    assert main(["imc", str(data / "river_bar.json"), high, "--json"]) == 0
    stages = {s["name"]: s for s in json.loads(capsys.readouterr().out)["stages"]}
    roundtrip = stages["parameter-roundtrip"]
    assert roundtrip["pass"]
    assert roundtrip["detail"]["max_deviation"] <= roundtrip["detail"]["rel_tol"] == 1e-8


@pytest.mark.parametrize("gain", [1e4, 1e5])
def test_cli_closeloop_high_gain_passes(tmp_path, capsys, gain, river_wide, river_q):
    """The loop of an IMC controller with direct term ``gain * I`` closes exactly."""
    plant, graph = river_wide
    q = BlockRealization(river_q.dims, river_q.A, river_q.B, river_q.C, gain * np.eye(river_q.p))
    controller = imc_controller(plant, q)
    q_param(plant, controller)  # closes the loop, refusing nothing
    paths = {}
    for key, real in (("plant", plant), ("controller", controller)):
        paths[key] = str(tmp_path / f"{key}.json")
        write_system(paths[key], real, graph, key)
    assert main(["closeloop", paths["plant"], paths["controller"], "--json"]) == 0
    stages = json.loads(capsys.readouterr().out)["stages"]
    assert [s["name"] for s in stages] == [
        "compatibility", "pointwise-inverse", "identities", "stability"]
    assert all(s["pass"] for s in stages)


def test_cli_simulate_matches_library(tmp_path, capsys, rng, river_wide):
    paths = _write_river(tmp_path)
    real, _ = river_wide
    u = SignalTrajectory(rng.normal(size=(12, 3)), (1, 1, 1), "u")
    u_path = str(tmp_path / "u.csv")
    write_trajectory(u_path, u)
    y_path = str(tmp_path / "y.csv")
    assert main([
        "simulate", paths["wide"], "--input", u_path, "-o", y_path,
    ]) == 0
    y_cli = read_trajectory(y_path, real.dims.outputs)
    y_lib, _ = simulate_lti(real, u)
    assert np.array_equal(y_cli.values, y_lib.values)
    assert main([
        "simulate", paths["wide"], "--input", u_path, "--distributed",
    ]) == 0
    captured = capsys.readouterr()
    assert "messages: 24" in captured.err
    y_stream = trajectory_from_csv(captured.out, real.dims.outputs)
    assert np.array_equal(y_stream.values, y_lib.values)
    assert main(["simulate", paths["wide"], "--input", u_path, "--json"]) == 0
    y_json = trajectory_from_obj(json.loads(capsys.readouterr().out))
    assert (y_json.name, y_json.partition) == (y_lib.name, y_lib.partition)
    assert np.array_equal(y_json.values, y_lib.values)
    x0 = [0.1, 0.0, -0.3, 0.0, 0.2]
    assert main(["simulate", paths["wide"], "--input", u_path,
                 "--x0", ",".join(map(repr, x0))]) == 0
    y_x0 = trajectory_from_csv(capsys.readouterr().out, real.dims.outputs)
    assert np.array_equal(y_x0.values, simulate_lti(real, u, x0)[0].values)
    assert not np.array_equal(y_x0.values, y_lib.values)
    for bad, message in (("1,,2", "--x0 must be comma-separated numbers"),
                         ("nan,0,0,0,0", "initial state contains non-finite entries"),
                         ("0,0,0", "initial state must have 5 entries, got 3")):
        assert main(["simulate", paths["wide"], "--input", u_path, "--x0", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, bad


def test_cli_demo_reports(tmp_path, capsys):
    assert main(["demo", "river"]) == 0
    assert main(["demo", "remark1"]) == 0
    capsys.readouterr()
    with pytest.raises(InputError, match="unknown packaged system 'nope'"):
        packaged_system("nope")
    # a parameter that ignores locality must sink the verdict
    graph = build_graph(3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
    from netreal import BlockRealization, NodeDims

    dense = BlockRealization(
        NodeDims((1, 1, 1), (1, 1, 1), (1, 1, 1)),
        A=np.eye(3) * 0.5, B=np.eye(3), C=np.ones((3, 3)) * 0.2)
    bad_q = str(tmp_path / "bad_q.json")
    write_system(bad_q, dense, graph, "dense-q")
    assert main(["demo", "river", "--q-file", bad_q]) == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out


def test_cli_report_out_file(tmp_path, report_schema):
    paths = _write_river(tmp_path)
    out = tmp_path / "report.json"
    assert main(["check", paths["wide"], "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    jsonschema.validate(obj, report_schema)


def test_cli_report_shapes(tmp_path, capsys):
    """Stage names, detail keys in order and exit codes on the packaged files."""
    data = Path(str(resources.files("netreal").joinpath("data")))
    river, river_bar, river_q, g1, g2 = (
        str(data / f"{name}.json")
        for name in ("river", "river_bar", "river_q", "remark1_g1", "remark1_g2"))
    # river_q with D = I: invertible, so --op inv gets past the algebra.
    q, graph, _ = read_system(river_q)
    q_inv = str(tmp_path / "q_inv.json")
    write_system(q_inv, BlockRealization(q.dims, q.A, q.B, q.C, np.eye(q.p)), graph, "q-inv")
    controller = str(tmp_path / "controller.json")
    compat = ["mode", "states", "violations"]
    pointwise = ["max_deviation", "rel_tol", "num_points"]
    check = [("compatibility", ["mode", "violations"]),
             ("pbh-stabilizable", ["offending"]), ("pbh-detectable", ["offending"])]
    compose = [("compatibility", compat), ("pointwise-transfer", pointwise)]
    for argv, code, shape in [
        (["check", river_bar], 0, check),
        (["check", river], 1, check),
        (["check", g1], 1, check),
        (["compose", "--op", "add", river, river_q], 1, compose),
        (["compose", "--op", "mul", river, river_q], 0, compose),
        (["compose", "--op", "mul", g1, g2], 0, compose),
        (["compose", "--op", "inv", q_inv], 0, compose),
        (["imc", river, river_q, "--save", controller], 0,
         [("controller-compatibility", compat), ("parameter-roundtrip", pointwise)]),
        (["closeloop", river_bar, controller], 0,
         [("compatibility", compat), ("pointwise-inverse", pointwise),
          ("identities", ["deviations", "rel_tol"]), ("stability", ["spectral_radius"])]),
    ]:
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)  # the remark1 product
            assert main([*argv, "--json", "-o", str(out)]) == code, argv
        obj = json.loads(capsys.readouterr().out)
        assert [(s["name"], list(s["detail"])) for s in obj["stages"]] == shape, argv
        assert json.loads(out.read_text()) == obj, argv
    # A packaged river_q has D = 0, so its inverse is refused before any report.
    assert main(["compose", "--op", "inv", river_q]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")

    # --save is written when a stage fails, and before anything is printed.
    saved = tmp_path / "sum.json"
    assert main(["compose", "--op", "add", river, river_q, "--save", str(saved)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    real, _, name = read_system(saved)
    assert real.n == 6 and name == "add(river, river-q)"
    for argv in (["imc", river, river_q], ["compose", "--op", "add", river, river_q]):
        assert main([*argv, "--save", str(tmp_path / "missing" / "c.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), argv
    # -o is written before the report too, so a failed write prints no PASS.
    assert main(["check", river_bar, "-o", str(tmp_path / "missing" / "r.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cli_main_leaves_no_reference_cycles(tmp_path, capsys):
    """The parser is built once per process, so a warmed call leaves no cyclic garbage."""
    paths = _write_river(tmp_path)
    for argv in (
        ["check", paths["wide"]],
        ["compose", "--op", "mul", paths["plant"], paths["q"]],
        ["imc", paths["plant"], paths["q"]],
        ["closeloop", paths["wide"], paths["q"]],
    ):
        main(argv)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            main(argv)
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == 0, argv
    capsys.readouterr()


def test_json_text_is_json_dumps_byte_for_byte(rng, tmp_path):
    """Float rows, odd floats, mixed lists, non-str keys, empty and nested containers alike."""
    odd = [0.1, -0.0, 5e-324, 1.7976931348623157e308, 1e16, -2.5e-7, 3.0]
    cases = [
        [], {}, [[]], {"a": {}}, (), 2.0, "s", None, True, float("nan"),
        odd, [1.0, float("nan")], [1.0, float("inf"), -1.0], [1.0, 2, True, None],
        [np.float64(0.5), 1.5], {"k\u00e9\u2603\n": ("t", [1.0, 2.0], {"x": [[]]})},
        {1: [1.0], 2.5: {"a": [0.5]}, None: "n", True: []}, {"outer": {0: [1.0, 2.0]}},
        Report("r", "note").to_obj(),
    ]
    for _ in range(6):
        graph = random_graph(rng, int(rng.integers(1, 5)))
        real = random_system(rng, graph, random_dims(rng, graph.num_nodes, min_channels=1),
                             scale=float(10.0 ** rng.integers(-300, 300)))
        cases.append(system_to_obj(real, graph, "sys"))
    report = Report("rep")
    report.add("stage", True, values=[0.25, -1e-300], label="\u00fc", empty=[], nested={"v": []})
    cases.append(report.to_obj())
    for obj in cases:
        assert json_text(obj) == json.dumps(obj, indent=2), obj
    with pytest.raises(TypeError, match="not JSON serializable"):
        json_text({"a": [object()]})
    # System files have their own layout: the packaged files' lines up to
    # the matrices, then one line per block.
    real, graph, _ = packaged_system("river")
    write_system(tmp_path / "r.json", real, graph, "river")
    text = (tmp_path / "r.json").read_text(encoding="utf-8")
    assert json.loads(text) == system_to_obj(real, graph, "river")
    packaged = resources.files("netreal").joinpath("data", "river.json").read_text("utf-8")
    head = packaged[:packaged.index('"A"')]
    assert text.startswith(head) and '\n      [1, 0, [[0.1]]],\n' in text
    graph = random_graph(rng, 4)
    real = random_system(rng, graph, NodeDims((2, 1, 0, 3), (1, 2, 1, 0), (2, 0, 1, 1)))
    write_system(tmp_path / "s.json", real, graph)
    lines = (tmp_path / "s.json").read_text(encoding="utf-8").splitlines()
    for key, value in system_to_obj(real, graph).items():
        if key in "ABCD":
            first = lines.index(f'  "{key}": {{') + 2
            blocks = value["blocks"]
            assert len(blocks) > 1
            assert [json.loads(line.strip().rstrip(","))
                    for line in lines[first:first + len(blocks)]] == blocks
            assert lines[first + len(blocks)] == "    ]"


def test_cli_json_and_saved_files_leave_no_reference_cycles(tmp_path, capsys):
    """``--json``, ``-o`` and ``--save`` write without json's pure-Python encoder."""
    paths = _write_river(tmp_path)
    for argv in (
        ["check", paths["wide"], "--json"],
        ["imc", paths["plant"], paths["q"], "--json", "--save", str(tmp_path / "c.json")],
        ["compose", "--op", "mul", paths["plant"], paths["q"], "-o", str(tmp_path / "r.json")],
    ):
        main(argv)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            main(argv)
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == 0, argv
    capsys.readouterr()
