import json
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from netreal import (
    BlockRealization,
    InputError,
    NodeDims,
    SignalTrajectory,
    build_graph,
    close_loop,
    packaged_system,
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
from netreal.sysio import (
    Report,
    trajectory_from_csv,
    trajectory_to_csv,
)
from _support import random_dims, random_graph, random_system


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


def test_system_parse_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"graph": [,]}')
    with pytest.raises(InputError, match=r"line 1 column 12"):
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
    obj["A"] = "not numbers"
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


def test_trajectory_csv_roundtrip(rng):
    traj = SignalTrajectory(rng.normal(size=(6, 4)), (2, 0, 1, 1), "y")
    text = trajectory_to_csv(traj)
    header = text.splitlines()[0]
    assert header == "y0_0,y0_1,y2_0,y3_0"
    back = trajectory_from_csv(text)
    assert back.name == "y"
    assert back.partition == (2, 0, 1, 1)
    assert np.array_equal(back.values, traj.values)


def test_trajectory_csv_header_diagnostics():
    with pytest.raises(InputError, match="pattern"):
        trajectory_from_csv("alpha,beta\n1,2\n")
    with pytest.raises(InputError, match="out of order"):
        trajectory_from_csv("u0_0,u0_2\n1,2\n")
    with pytest.raises(InputError, match="names signal"):
        trajectory_from_csv("u0_0,y1_0\n1,2\n")
    with pytest.raises(InputError, match="row 3"):
        trajectory_from_csv("u0_0\n1.0\nnope\n")


def test_trajectory_json_roundtrip(tmp_path, rng):
    traj = SignalTrajectory(rng.normal(size=(5, 2)), (1, 1), "meas")
    path = tmp_path / "t.json"
    write_trajectory(path, traj)
    back = read_trajectory(path)
    assert back.name == "meas"
    assert np.array_equal(back.values, traj.values)


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


def test_cli_closeloop_computes_each_spectrum_once(tmp_path, capsys, monkeypatch):
    paths = _write_river(tmp_path)
    controller = str(tmp_path / "controller.json")
    assert main(["imc", paths["plant"], paths["q"], "--save", controller]) == 0
    capsys.readouterr()
    plant, _, _ = read_system(paths["wide"])
    ctrl, _, _ = read_system(controller)
    loop = close_loop(plant, ctrl).realization
    expected = float(np.max(np.abs(np.linalg.eigvals(loop.A))))

    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    assert main(["closeloop", paths["wide"], controller, "--json"]) == 0
    stages = {s["name"]: s for s in json.loads(capsys.readouterr().out)["stages"]}
    # One eigenvalue computation per realization: plant, controller, loop.
    assert sorted(calls) == sorted([plant.A.shape, ctrl.A.shape, loop.A.shape])
    assert stages["stability"]["detail"]["spectral_radius"] == expected


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
    y_cli = read_trajectory(y_path)
    y_lib, _ = simulate_lti(real, u)
    assert np.array_equal(y_cli.values, y_lib.values)
    assert main([
        "simulate", paths["wide"], "--input", u_path, "--distributed",
    ]) == 0
    captured = capsys.readouterr()
    assert "messages: 24" in captured.err
    y_stream = trajectory_from_csv(captured.out)
    assert np.array_equal(y_stream.values, y_lib.values)


def test_cli_demo_reports(tmp_path, capsys):
    assert main(["demo", "river"]) == 0
    assert main(["demo", "remark1"]) == 0
    capsys.readouterr()
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
