"""Command-line interface: exit codes, messages, file side effects."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liquidballots import (
    Notion,
    fixtures,
    initial_point,
    load_finding,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from liquidballots.cli import run_cli


@pytest.fixture
def epti_file(fixture_path):
    return str(fixture_path / "crossed-epti.json")


@pytest.fixture
def ept_file(fixture_path):
    return str(fixture_path / "crossed-ept.json")


def test_validate_accepts_and_rejects(tmp_path, epti_file, capsys):
    assert run_cli(["validate", epti_file]) == 0
    assert "instance is valid" in capsys.readouterr().out

    bad = json.loads(Path(epti_file).read_text())
    bad["voters"][0]["bundles"][0]["weight"] = "0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run_cli(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "invalid instance:" in out and "weight-range" in out


def test_solve_writes_solution_and_trace(tmp_path, epti_file, capsys):
    out = tmp_path / "solution.json"
    trace = tmp_path / "trace.csv"
    code = run_cli(
        [
            "solve", epti_file,
            "--strategy", "iterate",
            "--tol", "1e-9",
            "--out", str(out),
            "--trace", str(trace),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "status: converged" in printed
    x = parse_solution(out.read_text(), fixtures.crossed_thresholds(Notion.EP_TI))
    assert_allclose(
        x,
        [[0.5, 0.0, 0.42299457, 0.07700543], [0.39154101, 0.0, 0.5, 0.10845899]],
        atol=1e-6,
    )
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,l1_residual,linf_residual"
    assert len(lines) > 10


def test_solve_reports_absence_of_weak_points(ept_file, capsys):
    code = run_cli(["solve", ept_file, "--max-iters", "300"])
    assert code == 1
    captured = capsys.readouterr()
    assert (
        "no eps-weak point found at tolerance 1e-06; best residual 0.25"
        in captured.err
    )


def test_solve_grid_strategy_also_fails_cleanly(ept_file, capsys):
    code = run_cli(
        ["solve", ept_file, "--strategy", "grid", "--tol", "0.01",
         "--grid-resolution", "0.05"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "status: oracle-exhausted-no-point" in captured.out
    assert "best residual 0.05" in captured.err


def test_verify_accepts_solved_and_rejects_unsolved(tmp_path, epti_file, capsys):
    inst = fixtures.crossed_thresholds(Notion.EP_TI)
    good = tmp_path / "good.json"
    sol = np.array(
        [[0.5, 0.0, 0.42299457, 0.07700543], [0.39154101, 0.0, 0.5, 0.10845899]]
    )
    good.write_text(serialize_solution(inst, sol))
    assert run_cli(["verify", epti_file, str(good)]) == 0
    out = capsys.readouterr().out
    assert "feasible: yes" in out
    assert "solution accepted at tolerance 0.001" in out

    flat = tmp_path / "flat.json"
    flat.write_text(serialize_solution(inst, initial_point(inst, "even-split")))
    assert run_cli(["verify", epti_file, str(flat)]) == 1
    captured = capsys.readouterr()
    assert "solution rejected at tolerance 0.001" in captured.err

    bad = tmp_path / "infeasible.json"
    bad.write_text(serialize_solution(inst, np.full((2, 4), 0.5)))
    assert run_cli(["verify", epti_file, str(bad)]) == 1
    assert "feasible: no" in capsys.readouterr().out

    doc = json.loads(serialize_solution(inst, sol))
    doc["values"][0][2] = "nan"
    bad.write_text(json.dumps(doc))
    assert run_cli(["verify", epti_file, str(bad)]) == 1
    captured = capsys.readouterr()
    assert "error: values[0][2]: non-finite value 'nan'" in captured.err
    assert "regret" not in captured.out


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.001"])
def test_tolerance_must_be_finite_and_non_negative(tmp_path, epti_file, capsys, tol):
    inst = fixtures.crossed_thresholds(Notion.EP_TI)
    fives = tmp_path / "fives.json"
    fives.write_text(serialize_solution(inst, np.full((2, 4), 5.0)))
    assert run_cli(["verify", epti_file, str(fives), "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "tolerance must be finite and non-negative" in captured.err
    assert "accepted" not in captured.out
    assert run_cli(["solve", epti_file, "--tol", tol]) == 2
    assert "tolerance must be finite and non-negative" in capsys.readouterr().err


def test_export_qcqp_prints_or_refuses(epti_file, ept_file, capsys):
    assert run_cli(["export-qcqp", epti_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith(";;")
    assert "(assert" in out and "(declare-const x_0_0 Real)" in out

    assert run_cli(["export-qcqp", ept_file]) == 1
    assert "no continuous encoding" in capsys.readouterr().err


def test_search_writes_finding(tmp_path, capsys):
    out = tmp_path / "finding.json"
    code = run_cli(
        ["search", "contraction-violation", "--n", "4", "--m", "3",
         "--seed", "7", "--budget", "30", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "found contraction-violation witness at attempt" in printed
    finding = load_finding(out)
    assert finding.kind == "contraction-violation"


def test_search_reports_exhausted_budget(capsys):
    code = run_cli(["search", "non-uniqueness", "--n", "1", "--m", "1", "--budget", "5"])
    assert code == 1
    assert "no non-uniqueness witness in 5 attempts" in capsys.readouterr().err


def test_reproduce_targets_run_and_are_stable(capsys):
    for name in (
        "example-ep",
        "example-ep-ti-table1",
        "example-ep-ti-thresholds",
        "example-wcc",
    ):
        assert run_cli(["reproduce", name]) == 0
        first = capsys.readouterr().out
        assert run_cli(["reproduce", name]) == 0
        assert capsys.readouterr().out == first
        assert first  # every walkthrough prints something


def test_reproduce_grid_story(capsys):
    assert run_cli(["reproduce", "example-ep-t-table1"]) == 0
    out = capsys.readouterr().out
    assert "grid points scanned: 6765201" in out
    assert "points with residual <= 0.01: 0" in out


def test_cli_error_paths(tmp_path, capsys):
    assert run_cli(["solve", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{nope")
    assert run_cli(["solve", str(mangled)]) == 1
    assert "error: line 1" in capsys.readouterr().err

    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["reproduce", "example-unknown"]) == 2
