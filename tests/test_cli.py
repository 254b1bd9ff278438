"""Command-line interface: exit codes, messages, file side effects."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import liquidballots
from liquidballots import (
    Notion,
    fixtures,
    initial_point,
    load_finding,
    parse_solution,
    serialize_solution,
)
from liquidballots.cli import run_cli
from test_io import BASE_DOC


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


@pytest.mark.parametrize(
    "field, value, rule",
    [
        ("weight", "0", "weight-range"),
        ("default", ["0.1", "0.15"], "default-length"),
        ("default", ["0.5"], "default-norm"),
        ("weight", "2", None),
    ],
)
def test_solve_checks_the_weight_and_default_an_ep_bundle_carries(
    tmp_path, capsys, field, value, rule
):
    doc = copy.deepcopy(BASE_DOC)
    doc["voters"][0]["bundles"][2][field] = value  # an EP bundle
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    code = 0 if rule is None else 1
    assert run_cli(["validate", str(path)]) == code
    assert run_cli(["solve", str(path), "--out", str(tmp_path / "solution.json")]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if rule is None:
        assert "instance is valid" in captured.out
    else:
        assert "invalid instance:" in captured.out and rule in captured.out
        assert "invalid instance:" in captured.err and rule in captured.err


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


def test_solve_and_verify_reproduce_their_committed_transcripts(tmp_path, fixture_path, capsys):
    """The printed solve output, the solution file and the printed verify
    output of ``solve --strategy iterate`` on crossed-epti.json, byte for
    byte (the continuous-integration run compares the console script's
    output with the same files)."""
    out = tmp_path / "epti.json"
    instance = str(fixture_path / "crossed-epti.json")
    assert run_cli(["solve", instance, "--strategy", "iterate", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (fixture_path / "crossed-epti-iterate.txt").read_text()
    assert out.read_text() == (fixture_path / "crossed-epti-iterate-solution.json").read_text()
    assert run_cli(["verify", instance, str(out)]) == 0
    assert capsys.readouterr().out == (fixture_path / "crossed-epti-iterate-verify.txt").read_text()


@pytest.mark.parametrize(
    "strategy,options,status",
    [("iterate", [], 0), ("descent", ["--max-iters", "20"], 1)],
)
def test_solve_reproduces_its_committed_transcripts_on_bundles_of_every_size(
    tmp_path, fixture_path, capsys, strategy, options, status
):
    """wcc-10x5.json mixes bundles of 1 to 5 members; the printed solve
    output and the solution file of iteration (converged, status 0) and of
    20 descent steps (max-iterations, status 1), byte for byte (the
    continuous-integration run compares the console script's output with
    the same files)."""
    out = tmp_path / "solution.json"
    instance = str(fixture_path / "wcc-10x5.json")
    assert run_cli(["solve", instance, "--strategy", strategy, *options, "--out", str(out)]) == status
    assert capsys.readouterr().out == (fixture_path / f"wcc-10x5-{strategy}.txt").read_text()
    assert out.read_text() == (fixture_path / f"wcc-10x5-{strategy}-solution.json").read_text()


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "{epti}", "--max-iters", "-1"], "max-iters must be non-negative, got '-1'"),
        (["solve", "{epti}", "--grid-resolution", "0.03"], "0.03 does not divide 1 exactly"),
        (["solve", "{epti}", "--grid-resolution", "nan"], "grid_resolution must lie in (0, 1]"),
        (["search", "contraction-violation", "--n", "0"], "n must be at least 1, got '0'"),
        (["search", "contraction-violation", "--m", "0"], "m must be at least 1, got '0'"),
        (["search", "contraction-violation", "--budget", "-3"], "budget must be non-negative"),
        (["search", "contraction-violation", "--seed", "-1"], "seed must be non-negative"),
        (["search", "contraction-violation", "--weight", "nan"], "weight must be finite and positive"),
        (["search", "contraction-violation", "--weight", "0"], "weight must be finite and positive"),
        (["search", "contraction-violation", "--n", "x"], "invalid int value: 'x'"),
    ],
)
def test_numeric_options_are_usage_errors(epti_file, capsys, argv, message):
    assert run_cli([arg.format(epti=epti_file) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "status:" not in captured.out and "witness" not in captured.err


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


class ClosedStdout:
    """A stdout whose reader has gone, as under ``liquidballots ... | head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{epti}", "--strategy", "descent", "--tol", "1e-2",
         "--out", "{dir}/solution.json", "--trace", "{dir}/trace.csv"],
        ["search", "contraction-violation", "--n", "4", "--m", "3",
         "--seed", "7", "--budget", "30", "--out", "{dir}/finding.json"],
    ],
)
def test_requested_files_survive_a_closed_stdout(tmp_path, epti_file, monkeypatch, capsys, argv):
    def run(directory):
        directory.mkdir()
        return run_cli([arg.format(epti=epti_file, dir=directory) for arg in argv])

    assert run(tmp_path / "normal") == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert run(tmp_path / "closed") == 141  # 128 + SIGPIPE, quietly
    assert capsys.readouterr().err == ""
    written = sorted(path.name for path in (tmp_path / "normal").iterdir())
    assert written == sorted(path.name for path in (tmp_path / "closed").iterdir())
    assert len(written) == argv.count("--out") + argv.count("--trace")
    for name in written:
        assert (tmp_path / "closed" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes()


#: The directory this test run imports ``liquidballots`` from.
SOURCE = str(Path(liquidballots.__file__).resolve().parents[1])


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_pipe_closed_before_the_start_ends_quietly(unbuffered):
    """The reader of stdout is gone before the first write.  Buffered, the
    write fails at the final flush; unbuffered, at the first ``print``."""
    env = dict(os.environ, PYTHONPATH=SOURCE, PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "liquidballots.cli", "reproduce", "example-ep"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


def test_a_failure_keeps_its_status_when_stdout_is_closed(ept_file):
    """The grid search prints its report into the buffer and then fails;
    the closed pipe only shows at the final flush, after the status 1."""
    argv = ["solve", ept_file, "--strategy", "grid", "--tol", "0.01", "--grid-resolution", "0.05"]
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "liquidballots.cli", *argv], stdout=write, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SOURCE, PYTHONUNBUFFERED=""), timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr.decode().splitlines()[-1].endswith("best residual 0.05")
    assert b"BrokenPipeError" not in done.stderr


def test_importing_the_package_stays_lean():
    """``import liquidballots`` compiles the eight eager modules and no more:
    the columnar parse and the plan (``_columns``) and the command
    line (``cli``, ``argparse``) load on first use."""
    probe = "import sys, liquidballots; print(sorted(m for m in sys.modules if m.startswith(('liquidballots', 'argparse'))))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SOURCE),
    )
    assert done.returncode == 0, done.stderr
    eager = ["counterexamples", "fixtures", "io", "model", "qcqp", "response", "solvers"]
    assert done.stdout.split("\n")[0] == str(["liquidballots", *(f"liquidballots.{name}" for name in eager)])


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
