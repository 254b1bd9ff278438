"""Polynomial constraint export and numeric substitution."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from liquidballots import (
    Bundle,
    ElectionInstance,
    Notion,
    SolverConfig,
    export_qcqp,
    fixtures,
    load_finding,
    parse_instance,
    solve,
)

NONLINEAR_KINDS = {"ep", "wcc", "epti-prop", "epti-interp"}


def kind_counts(export):
    return Counter(kind for kind, _ in export.constraints)


def test_ep_export_counts_and_variables():
    export = export_qcqp(fixtures.example_ep())
    assert export.variables == ("x_0_0", "x_0_1", "x_0_2", "x_1_0", "x_1_1", "x_1_2")
    assert kind_counts(export) == {
        "bound": 6,
        "row-sum": 2,
        "bundle-sum": 5,
        "ep": 2,
    }


def test_epti_export_has_both_implication_families():
    export = export_qcqp(fixtures.crossed_thresholds(Notion.EP_TI))
    assert kind_counts(export) == {
        "bound": 8,
        "row-sum": 2,
        "bundle-sum": 4,
        "epti-prop": 4,
        "epti-interp": 4,
    }


def test_wcc_export_one_equation_per_member():
    export = export_qcqp(fixtures.high_confidence(Notion.WCC, 0.015))
    assert kind_counts(export)["wcc"] == 2


def test_all_direct_instance_exports_no_nonlinear_constraints():
    bundles = tuple(
        Bundle((c,), b, "v", Notion.DIRECT)
        for c, b in zip(("c1", "c2"), (0.25, 0.75))
    )
    inst = ElectionInstance(("c1", "c2"), ("v",), (bundles,))
    export = export_qcqp(inst)
    assert not NONLINEAR_KINDS & set(kind_counts(export))


def test_ept_export_is_refused():
    with pytest.raises(ValueError, match="no continuous encoding"):
        export_qcqp(fixtures.crossed_thresholds(Notion.EP_T))


def test_text_is_deterministic_sexpression():
    a = export_qcqp(fixtures.example_ep())
    b = export_qcqp(fixtures.example_ep())
    assert a.text == b.text
    lines = a.text.splitlines()
    assert lines[0].startswith(";;")
    assert sum(line.startswith("(declare-const x_") for line in lines) == 6
    assert sum(line.startswith("(assert ") for line in lines) == len(a.constraints)


def test_known_solution_satisfies_every_constraint():
    export = export_qcqp(fixtures.example_ep())
    x = np.array([[1.0, 0.0, 0.0], [0.001, 0.0, 0.999]])
    assert export.satisfied_by(x, tol=1e-9)
    assert export.violations(x, tol=1e-9) == []


def test_perturbed_solution_is_flagged():
    export = export_qcqp(fixtures.example_ep())
    x = np.array([[0.9, 0.1, 0.0], [0.001, 0.0, 0.999]])
    bad = export.violations(x, tol=1e-6)
    assert bad
    assert all(line.startswith("ep:") for line in bad)


def test_infeasible_matrix_breaks_linear_constraints():
    export = export_qcqp(fixtures.example_ep())
    x = np.array([[1.2, -0.2, 0.0], [0.001, 0.0, 0.999]])
    kinds = {line.split(":")[0] for line in export.violations(x, tol=1e-6)}
    assert "bound" in kinds


def test_converged_solutions_substitute_numerically():
    cfg = SolverConfig(tolerance=1e-12, max_iterations=2000)
    for inst in (
        fixtures.crossed_thresholds(Notion.EP_TI),
        fixtures.high_confidence(Notion.WCC, 0.015),
        fixtures.high_confidence(Notion.WCC, 0.005),
    ):
        report = solve(inst, cfg, strategy="iterate")
        assert report.status == "converged"
        export = export_qcqp(inst)
        assert export.satisfied_by(report.solution, tol=1e-6)


def test_interpolation_branch_constraint_detects_drift():
    inst = fixtures.high_confidence(Notion.EP_TI, 0.005)
    report = solve(inst, SolverConfig(tolerance=1e-12), strategy="iterate")
    export = export_qcqp(inst)
    assert export.satisfied_by(report.solution, tol=1e-6)
    drifted = report.solution.copy()
    drifted[0, 0] += 0.01
    drifted[0, 1] -= 0.01
    kinds = {line.split(":")[0] for line in export.violations(drifted, tol=1e-6)}
    assert "epti-interp" in kinds


#: sha256 of ``export_qcqp(...).text`` for the continuous fixture files.
EXPORT_DIGESTS = {
    "contraction-violation.json": "a6bf83b5d009e2b7f5e3a478aa30ca693aaf1a63a7544af2e3dd5afd225f0d89",
    "crossed-epti.json": "6410ddfe1370901687b80b945644ef622cee68ebdd9ca2f8f7ab6308c0aa5965",
    "non-uniqueness.json": "75b6f0c91cd0552079f207dc2c55bdce731926d134a5a70bc567b49259b790bb",
    "pseudo-mono-violation.json": "5fe6fab638133478d511aad9e71d6f02ab8e1b843eda90d067f38c8aa9d465ff",
}


@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_export_text_of_fixtures_is_unchanged(fixture_path, name):
    text = (fixture_path / name).read_text()
    if name == "crossed-epti.json":
        instance = parse_instance(text)
    else:
        instance = load_finding(fixture_path / name).instance
    digest = hashlib.sha256(export_qcqp(instance).text.encode("utf-8")).hexdigest()
    assert digest == EXPORT_DIGESTS[name]
