"""Polynomial constraint export and numeric substitution.

``export_qcqp`` compiles the system into arrays, one record per family,
and ``ConstraintExport`` checks a matrix family by family with numpy.
``reference_export_qcqp`` and ``ReferenceExport`` below are the export
as it was before, every constraint built as an s-expression up front and
checked by substituting the matrix into it (``reference_holds`` and
``reference_evaluate_poly``).  They are the referee: the compiled export
must give the same variables, constraints, text and verdicts, exactly
and in order.
"""

import functools
import hashlib
import re
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_grouped_plan import mixed_instance
from test_width_classes import width_instance

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
from liquidballots.io import _format_number


def reference_render(node) -> str:
    if isinstance(node, str):
        return node
    op, *args = node
    return "(" + " ".join([op] + [reference_render(a) for a in args]) + ")"


def reference_evaluate_poly(node, env):
    if isinstance(node, str):
        if node in env:
            return env[node]
        return float(Fraction(node)) if "/" in node else float(node)
    op, *args = node
    values = [reference_evaluate_poly(a, env) for a in args]
    if op == "+":
        return sum(values)
    if op == "*":
        out = 1.0
        for v in values:
            out *= v
        return out
    if op == "-":
        return values[0] - values[1]
    if op == "/":
        return values[0] / values[1]
    raise ValueError(f"unknown polynomial operator {op!r}")


def reference_holds(node, env, tol) -> bool:
    """Whether a constraint expression holds at numeric tolerance ``tol``.

    Antecedents of implications are branch conditions and are evaluated
    exactly (tolerance 0); only asserted (in)equalities get slack.
    """
    op = node[0]
    if op == "and":
        return all(reference_holds(a, env, tol) for a in node[1:])
    if op == "or":
        return any(reference_holds(a, env, tol) for a in node[1:])
    if op == "=>":
        if reference_holds(node[1], env, 0.0):
            return reference_holds(node[2], env, tol)
        return True
    lhs = reference_evaluate_poly(node[1], env)
    rhs = reference_evaluate_poly(node[2], env)
    if op == "=":
        return abs(lhs - rhs) <= tol
    if op == "<=":
        return lhs <= rhs + tol
    if op == ">=":
        return lhs >= rhs - tol
    if op == "<":
        return lhs < rhs + tol
    raise ValueError(f"unknown constraint operator {op!r}")


@dataclass(frozen=True, eq=False)
class ReferenceExport:
    """A rendered constraint system plus its structured form.

    ``constraints`` pairs each assertion with a kind tag (``bound``,
    ``row-sum``, ``bundle-sum``, ``ep``, ``wcc``, ``epti-prop``,
    ``epti-interp``) so callers can count or filter; ``text`` is the
    canonical s-expression document.
    """

    variables: tuple[str, ...]
    variable_cells: dict[str, tuple[int, int]]
    constraints: tuple[tuple[str, tuple], ...]
    header: tuple[str, ...]

    @property
    def text(self) -> str:
        lines = [f";; {line}" for line in self.header]
        lines += [f"(declare-const {name} Real)" for name in self.variables]
        lines += [f"(assert {reference_render(ast)})" for _, ast in self.constraints]
        return "\n".join(lines) + "\n"

    def _environment(self, x) -> dict:
        x = np.asarray(x, dtype=float)
        return {name: x[cell] for name, cell in self.variable_cells.items()}

    def violations(self, x, tol=1e-6) -> list[str]:
        """Constraints the matrix ``x`` breaks at tolerance ``tol``."""
        env = self._environment(x)
        return [
            f"{kind}: {reference_render(ast)}"
            for kind, ast in self.constraints
            if not reference_holds(ast, env, tol)
        ]

    def satisfied_by(self, x, tol=1e-6) -> bool:
        env = self._environment(x)
        return all(reference_holds(ast, env, tol) for _, ast in self.constraints)



def reference_export_qcqp(instance) -> ReferenceExport:
    """Emit the polynomial constraint system of an instance.

    Raises ``ValueError`` when an EP-T bundle is present.
    """
    slices = [
        (vi, bundle, [instance.candidate_index[c] for c in bundle.members])
        for vi, bundles in enumerate(instance.delegations)
        for bundle in bundles
    ]
    if any(bundle.notion is Notion.EP_T for _, bundle, _ in slices):
        raise ValueError("EP-T bundles have no continuous encoding; export refused")

    def var(vi, ci):
        return f"x_{vi}_{ci}"

    header = [
        "feasibility system for a cumulative-ballot delegation instance",
        "x_<voter>_<candidate> is the support the voter gives the candidate",
    ]
    header += [f"voter {i}: {name}" for i, name in enumerate(instance.voters)]
    header += [f"candidate {j}: {name}" for j, name in enumerate(instance.candidates)]

    variables = []
    variable_cells = {}
    for vi in range(instance.n):
        for ci in range(instance.m):
            name = var(vi, ci)
            variables.append(name)
            variable_cells[name] = (vi, ci)

    constraints: list[tuple[str, tuple]] = []
    for name in variables:
        constraints.append(("bound", ("and", (">=", name, "0"), ("<=", name, "1"))))

    for vi in range(instance.n):
        row = [var(vi, ci) for ci in range(instance.m)]
        poly = row[0] if len(row) == 1 else ("+", *row)
        constraints.append(("row-sum", ("=", poly, "1")))

    for vi, bundle, cols in slices:
        members = [var(vi, ci) for ci in cols]
        poly = members[0] if len(members) == 1 else ("+", *members)
        constraints.append(("bundle-sum", ("=", poly, _format_number(bundle.budget))))

    for vi, bundle, cols in slices:
        if bundle.notion is Notion.DIRECT or len(cols) < 2:
            continue  # singleton slices are pinned by their bundle sum
        own = [var(vi, ci) for ci in cols]
        delegate = instance.voter_index[bundle.delegate]
        dlg = [var(delegate, ci) for ci in cols]
        support = ("+", *dlg)

        if bundle.notion in (Notion.EP, Notion.EP_TI):  # ratio equalities, ordered pairs
            pairs = [
                ("=", ("*", own[a], dlg[b]), ("*", dlg[a], own[b]))
                for a in range(len(own))
                for b in range(len(own))
                if a != b
            ]
        if bundle.notion is Notion.EP:
            constraints += [("ep", pair) for pair in pairs]
        elif bundle.notion is Notion.WCC:
            w = _format_number(bundle.weight)
            dsum = _format_number(np.sum(bundle.default))
            norm = ("+", dsum, ("*", w, support))
            for a in range(len(own)):
                constraints.append(
                    (
                        "wcc",
                        (
                            "=",
                            ("*", own[a], norm),
                            (
                                "*",
                                ("+", _format_number(bundle.default[a]), ("*", w, dlg[a])),
                                _format_number(bundle.budget),
                            ),
                        ),
                    )
                )
        elif bundle.notion is Notion.EP_TI:
            eps = ("/", "1", _format_number(bundle.weight))
            constraints.append(
                ("epti-prop", ("=>", (">=", support, eps), ("and", *pairs)))
            )
            slack = ("-", eps, support)
            norm = ("+", support, ("*", slack, _format_number(bundle.budget)))
            interp = [
                (
                    "=",
                    ("*", own[a], norm),
                    (
                        "*",
                        ("+", dlg[a], ("*", slack, _format_number(bundle.default[a]))),
                        _format_number(bundle.budget),
                    ),
                )
                for a in range(len(own))
            ]
            constraints.append(
                ("epti-interp", ("=>", ("<", support, eps), ("and", *interp)))
            )

    return ReferenceExport(
        tuple(variables), variable_cells, tuple(constraints), tuple(header)
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


@pytest.mark.parametrize("name", ["crossed-epti", "wcc-10x5"])
def test_export_of_a_parsed_file_matches_its_transcript(fixture_path, name):
    """``liquidballots export-qcqp`` prints this text; the export reads the
    parsed file's columns and plan and builds no ``Bundle`` view."""
    instance = parse_instance((fixture_path / f"{name}.json").read_text())
    text = export_qcqp(instance).text
    assert text.encode("utf-8") == (fixture_path / f"{name}-qcqp.txt").read_bytes()
    assert "delegations" not in instance.__dict__


@pytest.mark.parametrize("shape", [(3, 4), (2, 5), (2, 3)], ids=["extra-row", "extra-column", "missing-column"])
def test_matrix_of_the_wrong_shape_is_refused(shape):
    export = export_qcqp(fixtures.crossed_thresholds(Notion.EP_TI))
    for check in (export.violations, export.satisfied_by):
        with pytest.raises(ValueError, match=re.escape(f"solution shape {shape}") + ".*2 voters, 4 candidates"):
            check(np.full(shape, 0.25))


def continuous(instance):
    """``instance`` with every EP-T bundle made EP-TI, which the export takes."""
    rows = tuple(
        tuple(replace(b, notion=Notion.EP_TI) if b.notion is Notion.EP_T else b for b in bundles)
        for bundles in instance.delegations
    )
    return ElectionInstance(instance.candidates, instance.voters, rows)


def solved(instance):
    cfg = SolverConfig(tolerance=1e-12, max_iterations=100)
    return solve(instance, cfg, strategy="iterate").solution


@functools.lru_cache(maxsize=None)
def width_case(subnormal):
    """The width-class election (bundles of 1 to 17 members), its reference
    export and a solved point.  With ``subnormal`` the point is that of the
    election without the subnormal weight, whose response is NaN."""
    instance = continuous(width_instance(subnormal))
    point = width_case(False)[2] if subnormal else solved(instance)
    return instance, reference_export_qcqp(instance), point


def edge_matrices(rng, instance, x, tol):
    """Copies of ``x`` with entries at the edges the verdicts turn on.

    A cell at ``-tol`` or ``1 + tol``; a one-member slice at its budget
    ``± tol``; EP-TI delegate slices whose support is exactly ``1/w`` or
    one ulp below it (the guards compare at tolerance 0); NaN and
    infinite entries.
    """
    n, m = instance.n, instance.m
    bounds = x.copy()
    for _ in range(3):
        bounds[rng.integers(n), rng.integers(m)] = (0.0 - tol, 1.0 + tol)[rng.integers(2)]
    budgets = x.copy()
    for vi, bundles in enumerate(instance.delegations):
        for bundle in bundles:
            if len(bundle.members) == 1 and rng.random() < 0.5:
                budgets[vi, instance.candidate_index[bundle.members[0]]] = bundle.budget + (tol, -tol)[rng.integers(2)]
    thresholds = [x.copy(), x.copy()]
    for vi, bundles in enumerate(instance.delegations):
        for bundle in bundles:
            if bundle.notion is Notion.EP_TI and len(bundle.members) > 1 and rng.random() < 0.5:
                row, cols = instance.voter_index[bundle.delegate], [instance.candidate_index[c] for c in bundle.members]
                eps = 1.0 / bundle.weight
                for y, support in zip(thresholds, (eps, np.nextafter(eps, -np.inf))):
                    y[row, cols] = 0.0
                    y[row, cols[rng.integers(len(cols))]] = support
    wild = x.copy()
    wild[rng.random((n, m)) < 0.2] = rng.choice([np.nan, np.inf, -np.inf])
    return [bounds, budgets, *thresholds, wild]


def edge_tolerance(reference, env, rng):
    """``|lhs - rhs|`` of one (in)equality the reference checks at ``env``.

    The (in)equality is drawn from a nonlinear constraint where there is one
    that is not vacuous: the consequent of an implication whose antecedent
    holds, at tolerance 0 as in ``reference_holds``.
    """
    live = [
        ast for kind, ast in reference.constraints
        if kind in NONLINEAR_KINDS and (ast[0] != "=>" or reference_holds(ast[1], env, 0.0))
    ] or [ast for _, ast in reference.constraints]
    ast = live[rng.integers(len(live))]
    while ast[0] in ("and", "=>"):
        ast = ast[2] if ast[0] == "=>" else ast[1 + rng.integers(len(ast) - 1)]
    return abs(reference_evaluate_poly(ast[1], env) - reference_evaluate_poly(ast[2], env))


def assert_same_system(export, reference):
    assert export.variables == reference.variables
    assert export.variable_cells == reference.variable_cells
    assert export.header == reference.header
    assert export.constraints == reference.constraints
    assert export.text == reference.text


@pytest.mark.parametrize("subnormal", [False, True])
def test_export_of_the_width_classes_matches_the_reference(subnormal):
    """Bundles of 1 to 17 members: from 8 on, ``np.sum`` of a WCC default,
    which the text prints, is pairwise."""
    instance, reference, _ = width_case(subnormal)
    assert_same_system(export_qcqp(instance), reference)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(["mixed", "mixed", "width", "subnormal"]),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
)
@example(seed=0, source="subnormal", tol=0.0)
@example(seed=1, source="width", tol=1e-6)
def test_export_matches_the_reference(seed, source, tol):
    """Same variables, constraints and text as the reference, and the same
    verdicts on random, solved, perturbed and edge matrices.  Every other
    matrix is checked at a tolerance equal to one constraint's distance
    instead, where a verdict turns on the last bit of that constraint's
    arithmetic."""
    rng = np.random.default_rng(seed)
    if source == "mixed":
        instance = continuous(mixed_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 11))))
        reference, x = reference_export_qcqp(instance), solved(instance)
        export = export_qcqp(instance)
        assert_same_system(export, reference)
    else:  # the system is compared once, above
        instance, reference, x = width_case(source == "subnormal")
        export = export_qcqp(instance)
    n, m = instance.n, instance.m
    noise = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-12, -2) * (rng.random((n, m)) < 0.3)
    probes = [rng.random((n, m)) * (rng.random((n, m)) < 0.7), x, x + noise]
    for i, y in enumerate(probes + edge_matrices(rng, instance, x, tol)):
        t = tol
        if i % 2:
            with np.errstate(all="ignore"):  # the reference's numpy scalars warn on inf - inf
                t = edge_tolerance(reference, reference._environment(y), rng)
        with np.errstate(all="ignore"):
            expected = reference.violations(y, t), reference.satisfied_by(y, t)
        assert (export.violations(y, t), export.satisfied_by(y, t)) == expected
