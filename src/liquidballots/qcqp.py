"""Polynomial constraint export for external exact solvers.

``export_qcqp`` turns an instance into a self-documented s-expression
constraint system over one real variable per (voter, candidate) cell.
Every exact solution of the instance satisfies the system, so external
tools over real arithmetic (QCQP solvers, quantifier-free real-closed
decision procedures) can search for solutions or prove none exist.

The emitted forms, in order:

* ``(declare-const x_<v>_<c> Real)`` for every cell, row-major;
* box bounds ``0 <= x <= 1`` per variable;
* one row-sum equality per voter and one slice-sum equality per bundle;
* per EP bundle, the bilinear ratio constraints for every ordered pair
  of distinct members;
* per WCC bundle, one quadratic rescaling equality per member;
* per EP-TI bundle, two implications (high-confidence branch with the
  bilinear constraints, low-confidence branch with the cleared-denominator
  interpolation equalities); implications are emitted natively rather
  than through 0/1 indicator variables.

EP-T is rejected: its discontinuous switch has no encoding that would
not overstate what the notion guarantees.

The exact grammar is documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .io import _format_number
from .model import Notion

def _render(node) -> str:
    if isinstance(node, str):
        return node
    op, *args = node
    return "(" + " ".join([op] + [_render(a) for a in args]) + ")"


def _evaluate_poly(node, env):
    if isinstance(node, str):
        if node in env:
            return env[node]
        return float(Fraction(node)) if "/" in node else float(node)
    op, *args = node
    values = [_evaluate_poly(a, env) for a in args]
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


def _holds(node, env, tol) -> bool:
    """Whether a constraint expression holds at numeric tolerance ``tol``.

    Antecedents of implications are branch conditions and are evaluated
    exactly (tolerance 0); only asserted (in)equalities get slack.
    """
    op = node[0]
    if op == "and":
        return all(_holds(a, env, tol) for a in node[1:])
    if op == "or":
        return any(_holds(a, env, tol) for a in node[1:])
    if op == "=>":
        if _holds(node[1], env, 0.0):
            return _holds(node[2], env, tol)
        return True
    lhs = _evaluate_poly(node[1], env)
    rhs = _evaluate_poly(node[2], env)
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
class ConstraintExport:
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
        lines += [f"(assert {_render(ast)})" for _, ast in self.constraints]
        return "\n".join(lines) + "\n"

    def _environment(self, x) -> dict:
        x = np.asarray(x, dtype=float)
        return {name: x[cell] for name, cell in self.variable_cells.items()}

    def violations(self, x, tol=1e-6) -> list[str]:
        """Constraints the matrix ``x`` breaks at tolerance ``tol``."""
        env = self._environment(x)
        return [
            f"{kind}: {_render(ast)}"
            for kind, ast in self.constraints
            if not _holds(ast, env, tol)
        ]

    def satisfied_by(self, x, tol=1e-6) -> bool:
        env = self._environment(x)
        return all(_holds(ast, env, tol) for _, ast in self.constraints)


def export_qcqp(instance) -> ConstraintExport:
    """Emit the polynomial constraint system of an instance.

    Raises ``ValueError`` when an EP-T bundle is present.
    """
    for cell in instance._plan:
        if cell.notion is Notion.EP_T:
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

    for cell in instance._plan:
        members = [var(cell.voter, ci) for ci in cell.cols]
        poly = members[0] if len(members) == 1 else ("+", *members)
        constraints.append(("bundle-sum", ("=", poly, _format_number(cell.budget))))

    for cell in instance._plan:
        if cell.notion is Notion.DIRECT or len(cell.cols) < 2:
            continue  # singleton slices are pinned by their bundle sum
        own = [var(cell.voter, ci) for ci in cell.cols]
        dlg = [var(cell.delegate, ci) for ci in cell.cols]
        support = ("+", *dlg)

        if cell.notion is Notion.EP:
            for a in range(len(own)):
                for b in range(len(own)):
                    if a != b:
                        constraints.append(
                            ("ep", ("=", ("*", own[a], dlg[b]), ("*", dlg[a], own[b])))
                        )
        elif cell.notion is Notion.WCC:
            w = _format_number(cell.weight)
            dsum = _format_number(float(cell.default.sum()))
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
                                ("+", _format_number(cell.default[a]), ("*", w, dlg[a])),
                                _format_number(cell.budget),
                            ),
                        ),
                    )
                )
        elif cell.notion is Notion.EP_TI:
            eps = ("/", "1", _format_number(cell.weight))
            pairs = [
                ("=", ("*", own[a], dlg[b]), ("*", dlg[a], own[b]))
                for a in range(len(own))
                for b in range(len(own))
                if a != b
            ]
            constraints.append(
                ("epti-prop", ("=>", (">=", support, eps), ("and", *pairs)))
            )
            slack = ("-", eps, support)
            norm = ("+", support, ("*", slack, _format_number(cell.budget)))
            interp = [
                (
                    "=",
                    ("*", own[a], norm),
                    (
                        "*",
                        ("+", dlg[a], ("*", slack, _format_number(cell.default[a]))),
                        _format_number(cell.budget),
                    ),
                )
                for a in range(len(own))
            ]
            constraints.append(
                ("epti-interp", ("=>", ("<", support, eps), ("and", *interp)))
            )

    return ConstraintExport(
        tuple(variables), variable_cells, tuple(constraints), tuple(header)
    )
