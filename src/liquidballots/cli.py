"""Command line front end.

Subcommands::

    validate FILE          check an instance file, list violations
    solve FILE             run a solver and report the solution
    verify FILE SOLUTION   check a solution file against its instance
    export-qcqp FILE       print the polynomial constraint system
    search KIND            randomized counterexample search
    reproduce NAME         rerun a built-in worked example

Exit status: 0 on success, 1 on domain failures (invalid instance, no
solution found, verification failure), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import fixtures
from .counterexamples import SEARCH_KINDS, save_finding, search_violation
from .io import (
    InstanceSyntaxError,
    _format_number,
    _format_numbers,
    parse_instance,
    parse_solution,
    serialize_solution,
    trace_csv,
)
from .model import InvalidInstanceError, Notion, is_feasible
from .qcqp import export_qcqp
from .response import regret
from .solvers import STRATEGIES, SolverConfig, grid_oracle, initial_point, simple_iteration, solve


def _checked(convert, accept, rule):
    """An argparse type: ``convert`` the text, refuse values ``accept`` rejects.

    A refused value is a usage error (exit status 2) that states ``rule``.
    """

    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_tolerance = _checked(
    float, lambda v: math.isfinite(v) and v >= 0, "tolerance must be finite and non-negative"
)


def _grid_resolution(text):
    """argparse type of ``--grid-resolution``: a step ``SolverConfig`` accepts."""
    value = float(text)
    try:
        SolverConfig(grid_resolution=value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _read_instance(path):
    with open(path, encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _print_matrix(instance, x, out):
    width = max(len(v) for v in instance.voters)
    cells, m = _format_numbers(x), instance.m
    print("\n".join(
        f"  {voter:<{width}} [{', '.join(cells[i * m:i * m + m])}]"
        for i, voter in enumerate(instance.voters)
    ), file=out)


def _cmd_validate(args) -> int:
    try:
        _read_instance(args.file)
    except InvalidInstanceError as exc:
        print("invalid instance:", file=sys.stdout)
        print(str(exc.report), file=sys.stdout)
        return 1
    print("instance is valid")
    return 0


def _cmd_solve(args) -> int:
    instance = _read_instance(args.file)
    cfg = SolverConfig(
        tolerance=args.tol,
        max_iterations=args.max_iters,
        grid_resolution=args.grid_resolution,
    )
    report = solve(instance, cfg, strategy=args.strategy, start=args.start)
    # files first, so that a reader closing stdout early cannot lose them
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(trace_csv(report.trajectory))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(serialize_solution(instance, report.solution))
    print(f"status: {report.status}")
    print(f"iterations: {report.iterations}")
    print(f"residual_linf: {_format_number(report.residual_linf)}")
    print(f"residual_l1: {_format_number(report.residual_l1)}")
    print("solution:")
    _print_matrix(instance, report.solution, sys.stdout)
    if report.status != "converged":
        print(
            "no eps-weak point found at tolerance "
            f"{_format_number(cfg.tolerance)}; best residual "
            f"{_format_number(report.residual_linf)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_verify(args) -> int:
    instance = _read_instance(args.file)
    with open(args.solution, encoding="utf-8") as handle:
        x = parse_solution(handle.read(), instance)
    feasible = is_feasible(instance, x, tol=max(args.tol, 1e-9))
    report = regret(x, instance)
    width = max(len(v) for v in instance.voters)
    print("\n".join(
        f"  regret {voter:<{width}} {value}"
        for voter, value in zip(instance.voters, _format_numbers(report.per_voter))
    ))
    worst = float(np.max(report.per_voter)) if len(report.per_voter) else 0.0
    print(f"max regret: {_format_number(worst)}")
    print(f"feasible: {'yes' if feasible else 'no'}")
    if not feasible or worst > args.tol:
        print(f"solution rejected at tolerance {_format_number(args.tol)}", file=sys.stderr)
        return 1
    print(f"solution accepted at tolerance {_format_number(args.tol)}")
    return 0


def _cmd_export(args) -> int:
    instance = _read_instance(args.file)
    export = export_qcqp(instance)
    sys.stdout.write(export.text)
    return 0


def _cmd_search(args) -> int:
    finding = search_violation(
        args.kind,
        n=args.n,
        m=args.m,
        weight=args.weight,
        default_mode=args.default_mode,
        seed=args.seed,
        budget=args.budget,
    )
    if finding is None:
        print(
            f"no {args.kind} witness in {args.budget} attempts (seed {args.seed})",
            file=sys.stderr,
        )
        return 1
    if args.out is not None:  # before printing, as in _cmd_solve
        save_finding(finding, args.out)
    print(f"found {finding.kind} witness at attempt {finding.attempt} (seed {finding.seed})")
    for key, value in sorted(finding.certificate.items()):
        print(f"  {key}: {_format_number(value)}")
    if args.out is not None:
        print(f"written to {args.out}")
    return 0


def _solve_and_print(instance, tol=1e-6):
    cfg = SolverConfig(tolerance=tol)
    report = solve(instance, cfg)
    print(f"status: {report.status} after {report.iterations} iterations")
    print(f"residual_linf: {_format_number(report.residual_linf)}")
    _print_matrix(instance, report.solution, sys.stdout)
    return report


def _reproduce_ep() -> int:
    print("== delegation proportional to the delegate ballot ==")
    instance = fixtures.example_ep()
    _solve_and_print(instance)
    print("the delegating voter copies the 1000:0 split of the guru slice")
    return 0


def _reproduce_ept_grid() -> int:
    print("== thresholded proportionality can rule out every point ==")
    instance = fixtures.crossed_thresholds(Notion.EP_T)
    result = grid_oracle(instance, SolverConfig(tolerance=0.01, grid_resolution=0.01))
    print(f"grid points scanned: {result.points}")
    print(f"points with residual <= 0.01: {len(result.hits)}")
    print(f"smallest residual on the grid: {_format_number(result.best_residual)}")
    cfg = SolverConfig(tolerance=1e-3, max_iterations=2000)
    report = simple_iteration(instance, initial_point(instance), cfg)
    print(f"fixed-point iteration: {report.status} after {report.iterations} iterations")
    print(f"best iteration residual: {_format_number(report.residual_linf)}")
    return 0


def _reproduce_epti() -> int:
    print("== interpolated thresholds restore a solution ==")
    instance = fixtures.crossed_thresholds(Notion.EP_TI)
    _solve_and_print(instance, tol=1e-3)
    print("known solution:")
    _print_matrix(instance, np.array(fixtures.CROSSED_EPTI_SOLUTION), sys.stdout)
    return 0


def _reproduce_epti_thresholds() -> int:
    print("== interpolation kicks in only below the threshold ==")
    for support in (0.01, 0.005):
        instance = fixtures.high_confidence(Notion.EP_TI, support)
        print(f"guru support {_format_number(support)}:")
        _solve_and_print(instance)
    return 0


def _reproduce_wcc() -> int:
    print("== combined rescaling drifts smoothly with the guru ballot ==")
    for support in fixtures.SENSITIVITY_SUPPORTS:
        instance = fixtures.high_confidence(Notion.WCC, support)
        print(f"guru support {_format_number(support)}:")
        _solve_and_print(instance)
    return 0


_REPRODUCTIONS = {
    "example-ep": _reproduce_ep,
    "example-ep-t-table1": _reproduce_ept_grid,
    "example-ep-ti-table1": _reproduce_epti,
    "example-ep-ti-thresholds": _reproduce_epti_thresholds,
    "example-wcc": _reproduce_wcc,
}


def _cmd_reproduce(args) -> int:
    return _REPRODUCTIONS[args.name]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liquidballots",
        description="resolve fine-grained delegations over cumulative ballots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="search for a fixed point of the response map")
    p.add_argument("file")
    p.add_argument("--strategy", choices=STRATEGIES, default="iterate-then-descent")
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.add_argument(
        "--max-iters", type=_checked(int, lambda v: v >= 0, "max-iters must be non-negative"),
        default=10000,
    )
    p.add_argument("--start", choices=("defaults", "even-split"), default="defaults")
    p.add_argument("--grid-resolution", type=_grid_resolution, default=0.01)
    p.add_argument("--trace", metavar="CSV", help="write per-iteration residuals")
    p.add_argument("--out", metavar="JSON", help="write the solution file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a solution file")
    p.add_argument("file")
    p.add_argument("solution")
    p.add_argument("--tol", type=_tolerance, default=1e-3)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export-qcqp", help="print the polynomial constraint system")
    p.add_argument("file")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("search", help="randomized counterexample search")
    p.add_argument("kind", choices=SEARCH_KINDS)
    p.add_argument("--n", type=_checked(int, lambda v: v >= 1, "n must be at least 1"), default=10)
    p.add_argument("--m", type=_checked(int, lambda v: v >= 1, "m must be at least 1"), default=5)
    p.add_argument(
        "--weight",
        type=_checked(float, lambda v: math.isfinite(v) and v > 0, "weight must be finite and positive"),
        default=10.0,
    )
    p.add_argument("--default-mode", choices=("even-split", "random"), default="even-split")
    p.add_argument(
        "--seed", type=_checked(int, lambda v: v >= 0, "seed must be non-negative"), default=0
    )
    p.add_argument(
        "--budget", type=_checked(int, lambda v: v >= 0, "budget must be non-negative"), default=200
    )
    p.add_argument("--out", metavar="JSON", help="write the finding as JSON")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("reproduce", help="rerun a built-in worked example")
    p.add_argument("name", choices=sorted(_REPRODUCTIONS))
    p.set_defaults(func=_cmd_reproduce)

    return parser


#: Exit status when the reader of stdout has gone: 128 + SIGPIPE, as a
#: shell reports a command killed by the signal.
_CLOSED_STDOUT = 141


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InvalidInstanceError as exc:
        print("invalid instance:", file=sys.stderr)
        print(str(exc.report), file=sys.stderr)
        return 1
    except BrokenPipeError:
        return _CLOSED_STDOUT  # the reader has gone, as under ``| head``: nothing to report
    except (InstanceSyntaxError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run_cli()
    closed = code == _CLOSED_STDOUT
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        closed = True
        code = code or _CLOSED_STDOUT  # a failure keeps its own status
    if closed:
        # Python flushes stdout once more at exit; let that write go nowhere
        # (the recipe of the "Note on SIGPIPE" in the ``signal`` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    main()
