"""Spans and counts around the library's public functions, for the traced run.

The tracer wraps each traced function at every place a caller looks it
up: in its defining module and in every package module that imported it
by name, so ``solvers.best_response``, ``counterexamples.best_response``
and ``response.best_response`` all record one span name.  A span is
``[name, start, end, parent, op, info]``; ``info`` holds the counts a
hook reads off the call.  Spans are kept in memory, and only while an op
is running, so correctness checks between ops are never traced.

A traced function that a refactor removed is listed in ``missing`` and
every metric built on it reads ``None`` instead of crashing the run.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

import liquidballots

_MODULES = ("cli", "counterexamples", "fixtures", "io", "model", "qcqp", "response", "solvers")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _stack(args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    instance = _arg(args, kwargs, 1, "instance")
    matrices = math.prod(getattr(x, "shape", (1, 1))[:-2])
    bundles = sum(map(len, instance.delegations))
    return {"matrices": matrices, "bundle_matrices": bundles * matrices}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 0, "text").encode("utf-8"))}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _grid(args, kwargs, result):
    return {"points": result.points, "hits": len(result.hits)}


def _finding(args, kwargs, result):
    return {"findings": int(result is not None)}


def _constraints(args, kwargs, result):
    return {"constraints": len(result.constraints)}


#: (span name, defining module, attribute path, hook reading counts).
TRACED = (
    ("io.parse_instance", "io", "parse_instance", _text_bytes),
    ("io.serialize_solution", "io", "serialize_solution", None),
    ("io.parse_solution", "io", "parse_solution", None),
    ("model.validate_instance", "model", "validate_instance", None),
    ("model.is_feasible", "model", "is_feasible", None),
    ("model.project_to_feasible", "model", "project_to_feasible", None),
    ("response.best_response", "response", "best_response", _stack),
    ("response.regret", "response", "regret", None),
    ("solvers.solve", "solvers", "solve", _iterations),
    ("solvers.residual_descent", "solvers", "residual_descent", _iterations),
    ("solvers.grid_oracle", "solvers", "grid_oracle", _grid),
    ("counterexamples.search_violation", "counterexamples", "search_violation", _finding),
    ("counterexamples.random_wcc_instance", "counterexamples", "random_wcc_instance", None),
    ("counterexamples.random_feasible_point", "counterexamples", "random_feasible_point", None),
    ("qcqp.export_qcqp", "qcqp", "export_qcqp", _constraints),
    ("qcqp.violations", "qcqp", "ConstraintExport.violations", None),
    ("cli.run_cli", "cli", "run_cli", None),
)


class Tracer:
    """Installs wrappers around each op and records the op's spans."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.hook_errors = {}
        self._stack = []
        self._op = None
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [getattr(liquidballots, name) for name in _MODULES] + [liquidballots]
        for name, module, path, hook in TRACED:
            owner = getattr(liquidballots, module)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attribute, None)
            if original is None:
                self.missing.append(name)
                continue
            sites = [owner] if outer else [m for m in modules if vars(m).get(attribute) is original]
            wrapper = self._wrap(original, name, hook)
            self._patches += [(site, attribute, original, wrapper) for site in sites]

    def _wrap(self, func, name, hook):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return func(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1], tracer._op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                try:
                    span[5] = hook(args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the op
                    tracer.hook_errors.setdefault(name, repr(exc))
            return result

        return traced

    def begin_op(self, op):
        """Install the wrappers and open the root span of op ``op``."""
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)
        self._op = op
        self._stack = [len(self.spans)]
        self.spans.append(["op", 0.0, 0.0, None, op, None])
        self.spans[-1][1] = perf_counter()

    def end_op(self):
        """Close the root span and restore the original functions."""
        self.spans[self._stack[0]][2] = perf_counter()
        self._op = None
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)

    def write_csv(self, path, header):
        """Write every span, start and end relative to the first one."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("# " + json.dumps(header, sort_keys=True) + "\n")
            out = csv.writer(handle)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "op", "info"])
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                out.writerow([i, name, repr(start - origin), repr(end - origin),
                              "" if parent is None else parent, op,
                              "" if info is None else json.dumps(info, sort_keys=True)])


class Summary:
    """Totals over the recorded spans, per span name and per ancestor."""

    def __init__(self, tracer, ops):
        self.ops = ops
        self.missing = set(tracer.missing) | set(tracer.hook_errors)
        self.time = defaultdict(float)
        self.calls = Counter()
        self.info = defaultdict(Counter)
        self.within_calls = Counter()
        self.within_info = defaultdict(Counter)
        self.layer_self = defaultdict(float)
        ancestors = []
        spans = tracer.spans
        for name, start, end, parent, _, info in spans:
            above = frozenset() if parent is None else ancestors[parent] | {
                spans[parent][0], spans[parent][0].split(".")[0] + ".*"}
            ancestors.append(above)
            duration = end - start
            self.time[name] += duration
            self.calls[name] += 1
            self.layer_self[name.split(".")[0]] += duration
            if parent is not None:
                self.layer_self[spans[parent][0].split(".")[0]] -= duration
            for key in above:
                self.within_calls[name, key] += 1
            if info:
                self.info[name].update(info)
                for key in above:
                    self.within_info[name, key].update(info)


def _ratio(a, b):
    return a / b if b else 0.0


#: (metric, unit, span names it needs, value from a Summary ``s``).  Times
#: and counts are per traced op; a ratio whose base is 0 reads 0.
LAYER_METRICS = (
    ("io.parse_instance_s", "s", ("io.parse_instance",), lambda s: s.time["io.parse_instance"] / s.ops),
    ("io.instance_bytes", "B", ("io.parse_instance",), lambda s: s.info["io.parse_instance"]["bytes"] / s.ops),
    ("io.solution_roundtrip_s", "s", ("io.serialize_solution", "io.parse_solution"),
     lambda s: (s.time["io.serialize_solution"] + s.time["io.parse_solution"]) / s.ops),
    ("model.validate_s", "s", ("model.validate_instance",), lambda s: s.time["model.validate_instance"] / s.ops),
    ("model.is_feasible_s", "s", ("model.is_feasible",), lambda s: s.time["model.is_feasible"] / s.ops),
    ("model.project_s", "s", ("model.project_to_feasible",), lambda s: s.time["model.project_to_feasible"] / s.ops),
    ("model.project_calls", "count", ("model.project_to_feasible",),
     lambda s: s.calls["model.project_to_feasible"] / s.ops),
    ("response.best_response_s", "s", ("response.best_response",), lambda s: s.time["response.best_response"] / s.ops),
    ("response.best_response_calls", "count", ("response.best_response",),
     lambda s: s.calls["response.best_response"] / s.ops),
    ("response.matrices", "count", ("response.best_response",),
     lambda s: s.info["response.best_response"]["matrices"] / s.ops),
    ("response.ns_per_bundle_matrix", "ns", ("response.best_response",),
     lambda s: 1e9 * _ratio(s.time["response.best_response"], s.info["response.best_response"]["bundle_matrices"])),
    ("response.regret_s", "s", ("response.regret",), lambda s: s.time["response.regret"] / s.ops),
    ("solvers.self_s", "s", ("solvers.solve", "solvers.grid_oracle"), lambda s: s.layer_self["solvers"] / s.ops),
    ("solvers.iterations", "count", ("solvers.solve",), lambda s: s.info["solvers.solve"]["iterations"] / s.ops),
    ("solvers.map_evals", "count", ("response.best_response",),
     lambda s: s.within_info["response.best_response", "solvers.*"]["matrices"] / s.ops),
    ("solvers.descent_steps", "count", ("solvers.residual_descent",),
     lambda s: s.info["solvers.residual_descent"]["iterations"] / s.ops),
    ("solvers.line_search_trials", "count", ("solvers.residual_descent", "model.project_to_feasible"),
     lambda s: s.within_calls["model.project_to_feasible", "solvers.residual_descent"] / s.ops),
    ("solvers.accepted_trial_ratio", "ratio", ("solvers.residual_descent", "model.project_to_feasible"),
     lambda s: _ratio(s.info["solvers.residual_descent"]["iterations"],
                      s.within_calls["model.project_to_feasible", "solvers.residual_descent"])),
    ("solvers.grid_points", "count", ("solvers.grid_oracle",), lambda s: s.info["solvers.grid_oracle"]["points"] / s.ops),
    ("solvers.grid_hits", "count", ("solvers.grid_oracle",), lambda s: s.info["solvers.grid_oracle"]["hits"] / s.ops),
    ("solvers.grid_points_per_s", "1/s", ("solvers.grid_oracle",),
     lambda s: _ratio(s.info["solvers.grid_oracle"]["points"], s.time["solvers.grid_oracle"])),
    ("counterexamples.attempts", "count", ("counterexamples.random_wcc_instance",),
     lambda s: s.within_calls["counterexamples.random_wcc_instance", "counterexamples.search_violation"] / s.ops),
    ("counterexamples.findings", "count", ("counterexamples.search_violation",),
     lambda s: s.info["counterexamples.search_violation"]["findings"] / s.ops),
    ("counterexamples.finding_ratio", "ratio",
     ("counterexamples.search_violation", "counterexamples.random_wcc_instance"),
     lambda s: _ratio(s.info["counterexamples.search_violation"]["findings"],
                      s.within_calls["counterexamples.random_wcc_instance", "counterexamples.search_violation"])),
    ("counterexamples.instance_gen_s", "s", ("counterexamples.random_wcc_instance",),
     lambda s: s.time["counterexamples.random_wcc_instance"] / s.ops),
    ("counterexamples.feasible_point_s", "s", ("counterexamples.random_feasible_point",),
     lambda s: s.time["counterexamples.random_feasible_point"] / s.ops),
    ("counterexamples.self_s", "s", ("counterexamples.search_violation",),
     lambda s: s.layer_self["counterexamples"] / s.ops),
    ("qcqp.export_s", "s", ("qcqp.export_qcqp",), lambda s: s.time["qcqp.export_qcqp"] / s.ops),
    ("qcqp.check_s", "s", ("qcqp.violations",), lambda s: s.time["qcqp.violations"] / s.ops),
    ("qcqp.constraints", "count", ("qcqp.export_qcqp",), lambda s: s.info["qcqp.export_qcqp"]["constraints"] / s.ops),
    ("cli.self_s", "s", ("cli.run_cli",), lambda s: s.layer_self["cli"] / s.ops),
)


def layer_metrics(tracer, ops):
    """Every per-layer metric as ``{name: (value or None, unit)}``."""
    summary = Summary(tracer, ops)
    return {
        name: (None if summary.missing.intersection(needs) else value(summary), unit)
        for name, unit, needs, value in LAYER_METRICS
    }
