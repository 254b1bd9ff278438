"""Benchmark of the liquidballots library: end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload resolve-large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25      # every workload in turn
    python3 bench/run.py --smoke                          # one checked op of each

The library is imported from ``src/`` of the checkout and driven from this
one process and thread.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics, writing every span to
``bench/out/trace-<workload>.csv``.  The last line of standard output is
one JSON object; the exit status is 0 only when every op passed its
correctness checks.  See ``bench/README.md``
for the workloads and for which end-to-end metric each layer metric moves.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Thread-count variables of BLAS and OpenMP builds, pinned to 1.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine_facts(numpy):
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
    }


def _median(values):
    """Median, or None when no op passed."""
    return statistics.median(values) if values else None


def attempt(workload, i, tracer=None):
    """Run op ``i`` (traced when a tracer is given); (op seconds, problems)."""
    if tracer is not None:
        tracer.begin_op(i)
    start = perf_counter()
    try:
        result = workload.op(i)
    except Exception:
        return perf_counter() - start, [traceback.format_exc()]
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_op()
    try:
        return elapsed, workload.check(i, result)
    except Exception:
        return elapsed, ["check raised:\n" + traceback.format_exc()]


def run_workload(workloads, tracing, name, seed, seconds, trace, smoke, import_s):
    workload = workloads.WORKLOADS[name]()
    tracer = tracing.Tracer() if trace else None
    repeats = 1 if trace or smoke else SETUP_REPEATS
    failures, setups, ops = [], [], []  # ops: (seconds, traced, ok)
    with workloads.workdir(OUT) as work:
        for r in range(repeats):
            # Set-up r warms up with op r: where op costs vary with the input,
            # the median then does not hang on a single op's input.
            start = perf_counter()
            sizes = workload.setup(seed, work)
            _, problems = attempt(workload, r)
            setups.append(perf_counter() - start)
            if problems:
                failures.append((f"warm-up {r}", problems))
        min_ops = 2 if trace else 1
        start = perf_counter()
        i = 0
        while i < min_ops or (not smoke and perf_counter() - start < seconds):
            traced = tracer is not None and i % 2 == 1
            elapsed, problems = attempt(workload, i, tracer if traced else None)
            ops.append((elapsed, traced, not problems))
            if problems:
                failures.append((i, problems))
            i += 1
    attempted = repeats + len(ops)
    for where, problems in failures[:5]:
        print(f"FAILED {name} op {where}:", *problems, sep="\n  ", file=sys.stderr)

    plain = sorted(t for t, traced, ok in ops if ok and not traced)
    print(f"workload {name} seed {seed}: inputs {json.dumps(sizes, sort_keys=True)}")
    if trace:
        metrics = tracing.layer_metrics(tracer, sum(traced for _, traced, _ in ops))
        traced_p50 = _median([t for t, traced, ok in ops if ok and traced])
        untraced_p50 = _median(plain)
        overhead = None if None in (traced_p50, untraced_p50) else (traced_p50 - untraced_p50) / untraced_p50
        metrics["trace.overhead_share"] = (overhead, "ratio")
        OUT.mkdir(exist_ok=True)
        tracer.write_csv(OUT / f"trace-{name}.csv",
                         {"workload": name, "seed": seed, "inputs": sizes})
        for missing in tracer.missing:
            print(f"  traced function {missing} no longer exists; its metrics read null")
        for span, error in tracer.hook_errors.items():
            print(f"  counting {span} failed ({error}); its metrics read null")
    else:
        busy = sum(t for t, traced, _ in ops)
        tail_index = max(0, len(plain) - TAIL_BEYOND - 1)
        metrics = {
            "op_p50_s": (_median(plain), "s"),
            "op_tail_s": (plain[tail_index] if plain else None, "s"),
            "ops_per_s": (len(plain) / busy, "1/s"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_share": ((attempted - len(failures)) / attempted, "ratio"),
        }
        print(f"  op_p50_s over {len(plain)} passing ops; op_tail_s is percentile "
              f"{100 * (tail_index + 1) / max(1, len(plain)):.1f} with "
              f"{max(0, len(plain) - tail_index - 1)} ops beyond; "
              f"{len(setups)} set-ups, import {import_s:.4f} s")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def check_declared(result, trace):
    """The reported metrics must be exactly those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared != reported:
        raise SystemExit(f"metrics differ from BENCHMARK.json: reported {reported}, declared {declared}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one checked op per workload")
    args = parser.parse_args(argv)

    if not (SOURCE / "liquidballots" / "__init__.py").is_file():
        print(f"error: no library source at {SOURCE}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SOURCE))
    import numpy  # a dependency, so its import is not the program's set-up

    start = perf_counter()
    import liquidballots  # noqa: F401
    import_s = perf_counter() - start
    import tracing
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or 'all'")
    print("machine:", json.dumps(machine_facts(numpy), sort_keys=True))
    results = {}
    for name in names:
        results[name] = run_workload(workloads, tracing, name, args.seed, args.seconds,
                                     args.trace, args.smoke, import_s)
        check_declared(results[name], args.trace)
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"result {name}: {json.dumps(result)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {name: r["metrics"] for name, r in results.items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
