"""Run one workload of the TTM benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload small_calls --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with every tracer off;
``--trace 1`` is the separate traced run that times each layer from
outside and reports the per-layer metrics.  Metric names and units come
from ``BENCHMARK.json``; ``perfbench/README.md`` says what each one
means and why each workload exists.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it print the same metrics as a table, ``failed_frac``, and the
pinned environment the run used.  Each workload runs in its own process
(one invocation of this script per workload).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("small_calls", "paper_ttm", "ooc_tiled")

#: BLAS pool size for every workload.  One thread keeps 2-core hosts
#: steady: the serving workers and a neighbour's load no longer fight the
#: pool for cores (a 384^3 TTM takes 64-80 ms on 2 threads, 97-123 ms
#: on 1).  Set before NumPy is imported, so the pool is born this size.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Raw speed figures every workload prints but ``BENCHMARK.json`` does
#: not gate: a shared 2-core VM's speed wanders by up to 2x within a
#: minute (7.3k-14.5k small_calls ops/s in one 60 s run), so absolute times
#: spread by ~30% across runs.  The gated ``frac_of_blas`` divides the
#: same op time by a bare GEMM timed right after it, and the gated
#: ``setup_s`` divides each set-up by a fixed reference task timed
#: beside it, which cancels that; ``setup_raw_s`` is its wall time.
UNGATED = {"ops_per_s": "1/s", "latency_p50_us": "us",
           "latency_p99_us": "us", "setup_raw_s": "s"}

#: ``$REPRO_MEM_LIMIT`` for ``ooc_tiled`` only.  Its mere presence makes
#: every call probe the budget, so every other workload runs without it.
OOC_MEM_LIMIT = 256 << 10


def pin_environment(workload: str) -> dict:
    """Fix the process environment before NumPy loads; returns the record."""
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if workload == "ooc_tiled":
        os.environ["REPRO_MEM_LIMIT"] = str(OOC_MEM_LIMIT)
    record = {var: os.environ[var] for var in BLAS_ENV}
    record["REPRO_MEM_LIMIT"] = os.environ.get("REPRO_MEM_LIMIT")
    record["python"] = sys.version.split()[0]
    record["cpus"] = len(os.sched_getaffinity(0))
    return record


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def assemble(spec: dict, outcome, traced: bool) -> dict:
    """``name -> {value, unit}`` for exactly the metrics the spec lists.

    A per-layer metric whose layer the workload never calls reads 0 (as
    a cache-hit count reads 0 on a workload that bypasses the cache);
    an end-to-end metric a workload cannot produce is a bug.
    """
    rows = spec["per_layer"] if traced else spec["end_to_end"]
    values = dict(outcome.metrics)
    values.update({k: v for k, v in outcome.counts.items()
                   if isinstance(v, (int, float))})
    failed = outcome.failed + outcome.wrong
    values["failed_frac"] = failed / max(outcome.attempted, 1)
    metrics = {}
    for row in rows:
        if row["name"] not in values and not traced:
            raise KeyError(f"workload did not measure {row['name']}")
        metrics[row["name"]] = {"value": float(values.get(row["name"], 0.0)),
                                "unit": row["unit"]}
    known = {row["name"] for row in spec["end_to_end"] + spec["per_layer"]}
    known |= set(UNGATED)
    unknown = sorted(set(outcome.metrics) - known)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return metrics


def verdict(outcome, drift) -> tuple[bool, int]:
    """``(correct, failed)`` of a run.

    Failed ops (typed errors, sheds), wrong outputs and count drift
    each make the run incorrect.
    """
    failed = outcome.failed + outcome.wrong
    return failed == 0 and not drift, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = pin_environment(args.workload)
    sys.path[:0] = [src, HERE]
    spec = load_spec(root)

    from harness import OUT_DIR, Recorder, check_counts, source_digest

    module = importlib.import_module(args.workload)
    if args.trace:
        rec = Recorder()
        outcome = module.trace(args.seed, args.seconds, rec)
        rec.dump(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        outcome = module.measure(args.seed, args.seconds)
    ledger = args.workload + ("-traced" if args.trace else "")
    drift = check_counts(ledger, args.seed, outcome.counts,
                         source_digest(os.path.join(src, "repro")))
    metrics = assemble(spec, outcome, bool(args.trace))

    correct, failed = verdict(outcome, drift)
    for name, row in metrics.items():
        print(f"{args.workload:13s} {name:36s} {row['value']:16.6g} "
              f"{row['unit']}")
    for name, unit in UNGATED.items():
        if name in outcome.metrics and not args.trace:
            print(f"{args.workload:13s} {name:36s} "
                  f"{outcome.metrics[name]:16.6g} {unit} (not gated)")
    if "failed_frac" not in metrics:
        print(f"{args.workload:13s} {'failed_frac':36s} "
              f"{failed / max(outcome.attempted, 1):16.6g} frac")
    if drift:
        print(f"# counts differ from an earlier run of seed {args.seed}: "
              f"{drift}")
    print("# counts: " + json.dumps(outcome.counts, sort_keys=True))
    print("# notes: " + json.dumps(outcome.notes, sort_keys=True))
    print("# env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
