"""palinlace benchmark: one workload, one seed, one run length.

    python3 perfbench/run.py --workload corpus|scan|analyze|sweep|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports palinlace from ``src/``).
The workload runs in a worker process; this process then computes reference
answers without palinlace, checks every output, prints the metrics by name
with their units, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from a
traced run.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 3          # fresh set-up processes before and after the run
WORKER_TIMEOUT_S = 150
WORKLOADS = ("corpus", "scan", "analyze", "sweep")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("polys_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("float_correct_bits", "bits"),
)


def _worker(args, out, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    proc = subprocess.run(cmd + list(extra), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def run_workload(args) -> int:
    """One run of one workload: prints its figures, returns the exit code."""
    stem = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{args.trace}")
    t_run = time.perf_counter()

    def setup_only(when):
        return [] if args.trace else [
            _worker(args, f"{stem}-setup-{when}{i}.json", "--setup-only")["setup_s"]
            for i in range(SETUP_REPEATS)]

    # set-up is timed in seven processes spread over the run, so that one
    # slow spell of the machine does not set the median
    setups = setup_only("before")
    result = _worker(args, stem + ".json")
    setups += setup_only("after") + [result["setup_s"]]

    sys.path.insert(0, HERE)
    import mpmath
    import checks
    import workloads
    records = result["records"]
    check = {"corpus": checks.check_corpus,
             "scan": lambda rs: checks.check_scan(rs, workloads.SCAN_ROWS),
             "analyze": checks.check_analyze,
             "sweep": checks.check_sweep}[args.workload]
    with mpmath.workprec(checks.ref.IL_BITS):
        verdict = check(records)

    lat = [1000 * r["latency_s"] for r in records]
    attempted = result["ops"]
    if args.trace:
        import spans
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in spans.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "polys_per_s": attempted / result["wall_s"],
            "latency_p50_ms": statistics.median(lat),
            "latency_p90_ms": statistics.quantiles(lat, n=10)[-1],
            "float_correct_bits": min(verdict.bits) if verdict.bits else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    correct = not verdict.failures

    for msg in verdict.failures:
        print(f"CHECK FAILED: {msg}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations "
          f"attempted, {verdict.failed_ops} failed, {result['rounds']} rounds, "
          f"timed phase {result['wall_s']:.2f} s, whole run "
          f"{time.perf_counter() - t_run:.1f} s")
    if result.get("pool_cycled"):
        print("note: the input pool ran out and inputs repeated")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": verdict.failed_ops, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs the four one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "palinlace", "__init__.py")):
        print("run from the root of a palinlace checkout: src/palinlace is missing",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload != "all":
        return run_workload(args)
    # a fresh process per workload: a worker forked from a parent that has
    # loaded sympy would report the parent's resident memory as its peak
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    return max(subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name] + rest).returncode
               for name in WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
