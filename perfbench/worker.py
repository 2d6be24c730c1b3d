"""Worker process: set up one workload, run it for the run length, record.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out FILE [--setup-only]

Set-up is timed from before ``import palinlace`` to the end of input
building.  The timed phase runs whole rounds until ``--seconds`` have
passed (and, for ``analyze``, at least 100 calls were made).  With
``--trace 1`` the span recorder is installed between the two phases.
Results go to ``--out`` as JSON; the parent process checks them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads
    wl = workloads.WORKLOADS[args.workload]()

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import palinlace
    import palinlace.cli
    rounds = wl.build(palinlace, args.seed, args.seconds)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        _write(args.out, result)
        return 0

    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        recorder.install()

    records, ops, done, rounds_run, cycled = [], 0, 0, 0, False
    start = time.perf_counter()
    while True:
        if done == len(rounds):
            done, cycled = 0, True  # pool spent: inputs repeat from here
        got = wl.run_round(palinlace, rounds[done])
        done += 1
        rounds_run += 1
        records.extend(got)
        ops += wl.op_count(got)
        if time.perf_counter() - start >= args.seconds and wl.enough(ops):
            break
    wall_s = time.perf_counter() - start
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    result.update({"wall_s": wall_s, "ops": ops, "rounds": rounds_run,
                   "pool_cycled": cycled, "peak_rss_mb": peak_kib / 1024})
    if recorder is not None:
        result["per_layer"] = recorder.metrics(wall_s, ops)
        recorder.write_spans(args.out + ".spans.jsonl")
    wl.after(palinlace, records)
    result["records"] = wl.encode(palinlace, records)
    _write(args.out, result)
    return 0


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
