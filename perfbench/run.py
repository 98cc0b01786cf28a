"""Benchmark of the amorlip package on three workloads.

    python3 perfbench/run.py --workload amorlip-l2log --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ./src. The
BLAS thread count is pinned to 1 before numpy is imported. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The metrics are the end-to-end figures with
--trace 0, and the per-module figures of a separate traced pass with
--trace 1. The lines before it give the machine record and a report
under the names used in perfbench/README.md. A traced run also writes
its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("amorlip-l2log", "clip", "verify")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "amorlip", "__init__.py")):
        print(f"perfbench: no package source at {os.path.join(ROOT, 'src', 'amorlip')}", file=sys.stderr)
        return 2
    spec = _load_spec()

    # one BLAS thread, set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    machine = workloads.machine_record({var: os.environ[var] for var in THREAD_VARS})
    print(json.dumps({"machine": machine}))
    report = result["report"]
    report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in result["end_to_end"].items()}
    print(json.dumps({"report": report}))
    for failure in report["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    for error in report["errors"]:
        print(f"perfbench: operation failed: {error}", file=sys.stderr)

    if args.trace:
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "machine": machine,
                    "fields": ["name", "start", "end", "parent", "pairs"],
                    "rounds": result["spans"],
                },
                fh,
            )
        values = {k: (v, None) for k, v in result["per_layer"].items()}
        wanted = spec["per_layer"]
    else:
        values = result["end_to_end"]
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], (None,))[0]
        if value is not None:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
