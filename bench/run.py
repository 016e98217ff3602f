#!/usr/bin/env python3
"""Benchmark of the mmwsel CLI.

Run from the repository root:

    python3 bench/run.py --workload {label-full,train-desk,select-desk}
                         --seed N --seconds S --trace {0,1}

Builds the workload's inputs from the seed, times the CLI command for
about S seconds, checks its outputs and prints, as the last line, a JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
of an instrumented run (--trace 1).  Metric names and units come from
BENCHMARK.json.  A run record is written to bench/out/records/.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("label-full", "train-desk", "select-desk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mmwsel" / "__init__.py").is_file():
        print(f"error: no mmwsel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import runrecord
    import workloads
    from spans import write_spans

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tracer = result.pop("tracer", None)
    if tracer is not None:
        write_spans(tracer, records / f"{tag}.spans.csv")
    values = result["per_layer"] if args.trace else result["end_to_end"]
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    record = {"environment": runrecord.environment(ROOT, THREAD_VARS),
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              **result, "metrics": metrics}
    (records / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    e2e = result["end_to_end"]
    print(f"{args.workload}: {result['item']} = {e2e['items_per_s']} 1/s scaled, "
          f"{result['wall_items_per_s']} 1/s wall "
          f"(median of {sum(not c['traced'] for c in result['calls'])} calls)")
    if args.workload == "select-desk":
        print(f"{args.workload}: cnn_rate_ratio = {e2e['rate_ratio']}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    if tracer is not None:
        layers = result["per_layer"]
        shares = "  ".join(f"{k[6:]} {v:.3f}" for k, v in layers.items() if k.startswith("share."))
        print(f"{args.workload}: layer shares of the CLI command: {shares}")
        print(f"{args.workload}: design {result['design']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
