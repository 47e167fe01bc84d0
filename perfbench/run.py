"""Wall-clock benchmark of the FT-GEMM reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload gemm-large --seed 1 \
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics. The metric names and units are those of ``BENCHMARK.json``.
The run prints the host fingerprint, every metric by name and unit and,
marked "not gated", the figures too unsteady on a shared host to gate
(see perfbench/README.md). It writes the full result (and, for traced
runs, the spans) under ``.perfbench_out/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. It exits 1 on any
wrong, lost or duplicated answer, on a leaked shared-memory segment, or
on a per-call phase split that exceeds its root span.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from multiprocessing import resource_tracker

# FTGemm is the paper's single-core driver: one BLAS thread per caller.
# A threaded BLAS under a two-caller or two-worker load would also run
# more threads than a 2-vCPU host has cores, and time its scheduler. Set
# before numpy loads; worker processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = _load_spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {names}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import host
    import workloads

    fingerprint = host.fingerprint()
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    # the shared-memory transport starts multiprocessing's resource
    # tracker process; stop it and wait for it, so nothing outlives the run
    resource_tracker._resource_tracker._stop()
    problems = list(result.problems)
    metrics = {}
    for m in wanted:
        if m["name"] not in result.metrics:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": float(result.metrics[m["name"]]),
                              "unit": m["unit"]}
    correct = not problems and result.failed == 0

    print(f"host: {json.dumps(fingerprint, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: samples {json.dumps(result.samples)}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:16.6f} {m['unit']}")
    for name, value in result.extra.items():
        print(f"  {name:34s} {value:16.6f} (not gated)")
    for p in problems:
        print(f"PROBLEM: {p}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    full = {"host": fingerprint, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "samples": result.samples, "problems": problems,
            "metrics": metrics, "measured": result.metrics,
            "not_gated": result.extra}
    with open(os.path.join(OUT_DIR, stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True, default=str)
    if result.spans:
        with open(os.path.join(OUT_DIR, stem + ".trace.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"traceEvents": result.spans}, fh, default=str)

    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
