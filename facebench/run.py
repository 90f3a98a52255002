"""The facealign benchmark: run one workload, check its outputs and print
its metrics.

    python3 facebench/run.py --workload {train,serve_3d,serve_mean_files} \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it uses the package source in ../src next to this
directory and writes only under ../.facebench. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (the end-to-end metrics, or with --trace 1 the per-layer ones);
the line before it holds the run's environment, raw times and checks.
See facebench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "facealign")
WORK_DIR = os.path.join(ROOT, ".facebench")
DEFAULT_SEED = 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("train", "serve_3d", "serve_mean_files"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # one BLAS/OpenMP thread, pinned before numpy loads; children inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"facebench: no facealign source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import facealign

    if os.path.dirname(os.path.abspath(facealign.__file__)) != PACKAGE:
        print(f"facebench: imported facealign from {facealign.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2

    import benchlib
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    env = benchlib.environment(ROOT, PACKAGE)
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix="tmp-") as tmp:
        run = workloads.Run(args.workload, args.seed, args.seconds, tmp, tracer)
        if tracer is not None:
            tracer.install()
        try:
            workloads.WORKLOADS[args.workload](run)
        finally:
            if tracer is not None:
                tracer.uninstall()

    run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    ref_median = statistics.median(run.timed_refs) if run.timed_refs else None
    correct = bool(run.checks) and all(c["ok"] for c in run.checks.values())
    if tracer is not None:
        scale = benchlib.REF_NOMINAL_S / ref_median if ref_median else 1.0
        metrics = tracing.layer_metrics(tracer.spans, max(run.trace_ops, 1), scale)
    else:
        metrics = run.metrics
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "timed_reference_loop_ms": ref_median * 1e3 if ref_median else None,
        "end_to_end": run.metrics, "raw": run.raw, "checks": run.checks,
        "attempted": run.attempted, "failed": run.failed, "errors": run.errors,
    }
    runs_dir = os.path.join(WORK_DIR, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    stem = os.path.join(runs_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase", "failed",
                                  "value"], "spans": tracer.spans}, fh)
    if not correct:
        failed_checks = [k for k, c in run.checks.items() if not c["ok"]]
        print(f"facebench: output checks failed: {failed_checks}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
