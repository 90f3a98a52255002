"""Run the benchmark several times on one workload, one seed per run, and
print each end-to-end metric's median and quartile spread, with the
spread of the raw (not drift-normalised) times beside it.

    python3 facebench/spread.py --workload train --seeds 1,2,3,4,5 --seconds 12

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))

# raw counterpart of each drift-normalised metric, from the run record
RAW_OF = {
    "setup_s": lambda raw: statistics.median(raw["setup_s"]),
    "train_s": lambda raw: statistics.median(raw["train_s"]),
    "latency_p50_ms": lambda raw: raw["latency_p50_ms"],
    "latency_tail_ms": lambda raw: raw["latency_tail_ms"],
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=float, default=12.0)
    args = ap.parse_args()

    values, raws, fails = {}, {}, []
    for seed in [int(s) for s in args.seeds.split(",")]:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=900,
        ).stdout.strip().splitlines()
        record, result = json.loads(out[-2])["record"], json.loads(out[-1])
        fails.append((result["correct"], result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            if name in RAW_OF:
                raws.setdefault(name, []).append(RAW_OF[name](record["raw"]))
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items()), flush=True)
    print(f"(correct, failed, attempted) per run: {fails}")
    for name, vs in values.items():
        line = f"{name:16s} median {statistics.median(vs):.5g} spread {benchlib.quartile_spread(vs):.4f}"
        if name in raws:
            line += f"   raw median {statistics.median(raws[name]):.5g} " \
                    f"spread {benchlib.quartile_spread(raws[name]):.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
