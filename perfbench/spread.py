#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and prints, per metric, the median of
the runs and the distance between their first and third quartiles as a
share of that median (the steadiness rule BENCHMARK.json's bounds are
checked against).

    python3 perfbench/spread.py <binary> <workload> <seconds> <seed>...

<binary> is the built benchmark (cargo build --release --manifest-path
perfbench/Cargo.toml); run from the repository root.
"""

import json
import statistics
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 6:
        print(__doc__, file=sys.stderr)
        return 2
    binary, workload, seconds, seeds = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds:
        out = subprocess.run(
            [binary, "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()[-1]
        result = json.loads(out)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {out}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name, float("nan"))
        if name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{workload:18} {name:18} median={med:<12.6g} iqr/median={spread:6.3f} bound={bound}")
    print(f"{workload}: worst spread / bound (setup_s excluded) = {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
