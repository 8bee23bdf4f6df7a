#!/usr/bin/env python3
"""Repeat check for the benchmark: runs each workload once per seed and
prints every run's metrics, then, for every metric, the median and the
quartile spread (distance between the first and third quartile as a
share of the median), next to the metric's bound from BENCHMARK.json.

Usage, from the root of the repository:

    python3 perfbench/spread.py [--workloads smallfile,cleaner] \\
        [--seeds 10] [--seconds N]

Seeds run from 1 up; every run is untraced (--trace 0), because only the
end-to-end metrics have bounds. Exits 1 if any run fails or any metric
spreads wider than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in a.workloads.split(","):
        values = {}
        for seed in range(1, a.seeds + 1):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(a.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                sys.stderr.write(out.stderr)
                print(f"{w} seed {seed}: FAILED (exit {out.returncode})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()))
        print(f"== {w} ({a.seeds} seeds)")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"bound {bound:<5}" + (" OVER" if spread > bound else " ok" if spread <= bound / 3 else " (over a third)")
                if spread > bound:
                    ok = False
            print(f"  {name:<30} median {med:<22.10g} spread {spread:8.4f}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
