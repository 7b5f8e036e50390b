"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs bench/run.py once for each of the seeds 1 to 10 on each workload,
one run at a time, and prints for every end-to-end metric the median of the
runs and the distance between their first and third quartiles as a share of
that median, next to the metric's bound from BENCHMARK.json.  A metric is
steady when that spread is below a third of its bound.  From the root of
the repository:

    python3 bench/spread.py [--json out.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--json", help="also write the raw runs to this file")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for workload in workloads:
        runs[workload] = []
        for seed in SEEDS:
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds",
                                     str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["report"] = json.loads(lines[-2].split(" ", 1)[1])
            runs[workload].append(result)
            ok &= result["correct"]
            print("%s seed %d: %s" % (workload, seed, {
                k: round(v["value"], 4)
                for k, v in result["metrics"].items()}), flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            s = spread(values)
            steady = s < bound / 3
            ok &= steady
            print("  %-16s median %-12.6g spread %.4f  bound %.2f  %s"
                  % (name, statistics.median(values), s, bound,
                     "ok" if steady else "WIDE"), flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
