"""Run workloads over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads gathering,lower-bound]
                               [--trace 0] [--seconds N] [--out results.json]

Each (workload, seed) runs as its own `perfbench/run.py` process, one
after the other, so memory peaks stay per workload.  For every metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
interquartile spread as a share of the median; a run that fails its
checks or exits non-zero is listed.  --out writes every run's result
as JSON, for before/after comparisons made with the same settings.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gathering", "lower-bound")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload, seed, trace, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"exit": done.returncode}
    return json.loads(lines[-1])


def summarise(workload, results):
    bad = [s for s, r in results if not r.get("correct")]
    print(f"{workload}: {len(results)} runs, not correct: {bad or 'none'}")
    measured = [r["metrics"] for _, r in results if "metrics" in r]
    for name in measured[0] if measured else ():
        vals = [m[name]["value"] for m in measured]
        med = statistics.median(vals)
        if len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:28s} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="100")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, help="default: run.py's")
    p.add_argument("--out")
    args = p.parse_args(argv)
    everything = {}
    failed = False
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            res = run_one(workload, seed, args.trace, args.seconds)
            print(f"{workload} seed {seed}: " + json.dumps(res), flush=True)
            results.append((seed, res))
            failed |= not res.get("correct", False)
        summarise(workload, results)
        everything[workload] = {str(s): r for s, r in results}
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
