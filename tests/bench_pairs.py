"""Alternating before/after pairs of one benchmark workload.

    python tests/bench_pairs.py PARENT CHANGE --workload lower-bound \\
        [--seed 100] [--seconds 60] [--pairs 10]

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
perfbench/run.py once in each, untraced, with the same workload, seed
and run length; the side that goes first alternates from pair to pair,
because on a small shared host whichever side runs first tends to read
faster.  Each run's readings are printed as they arrive.

Then, for every end-to-end metric that CHANGE's BENCHMARK.json names,
the script prints each side's median and quartiles, the pairs the
change wins (ties count for neither side), and two verdicts:

- gain: the change wins at least nine tenths of the pairs, and its
  median beats the parent's by more than the parent's interquartile
  range;
- worse: the change's median is worse than the parent's by more than
  the metric's bound, a fraction of the parent's median.

The script exits 1 when a run reports wrong results or failed
operations, or when some metric is worse by more than its bound.  The
file name has no test_ prefix, so pytest does not collect it;
tests/test_bench_pairs.py checks the verdicts on canned samples.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
from pathlib import Path


@dataclasses.dataclass(frozen=True)
class Verdict:
    parent: tuple[float, float, float]  # first quartile, median, third quartile
    change: tuple[float, float, float]
    wins: int
    losses: int
    pairs: int
    gain: bool
    worse: bool


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> Verdict:
    """Judge paired readings of one metric; parent[i] and change[i] are
    pair i.  better is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of readings, at least one, on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])  # how far the change's median is better
    return Verdict(
        parent=pq,
        change=cq,
        wins=wins,
        losses=losses,
        pairs=len(parent),
        gain=10 * wins >= 9 * len(parent) and gap > pq[2] - pq[0],
        worse=-gap > bound * abs(pq[1]),
    )


def run_side(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in checkout; its closing JSON object."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.exit(f"perfbench/run.py failed in {checkout}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--seconds", type=int, default=60)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        p.error("--pairs and --seconds must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            p.error(f"{checkout} is no checkout: it has no perfbench/run.py")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    readings = {side: {m["name"]: [] for m in metrics} for side in sides}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            doc = run_side(sides[side], args.workload, args.seed, args.seconds)
            values = {m["name"]: doc["metrics"][m["name"]]["value"] for m in metrics}
            for name, value in values.items():
                readings[side][name].append(value)
            ok &= bool(doc["correct"]) and not doc["failed"]
            shown = " ".join(f"{k}={v:.6g}" for k, v in values.items())
            print(f"pair {i + 1} {side}: correct={doc['correct']} "
                  f"failed={doc['failed']}/{doc['attempted']} {shown}", flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} alternating pairs "
          f"of {args.seconds} s runs")
    for m in metrics:
        v = verdict(readings["parent"][m["name"]], readings["change"][m["name"]],
                    m["better"], m["bound"])
        ok &= not v.worse
        print(f"{m['name']} ({m['unit']}, {m['better']} is better): "
              f"parent {v.parent[1]:.6g} [{v.parent[0]:.6g}, {v.parent[2]:.6g}], "
              f"change {v.change[1]:.6g} [{v.change[0]:.6g}, {v.change[2]:.6g}]; "
              f"change wins {v.wins}/{v.pairs}, loses {v.losses}; "
              f"gain {'yes' if v.gain else 'no'}; "
              f"worse by more than {m['bound']:g}: {'yes' if v.worse else 'no'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
