"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gathering [--seed 100] [--seconds 60] [--trace 0]

Run it from the root of a checkout; it imports radio_gather from the
checkout's src/ and nothing else.  The load is a closed loop: one
process, one thread, one simulation at a time, each pass of the
workload starting when the previous one ends.

--trace 0 repeats untraced passes for --seconds (at least one) and
reports the end-to-end metrics: the pass time, set-up time, simulated
steps and peak memory.  A pass is a list of short jobs, each timed on
its own; the pass time is the sum over the jobs of each job's fastest
time in the run, the reading least disturbed by other work on the
host.  Passes take turns on the CPUs the process may use, so each job
is timed on each of them.  --trace 1 alternates an untraced and a
traced pass and reports the per-layer metrics, checking that both
passes produce the same results.  Every pass checks its own outputs;
the last line of stdout is one JSON object with the verdict and the
metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=100,
                   help="workload seed (default 100, the ROADMAP baseline)")
    p.add_argument("--seconds", type=int, default=60,
                   help="how long to keep starting new passes (at least one runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_workloads(name):
    """Import the package from this checkout and return the workload's
    (setup, jobs) plus the workloads and layers modules."""
    import layers
    import radio_gather
    import workloads

    if Path(radio_gather.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: radio_gather imported from {radio_gather.__file__}, not {SRC}")
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name], workloads, layers


def setup_probe(args) -> float:
    """Seconds from before the package import until the workload's
    first timed call is ready."""
    t0 = time.perf_counter()
    (setup, _), _, layers = import_workloads(args.workload)
    setup(layers.Ops(), args.seed)
    return time.perf_counter() - t0


def measure_setup(args) -> float:
    """Set-up time of a fresh process, which imports the package anew."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: set-up probe exited with {done.returncode}")
    return float(done.stdout.split()[-1])


def timed_pass(run_pass, jobs):
    t0 = time.perf_counter()
    outcomes = run_pass(jobs)
    return time.perf_counter() - t0, outcomes


def timed_jobs(jobs, times):
    """Run one pass, appending each job's time to its list in times."""
    outcomes = []
    for job, spent in zip(jobs, times, strict=True):
        t0 = time.perf_counter()
        outcomes += job()
        spent.append(time.perf_counter() - t0)
    return outcomes


def compare(outcomes, reference, what):
    """Mark each outcome whose summary differs from the reference pass."""
    out = []
    for got, ref in zip(outcomes, reference, strict=True):
        if got.summary != ref.summary:
            got = dataclasses.replace(got, problems=got.problems + (f"differs from the {what}",))
        out.append(got)
    return out


def keep_going(t_start, seconds, durations):
    """Start another pass only if a typical one still fits the budget."""
    return time.perf_counter() - t_start + statistics.median(durations) <= seconds


def report(outcomes, pass_label):
    bad = [o for o in outcomes if not o.ok]
    for o in bad:
        print(f"FAILED {pass_label}: {o.op}: {'; '.join(o.problems)}")
    for o in outcomes:
        if o.note:
            print(f"note {pass_label}: {o.op}: {o.note}")
    return len(outcomes), len(bad)


def untraced(args, setup, make_jobs, layers):
    """Repeat passes for args.seconds.  Set-up probes are spread over
    the same time, one after the first pass that ends past each
    seventh of it, so they meet the same host load as the passes.

    Each pass is pinned to the next of the process's CPUs in turn: on a
    shared host another tenant often slows one CPU for a minute or more
    while the other runs at full speed, and a job's fastest time then
    comes from the quieter one."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    ops = layers.Ops()
    jobs = make_jobs(ops, setup(ops, args.seed))
    times = [[] for _ in jobs]
    setups = []
    t_start = time.perf_counter()
    walls, first = [], None
    attempted = failed = 0
    while not walls or keep_going(t_start, args.seconds, walls):
        if cpus:
            os.sched_setaffinity(0, {cpus[len(walls) % len(cpus)]})
        t0 = time.perf_counter()
        outcomes = timed_jobs(jobs, times)
        wall = time.perf_counter() - t0
        if first is None:
            first = outcomes
        else:
            outcomes = compare(outcomes, first, "first pass")
        a, f = report(outcomes, f"pass {len(walls) + 1}")
        attempted += a
        failed += f
        walls.append(wall)
        print(f"pass {len(walls)}: {wall:.3f} s, {a} operations, {f} failed", flush=True)
        due = len(setups) * args.seconds / SETUP_PROBES
        if len(setups) < SETUP_PROBES and time.perf_counter() - t_start >= due:
            setups.append(measure_setup(args))
    if cpus:
        os.sched_setaffinity(0, cpus)
    while len(setups) < SETUP_PROBES:
        setups.append(measure_setup(args))
    return times, walls, setups, first, attempted, failed


def end_to_end(args, setup, make_jobs, workloads, layers):
    times, walls, setup_s, outcomes, attempted, failed = untraced(args, setup, make_jobs,
                                                                  layers)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for i, spent in enumerate(times):
        print(f"job {i + 1}: fastest {min(spent):.4f} s, median {statistics.median(spent):.4f} s")
    print(f"wall_s: sum over {len(times)} jobs of each one's fastest of {len(walls)} passes "
          f"(median pass {statistics.median(walls):.3f} s); "
          f"setup_s: median of {len(setup_s)} processes")
    metrics = {
        "wall_s": (sum(min(spent) for spent in times), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "sim_steps": (sum(o.sim_steps for o in outcomes), "steps"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return attempted, failed, metrics


PER_LAYER_UNITS = {
    "protocols.acts": "count", "protocols.tx": "count", "protocols.tx_per_act": "ratio",
    "protocols.act_s": "s", "protocols.act_ns": "ns",
    "engine.run_s": "s", "engine.loop_s": "s", "engine.loop_ns_per_act": "ns",
    "engine.steps": "count", "engine.active_steps": "count", "engine.skip_frac": "ratio",
    "engine.collisions": "count", "engine.record_s": "s", "engine.dump_s": "s",
    "engine.load_s": "s", "engine.trace_mb": "MB",
    "selectors.build_s": "s", "selectors.verify_s": "s", "selectors.family_m": "count",
    "verify.extract_s": "s", "verify.replay_acts": "count", "verify.witness_s": "s",
    "verify.witnesses": "count", "verify.star_s": "s",
    "trees.gen_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


def per_layer(args, setup, make_jobs, workloads, layers):
    run_pass = workloads.run_pass
    ops = layers.Ops()
    jobs = make_jobs(ops, setup(ops, args.seed))
    t_start = time.perf_counter()
    pairs, samples, counters = [], [], None
    attempted = failed = 0
    while not pairs or keep_going(t_start, args.seconds, pairs):
        t_pair = time.perf_counter()
        wall, plain = timed_pass(run_pass, jobs)
        traced_ops = layers.TracedOps()
        traced_jobs = make_jobs(traced_ops, setup(traced_ops, args.seed))
        traced_wall, traced = timed_pass(run_pass, traced_jobs)
        traced = compare(traced, plain, "untraced pass")
        if counters is not None and traced_ops.counters() != counters:
            print("FAILED: traced counters differ between passes")
            failed += 1
        counters = traced_ops.counters()
        for label, outcomes in (("untraced", plain), ("traced", traced)):
            a, f = report(outcomes, f"{label} pass {len(pairs) + 1}")
            attempted += a
            failed += f
        m = traced_ops.metrics()
        m["bench.trace_overhead_frac"] = traced_wall / wall - 1
        samples.append(m)
        pairs.append(time.perf_counter() - t_pair)
        print(f"pair {len(pairs)}: untraced {wall:.3f} s, traced {traced_wall:.3f} s", flush=True)
    print("counters: " + json.dumps(counters, sort_keys=True))
    metrics = {name: (statistics.median(s[name] for s in samples), unit)
               for name, unit in PER_LAYER_UNITS.items()}
    return attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "radio_gather" / "__init__.py").is_file():
        print(f"error: no radio_gather package at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(setup_probe(args)))
        return 0
    (setup, make_jobs), workloads, layers = import_workloads(args.workload)
    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics = measure(args, setup, make_jobs, workloads, layers)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
