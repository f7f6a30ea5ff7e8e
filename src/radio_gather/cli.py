"""Command-line harness: single runs, scaling sweeps, construction
dumps, adversary search, and structural-lemma spot checks.

The default seed comes from RADIO_GATHER_SEED when set, so batch jobs
can pin reproducibility without threading --seed through every call.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import trees
from .engine import DuplexMode, run as engine_run
from .protocols import PROTOCOL_NAMES, ceil_cbrt, default_family, make_protocol
from .selectors import MissingSelectiveFamily, ParametersTooLarge, build_disperser
from .verify import (
    FiringSchedule,
    NotOblivious,
    ScheduleError,
    extract_schedule,
    find_caterpillar_witness,
)

TREE_FAMILIES = ("path", "star", "caterpillar", "kary", "random")


class CliError(Exception):
    pass


# bad input, whichever layer notices it; main reports these as one line
INPUT_ERRORS = (
    CliError,
    trees.TreeError,
    ScheduleError,
    MissingSelectiveFamily,
    ParametersTooLarge,
)


def _size(n: int, flag: str) -> int:
    if n < 1:
        raise CliError(f"{flag} must be at least 1, got {n}")
    return n


def _env_seed() -> int:
    raw = os.environ.get("RADIO_GATHER_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"RADIO_GATHER_SEED must be an integer, got {raw!r}") from None


def _resolve_tree(args, seed: int | None = None):
    given = args.tree
    if given in TREE_FAMILIES:
        if args.n is None:
            raise CliError(f"--tree {given} needs --n")
        return trees.from_family(given, args.n, seed=args.seed if seed is None else seed)
    if not os.path.exists(given):
        raise CliError(f"{given!r} is neither a tree family {TREE_FAMILIES} nor a file")
    tree = trees.load_tree(given)
    if args.n is not None and args.n != tree.n:
        raise CliError(f"--n {args.n} contradicts {given} with {tree.n} nodes")
    return tree


def _default_cap(proto, n: int) -> int:
    if proto.horizon is not None:
        return proto.horizon
    return math.ceil(4 * n * math.log(max(n, 2)))


def _claimed_bound(proto, n: int) -> float | None:
    """Completion-step reference per protocol; None when only the
    growth shape is claimed and a constant must be fitted."""
    name = proto.name
    if name in ("rr-unb", "rr-bnd"):
        return float(n * n)
    if name == "unb1":
        return 4 * n * (math.log2(n) + 1) + n
    if name == "mls":
        d = proto.disperser
        return float(-(-n // d.m) * (d.s + n))
    if name == "rtree":
        return 4 * n * math.log(max(n, 2))
    return None


def cmd_run(args) -> int:
    tree = _resolve_tree(args)
    n = tree.n
    mode = DuplexMode(args.duplex)
    proto = make_protocol(args.protocol, n, mode)
    cap = args.max_steps if args.max_steps is not None else _default_cap(proto, n)
    trace = engine_run(
        tree, proto, mode, max_steps=cap, seed=args.seed,
        record_steps=args.out is not None,
    )
    print(
        f"protocol {args.protocol}  tree {args.tree}  n {n}  "
        f"duplex {mode.value}  seed {args.seed}"
    )
    if trace.incomplete:
        missing = n - len(trace.delivery)
        print(
            f"INCOMPLETE after {trace.steps_executed} steps: "
            f"{missing} of {n} rumors never arrived"
        )
    else:
        print(
            f"complete at step {trace.completion_step}  "
            f"collisions {trace.collisions_total}"
        )
    if args.out:
        trace.to_jsonl(args.out)
        print(f"trace written to {args.out}")
    if trace.incomplete and not args.allow_incomplete:
        return 1
    return 0


def cmd_scaling(args) -> int:
    try:
        sizes = [_size(int(x), "--sizes entry") for x in args.sizes.split(",") if x]
    except ValueError:
        raise CliError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    if not sizes:
        raise CliError("--sizes is empty")
    mode = DuplexMode(args.duplex)
    fit_c = None
    rows = []
    for n in sizes:
        proto = make_protocol(args.protocol, n, mode)
        cap = args.max_steps if args.max_steps is not None else _default_cap(proto, n)
        steps = []
        incomplete = 0
        for trial in range(args.trials):
            s = args.seed + 1000003 * trial
            tree = trees.from_family(args.tree, n, seed=s)
            tr = engine_run(tree, proto, mode, max_steps=cap, seed=s)
            if tr.incomplete:
                incomplete += 1
                steps.append(tr.steps_executed)
            else:
                steps.append(tr.completion_step)
        if incomplete:
            print(
                f"warning: {incomplete}/{args.trials} runs at n={n} hit the "
                f"step cap {cap}",
                file=sys.stderr,
            )
        mean = sum(steps) / len(steps)
        bound = _claimed_bound(proto, n)
        if bound is None:
            model = float(n) if args.protocol == "unb2" else n * math.log2(n)
            if model <= 0:
                raise CliError(f"scaling for {args.protocol} needs sizes >= 2")
            if fit_c is None:
                fit_c = mean / model
            bound = fit_c * model
        rows.append((n, mean, max(steps), mean / bound))
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["n", "mean_steps", "max_steps", "bound_ratio"])
        for n, mean, mx, ratio in rows:
            w.writerow([n, f"{mean:.2f}", mx, f"{ratio:.6f}"])
    finally:
        if args.out:
            out.close()
    return 0


def cmd_constructs(args) -> int:
    _size(args.n, "--n")
    if args.kind == "family":
        k = _size(args.k, "--k") if args.k is not None else ceil_cbrt(args.n)
        fam = default_family(args.n, k)
        doc = {
            "n": fam.n,
            "k": fam.k,
            "m": fam.m,
            "sets": [sorted(int(v) for v in s) for s in fam.sets],
        }
    else:
        d = build_disperser(args.n, DuplexMode(args.duplex))
        doc = {
            "n": d.n,
            "p": d.p,
            "m": d.m,
            "s": d.s,
            "mode": d.mode.value,
            "sets": [list(s) for s in d.sets],
        }
    text = json.dumps(doc, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_adversary(args) -> int:
    if args.schedule:
        sched = FiringSchedule.load(args.schedule)
    else:
        if args.n is None:
            raise CliError("--n is required when extracting from a protocol")
        proto = make_protocol(args.protocol, _size(args.n, "--n"), DuplexMode(args.duplex))
        try:
            sched = extract_schedule(proto)
        except NotOblivious as exc:
            print(f"not oblivious: {exc}", file=sys.stderr)
            return 2
        if args.out:
            sched.save(args.out)
            print(f"schedule written to {args.out}")
    print(
        f"schedule: n={sched.n} T={sched.T} "
        f"firings={sum(len(f) for f in sched.fires)}"
    )
    witness = find_caterpillar_witness(sched)
    if witness is None:
        print("no caterpillar witness found")
        return 0
    print(f"witness: victim label {witness.victim} is never delivered")
    for t, u, s in witness.pairs:
        print(f"  fire at step {t} blocked by label {u} at spine offset {s}")
    print(f"  leaf offsets: {list(witness.offsets)}")
    return 0


def cmd_verify_lemmas(args) -> int:
    rng = np.random.default_rng(args.seed)
    violations = 0
    for i in range(args.trials):
        n = int(rng.integers(1, args.max_n + 1))
        tree = trees.make_random_tree(n, seed=args.seed + i)
        sizes = tree.subtree_sizes()
        for gamma in (2, 3, 4):
            gh = trees.gamma_heights(tree, gamma).heights
            if gh[tree.root] > trees.log_gamma_bound(n, gamma) + 1e-9:
                violations += 1
            if any(sizes[v] < gamma ** gh[v] for v in range(n)):
                violations += 1
            for h in range(1, gh[tree.root] + 1):
                sub = trees.subtree_above(tree, gamma, h)
                kept = sorted(v for v in range(n) if gh[v] >= h)
                new = trees.gamma_heights(sub, gamma).heights
                if any(new[i2] != gh[v] - h for i2, v in enumerate(kept)):
                    violations += 1
    print(f"checked {args.trials} random trees, {violations} violations")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    seed_default = _env_seed()
    p = argparse.ArgumentParser(
        prog="radio-gather",
        description="Simulate rumor gathering on tree radio networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, protocol=True):
        if protocol:
            sp.add_argument("--protocol", required=True, choices=PROTOCOL_NAMES)
        sp.add_argument("--seed", type=int, default=seed_default,
                        help="default from RADIO_GATHER_SEED, else 0")
        sp.add_argument("--duplex", choices=("full", "half"), default="full")
        sp.add_argument("--out", help="output file (default stdout/none)")

    sp = sub.add_parser("run", help="one simulation, optional JSONL trace")
    common(sp)
    sp.add_argument("--tree", required=True,
                    help=f"one of {TREE_FAMILIES} or a tree file")
    sp.add_argument("--n", type=int)
    sp.add_argument("--max-steps", type=int)
    sp.add_argument("--allow-incomplete", action="store_true",
                    help="exit 0 even if rumors are missing at the cap")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("scaling", help="completion-step sweep as CSV")
    common(sp)
    sp.add_argument("--sizes", default="64,128,256",
                    help="comma-separated n values")
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--tree", default="random", choices=TREE_FAMILIES)
    sp.add_argument("--max-steps", type=int)
    sp.set_defaults(func=cmd_scaling)

    sp = sub.add_parser("constructs",
                        help="dump unb2's default selective family or mls's disperser as JSON")
    common(sp, protocol=False)
    sp.add_argument("--kind", required=True, choices=("family", "disperser"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, help="family selectivity (default cube root of n)")
    sp.set_defaults(func=cmd_constructs)

    sp = sub.add_parser("adversary",
                        help="extract a firing schedule and hunt a caterpillar witness")
    common(sp, protocol=False)
    sp.add_argument("--protocol", choices=PROTOCOL_NAMES, default="mls")
    sp.add_argument("--n", type=int)
    sp.add_argument("--schedule", help="skip extraction, read this schedule JSON")
    sp.set_defaults(func=cmd_adversary)

    sp = sub.add_parser("verify-lemmas",
                        help="structural height lemmas over random trees")
    sp.add_argument("--seed", type=int, default=seed_default)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--max-n", type=int, default=512)
    sp.set_defaults(func=cmd_verify_lemmas)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
