"""The benchmark workloads.

Each workload has a setup(ops, seed) that builds its inputs (trees and
bound protocols) and a jobs(ops, inputs) that lists the measured work
as jobs: callables without arguments, each returning the Outcomes of
its checked operations.  A pass runs every job once, in order.  Jobs
are short (up to about half a second on a 2-vCPU virtual machine), so
a run repeats each one several times and times each on its own.  Setup
and jobs reach the package only through `ops`, so the untraced and
traced passes run the same code.  Every input comes from the workload
seed.

The benchmark has two workloads.  gathering runs three parts, each
dominated by one layer: ladder by protocol act() work, sparse-fire by
the engine's wake heap and silent-stretch skipping, trace-roundtrip by
step recording and JSONL serialization.  lower-bound is dominated by
the selectors and verify modules, with almost no engine work.  The
three parts of gathering are also workloads of their own, to run one
alone when a change needs to be located.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from radio_gather.engine import DuplexMode
from radio_gather.protocols import PROTOCOL_NAMES
from radio_gather.verify import FiringSchedule, schedule_protocol

FULL = DuplexMode.FULL
HALF = DuplexMode.HALF
BOTH = (FULL, HALF)


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One checked operation of a pass.

    summary is what the untraced and traced passes must agree on;
    sim_steps is the simulated time the operation covers; note records
    an outcome worth reporting that is not a failure.
    """

    op: str
    problems: tuple[str, ...]
    summary: tuple
    sim_steps: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def step_cap(proto, n: int) -> int:
    """The protocol's horizon, else ceil(4 n ln n) as the CLI uses for rtree."""
    if proto.horizon is not None:
        return proto.horizon
    return math.ceil(4 * n * math.log(max(n, 2)))


def gather(ops, label, tree, proto, mode, seed, *, record_steps=False):
    """One gathering run, checked: complete within the protocol's
    horizon, with every label delivered.

    rtree has no horizon.  Its runs stop at step_cap and may miss it
    (the completion law acceptance criterion 9 measures), so a miss is
    noted rather than failed; its delivered labels are still checked."""
    n = tree.n
    trace = ops.run(tree, proto, mode, max_steps=step_cap(proto, n), seed=seed,
                    record_steps=record_steps)
    problems = []
    note = ""
    done = trace.completion_step
    if trace.incomplete and proto.horizon is None:
        note = f"stopped at the cap {trace.max_steps} with {len(trace.delivery)} of {n} labels"
        if not set(trace.delivery) <= set(range(n)):
            problems.append("delivered labels outside 0..n-1")
    else:
        if trace.incomplete:
            problems.append("incomplete")
        if set(trace.delivery) != set(range(n)):
            problems.append(f"delivered {len(trace.delivery)} of {n} labels")
    if proto.horizon is not None and done is not None and done > proto.horizon:
        problems.append(f"completion {done} above horizon {proto.horizon}")
    summary = (trace.delivery, done, trace.collisions_total, trace.steps_executed)
    return trace, Outcome(f"{label} {proto.name} {mode.value}", tuple(problems), summary,
                          trace.steps_executed if done is None else done, note)


def _gather_job(ops, label, tree, proto, mode, seed):
    return [gather(ops, label, tree, proto, mode, seed)[1]]


def _gather_jobs(ops, label, tree, configs, seed):
    return [functools.partial(_gather_job, ops, label, tree, proto, mode, seed)
            for proto, mode in configs]


def run_pass(jobs):
    """Run every job once, in order; return all their Outcomes."""
    return [o for job in jobs for o in job()]


# ---------------------------------------------------------------------------
# ladder: protocol act() and inbox absorption dominate

LADDER_N = 256


def ladder_setup(ops, seed):
    tree = ops.tree("random", LADDER_N, seed)
    configs = [(ops.protocol(name, LADDER_N, mode), mode)
               for name, mode in (("unb1", FULL), ("unb2", FULL), ("bnd", FULL), ("bnd", HALF))]
    return {"seed": seed, "tree": tree, "configs": configs}


def ladder_jobs(ops, inp):
    return _gather_jobs(ops, f"random n={LADDER_N}", inp["tree"], inp["configs"], inp["seed"])


# ---------------------------------------------------------------------------
# sparse-fire: trivial messages, so the wake heap, skipping and the
# collision resolver decide the time


SPARSE_RANDOM_N = 256
SPARSE_RANDOM_TREES = 4  # the work of one random tree varies with its seed by about 7%
SPARSE_CHAIN_N = 128
SPARSE_SMALL = ("mls", "rtree", "rr-unb", "rr-bnd")


def sparse_setup(ops, seed):
    n = SPARSE_RANDOM_N
    configs = [(ops.protocol(name, n, mode), mode) for name in ("mls", "rtree") for mode in BOTH]
    groups = [(f"random n={n} tree {k}", ops.tree("random", n, seed * SPARSE_RANDOM_TREES + k),
               configs)
              for k in range(SPARSE_RANDOM_TREES)]
    n = SPARSE_CHAIN_N
    for family in ("path", "caterpillar"):
        groups.append((f"{family} n={n}", ops.tree(family, n, seed),
                       [(ops.protocol(name, n, FULL), FULL) for name in SPARSE_SMALL]))
    return {"seed": seed, "groups": groups}


def sparse_jobs(ops, inp):
    return [job for label, tree, configs in inp["groups"]
            for job in _gather_jobs(ops, label, tree, configs, inp["seed"])]


# ---------------------------------------------------------------------------
# trace-roundtrip: step recording and JSONL serialization dominate


ROUNDTRIP_N = 128


def roundtrip_setup(ops, seed):
    tree = ops.tree("random", ROUNDTRIP_N, seed)
    configs = [(ops.protocol(name, ROUNDTRIP_N, mode), mode)
               for name in PROTOCOL_NAMES for mode in BOTH]
    return {"seed": seed, "tree": tree, "configs": configs}


def _roundtrip_job(ops, tree, proto, mode, seed):
    trace, res = gather(ops, f"random n={tree.n}", tree, proto, mode, seed, record_steps=True)
    data = ops.dump(trace)
    again = ops.dump(ops.load(data))
    problems = res.problems
    if again != data:
        problems += ("JSONL round trip is not byte-identical",)
    return [dataclasses.replace(res, problems=problems, summary=res.summary + (len(data),))]


def roundtrip_jobs(ops, inp):
    return [functools.partial(_roundtrip_job, ops, inp["tree"], proto, mode, inp["seed"])
            for proto, mode in inp["configs"]]


# ---------------------------------------------------------------------------
# lower-bound: selective families, dispersers, schedule extraction,
# witness search and star statistics; the engine does almost nothing


FAMILY_SIZES = (64, 80, 100)  # k = 3: the random-construction regime
DISPERSER_PRIMES = tuple(p for p in range(2, 32) if all(p % q for q in range(2, p)))
KILL_CAP = {FULL: 2, HALF: 4}
WITNESS_N = 16
WITNESS_SCHEDULES = 100
STAR_TRIALS = 500
IID_N = 64
SCHEDULE_N = 128


def lower_bound_setup(ops, seed):
    return {"seed": seed, "mls": [ops.protocol("mls", SCHEDULE_N, mode) for mode in BOTH]}


def _family(ops, n, seed):
    fam, retries = ops.selective_family(n, 3, seed)
    problems = () if ops.check_family(fam) else ("family not strongly 3-selective",)
    return [Outcome(f"selective family n={n} k=3", problems, (fam.m, retries), 0)]


def _dispersers(ops):
    out = []
    for p in DISPERSER_PRIMES:
        for mode in BOTH:
            d = ops.disperser(p * p, mode)
            cap = KILL_CAP[mode]
            problems = () if ops.check_disperser(d, cap) else (f"pairwise cap {cap} broken",)
            out.append(Outcome(f"disperser n={p * p} {mode.value}", problems,
                               (d.p, d.m, d.s), 0))
    return out


def _batch_schedule(ops, proto):
    sched = ops.extract(proto)
    w = ops.witness(sched)
    problems = () if w is None else (f"witness against mls, victim {w.victim}",)
    return [Outcome(f"mls n={proto.n} {proto.mode.value} schedule", problems,
                    (sched.T, sched.fires), sched.T)]


def _random_schedules(ops, seed):
    """Single-firing schedules: the earliest firer can always be
    blocked, so each must yield a witness, which is re-run here."""
    rng = np.random.default_rng([seed, WITNESS_N])
    out = []
    for i in range(WITNESS_SCHEDULES):
        fires = rng.integers(0, WITNESS_N, size=WITNESS_N)
        sched = FiringSchedule(n=WITNESS_N, T=WITNESS_N,
                               fires=tuple((int(f),) for f in fires))
        w = ops.witness(sched)
        if w is None:
            out.append(Outcome(f"single-firing schedule {i}", ("no witness found",), (None,), 0))
            continue
        trace = ops.run(w.tree, schedule_protocol(sched, n_total=w.tree.n), FULL,
                        max_steps=sched.T + 2 * sched.n, stop_early=False)
        problems = () if w.victim not in trace.delivery else (
            f"victim {w.victim} delivered on its witness tree",)
        out.append(Outcome(f"single-firing schedule {i}", problems,
                           (w.victim, w.offsets, trace.delivery), trace.steps_executed))
    return out


def _star(ops, seed):
    hi = ops.interval(3.2, 256, STAR_TRIALS, seed)
    lo = ops.interval(0.5, 256, STAR_TRIALS, seed + 1)
    out = [Outcome("interval scheme c=3.2 vs 0.5",
                   () if hi - lo >= 0.5 else (f"all-success gap {hi - lo:.3f} below 0.5",),
                   (hi, lo), 0)]
    # firing alone has probability about 1/(e n) per step: 4 e n ln n
    # steps all but guarantee every player a solo slot, e n steps do not
    n = IID_N
    p = 1 / n
    long_h = math.ceil(4 * math.e * n * math.log(n))
    short_h = math.ceil(math.e * n)
    hi = ops.iid(p, long_h, n, STAR_TRIALS // 5, seed)
    lo = ops.iid(p, short_h, n, STAR_TRIALS // 5, seed + 1)
    out.append(Outcome("iid firing long vs short horizon",
                       () if hi - lo >= 0.5 else (f"all-success gap {hi - lo:.3f} below 0.5",),
                       (hi, lo), 0))
    return out


def lower_bound_jobs(ops, inp):
    seed = inp["seed"]
    part = functools.partial
    return ([part(_family, ops, n, seed) for n in FAMILY_SIZES]
            + [part(_dispersers, ops)]
            + [part(_batch_schedule, ops, proto) for proto in inp["mls"]]
            + [part(_random_schedules, ops, seed), part(_star, ops, seed)])


# ---------------------------------------------------------------------------
# gathering: the three parts above, one after the other

GATHERING_PARTS = (
    (ladder_setup, ladder_jobs),
    (sparse_setup, sparse_jobs),
    (roundtrip_setup, roundtrip_jobs),
)


def gathering_setup(ops, seed):
    return [setup(ops, seed) for setup, _ in GATHERING_PARTS]


def gathering_jobs(ops, inputs):
    return [job for (_, jobs), inp in zip(GATHERING_PARTS, inputs, strict=True)
            for job in jobs(ops, inp)]


WORKLOADS = {
    "gathering": (gathering_setup, gathering_jobs),
    "lower-bound": (lower_bound_setup, lower_bound_jobs),
    "ladder": (ladder_setup, ladder_jobs),
    "sparse-fire": (sparse_setup, sparse_jobs),
    "trace-roundtrip": (roundtrip_setup, roundtrip_jobs),
}
