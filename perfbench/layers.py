"""Calls from the benchmark into the package, plain and traced.

A workload reaches radio_gather only through an Ops object.  Ops makes
each call directly; TracedOps makes the same call and records, from
outside the package, how long it took and how much work it did, keyed
by the per-layer metric names of BENCHMARK.json.  Both return the
package's own results, so a workload cannot tell which one it has.

Importing this module imports radio_gather, so the set-up probe in
run.py imports it inside its timed region.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import time
from collections import defaultdict

# cli is not called here; importing it puts its cost inside setup_s
from radio_gather import cli, engine, protocols, selectors, trees, verify  # noqa: F401
from radio_gather.engine import ProtocolState

perf_counter = time.perf_counter


class Ops:
    """The package calls every workload makes, made directly."""

    def tree(self, family, n, seed):
        return trees.from_family(family, n, seed=seed)

    def protocol(self, name, n, mode):
        return protocols.make_protocol(name, n, mode)

    def run(self, tree, proto, mode, *, max_steps, seed=0, stop_early=True,
            record_steps=False):
        return engine.run(tree, proto, mode, max_steps=max_steps, seed=seed,
                          stop_early=stop_early, record_steps=record_steps)

    def dump(self, trace):
        return trace.to_jsonl_bytes()

    def load(self, data):
        return engine.Trace.from_jsonl_lines(io.BytesIO(data))

    def selective_family(self, n, k, seed):
        return selectors.build_verified_selective_family(n, k, seed=seed)

    def check_family(self, fam):
        return selectors.verify_selective_family(fam)

    def disperser(self, n, mode):
        return selectors.build_disperser(n, mode)

    def check_disperser(self, d, kill_cap):
        return selectors.verify_disperser_pairwise(d, kill_cap)

    def extract(self, proto):
        return verify.extract_schedule(proto)

    def witness(self, sched):
        return verify.find_caterpillar_witness(sched)

    def interval(self, c, n, trials, seed):
        return verify.interval_all_success(verify.IntervalScheme(c), n, trials, seed=seed)

    def iid(self, p, horizon, n, trials, seed):
        return verify.iid_all_success(p, horizon, n, trials, seed=seed)


@dataclasses.dataclass
class ActCounts:
    """What the proxy states saw: act() calls, transmissions, time
    inside act(), and distinct clock values at which something acted."""

    acts: int = 0
    tx: int = 0
    act_s: float = 0.0
    active_steps: int = 0
    last_t: int = -1


class TimedState(ProtocolState):
    """Proxy around a protocol state: times and counts act() and
    forwards the sleep promise the engine schedules by."""

    __slots__ = ("_inner", "_counts")

    def __init__(self, inner, counts: ActCounts):
        self._inner = inner
        self._counts = counts

    @property
    def asleep_until(self):
        return self._inner.asleep_until

    def act(self, view):
        c = self._counts
        if view.time != c.last_t:
            c.last_t = view.time
            c.active_steps += 1
        t0 = perf_counter()
        out = self._inner.act(view)
        c.act_s += perf_counter() - t0
        c.acts += 1
        if out is not None:
            c.tx += 1
        return out


def timed_protocol(proto, counts: ActCounts):
    factory = proto.state_factory

    def timed_factory(label, n, mode, rng):
        return TimedState(factory(label, n, mode, rng), counts)

    return dataclasses.replace(proto, state_factory=timed_factory)


class TracedOps(Ops):
    """Ops that also time each call and count the work behind it.

    Protocol states act through TimedState.  Acts inside engine.run go
    to `acts`; acts inside extract_schedule's replays go to
    `replay_acts`.  Construction that make_protocol and
    build_verified_selective_family do inside the package is timed by
    swapping the selectors functions they look up for timed ones for
    the length of the call.
    """

    def __init__(self):
        self.t = defaultdict(float)
        self.c = defaultdict(int)
        self.acts = ActCounts()
        self.replay_acts = ActCounts()

    @contextlib.contextmanager
    def _span(self, key):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.t[key] += perf_counter() - t0

    @contextlib.contextmanager
    def _timed_globals(self, module, names, key):
        saved = {name: getattr(module, name) for name in names}

        def timed(fn):
            def call(*args, **kwargs):
                with self._span(key):
                    return fn(*args, **kwargs)
            return call

        for name, fn in saved.items():
            setattr(module, name, timed(fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def tree(self, family, n, seed):
        with self._span("trees.gen_s"):
            return super().tree(family, n, seed)

    def protocol(self, name, n, mode):
        with self._timed_globals(
            protocols,
            ("build_selective_family", "singleton_family", "build_disperser"),
            "selectors.build_s",
        ):
            proto = super().protocol(name, n, mode)
        if proto.name == "unb2":
            self.c["selectors.family_m"] += proto.family.m
        return proto

    def _timed_run(self, counts, tree, proto, mode, **kwargs):
        t0 = perf_counter()
        trace = super().run(tree, timed_protocol(proto, counts), mode, **kwargs)
        return trace, perf_counter() - t0

    def run(self, tree, proto, mode, *, record_steps=False, **kwargs):
        c = self.acts
        c.last_t = -1
        act_s0 = c.act_s
        trace, dt = self._timed_run(c, tree, proto, mode,
                                    record_steps=record_steps, **kwargs)
        self.t["engine.run_s"] += dt
        self.t["engine.loop_s"] += dt - (c.act_s - act_s0)
        self.c["engine.steps"] += trace.steps_executed
        self.c["engine.collisions"] += trace.collisions_total
        if record_steps:
            # the same run without recording, on throwaway counters, so
            # the proxy's cost cancels out of the difference
            _, plain = self._timed_run(ActCounts(), tree, proto, mode, **kwargs)
            self.t["engine.record_s"] += dt - plain
        return trace

    def dump(self, trace):
        with self._span("engine.dump_s"):
            return super().dump(trace)

    def load(self, data):
        self.c["engine.trace_bytes"] += len(data)
        with self._span("engine.load_s"):
            return super().load(data)

    def selective_family(self, n, k, seed):
        verify_s0 = self.t["selectors.verify_s"]
        t0 = perf_counter()
        with self._timed_globals(selectors, ("verify_selective_family",),
                                 "selectors.verify_s"):
            out = super().selective_family(n, k, seed)
        inner_verify = self.t["selectors.verify_s"] - verify_s0
        self.t["selectors.build_s"] += perf_counter() - t0 - inner_verify
        return out

    def check_family(self, fam):
        with self._span("selectors.verify_s"):
            return super().check_family(fam)

    def disperser(self, n, mode):
        with self._span("selectors.build_s"):
            return super().disperser(n, mode)

    def check_disperser(self, d, kill_cap):
        with self._span("selectors.verify_s"):
            return super().check_disperser(d, kill_cap)

    def extract(self, proto):
        with self._span("verify.extract_s"):
            return super().extract(timed_protocol(proto, self.replay_acts))

    def witness(self, sched):
        with self._span("verify.witness_s"):
            w = super().witness(sched)
        self.c["verify.witnesses"] += w is not None
        return w

    def interval(self, c, n, trials, seed):
        with self._span("verify.star_s"):
            return super().interval(c, n, trials, seed)

    def iid(self, p, horizon, n, trials, seed):
        with self._span("verify.star_s"):
            return super().iid(p, horizon, n, trials, seed)

    def counters(self) -> dict[str, int]:
        """The machine-independent counts, which repeat exactly."""
        a = self.acts
        return {
            "protocols.acts": a.acts,
            "protocols.tx": a.tx,
            "engine.steps": self.c["engine.steps"],
            "engine.active_steps": a.active_steps,
            "engine.collisions": self.c["engine.collisions"],
            "selectors.family_m": self.c["selectors.family_m"],
            "verify.replay_acts": self.replay_acts.acts,
            "verify.witnesses": self.c["verify.witnesses"],
        }

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except bench.trace_overhead_frac."""
        a = self.acts
        t = self.t
        steps = self.c["engine.steps"]
        out = dict(self.counters())
        out.update({
            "protocols.tx_per_act": a.tx / a.acts if a.acts else 0.0,
            "protocols.act_s": a.act_s,
            "protocols.act_ns": a.act_s / a.acts * 1e9 if a.acts else 0.0,
            "engine.run_s": t["engine.run_s"],
            "engine.loop_s": t["engine.loop_s"],
            "engine.loop_ns_per_act": t["engine.loop_s"] / a.acts * 1e9 if a.acts else 0.0,
            "engine.skip_frac": 1 - a.active_steps / steps if steps else 0.0,
            "engine.record_s": t["engine.record_s"],
            "engine.dump_s": t["engine.dump_s"],
            "engine.load_s": t["engine.load_s"],
            "engine.trace_mb": self.c["engine.trace_bytes"] / 1e6,
            "selectors.build_s": t["selectors.build_s"],
            "selectors.verify_s": t["selectors.verify_s"],
            "verify.extract_s": t["verify.extract_s"],
            "verify.witness_s": t["verify.witness_s"],
            "verify.star_s": t["verify.star_s"],
            "trees.gen_s": t["trees.gen_s"],
        })
        return out
