"""The wake-skipping engine against a dense reference.

dense_run() calls every non-root node at every step and resolves each
slot with the pure channel op engine.step(), so it shares no scheduling
code with engine.run().  It does share the collision resolver, which
step() and run() both call; the rule itself is pinned by step()'s unit
tests in test_engine.py.  Alongside, it keeps the step at which run()
would next wake each node (its sleep promise, pulled forward to t+1 by
a reception at t) and asserts that the node returns None at every step
before it.  A broken promise then fails at the node that made it,
rather than showing up later as a trace difference.  The relay promise
of a class that sets forwards is checked the same way: a node that
hears m at t while its due step is past t+1 must return m itself at
t+1 and leave asleep_until as it was.  So is the first half of a
standing offer: once a state sets standing = (m, first, stop, period),
act() must return that very m at every beat first + k*period < stop.
The other half, that a parent hearing a repeat learns nothing new, is
not checked at the node; only trace comparisons cover it (test_engine's
bare against hidden-offer runs).

run() records only the steps with a transmitter, so its records are
compared with the dense steps that have one, and every other dense step
must be silent.
"""
import dataclasses

import numpy as np
import pytest

from radio_gather.engine import DuplexMode, FireAndForward, NodeView, Unbounded, run, step
from radio_gather.protocols import PROTOCOL_NAMES, make_protocol, step_cap
from radio_gather.trees import FAMILIES, build_tree, from_family
from radio_gather.verify import FiringSchedule, schedule_protocol

from test_engine import BEACON, Beacon

SIZES = (2, 16, 48)
SEED = 3


def dense_run(tree, proto, mode, max_steps, seed):
    """Return (per-step (transmitters, receptions, collisions), delivery,
    completion step) with every node acting at every step."""
    n, root = tree.n, tree.root
    states, views = [], []
    for v in range(n):
        rng = np.random.default_rng([seed, v]) if proto.needs_rng else None
        states.append(proto.state_factory(tree.label[v], n, mode, rng))
        views.append(NodeView(tree.label[v], n))
    due = [max(s.asleep_until, 0) for s in states]
    relayed = {}  # node -> (message heard at t, asleep_until then), checked at t+1
    offers = {}  # node -> the last standing offer it made
    delivery = {tree.label[root]: 0}
    completion = 0 if n == 1 else None
    records = []
    for t in range(max_steps):
        if completion is not None:
            break
        actions = {}
        for v in range(n):
            if v == root:
                continue
            views[v].time = t
            msg = states[v].act(views[v])
            if v in relayed:
                heard, slept = relayed.pop(v)
                assert msg is heard and states[v].asleep_until == slept, (
                    f"{proto.name}: label {tree.label[v]} did not just forward "
                    f"at step {t} what it heard at step {t - 1}"
                )
            offer = states[v].standing
            if offer is not None:
                offers[v] = offer
            if v in offers:
                m, first, stop, period = offers[v]
                if first <= t < stop and (t - first) % period == 0:
                    assert msg is m, (
                        f"{proto.name}: label {tree.label[v]} did not send its "
                        f"standing message at beat {t}"
                    )
            if t < due[v]:
                assert msg is None, (
                    f"{proto.name}: label {tree.label[v]} transmitted at step {t} "
                    f"inside its sleep promise until {due[v]}"
                )
            else:
                due[v] = max(states[v].asleep_until, t + 1)
            if msg is not None:
                actions[v] = msg
        receptions, collided = step(tree, mode, actions)
        for p, msg in receptions.items():
            views[p].inbox.append((t, msg))
            if p != root and due[p] > t + 1 and type(states[p]).forwards:
                relayed[p] = (msg, states[p].asleep_until)
            due[p] = min(due[p], t + 1)
            if p == root:
                if isinstance(msg, Unbounded):
                    rumors = [r for r in range(n) if msg.mask >> r & 1]
                else:
                    rumors = [msg.rumor]
                for r in rumors:
                    delivery.setdefault(r, t)
                if len(delivery) == n:
                    completion = max(delivery.values())
        records.append((tuple(sorted(actions)), receptions, tuple(sorted(collided))))
    return records, delivery, completion


def assert_matches_dense(tree, proto, mode, cap, seed, where):
    trace = run(tree, proto, mode, max_steps=cap, seed=seed, record_steps=True)
    records, delivery, completion = dense_run(tree, proto, mode, cap, seed)
    got = [(rec.step, rec.transmitters, rec.receptions, rec.collisions) for rec in trace.steps]
    # run() may stop early once every node sleeps forever; the dense
    # loop must find nothing but silence after that
    assert got == [(t, *r) for t, r in enumerate(records) if r[0]], where
    assert all(not rx and not col for tx, rx, col in records if not tx), where
    assert trace.steps_executed <= len(records), where
    assert trace.delivery == delivery, where
    assert trace.completion_step == completion, where
    assert trace.collisions_total == sum(len(c) for _, _, c in records), where


@pytest.mark.parametrize("mode", list(DuplexMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_run_matches_dense_reference(name, mode):
    for family in FAMILIES:
        for n in SIZES:
            tree = from_family(family, n, seed=SEED)
            proto = make_protocol(name, n, mode)
            where = f"{name} {mode.value} {family} n={n}"
            assert_matches_dense(tree, proto, mode, step_cap(proto), SEED, where)


def random_schedule(n, seed):
    """Each label fires at one to five random steps below T = 4n, so
    fires crowd the steps and meet carried forwards and each other."""
    rng = np.random.default_rng([seed, n])
    T = 4 * n
    fires = tuple(tuple(rng.integers(0, T, size=rng.integers(1, 6)).tolist()) for _ in range(n))
    return FiringSchedule(n=n, T=T, fires=fires)


@pytest.mark.parametrize("mode", list(DuplexMode), ids=lambda m: m.value)
def test_firing_schedules_match_dense_reference(mode):
    for family in FAMILIES:
        for n in (16, 48):
            tree = from_family(family, n, seed=SEED)
            for seed in range(4):
                sched = random_schedule(n, seed)
                where = f"schedule {seed} {mode.value} {family} n={n}"
                assert_matches_dense(tree, schedule_protocol(sched), mode,
                                     sched.T + 2 * n, SEED, where)


BEACON_TREES = [build_tree([0, 0, 1, 1, 0, 4, 4, 4], labels=range(8))] + [
    from_family(family, 16, seed=SEED) for family in FAMILIES
]


@pytest.mark.parametrize("mode", list(DuplexMode), ids=lambda m: m.value)
def test_beacons_match_dense_reference(mode):
    for tree in BEACON_TREES:
        assert_matches_dense(tree, BEACON, mode, 80, SEED, f"beacon n={tree.n}")


class CopyingBeacon(Beacon):
    """Sends an equal copy of its message on the repeats it offered."""

    def act(self, view):
        msg = super().act(view)
        if msg is not None and view.time > self.first:
            msg = FireAndForward(msg.rumor)
        return msg


def test_dense_reference_checks_the_standing_message_at_the_node():
    tree = BEACON_TREES[0]
    proto = dataclasses.replace(BEACON, state_factory=lambda label, n, mode, rng: CopyingBeacon(label))
    with pytest.raises(AssertionError, match="standing message"):
        dense_run(tree, proto, DuplexMode.FULL, 80, SEED)
