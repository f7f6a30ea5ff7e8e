"""Synchronous collision channel on a rooted tree.

Time advances in discrete steps.  In each step every node either
transmits one message toward its parent or stays silent; a node
receives a message exactly when exactly one of its children
transmitted.  Two or more transmitting children collide and the parent
hears nothing, indistinguishable from silence.  Under half duplex a
node that transmits also hears nothing that step.  step() and run()
resolve every slot through the one copy of this rule, _resolve().

Protocol logic is supplied per node as a ProtocolState whose act()
sees only the node's own label, the clock, and its reception history.
The engine never leaks topology to a state, and the root never
transmits: its state is instantiated but never scheduled.

run() avoids touching nodes that have declared themselves idle.  A
state's asleep_until attribute is a promise that, absent new
receptions, act() returns None for every step strictly before it; a
reception at step t voids the promise starting at step t+1.  The
promise does not cover standing beats the engine has taken over
(below).  The engine keeps a step-keyed wake queue over these promises
(a dict from step to the nodes due then, plus a heap of its distinct
steps) and skips provably silent stretches of the clock.

A state may also offer its standing beats (ProtocolState.standing).
run() accepts by calling stand() and then sends those beats itself
from a roster keyed by period and residue, without calling act(),
until the node's last beat.  Each slot is still resolved over every
transmitter, so records and observers see every beat; but a parent
hearing again the standing message it last got is neither woken nor
sent it, since it already holds it.

A state class may also promise to relay (ProtocolState.forwards): a
node that hears m at step t while its sleep promise runs past t+1 sends
that very m at t+1 and nothing else about it changes.  run() then neither
wakes the node nor fills its inbox; it carries m into step t+1's
transmitters itself.  A node whose own wake falls at t+1 is woken as
usual, so act() decides between its fire and the arrival.  The root's
receptions only update delivery; its inbox stays empty.
"""
from __future__ import annotations

import dataclasses
import heapq
from typing import Any, Callable, Mapping

import numpy as np

from .messages import Bounded, DuplexMode, FireAndForward, Message, Unbounded, mask_bits  # noqa: F401
from .trace import LABEL_LIMIT, READ_SCHEMAS, TRACE_SCHEMA, StepRecord, Trace  # noqa: F401
from .trace import message_from_json, message_to_json  # noqa: F401
from .trees import Tree

# asleep_until value meaning "only a reception can make me act again"
SLEEP_FOREVER = 1 << 62


class ProtocolViolatedMessageBound(TypeError):
    """A state returned a message outside its protocol's declared kind."""


class NodeView:
    """Everything a state may legally look at.

    inbox holds (arrival step, message) pairs in arrival order and is
    append-only; states keep their own cursor into it.  It leaves out
    the relay hops run() sends itself (ProtocolState.forwards).
    """

    __slots__ = ("label", "n", "time", "inbox")

    def __init__(self, label: int, n: int):
        self.label = label
        self.n = n
        self.time = 0
        self.inbox: list[tuple[int, Message]] = []


class ProtocolState:
    """Per-node decision logic; subclasses implement act().

    act() must be a pure function of the view contents: same label,
    same clock, same inbox must produce the same output regardless of
    which tree the node sits in.

    standing, set after a transmission, offers its repeats: (message,
    first, stop, period) promises that at each step first + k*period <
    stop act() returns this very message and changes nothing else, and
    that a parent hearing it again learns nothing new.  Such a class
    defines stand(); only once a caller calls it does asleep_until skip
    those steps.

    forwards, set on a class, promises that a node which hears message
    m at step t while its sleep promise runs past t + 1 returns that
    very m from act() at t + 1 and changes nothing else: no other state
    moves, asleep_until included.  run() then sends the forward itself
    and never calls act() for it, so the inbox never holds m either.
    """

    asleep_until: int = 0
    standing: tuple[Message, int, int, int] | None = None
    forwards: bool = False

    def act(self, view: NodeView) -> Message | None:
        raise NotImplementedError


# factory signature: (label, n, mode, rng) -> ProtocolState
StateFactory = Callable[[int, int, DuplexMode, Any], ProtocolState]


@dataclasses.dataclass(frozen=True)
class Protocol:
    """A state factory plus the message discipline the engine enforces.

    n and mode record what the factory was built for (selector family,
    disperser and phase layout all depend on them); run() refuses a
    mismatched tree or duplex setting.  horizon, when set, is a step
    count by which the protocol is guaranteed to finish.  family and
    disperser are opaque construction metadata for callers that want
    to inspect or dump them.
    """

    name: str
    message_kind: type
    state_factory: StateFactory
    n: int | None = None
    mode: DuplexMode | None = None
    needs_rng: bool = False
    horizon: int | None = None
    family: Any = None
    disperser: Any = None


def _resolve(
    parent: list[int], half: bool, transmitters: Mapping[int, Message]
) -> tuple[dict[int, Message], set[int]]:
    """The collision rule, shared by step() and run().

    transmitters maps each transmitting node to its message.  Returns
    the nodes that hear exactly one child, with what they hear, and the
    nodes where two or more children collide.  A root's transmission
    (its own parent) goes nowhere, but under half duplex it still
    deafens the root.
    """
    first: dict[int, Message] = {}
    collided: set[int] = set()
    for v, msg in transmitters.items():
        p = parent[v]
        if p == v or p in collided:
            continue
        if p in first:
            del first[p]
            collided.add(p)
        else:
            first[p] = msg
    if half:
        for p in first.keys() & transmitters.keys():
            del first[p]
    return first, collided


def step(
    tree: Tree,
    mode: DuplexMode,
    actions: Mapping[int, Message | None],
) -> tuple[dict[int, Message], frozenset[int]]:
    """Resolve one synchronous slot of the channel.

    actions maps node id to the message it transmits (missing or None
    means silent).  Returns (receptions, collided): node id to the one
    message it heard, and the set of nodes where two or more children
    transmitted.  Collided nodes receive nothing, and under half
    duplex a transmitting node receives nothing either.
    """
    transmitters = {v: msg for v, msg in actions.items() if msg is not None}
    first, collided = _resolve(tree.parent, mode is DuplexMode.HALF, transmitters)
    return first, frozenset(collided)


Observer = Callable[
    [int, list[ProtocolState], dict[int, Message], dict[int, Message], frozenset[int]],
    None,
]


def run(
    tree: Tree,
    protocol: Protocol,
    mode: DuplexMode,
    *,
    max_steps: int,
    seed: int = 0,
    stop_early: bool = True,
    record_steps: bool = False,
    observer: Observer | None = None,
) -> Trace:
    """Simulate protocol on tree for at most max_steps steps.

    stop_early=False keeps the clock running after the last rumor
    arrives, which matters for schedule-shape inspection.  Randomized
    protocols draw per-node streams seeded with (seed, node id), so a
    node's coin flips do not depend on its label.  observer, when
    given, is called once per step as observer(t, states, transmitters,
    receptions, collided) and disables silent-stretch skipping.

    The run ends early, regardless of flags, once every state sleeps
    forever: each remaining step would be provably identical silence.
    """
    n = tree.n
    if protocol.n is not None and protocol.n != n:
        raise ValueError(f"protocol built for n={protocol.n}, tree has n={n}")
    if protocol.mode is not None and protocol.mode is not mode:
        raise ValueError(
            f"protocol built for {protocol.mode.value} duplex, asked to run {mode.value}"
        )
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")

    factory = protocol.state_factory
    mkind = protocol.message_kind
    states: list[ProtocolState] = []
    views: list[NodeView] = []
    for v in range(n):
        rng = np.random.default_rng([seed, v]) if protocol.needs_rng else None
        states.append(factory(tree.label[v], n, mode, rng))
        views.append(NodeView(tree.label[v], n))

    root = tree.root
    parent = tree.parent
    half = mode is DuplexMode.HALF
    delivery: dict[int, int] = {tree.label[root]: 0}
    got = 1 << tree.label[root]  # delivered rumors as a mask, kept for Unbounded
    completion: int | None = 0 if n == 1 else None
    collisions_total = 0
    recorded: list[StepRecord] | None = [] if record_steps else None

    # wake[v] is the step v is due to act; -1 while it is acting.  The
    # queue maps a step to the nodes filed under it; an entry whose step
    # no longer matches wake[v] is stale and is dropped when its step
    # comes up.  due is a heap of the queue's keys.
    wake = [0] * n
    queue: dict[int, list[int]] = {}
    # Standing beats: roster maps (period, residue) to {node: message};
    # stops heaps (last beat, node, roster key); offered keeps accepted
    # messages alive, so their id()s stay unique; heard[p] is the last
    # standing message p got.  A repeat does not wake p, but a stepwise
    # run would still have run step hold = t + 1 for it, silently.
    stands = any(hasattr(cls, "stand") for cls in {type(s) for s in states})
    roster: dict[tuple[int, int], dict[int, Message]] = {}
    stops: list[tuple[int, int, tuple[int, int]]] = []
    offered: dict[int, Message] = {}
    heard: dict[int, Message] = {}
    hold = -1
    # Relays: carry maps each node whose forward the engine sends at the
    # next step to the message it heard (ProtocolState.forwards).
    carry: dict[int, Message] = {}
    for v in range(n):
        if v == root:
            continue
        w = states[v].asleep_until
        if w < 0:
            w = 0
        wake[v] = w
        if w < max_steps:
            queue.setdefault(w, []).append(v)
    due = list(queue)
    heapq.heapify(due)
    heappush, heappop = heapq.heappush, heapq.heappop

    t = 0
    while t < max_steps and not (stop_early and completion is not None):
        if carry:
            nxt = t
        elif roster:
            nxt = min(t + (res - t) % period for period, res in roster)
            if due and due[0] < nxt:
                nxt = due[0]
        elif due:
            nxt = due[0]
        elif hold == t:
            nxt = t
        else:
            break
        if nxt > t and observer is None:
            # nobody acts before nxt, so nothing can be received either
            t = min(nxt, max_steps)
            continue

        awake: list[int] = []
        while due and due[0] <= t:
            wt = heappop(due)
            for v in queue.pop(wt):
                if wake[v] == wt:
                    wake[v] = -1  # claimed for this step; stale entries miss
                    awake.append(v)
        awake.sort()

        transmitters, carry = carry, {}
        for v in awake:
            view = views[v]
            view.time = t
            state = states[v]
            action = state.act(view)
            if action is not None:
                if type(action) is not mkind:
                    raise ProtocolViolatedMessageBound(
                        f"{protocol.name} declares {mkind.__name__} messages, "
                        f"node {v} returned {type(action).__name__}"
                    )
                transmitters[v] = action
                if stands and state.standing is not None:
                    msg, first, stop, period = state.standing
                    state.stand()
                    offered[id(msg)] = msg
                    last = stop - 1 - (stop - 1 - first) % period
                    key = (period, first % period)
                    roster.setdefault(key, {})[v] = msg
                    heappush(stops, (last, v, key))
            na = state.asleep_until
            if na <= t:
                na = t + 1
            wake[v] = na
            if na < max_steps:
                bucket = queue.get(na)
                if bucket is None:
                    queue[na] = [v]
                    heappush(due, na)
                else:
                    bucket.append(v)
        if roster:
            for (period, res), group in roster.items():
                if t % period == res:
                    transmitters.update(group)
            while stops and stops[0][0] <= t:
                _, v, key = heappop(stops)
                group = roster[key]
                del group[v]
                if not group:
                    del roster[key]

        receptions, collided = _resolve(parent, half, transmitters)
        for p, msg in receptions.items():
            if stands:
                if heard.get(p) is msg:
                    if p != root:
                        hold = t + 1
                    continue
                if id(msg) in offered:
                    heard[p] = msg
            if p == root:
                if mkind is Unbounded:
                    for r in mask_bits(msg.mask & ~got):
                        delivery[r] = t
                    got |= msg.mask
                else:
                    delivery.setdefault(msg.rumor, t)
                if completion is None and len(delivery) == n:
                    completion = max(delivery.values())
                continue
            if wake[p] > t + 1:
                if states[p].forwards:
                    carry[p] = msg
                    continue
                wake[p] = t + 1
                if t + 1 < max_steps:
                    bucket = queue.get(t + 1)
                    if bucket is None:
                        queue[t + 1] = [p]
                        heappush(due, t + 1)
                    else:
                        bucket.append(p)
            views[p].inbox.append((t, msg))

        collisions_total += len(collided)
        if recorded is not None and transmitters:
            recorded.append(
                StepRecord(t, tuple(sorted(transmitters)), receptions, tuple(sorted(collided)))
            )
        if observer is not None:
            observer(t, states, transmitters, receptions, frozenset(collided))
        t += 1

    return Trace(
        protocol=protocol.name,
        n=n,
        mode=mode,
        seed=seed,
        max_steps=max_steps,
        delivery=delivery,
        completion_step=completion,
        collisions_total=collisions_total,
        steps_executed=t,
        steps=recorded,
    )
