"""Synchronous collision channel on a rooted tree.

Time advances in discrete steps.  In each step every node either
transmits one message toward its parent or stays silent; a node
receives a message exactly when exactly one of its children
transmitted.  Two or more transmitting children collide and the parent
hears nothing, indistinguishable from silence.  Under half duplex a
node that transmits also hears nothing that step.

Protocol logic is supplied per node as a ProtocolState whose act()
sees only the node's own label, the clock, and its reception history.
The engine never leaks topology to a state, and the root never
transmits: its state is instantiated but never scheduled.

run() avoids touching nodes that have declared themselves idle.  A
state's asleep_until attribute is a promise that, absent new
receptions, act() returns None for every step strictly before it; a
reception at step t voids the promise starting at step t+1.  The
engine keeps a step-keyed wake queue over these promises (a dict from
step to the nodes due then, plus a heap of its distinct steps) and
skips provably silent stretches of the clock.
"""
from __future__ import annotations

import dataclasses
import heapq
import json
from enum import Enum
from typing import Any, Callable, IO, Mapping

import numpy as np

from .trees import Tree

TRACE_SCHEMA = "radio-gather-trace/1"

# asleep_until value meaning "only a reception can make me act again"
SLEEP_FOREVER = 1 << 62


class DuplexMode(Enum):
    """Whether a transmitting node can hear its children in the same step."""

    FULL = "full"
    HALF = "half"


class ProtocolViolatedMessageBound(TypeError):
    """A state returned a message outside its protocol's declared kind."""


@dataclasses.dataclass(frozen=True)
class Unbounded:
    """Arbitrarily large rumor set, plus an optional small key-value record."""

    rumors: frozenset[int]
    aux: tuple[tuple[str, int], ...] = ()


@dataclasses.dataclass(frozen=True)
class Bounded:
    """One rumor and O(log n) bits of bookkeeping."""

    rumor: int
    sender: int | None = None
    height2: int | None = None
    parity: int | None = None


@dataclasses.dataclass(frozen=True)
class FireAndForward:
    """One rumor and nothing else."""

    rumor: int


# Messages are immutable values.  The engine hands the very object a
# child transmitted to its parent's inbox, so a state may forward a
# received message by identity instead of building an equal copy.
Message = Unbounded | Bounded | FireAndForward


class NodeView:
    """Everything a state may legally look at.

    inbox holds (arrival step, message) pairs in arrival order and is
    append-only; states keep their own cursor into it.
    """

    __slots__ = ("label", "n", "time", "inbox", "own_rumor")

    def __init__(self, label: int, n: int):
        self.label = label
        self.n = n
        self.time = 0
        self.inbox: list[tuple[int, Message]] = []
        self.own_rumor = label


class ProtocolState:
    """Per-node decision logic; subclasses implement act().

    act() must be a pure function of the view contents: same label,
    same clock, same inbox must produce the same output regardless of
    which tree the node sits in.
    """

    asleep_until: int = 0

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
    first: dict[int, Message] = {}
    collided: set[int] = set()
    for v, msg in actions.items():
        if msg is None:
            continue
        p = tree.parent[v]
        if p == v:
            continue  # root has no out-edge
        if p in collided:
            continue
        if p in first:
            del first[p]
            collided.add(p)
        else:
            first[p] = msg
    if mode is DuplexMode.HALF:
        for p in list(first):
            if actions.get(p) is not None:
                del first[p]
    return first, frozenset(collided)


@dataclasses.dataclass(frozen=True)
class StepRecord:
    step: int
    transmitters: tuple[int, ...]
    receptions: dict[int, Message]
    collisions: tuple[int, ...]


@dataclasses.dataclass
class Trace:
    """Outcome of one run: delivery times plus optional per-step records.

    delivery maps rumor id to the first step the root heard it; the
    root's own rumor is delivered at step 0.  completion_step is the
    largest delivery time once all n rumors arrived, None otherwise.
    """

    protocol: str
    n: int
    mode: DuplexMode
    seed: int
    max_steps: int
    delivery: dict[int, int]
    completion_step: int | None
    incomplete: bool
    collisions_total: int
    steps_executed: int
    steps: list[StepRecord] | None = None

    def to_jsonl_bytes(self) -> bytes:
        """The trace as JSONL.  Header and summary go through the
        generic sorted-key encoder.  Step lines are formatted directly,
        byte for byte what that encoder makes of a dict per step with
        the receptions' messages as message_to_json gives them."""
        lines = [_dump_line(self._header())]
        if self.steps:
            lines.append(_step_lines(self.steps))
        lines.append(_dump_line(self._summary()))
        return b"".join(lines)

    def to_jsonl(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_jsonl_bytes())

    def _header(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "kind": "header",
            "protocol": self.protocol,
            "n": self.n,
            "mode": self.mode.value,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "recorded": self.steps is not None,
        }

    def _summary(self) -> dict:
        return {
            "kind": "summary",
            "delivery": {str(r): t for r, t in self.delivery.items()},
            "completion_step": self.completion_step,
            "incomplete": self.incomplete,
            "collisions_total": self.collisions_total,
            "steps_executed": self.steps_executed,
        }

    @classmethod
    def from_jsonl(cls, path: str) -> "Trace":
        with open(path, "rb") as fh:
            return cls.from_jsonl_lines(fh)

    @classmethod
    def from_jsonl_lines(cls, fh: IO[bytes]) -> "Trace":
        header = None
        summary = None
        steps: list[StepRecord] = []
        pre, suf = _SILENT_PREFIX, _SILENT_SUFFIX
        npre, nsuf = len(pre), -len(suf)
        for raw in fh:
            if raw[:npre] == pre and raw.endswith(suf):
                mid = raw[npre:nsuf]
                # digits without a leading zero: exactly what json.loads
                # reads as a nonnegative integer
                if mid.isdigit() and (mid[0] != 48 or len(mid) == 1):
                    steps.append(StepRecord(int(mid), (), {}, ()))
                    continue
            if not raw.strip():
                continue
            obj = json.loads(raw)
            kind = obj.get("kind")
            if kind == "header":
                if obj.get("schema") != TRACE_SCHEMA:
                    raise ValueError(f"unknown trace schema {obj.get('schema')!r}")
                header = obj
            elif kind == "step":
                steps.append(
                    StepRecord(
                        step=obj["step"],
                        transmitters=tuple(obj["transmitters"]),
                        receptions={
                            int(v): message_from_json(m)
                            for v, m in obj["receptions"].items()
                        },
                        collisions=tuple(obj["collisions"]),
                    )
                )
            elif kind == "summary":
                summary = obj
        if header is None or summary is None:
            raise ValueError("trace stream is missing its header or summary record")
        return cls(
            protocol=header["protocol"],
            n=header["n"],
            mode=DuplexMode(header["mode"]),
            seed=header["seed"],
            max_steps=header["max_steps"],
            delivery={int(r): t for r, t in summary["delivery"].items()},
            completion_step=summary["completion_step"],
            incomplete=summary["incomplete"],
            collisions_total=summary["collisions_total"],
            steps_executed=summary["steps_executed"],
            steps=steps if header["recorded"] else None,
        )


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dump_line(obj: dict) -> bytes:
    return (_ENCODER.encode(obj) + "\n").encode()


# A step line's keys in sorted order: collisions, kind, receptions,
# step, transmitters.  Silent steps differ only in their step number.
_STEP_LINE = '{"collisions":[%s],"kind":"step","receptions":{%s},"step":%d,"transmitters":[%s]}\n'
_SILENT_PREFIX = b'{"collisions":[],"kind":"step","receptions":{},"step":'
_SILENT_SUFFIX = b',"transmitters":[]}\n'
_SILENT_LINE = (_SILENT_PREFIX + b"%d" + _SILENT_SUFFIX).decode()


def _step_lines(steps: list[StepRecord]) -> bytes:
    """Every step line of a trace, formatted without the generic encoder.

    Reception keys are node ids sorted as strings, as sort_keys sorts
    them.  A message object that several receptions share (a forwarded
    message, a cached rumor set) is encoded once per call; keying that
    cache by id() is sound because steps keeps every message alive.
    """
    out: list[str] = []
    append = out.append
    encoded: dict[int, str] = {}
    for rec in steps:
        rx = rec.receptions
        if not rec.transmitters and not rx and not rec.collisions:
            append(_SILENT_LINE % rec.step)
            continue
        parts = []
        for v, m in sorted(rx.items(), key=_str_key):
            text = encoded.get(id(m))
            if text is None:
                text = encoded[id(m)] = _message_text(m)
            parts.append('"%s":%s' % (v, text))
        append(_STEP_LINE % (
            ",".join(map(str, rec.collisions)),
            ",".join(parts),
            rec.step,
            ",".join(map(str, rec.transmitters)),
        ))
    return "".join(out).encode()


def _str_key(item: tuple[int, Message]) -> str:
    return str(item[0])


def _json_int(x: int | None) -> str:
    return "null" if x is None else str(x)


def _message_text(m: Message) -> str:
    """_ENCODER.encode(message_to_json(m)), formatted directly for the
    two small kinds."""
    if type(m) is FireAndForward:
        return '{"kind":"fnf","rumor":%d}' % m.rumor
    if type(m) is Bounded:
        return '{"height2":%s,"kind":"bounded","parity":%s,"rumor":%d,"sender":%s}' % (
            _json_int(m.height2), _json_int(m.parity), m.rumor, _json_int(m.sender)
        )
    return _ENCODER.encode(message_to_json(m))


def message_to_json(m: Message) -> dict:
    if isinstance(m, Unbounded):
        return {
            "kind": "unbounded",
            "rumors": sorted(m.rumors),
            "aux": [list(kv) for kv in m.aux],
        }
    if isinstance(m, Bounded):
        return {
            "kind": "bounded",
            "rumor": m.rumor,
            "sender": m.sender,
            "height2": m.height2,
            "parity": m.parity,
        }
    if isinstance(m, FireAndForward):
        return {"kind": "fnf", "rumor": m.rumor}
    raise TypeError(f"not a message: {m!r}")


def message_from_json(obj: dict) -> Message:
    kind = obj["kind"]
    if kind == "unbounded":
        return Unbounded(
            rumors=frozenset(obj["rumors"]),
            aux=tuple((k, v) for k, v in obj["aux"]),
        )
    if kind == "bounded":
        return Bounded(
            rumor=obj["rumor"],
            sender=obj["sender"],
            height2=obj["height2"],
            parity=obj["parity"],
        )
    if kind == "fnf":
        return FireAndForward(rumor=obj["rumor"])
    raise ValueError(f"unknown message kind {kind!r}")


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
    completion: int | None = 0 if n == 1 else None
    collisions_total = 0
    recorded: list[StepRecord] | None = [] if record_steps else None

    # wake[v] is the step v is due to act; -1 while it is acting.  The
    # queue maps a step to the nodes filed under it; an entry whose step
    # no longer matches wake[v] is stale and is dropped when its step
    # comes up.  due is a heap of the queue's keys.
    wake = [0] * n
    queue: dict[int, list[int]] = {}
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
    keep = recorded is not None or observer is not None  # receptions wanted

    t = 0
    while t < max_steps and not (stop_early and completion is not None):
        if not due:
            break
        nxt = due[0]
        if nxt > t and observer is None:
            # nobody acts before nxt, so nothing can be received either
            target = min(nxt, max_steps)
            if recorded is not None:
                for s in range(t, target):
                    recorded.append(StepRecord(s, (), {}, ()))
            t = target
            continue

        awake: list[int] = []
        while due and due[0] <= t:
            wt = heappop(due)
            for v in queue.pop(wt):
                if wake[v] == wt:
                    wake[v] = -1  # claimed for this step; stale entries miss
                    awake.append(v)
        awake.sort()

        transmitters: dict[int, Message] = {}
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

        if not transmitters:
            if recorded is not None:
                recorded.append(StepRecord(t, (), {}, ()))
            if observer is not None:
                observer(t, states, transmitters, {}, frozenset())
            t += 1
            continue

        first: dict[int, Message] = {}
        collided: set[int] = set()
        for v, msg in transmitters.items():
            p = parent[v]
            if p in collided:
                continue
            if p in first:
                del first[p]
                collided.add(p)
            else:
                first[p] = msg

        receptions: dict[int, Message] = {}
        for p, msg in first.items():
            if half and p in transmitters:
                continue
            if keep:
                receptions[p] = msg
            views[p].inbox.append((t, msg))
            if p == root:
                if mkind is Unbounded:
                    for r in msg.rumors:
                        delivery.setdefault(r, t)
                else:
                    delivery.setdefault(msg.rumor, t)
                if completion is None and len(delivery) == n:
                    completion = max(delivery.values())
            elif wake[p] > t + 1:
                wake[p] = t + 1
                if t + 1 < max_steps:
                    bucket = queue.get(t + 1)
                    if bucket is None:
                        queue[t + 1] = [p]
                        heappush(due, t + 1)
                    else:
                        bucket.append(p)

        collisions_total += len(collided)
        if recorded is not None:
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
        incomplete=completion is None,
        collisions_total=collisions_total,
        steps_executed=t,
        steps=recorded,
    )
