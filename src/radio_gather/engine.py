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
import io
import json
from enum import Enum
from typing import Any, Callable, IO, Mapping

import numpy as np

from .trees import Tree

TRACE_SCHEMA = "radio-gather-trace/2"
# schemas the reader accepts: /1 also wrote a line per silent step
READ_SCHEMAS = ("radio-gather-trace/1", TRACE_SCHEMA)

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
    """Arbitrarily large rumor set: bit r of mask is rumor r."""

    mask: int


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


@dataclasses.dataclass(slots=True)
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
    steps, when recorded, holds one record per step with a transmitter,
    in step order.  Every other step below steps_executed was silent: no
    transmission, so no reception and no collision either.
    """

    protocol: str
    n: int
    mode: DuplexMode
    seed: int
    max_steps: int
    delivery: dict[int, int]
    completion_step: int | None
    collisions_total: int
    steps_executed: int
    steps: list[StepRecord] | None = None

    @property
    def incomplete(self) -> bool:
        return self.completion_step is None

    def to_jsonl_bytes(self) -> bytes:
        """The trace as JSONL, as _write_jsonl streams it.  getvalue()
        hands back the buffer itself, so the text is held once."""
        buf = io.BytesIO()
        self._write_jsonl(buf)
        return buf.getvalue()

    def to_jsonl(self, path: str) -> None:
        with open(path, "wb") as fh:
            self._write_jsonl(fh)

    def _write_jsonl(self, fh: IO[bytes]) -> None:
        """Write the trace as JSONL to a binary file object.  Header and
        summary go through the generic sorted-key encoder.  Step lines
        are formatted directly, byte for byte what that encoder makes of
        a dict per step with the receptions' messages as message_to_json
        gives them, and written TRACE_BLOCK records at a time: besides
        the trace, the writer holds one block's lines and the texts of
        the messages and node ids seen so far."""
        fh.write(_dump_line(self._header()))
        if self.steps:
            steps = self.steps
            encoded: dict[int, str] = {}
            ids, keys = _Texts("%s"), _Texts('"%s":')
            for i in range(0, len(steps), TRACE_BLOCK):
                fh.writelines(_encode_steps(steps[i:i + TRACE_BLOCK], encoded, ids, keys))
        fh.write(_dump_line(self._summary()))

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
        """Read a trace written under any schema in READ_SCHEMAS.

        A step line in the writer's exact layout is parsed directly, and
        equal message texts load as one object; any other line goes
        through json.loads.  A step with no transmitter, reception or
        collision is dropped, so /1's silent lines load to nothing.

        The records kept must describe a run of the header's n-node
        tree: the header comes first, every node id, rumor and sender
        lies below n, and the steps are integers that rise from 0 and
        stay below the summary's steps_executed.  Ids are checked once
        per distinct message and id list text.  The summary must
        describe the same run (_check_summary).  Anything else raises
        ValueError."""
        header = None
        summary = None
        steps: list[StepRecord] = []
        last = -1
        messages: dict[str, Message] = {}
        lists: dict[str, tuple[int, ...]] = {}
        for raw in fh:
            rec = None
            if raw[:_NPREFIX] == _STEP_PREFIX and header is not None:
                line = raw.decode("utf-8", "surrogatepass")
                rec = _parse_step_line(line, n, messages, lists)
            if rec is None:
                if not raw.strip():
                    continue
                obj = json.loads(raw)
                if type(obj) is not dict:
                    raise ValueError(f"trace line {obj!r:.40} is no JSON object")
                kind = obj.get("kind")
                if kind == "header":
                    if header is not None:
                        raise ValueError("a second header record")
                    if obj.get("schema") not in READ_SCHEMAS:
                        raise ValueError(f"unknown trace schema {obj.get('schema')!r}")
                    n = obj.get("n")
                    if type(n) is not int or not 1 <= n <= LABEL_LIMIT:
                        raise ValueError(f"header n {n!r} is no tree size")
                    header = obj
                elif kind == "summary":
                    summary = obj
                if kind != "step":
                    continue
                if header is None:
                    raise ValueError("a step record comes before the header")
                rec = StepRecord(
                    step=obj["step"],
                    transmitters=tuple(obj["transmitters"]),
                    receptions={
                        int(v): message_from_json(m, n) for v, m in obj["receptions"].items()
                    },
                    collisions=tuple(obj["collisions"]),
                )
                if not _below(rec.transmitters + rec.collisions + tuple(rec.receptions), n):
                    raise ValueError(f"step record {rec.step!r} names a node outside 0..{n - 1}")
            if rec.transmitters or rec.receptions or rec.collisions:
                if type(rec.step) is not int or rec.step <= last:
                    raise ValueError(f"step record {rec.step!r} does not follow step {last}")
                last = rec.step
                steps.append(rec)
        if header is None or summary is None:
            raise ValueError("trace stream is missing its header or summary record")
        delivery = _check_summary(header, summary, steps)
        return cls(
            protocol=header["protocol"],
            n=n,
            mode=DuplexMode(header["mode"]),
            seed=header["seed"],
            max_steps=header["max_steps"],
            delivery=delivery,
            completion_step=summary["completion_step"],
            collisions_total=summary["collisions_total"],
            steps_executed=summary["steps_executed"],
            steps=steps if header["recorded"] else None,
        )


_HEADER_FIELDS = ("protocol", "mode", "seed", "max_steps", "recorded")
_SUMMARY_FIELDS = ("delivery", "completion_step", "incomplete", "collisions_total",
                   "steps_executed")


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def _check_summary(header: dict, summary: dict, steps: list[StepRecord]) -> dict[int, int]:
    """The summary's delivery map with int keys, once the header and
    summary are found to describe the run that steps record.

    Both records hold every field the writer writes.  The header's
    protocol is a str, its seed a count and recorded a bool.
    steps_executed is a count no larger than max_steps, and above the
    last record's step.
    Each delivered rumor is a label below n, written as str() writes it,
    and arrived at a step below steps_executed, or at step 0 when no
    step ran (n = 1).  completion_step is the last delivery once all n
    rumors arrived, and null before; incomplete says which.
    collisions_total is a count, and in a recorded trace it is the
    records' collisions.  Costs O(n) plus one pass over steps."""
    for record, fields in ((header, _HEADER_FIELDS), (summary, _SUMMARY_FIELDS)):
        missing = [f for f in fields if f not in record]
        if missing:
            raise ValueError(f"{record.get('kind')} record lacks {', '.join(missing)}")
    if type(header["protocol"]) is not str:
        raise ValueError(f"protocol {header['protocol']!r} is no protocol name")
    if not _is_count(header["seed"]):
        raise ValueError(f"seed {header['seed']!r} is no nonnegative int")
    if type(header["recorded"]) is not bool:
        raise ValueError(f"recorded {header['recorded']!r} is neither true nor false")
    n, max_steps = header["n"], header["max_steps"]
    executed = summary["steps_executed"]
    if not _is_count(max_steps):
        raise ValueError(f"max_steps {max_steps!r} is no step count")
    if not _is_count(executed):
        raise ValueError(f"steps_executed {executed!r} is no step count")
    if executed > max_steps:
        raise ValueError(f"steps_executed {executed} exceeds max_steps {max_steps}")
    if steps and steps[-1].step >= executed:
        raise ValueError(f"step record {steps[-1].step} lies past steps_executed {executed}")
    raw = summary["delivery"]
    if not isinstance(raw, dict):
        raise ValueError(f"delivery {raw!r} is no map of rumors to steps")
    delivery = {}
    end = max(1, executed)
    for r, t in raw.items():
        rumor = int(r) if r.isascii() and r.isdigit() else n
        if rumor >= n or str(rumor) != r:
            raise ValueError(f"delivered rumor {r!r} is no label below {n}")
        if type(t) is not int or not 0 <= t < end:
            raise ValueError(f"rumor {r} delivered at {t!r}, outside steps 0..{end - 1}")
        delivery[rumor] = t
    completion = summary["completion_step"]
    want = max(delivery.values()) if len(delivery) == n else None
    if type(completion) is not type(want) or completion != want:
        raise ValueError(f"completion_step {completion!r} contradicts the delivery of "
                         f"{len(delivery)} of {n} rumors, the last at {want!r}")
    if summary["incomplete"] is not (completion is None):
        raise ValueError(f"incomplete {summary['incomplete']!r} contradicts "
                         f"completion_step {completion!r}")
    total = summary["collisions_total"]
    if not _is_count(total):
        raise ValueError(f"collisions_total {total!r} is no count")
    if header["recorded"]:
        recorded = sum(len(rec.collisions) for rec in steps)
        if total != recorded:
            raise ValueError(f"collisions_total {total} differs from the "
                             f"{recorded} collisions recorded")
    return delivery


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dump_line(obj: dict) -> bytes:
    return (_ENCODER.encode(obj) + "\n").encode()


# A step line's keys in sorted order: collisions, kind, receptions,
# step, transmitters.
_STEP_LINE = '{"collisions":[%s],"kind":"step","receptions":{%s},"step":%d,"transmitters":[%s]}\n'


# Step records the writer formats and writes at a time: small enough
# that a block's lines stay small beside the trace, large enough that
# a block's fixed costs (a slice, a writelines call) do too.
TRACE_BLOCK = 256


class _Texts(dict):
    """Node id -> its text in a step line, formatted by fmt the first
    time it is asked for and stored for the rest of the write."""

    __slots__ = ("fmt",)

    def __init__(self, fmt):
        self.fmt = fmt

    def __missing__(self, v):
        text = self[v] = self.fmt % v
        return text


def _encode_steps(steps: list[StepRecord], encoded: dict[int, str],
                  ids: _Texts, keys: _Texts) -> list[bytes]:
    """The step line of each record, formatted without the generic encoder.

    One line per record, silent or not; run() records only steps with a
    transmitter.  Reception keys are node ids sorted as strings, as
    sort_keys sorts them.  ids and keys hold each node id's text in a
    list and as a reception key, and encoded maps id(message) to its
    text, so a message object that several receptions share (a
    forwarded message, a cached rumor set) is encoded once for as long
    as the caller keeps the map; keying it by id() is sound while the
    records that hold those messages stay alive.
    """
    out: list[bytes] = []
    append = out.append
    text_of = ids.__getitem__
    for rec in steps:
        parts = []
        receptions = rec.receptions
        for v in sorted(receptions, key=text_of):
            m = receptions[v]
            text = encoded.get(id(m))
            if text is None:
                text = encoded[id(m)] = _message_text(m)
            parts.append(keys[v] + text)
        append((_STEP_LINE % (
            ",".join(map(text_of, rec.collisions)),
            ",".join(parts),
            rec.step,
            ",".join(map(text_of, rec.transmitters)),
        )).encode())
    return out


def _step_lines(steps: list[StepRecord]) -> bytes:
    """Every step line of records, as the writer writes them."""
    return b"".join(_encode_steps(steps, {}, _Texts("%s"), _Texts('"%s":')))


# The reader's view of _STEP_LINE.  An integer text is taken as is only
# when it is the one str() gives its value, which is how json reads it.
_STEP_OPEN = '{"collisions":['
_STEP_PREFIX = _STEP_OPEN.encode()
_NPREFIX = len(_STEP_OPEN)
_RX_OPEN = '],"kind":"step","receptions":{'
_STEP_KEY = '},"step":'
_TX_KEY = ',"transmitters":['
_raw_decode = json.JSONDecoder().raw_decode


def _below(ids, n: int) -> bool:
    """Whether every id is a node of an n-node tree."""
    return all(type(v) is int and 0 <= v < n for v in ids)


def _int_list(text: str, n: int, seen: dict[str, tuple[int, ...]]) -> tuple[int, ...] | None:
    """The node ids of a comma-separated text as json reads them, or None
    unless each is written as str() writes it and lies below n.  seen
    caches the texts already read."""
    got = seen.get(text)
    if got is None:
        try:
            got = tuple(map(int, text.split(","))) if text else ()
        except ValueError:
            return None
        if ",".join(map(str, got)) != text or not _below(got, n):
            return None
        seen[text] = got
    return got


def _parse_step_line(
    line: str, n: int, messages: dict[str, Message], lists: dict[str, tuple[int, ...]]
) -> StepRecord | None:
    """The record json.loads would read from line, or None unless line
    has _STEP_LINE's layout with reception entries that cover the
    receptions text exactly and every id lies below n.  messages maps
    each message text already loaded to its object, and lists each id
    list text already read.  A cached message text is a whole JSON
    object, so when the text up to the next "}" is cached, that "}"
    ends the message; otherwise the JSON scanner finds its end.  The
    caller has checked that line starts with _STEP_OPEN."""
    i = line.find(_RX_OPEN, _NPREFIX)
    j = line.rfind(_STEP_KEY)
    start = i + len(_RX_OPEN)
    if i < 0 or j < start:
        return None
    k = line.find(_TX_KEY, j)
    close = -3 if line.endswith("]}\n") else -2 if line.endswith("]}") else 0
    if k < 0 or not close:
        return None
    col = _int_list(line[_NPREFIX:i], n, lists)
    tx = _int_list(line[k + len(_TX_KEY):close], n, lists)
    t = line[j + len(_STEP_KEY):k]
    try:
        step = int(t)
    except ValueError:
        return None
    if col is None or tx is None or str(step) != t:
        return None
    rx: dict[int, Message] = {}
    p = start
    while p < j:
        c = line.find('":{', p)
        key = line[p + 1:c]
        v = int(key) if line[p] == '"' and key.isdigit() and key.isascii() else n
        if v >= n:
            return None
        p = c + 2
        q = line.find("}", p) + 1
        msg = messages.get(line[p:q])
        if msg is None:
            try:
                obj, q = _raw_decode(line, p)
                text = line[p:q]
                msg = messages.get(text)
                if msg is None:
                    msg = messages[text] = message_from_json(obj, n)
            except ValueError:
                # json.loads decides: a later duplicate key may replace it
                return None
        rx[v] = msg
        if q == j:
            break
        if line[q:q + 1] != ",":
            return None
        p = q + 1
    else:
        if start < j:  # a trailing comma
            return None
    return StepRecord(step, tx, rx, col)


def _json_int(x: int | None) -> str:
    return "null" if x is None else str(x)


def _message_text(m: Message) -> str:
    """_ENCODER.encode(message_to_json(m)), formatted directly for the
    three kinds; anything else is message_to_json's TypeError."""
    if type(m) is FireAndForward:
        return '{"kind":"fnf","rumor":%d}' % m.rumor
    if type(m) is Bounded:
        return '{"height2":%s,"kind":"bounded","parity":%s,"rumor":%d,"sender":%s}' % (
            _json_int(m.height2), _json_int(m.parity), m.rumor, _json_int(m.sender)
        )
    if type(m) is Unbounded:
        return '{"aux":[],"kind":"unbounded","rumors":[%s]}' % ",".join(map(str, mask_bits(m.mask)))
    raise TypeError(f"not a message: {m!r}")


def mask_bits(mask: int) -> list[int]:
    """The rumors of a mask, ascending: the one way a mask is listed."""
    if mask < 0:
        raise ValueError(f"a rumor mask is never negative, got {mask}")
    out = []
    while mask:
        r = mask.bit_length() - 1
        out.append(r)
        mask ^= 1 << r
    return out[::-1]


def message_to_json(m: Message) -> dict:
    if isinstance(m, Unbounded):
        return {
            "kind": "unbounded",
            "rumors": mask_bits(m.mask),
            "aux": [],
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


# Every label a message carries lies below this, which bounds the mask
# a rumor list read from a trace can ask for (2 MB).
LABEL_LIMIT = 1 << 24


# Each kind's fields, as message_to_json writes them.
_KINDS = {
    frozenset(("aux", "kind", "rumors")): "unbounded",
    frozenset(("height2", "kind", "parity", "rumor", "sender")): "bounded",
    frozenset(("kind", "rumor")): "fnf",
}


def _label(x, limit: int = LABEL_LIMIT, optional: bool = False):
    """x if it is a label (an int, not a bool, in [0, limit)) or, where
    the field is optional, None; anything else is a ValueError."""
    if type(x) is int and 0 <= x < limit or optional and x is None:
        return x
    raise ValueError(f"message field {x!r} is not a label below {limit}")


def message_from_json(obj: dict, n: int = LABEL_LIMIT) -> Message:
    """The message message_to_json gave obj: its kind's fields and no
    others, aux empty.  Every rumor and sender must be a label below n,
    and height2 and parity labels; sender, height2 and parity may be
    null.  Anything else is a ValueError."""
    kind = _KINDS.get(frozenset(obj)) if type(obj) is dict else None
    if kind is None or obj["kind"] != kind:
        raise ValueError(f"{obj!r} is no message")
    if kind == "unbounded":
        rumors = obj["rumors"]
        if type(rumors) is not list or obj["aux"] != []:
            raise ValueError(f"{obj!r} is no unbounded message")
        mask = 0
        for r in rumors:
            mask |= 1 << _label(r, n)
        return Unbounded(mask)
    if kind == "bounded":
        return Bounded(
            rumor=_label(obj["rumor"], n),
            sender=_label(obj["sender"], n, True),
            height2=_label(obj["height2"], optional=True),
            parity=_label(obj["parity"], optional=True),
        )
    return FireAndForward(rumor=_label(obj["rumor"], n))


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
