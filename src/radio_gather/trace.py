"""The JSONL trace of one run, written and read by Trace: a header line,
a line per recorded step and a summary line, checked against each other."""
from __future__ import annotations

import dataclasses
import io
import json
from sys import getsizeof
from typing import IO, Iterable, Iterator

from .messages import Bounded, DuplexMode, FireAndForward, Message, Unbounded, mask_bits

TRACE_SCHEMA = "radio-gather-trace/2"
# schemas the reader accepts: /1 also wrote a line per silent step
READ_SCHEMAS = ("radio-gather-trace/1", TRACE_SCHEMA)


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
        gives them, and written one at a time: besides the trace, the
        writer holds one line, a message-text cache of about
        TEXT_CACHE_BYTES, and the node ids' texts."""
        fh.write(_dump_line(self._header()))
        fh.writelines(_step_lines(self.steps or ()))
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
        """Read a trace written under any schema in READ_SCHEMAS, exactly
        as the writer wrote it.

        A /2 trace loads only when to_jsonl_bytes() of the result gives
        back its bytes.  So does a /1 trace, once its silent step lines
        are dropped and its schema tag is swapped: /1 wrote one for each
        step with nothing on the channel, and they load to nothing.

        The header and the summary line go through json.loads, and each
        must be the line the writer makes of the trace read.  A step line
        is parsed in _STEP_LINE's layout (_parse_step_line); a step
        record in any other layout is refused.  The records come in the
        writer's order: the header, then the steps, which only a
        recorded trace has, then the summary, last.  The records kept
        must describe a run of the header's n-node tree: every node id,
        rumor and sender lies below n, and the steps rise from 0 and stay
        below the summary's steps_executed.  The summary must describe
        the same run (_check_summary).  Anything else raises ValueError."""
        header = summary = header_line = summary_line = None
        steps: list[StepRecord] = []
        last = -1
        stepping = v1 = False
        messages: dict[str, Message] = {}
        keys: dict[str, int] = {}
        lists: dict[str, tuple[int, ...]] = {}
        for raw in fh:
            is_step = raw[:_NPREFIX] == _STEP_PREFIX
            if is_step and stepping:
                rec = _parse_step_line(raw.decode("latin-1"), n, messages, keys, lists)
                if rec.transmitters or rec.receptions or rec.collisions:
                    if rec.step <= last:
                        raise ValueError(f"step record {rec.step} does not follow step {last}")
                    last = rec.step
                    steps.append(rec)
                elif not v1:
                    raise ValueError(f"step record {rec.step} is silent, and /2 writes no "
                                     "silent step")
                continue
            kind = "step"
            if not is_step:
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
                    header, header_line = obj, raw
                    v1 = obj["schema"] == READ_SCHEMAS[0]
                    stepping = obj.get("recorded") is not False
                    continue
                if kind == "step":
                    raise ValueError(f"step line {raw!r:.60} is not in the writer's layout")
                if kind != "summary":
                    raise ValueError(f"trace record of unknown kind {kind!r:.40}")
            if header is None:
                raise ValueError(f"a {kind} record comes before the header")
            if summary is not None:
                raise ValueError(f"a {kind} record follows the summary")
            if is_step:
                raise ValueError("a step record in a trace that records no steps")
            summary, summary_line = obj, raw
            stepping = False
        if header is None or summary is None:
            raise ValueError("trace stream is missing its header or summary record")
        delivery = _check_summary(header, summary, steps)
        trace = cls(
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
        for line, obj in ((header_line, {**trace._header(), "schema": header["schema"]}),
                          (summary_line, trace._summary())):
            if _dump_line(obj) != line:
                raise ValueError(f"the {obj['kind']} line is not as the writer writes it")
        return trace


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


# What the writer's message texts may occupy (sys.getsizeof) before its
# cache starts over: one bnd record can hold a hundred rumor sets of
# kilobytes each, an mls record a few texts of 26 characters.
TEXT_CACHE_BYTES = 1 << 16


class _Texts(dict):
    """Node id -> its text in a step line, formatted by fmt the first
    time it is asked for and stored for the rest of the write."""

    __slots__ = ("fmt",)

    def __init__(self, fmt):
        self.fmt = fmt

    def __missing__(self, v):
        text = self[v] = self.fmt % v
        return text


def _step_lines(steps: Iterable[StepRecord]) -> Iterator[bytes]:
    """The step line of each record, formatted without the generic
    encoder.

    One line per record, silent or not; run() records only steps with a
    transmitter.  Reception keys are node ids sorted as strings, as
    sort_keys sorts them.  ids and keys hold each node id's text in a
    list and as a reception key.  encoded maps id(message) to its text,
    so a message that several receptions share (a forwarded message, a
    cached rumor set) is encoded once while cached; keying it by id() is
    sound while the records stay alive.  It starts over when the texts
    it holds reach TEXT_CACHE_BYTES.
    """
    ids, keys = _Texts("%s"), _Texts('"%s":')
    text_of = ids.__getitem__
    encoded: dict[int, str] = {}
    held = 0
    for rec in steps:
        parts = []
        receptions = rec.receptions
        for v in sorted(receptions, key=text_of):
            m = receptions[v]
            text = encoded.get(id(m))
            if text is None:
                if held >= TEXT_CACHE_BYTES:
                    encoded.clear()
                    held = 0
                text = encoded[id(m)] = _message_text(m)
                held += getsizeof(text)
            parts.append(keys[v] + text)
        yield (_STEP_LINE % (
            ",".join(map(text_of, rec.collisions)),
            ",".join(parts),
            rec.step,
            ",".join(map(text_of, rec.transmitters)),
        )).encode()


# The reader's view of _STEP_LINE: the text around its four fields.
_STEP_OPEN, _RX_OPEN, _STEP_KEY, _TX_KEY, _STEP_END = _STEP_LINE.replace("%d", "%s").split("%s")
_STEP_PREFIX = _STEP_OPEN.encode()
_NPREFIX = len(_STEP_OPEN)


def _as_written(text: str) -> int | None:
    """The int whose str() is text, or None."""
    try:
        v = int(text)
    except ValueError:
        return None
    return v if str(v) == text else None


def _int_list(text: str, step: str, n: int, seen: dict[str, tuple[int, ...]]) -> tuple[int, ...]:
    """The node ids of a comma-separated text, or a ValueError that names
    the step unless each is written as str() writes it and lies below n.
    seen caches the texts already read."""
    got = seen.get(text)
    if got is None:
        try:
            got = tuple(map(int, text.split(","))) if text else ()
        except ValueError:
            got = None
        if got is None or ",".join(map(str, got)) != text or not all(0 <= v < n for v in got):
            raise ValueError(f"step record {step} lists [{text:.40}], which are no node ids "
                             f"in 0..{n - 1}")
        seen[text] = got
    return got


def _parse_step_line(
    line: str, n: int, messages: dict[str, Message], keys: dict[str, int],
    lists: dict[str, tuple[int, ...]],
) -> StepRecord:
    """The record of a step line, or a ValueError that names the step
    (the line, where the layout breaks before the step can be found)
    unless line is the one _step_lines writes for it: _STEP_LINE's
    layout, every id as str() writes it and below n, reception keys
    rising in string order, and each message text _message_text's.

    The caches hold what was read before and checked once: messages
    maps each message text, less its closing brace, to its object;
    keys each quoted reception key to its node; lists each id list.  A
    message text has no brace inside, so the receptions text splits
    at "}," into its entries.  The caller has checked that line starts
    with _STEP_OPEN."""
    i = line.find(_RX_OPEN, _NPREFIX)
    j = line.rfind(_STEP_KEY)
    k = line.find(_TX_KEY, j)
    start = i + len(_RX_OPEN)
    if i < 0 or j < start or k < 0 or not line.endswith(_STEP_END) or (
            j > start and line[j - 1] != "}"):
        raise ValueError(f"step line {line!r:.60} is not in the writer's layout")
    t = line[j + len(_STEP_KEY):k]
    step = _as_written(t)
    if step is None or step < 0:
        raise ValueError(f"step record {t:.20} is no step number")
    col = _int_list(line[_NPREFIX:i], t, n, lists)
    tx = _int_list(line[k + len(_TX_KEY):-len(_STEP_END)], t, n, lists)
    rx: dict[int, Message] = {}
    prev = ""
    for entry in line[start:j - 1].split("},") if j > start else ():
        key, _, body = entry.partition(":")
        v = keys.get(key)
        if v is None:
            v = _as_written(key[1:-1])
            if v is None or not 0 <= v < n or key != f'"{v}"':
                raise ValueError(f"step record {t} has reception key {key:.20}, "
                                 f"no node in 0..{n - 1}")
            keys[key] = v
        if key <= prev:
            raise ValueError(f"step record {t} has reception key {key} after {prev}")
        prev = key
        msg = messages.get(body)
        if msg is None:
            text = body + "}"
            try:
                msg = message_from_json(json.loads(text), n)
            except ValueError as exc:
                raise ValueError(f"step record {t}: {exc}") from None
            if _message_text(msg) != text:
                raise ValueError(f"step record {t} holds {text:.60}, which is not as the "
                                 "writer writes its message")
            messages[body] = msg
        rx[v] = msg
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
_KINDS = {frozenset(obj): obj["kind"] for obj in map(
    message_to_json, (Unbounded(0), Bounded(rumor=0), FireAndForward(rumor=0)))}


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

