"""Channel semantics, wake scheduling, and trace plumbing."""
import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest

from radio_gather.engine import (
    Bounded,
    DuplexMode,
    FireAndForward,
    LABEL_LIMIT,
    NodeView,
    Protocol,
    ProtocolState,
    ProtocolViolatedMessageBound,
    SLEEP_FOREVER,
    StepRecord,
    Trace,
    Unbounded,
    mask_bits,
    message_from_json,
    message_to_json,
    run,
    step,
)
from radio_gather.protocols import PROTOCOL_NAMES, make_protocol, step_cap
from radio_gather.trace import TEXT_CACHE_BYTES, _dump_line, _parse_step_line, _step_lines
from radio_gather.trees import FAMILIES, build_tree, from_family, make_path, make_star
from radio_gather.verify import FiringSchedule, schedule_protocol

from test_trace_contract import LONG_CHAINS, LONG_N, N, PINNED, recorded_trace
from trace_v1 import v2_from_v1

FULL = DuplexMode.FULL
HALF = DuplexMode.HALF


class OneShotState(ProtocolState):
    """Transmit own rumor once at a fixed step, then sleep forever."""

    def __init__(self, label, fire_at):
        self.own = label
        self.fire_at = fire_at
        self.asleep_until = fire_at

    def act(self, view):
        if view.time == self.fire_at:
            self.asleep_until = SLEEP_FOREVER
            return FireAndForward(self.own)
        self.asleep_until = self.fire_at if view.time < self.fire_at else SLEEP_FOREVER
        return None


class RelayState(ProtocolState):
    """Fire own rumor at step = own label; forward whatever arrived last step."""

    def __init__(self, label):
        self.own = label
        self.asleep_until = label
        self._cursor = 0

    def act(self, view):
        t = view.time
        arrived = None
        while self._cursor < len(view.inbox):
            s, msg = view.inbox[self._cursor]
            self._cursor += 1
            if s == t - 1:
                arrived = msg.rumor
        if t == self.own:
            self.asleep_until = SLEEP_FOREVER
            return FireAndForward(self.own)
        self.asleep_until = self.own if t < self.own else SLEEP_FOREVER
        if arrived is not None:
            return FireAndForward(arrived)
        return None


def one_shot_protocol(schedule):
    """schedule maps label -> firing step."""
    return Protocol(
        name="one-shot",
        message_kind=FireAndForward,
        state_factory=lambda label, n, mode, rng: OneShotState(label, schedule[label]),
    )


def relay_protocol():
    return Protocol(
        name="relay",
        message_kind=FireAndForward,
        state_factory=lambda label, n, mode, rng: RelayState(label),
    )


# ---------------------------------------------------------------- step()


def test_step_single_transmitter_delivers():
    tree = make_star(4)  # root 0, leaves 1..3, identity labels
    recv, collided = step(tree, FULL, {1: FireAndForward(1)})
    assert recv == {0: FireAndForward(1)}
    assert collided == frozenset()


def test_step_two_children_collide():
    tree = make_star(4)
    recv, collided = step(tree, FULL, {1: FireAndForward(1), 2: FireAndForward(2)})
    assert recv == {}
    assert collided == frozenset({0})


def test_step_three_children_collide():
    tree = make_star(4)
    actions = {v: FireAndForward(v) for v in (1, 2, 3)}
    recv, collided = step(tree, FULL, actions)
    assert recv == {}
    assert collided == frozenset({0})


def test_step_half_duplex_deafens_transmitter():
    tree = make_path(3)  # 0 root, 2 deepest; parent[i] = i-1
    actions = {2: FireAndForward(2), 1: FireAndForward(1)}
    full_recv, _ = step(tree, FULL, actions)
    half_recv, _ = step(tree, HALF, actions)
    assert full_recv == {1: FireAndForward(2), 0: FireAndForward(1)}
    assert half_recv == {0: FireAndForward(1)}


def test_step_root_transmission_goes_nowhere():
    tree = make_star(3)
    recv, collided = step(tree, FULL, {0: FireAndForward(0), 1: FireAndForward(1)})
    assert recv == {0: FireAndForward(1)}
    assert collided == frozenset()


def test_step_half_duplex_transmitting_root_hears_nothing():
    # the pure channel op does not impose root muting; a root that does
    # transmit still pays the half-duplex deafness
    tree = make_star(3)
    recv, _ = step(tree, HALF, {0: FireAndForward(0), 1: FireAndForward(1)})
    assert recv == {}


def test_step_silence_cases():
    tree = make_star(4)
    recv, collided = step(tree, FULL, {})
    assert recv == {} and collided == frozenset()
    recv, collided = step(tree, FULL, {1: None, 2: None})
    assert recv == {} and collided == frozenset()


# ---------------------------------------------------------------- run() basics


def test_run_star_staggered_delivery():
    n = 6
    tree = make_star(n)
    proto = one_shot_protocol({lab: lab for lab in range(n)})
    trace = run(tree, proto, FULL, max_steps=2 * n)
    # leaf with label u fires at step u, alone, so the root hears it then
    assert trace.delivery == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
    assert trace.completion_step == 5
    assert not trace.incomplete
    assert trace.collisions_total == 0


def test_run_star_simultaneous_fires_collide_forever():
    n = 4
    tree = make_star(n)
    proto = one_shot_protocol({lab: 3 for lab in range(n)})
    trace = run(tree, proto, FULL, max_steps=50)
    assert trace.incomplete
    assert trace.delivery == {0: 0}
    assert trace.collisions_total == 1  # one collided node, one step
    # every state sleeps forever after step 3, so the run stops early
    assert trace.steps_executed == 4


def test_run_path_relay_chain():
    # deepest node fires; relays carry the rumor one hop per step
    n = 5
    tree = make_path(n)  # node i at depth i, label i
    proto = relay_protocol()
    trace = run(tree, proto, FULL, max_steps=4 * n, record_steps=True)
    # rumor 4 fired at step 4 from depth 4 reaches the root at step 4 + 3
    assert trace.delivery[4] == 7
    assert not trace.incomplete
    # witness the chain in the per-step records
    hops = [rec.step for rec in trace.steps if 4 in {m.rumor for m in rec.receptions.values()}]
    assert hops == [4, 5, 6, 7]


def test_run_single_node_completes_at_zero():
    tree = make_path(1)
    proto = relay_protocol()
    trace = run(tree, proto, FULL, max_steps=10)
    assert trace.completion_step == 0
    assert trace.delivery == {0: 0}
    assert trace.steps_executed == 0
    assert not trace.incomplete


def test_run_rejects_mismatched_binding():
    tree = make_path(4)
    proto = dataclasses.replace(relay_protocol(), n=5)
    with pytest.raises(ValueError):
        run(tree, proto, FULL, max_steps=10)
    proto = dataclasses.replace(relay_protocol(), mode=HALF)
    with pytest.raises(ValueError):
        run(tree, proto, FULL, max_steps=10)


def test_message_kind_enforced():
    bad = Protocol(
        name="bad",
        message_kind=FireAndForward,
        state_factory=lambda label, n, mode, rng: OneShotState(label, 0),
    )

    class WrongKind(OneShotState):
        def act(self, view):
            out = super().act(view)
            return Bounded(rumor=out.rumor) if out is not None else None

    bad = dataclasses.replace(
        bad, state_factory=lambda label, n, mode, rng: WrongKind(label, 0)
    )
    with pytest.raises(ProtocolViolatedMessageBound):
        run(make_star(3), bad, FULL, max_steps=5)


# ---------------------------------------------------------------- wake contract


def test_reception_wakes_sleeping_state():
    # relay states sleep forever after their own fire; only the engine's
    # reception wake can make them forward later rumors
    n = 6
    tree = make_path(n)
    trace = run(tree, relay_protocol(), FULL, max_steps=4 * n)
    assert not trace.incomplete
    # label u fires at step u from depth u; forwarding is one hop per step
    for u in range(1, n):
        assert trace.delivery[u] == u + (u - 1)


def test_fast_forward_matches_observer_stepping():
    # silent-stretch skipping must not change what gets recorded
    n = 5
    tree = make_star(n)
    sched = {0: 0, 1: 3, 2: 11, 3: 11, 4: 29}
    t1 = run(tree, one_shot_protocol(sched), FULL, max_steps=40, record_steps=True)
    seen = []
    t2 = run(
        tree,
        one_shot_protocol(sched),
        FULL,
        max_steps=40,
        record_steps=True,
        observer=lambda t, states, tx, rx, col: seen.append(t),
    )
    assert t1.steps == t2.steps
    assert t1.steps_executed == t2.steps_executed
    assert t1.delivery == t2.delivery
    assert seen == list(range(t2.steps_executed))


def test_stop_early_flag_runs_past_completion():
    n = 4
    tree = make_star(n)
    sched = {lab: lab for lab in range(n)}
    early = run(tree, one_shot_protocol(sched), FULL, max_steps=30)
    # all states sleep forever after their fire; the run may stop once
    # nothing can ever happen again, even without completing the clock
    late = run(tree, one_shot_protocol(sched), FULL, max_steps=30, stop_early=False)
    assert early.completion_step == late.completion_step == n - 1
    assert early.steps_executed <= late.steps_executed


# -------------------------------------------------- model indistinguishability


class ViewSnapshots:
    """Capture (time, inbox) snapshots of one node across a run."""

    def __init__(self, node):
        self.node = node
        self.rows = []

    def __call__(self, t, states, tx, rx, collided):
        self.rows.append((t, self.node in rx, self.node in collided))


def test_collision_reads_as_silence():
    # node 1 sits under the root with two leaf children 2 and 3; compare
    # a world where its children stay silent against one where they
    # collide.  Node 1's reception history must be identical silence.
    tree = build_tree([0, 0, 1, 1], labels=range(4))
    p_quiet = one_shot_protocol({0: 7, 1: 7, 2: 90, 3: 90})
    p_clash = one_shot_protocol({0: 7, 1: 7, 2: 4, 3: 4})
    snap_q = ViewSnapshots(1)
    snap_c = ViewSnapshots(1)
    tq = run(tree, p_quiet, FULL, max_steps=8, observer=snap_q)
    tc = run(tree, p_clash, FULL, max_steps=8, observer=snap_c)
    assert tq.steps_executed == tc.steps_executed == 8
    assert tc.collisions_total == 1
    received_q = [r for (_, r, _) in snap_q.rows]
    received_c = [r for (_, r, _) in snap_c.rows]
    assert received_q == received_c == [False] * 8


class ActionLog(ProtocolState):
    """Deterministic busy state whose actions we log; label-driven only."""

    def __init__(self, label, n, log):
        self.own = label
        self.n = n
        self.log = log
        self.asleep_until = 0

    def act(self, view):
        self.asleep_until = view.time + 1
        if (view.time + self.own) % 3 == 0 and not view.inbox:
            out = FireAndForward(self.own)
        else:
            out = None
        self.log.append((view.label, view.time, out))
        return out


def test_label_isolation_across_trees():
    # a node that hears only silence must act identically in any tree
    logs = {}

    def factory(label, n, mode, rng):
        return ActionLog(label, n, logs.setdefault(label, []))

    proto = Protocol(name="log", message_kind=FireAndForward, state_factory=factory)
    for tree in (make_path(4), make_star(4)):
        run(tree, proto, FULL, max_steps=6, stop_early=False)
    # leaves of the star never receive; deepest path node never receives.
    # label 3 is the deepest path node and a star leaf: identical histories.
    rows = logs[3]
    half = len(rows) // 2
    assert rows[:half] == rows[half:]


# ---------------------------------------------------------------- determinism


class CoinState(ProtocolState):
    """Fire with per-step probability 1/4 from the node's own stream."""

    def __init__(self, label, rng):
        self.own = label
        self.rng = rng
        self.asleep_until = 0

    def act(self, view):
        self.asleep_until = view.time + 1
        if self.rng.random() < 0.25:
            return FireAndForward(self.own)
        return None


def coin_protocol():
    return Protocol(
        name="coin",
        message_kind=FireAndForward,
        state_factory=lambda label, n, mode, rng: CoinState(label, rng),
        needs_rng=True,
    )


def test_identical_seeds_identical_trace_bytes():
    tree = from_family("random", 12, seed=5)
    a = run(tree, coin_protocol(), FULL, max_steps=60, seed=9, record_steps=True)
    b = run(tree, coin_protocol(), FULL, max_steps=60, seed=9, record_steps=True)
    c = run(tree, coin_protocol(), FULL, max_steps=60, seed=10, record_steps=True)
    assert a.to_jsonl_bytes() == b.to_jsonl_bytes()
    assert a.to_jsonl_bytes() != c.to_jsonl_bytes()


def test_run_cross_checked_against_step_op():
    # replay every recorded slot of a run through the pure channel op
    tree = from_family("random", 10, seed=3)
    captured = []
    run(
        tree,
        coin_protocol(),
        HALF,
        max_steps=40,
        seed=2,
        observer=lambda t, states, tx, rx, col: captured.append((dict(tx), dict(rx), col)),
    )
    assert captured, "coin protocol should transmit something in 40 steps"
    for tx, rx, col in captured:
        recv, collided = step(tree, HALF, tx)
        assert recv == rx
        assert collided == col


def test_half_vs_full_duplex_reception():
    # child fires while its parent also transmits: only full duplex hears it
    tree = make_path(3)
    sched = {0: 90, 1: 5, 2: 5}
    full = run(tree, one_shot_protocol(sched), FULL, max_steps=8, record_steps=True)
    half = run(tree, one_shot_protocol(sched), HALF, max_steps=8, record_steps=True)
    full_rx = [rec.receptions for rec in full.steps if rec.receptions]
    half_rx = [rec.receptions for rec in half.steps if rec.receptions]
    assert {1: FireAndForward(2), 0: FireAndForward(1)} in full_rx
    assert {0: FireAndForward(1)} in half_rx
    assert all(1 not in rx for rx in half_rx)


# ---------------------------------------------------------------- trace io


def test_trace_jsonl_roundtrip_bytes():
    tree = from_family("caterpillar", 9, seed=1)
    trace = run(tree, relay_protocol(), FULL, max_steps=40, record_steps=True)
    blob = trace.to_jsonl_bytes()
    back = Trace.from_jsonl_lines(io.BytesIO(blob))
    assert back.to_jsonl_bytes() == blob
    assert back.delivery == trace.delivery
    assert back.completion_step == trace.completion_step
    assert back.steps == trace.steps
    assert back.mode is trace.mode


def test_trace_jsonl_roundtrip_file(tmp_path):
    tree = make_star(5)
    trace = run(tree, relay_protocol(), HALF, max_steps=30, record_steps=True)
    path = str(tmp_path / "t.jsonl")
    trace.to_jsonl(path)
    back = Trace.from_jsonl(path)
    assert back.to_jsonl_bytes() == trace.to_jsonl_bytes()


def test_trace_without_records_roundtrip():
    tree = make_star(5)
    trace = run(tree, relay_protocol(), FULL, max_steps=30)
    assert trace.steps is None
    back = Trace.from_jsonl_lines(io.BytesIO(trace.to_jsonl_bytes()))
    assert back.steps is None
    assert back.delivery == trace.delivery


def test_message_json_roundtrip():
    msgs = [
        Unbounded(0b10100010),
        Unbounded(0),
        Bounded(rumor=4, sender=2, height2=1, parity=0),
        Bounded(rumor=0),
        FireAndForward(rumor=9),
    ]
    for m in msgs:
        assert message_from_json(message_to_json(m)) == m


def generic_step_line(rec):
    """The reference form of a step line: a dict per step, messages as
    message_to_json gives them, through the sorted-key encoder."""
    return _dump_line({
        "kind": "step",
        "step": rec.step,
        "transmitters": list(rec.transmitters),
        "receptions": {str(v): message_to_json(m) for v, m in rec.receptions.items()},
        "collisions": list(rec.collisions),
    })


def step_lines(steps):
    """Every step line of records, as the writer writes them."""
    return b"".join(_step_lines(steps))


def assert_steps_match_reference(steps):
    direct = step_lines(steps)
    reference = b"".join(generic_step_line(rec) for rec in steps)
    if direct != reference:
        for rec in steps:
            assert step_lines([rec]) == generic_step_line(rec), rec
    # also catches a fault that only shows across records, in the
    # writer's per-call cache of encoded messages
    assert direct == reference


CONTRACT_TRACES = ([("random", N, name, mode) for name, mode in sorted(PINNED)]
                   + [(fam, LONG_N, name, mode) for fam, name, mode in sorted(LONG_CHAINS)])


@pytest.mark.parametrize("family,n,name,mode", CONTRACT_TRACES, ids=str)
def test_step_writer_matches_generic_encoding(family, n, name, mode):
    trace = recorded_trace(family, n, name, mode)
    assert_steps_match_reference(trace.steps)
    back = Trace.from_jsonl_lines(io.BytesIO(trace.to_jsonl_bytes()))
    assert back.steps == trace.steps


def test_step_writer_matches_generic_encoding_on_hand_built_records():
    shared = FireAndForward(3)
    steps = [
        StepRecord(0, (), {}, ()),
        StepRecord(1, (4,), {}, ()),
        StepRecord(2, (), {}, (7,)),
        StepRecord(3, (5, 11), {2: Bounded(rumor=1)}, ()),
        StepRecord(4, (1, 2), {0: Bounded(rumor=6, sender=2, height2=0, parity=0),
                               1: Bounded(rumor=0, sender=5, height2=3, parity=1)}, ()),
        StepRecord(5, (3, 12, 13), {10: shared, 2: shared}, (9, 40)),
        StepRecord(6, (8,), {10: Unbounded(0)}, ()),
        StepRecord(7, (8, 9), {2: Unbounded(1 << 5 | 1 << 1 | 1 << 30),
                               10: Unbounded(1 << 2)}, (1,)),
        StepRecord(123456789, (), {}, ()),
    ]
    assert_steps_match_reference(steps)
    # string order, not number order: "10" sorts before "2"
    assert step_lines(steps[5:6]).index(b'"10"') < step_lines(steps[5:6]).index(b'"2"')
    assert step_lines([]) == b""


@dataclasses.dataclass(frozen=True)
class Ping:
    rumor: int


def test_step_writer_refuses_a_foreign_message():
    # a fourth kind has no text: the writer raises message_to_json's error
    with pytest.raises(TypeError, match=r"^not a message: Ping\(rumor=1\)$"):
        step_lines([StepRecord(0, (1,), {0: Ping(1)}, ())])
    with pytest.raises(TypeError, match=r"^not a message: Ping\(rumor=1\)$"):
        message_to_json(Ping(1))


# ---------------------------------------------------------------- streaming writer


@pytest.mark.parametrize("name,mode", sorted(PINNED), ids=str)
def test_trace_file_holds_the_trace_bytes(tmp_path, name, mode):
    trace = recorded_trace("random", N, name, mode)
    path = tmp_path / "t.jsonl"
    trace.to_jsonl(str(path))
    assert path.read_bytes() == trace.to_jsonl_bytes()


@pytest.mark.parametrize("budget", [1, 4099])
def test_trace_bytes_do_not_depend_on_the_cache_budget(monkeypatch, budget):
    # bnd shares rumor-set objects across steps.  A 1-byte budget starts
    # the message cache over at each text it encodes; an odd one at
    # uneven points
    trace = recorded_trace("random", N, "bnd", "full")
    want = trace.to_jsonl_bytes()
    monkeypatch.setattr("radio_gather.trace.TEXT_CACHE_BYTES", budget)
    assert trace.to_jsonl_bytes() == want


@pytest.mark.parametrize("mode", ["full", "half"])
@pytest.mark.parametrize("name", ["mls", "bnd"])
def test_trace_writer_holds_the_text_once(name, mode):
    # the text once, in the buffer getvalue() hands back, plus one line
    # and the message cache; joining the whole trace's lines peaked at
    # 3.2 to 3.6 times the text
    duplex = DuplexMode(mode)
    proto = make_protocol(name, 256, duplex)
    trace = run(from_family("random", 256, 100), proto, duplex, max_steps=step_cap(proto),
                seed=100, record_steps=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        blob = trace.to_jsonl_bytes()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(blob), (peak, len(blob))


def file_write_peak(trace, path):
    """The traced memory to_jsonl(path) allocates at its peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace.to_jsonl(path)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["full", "half"])
@pytest.mark.parametrize("name", ["bnd", "unb1"])
def test_trace_file_write_holds_the_cache_budget_not_the_messages(tmp_path, name, mode):
    # besides the trace, to_jsonl holds one line and a message cache of
    # about TEXT_CACHE_BYTES.  bnd and unb1 records carry many rumor sets
    # of kilobytes each, so a cache of every message's text, or a batch
    # of lines, holds far more here
    duplex = DuplexMode(mode)
    proto = make_protocol(name, 256, duplex)
    trace = run(from_family("random", 256, 100), proto, duplex, max_steps=step_cap(proto),
                seed=100, record_steps=True)
    peak = file_write_peak(trace, str(tmp_path / "t.jsonl"))
    assert peak <= 3 * TEXT_CACHE_BYTES, peak


def test_trace_file_write_counts_what_the_cached_texts_occupy(tmp_path):
    # a message object per record, with a text of 24 characters: the
    # cache counts each at what the str occupies (73 bytes), so it starts
    # over after about 900 texts, not the 2700 that their characters fill
    steps = [StepRecord(t, (1,), {0: FireAndForward(t % 10)}, ()) for t in range(20000)]
    trace = Trace(protocol="x", n=16, mode=FULL, seed=0, max_steps=len(steps), delivery={0: 0},
                  completion_step=None, collisions_total=0, steps_executed=len(steps),
                  steps=steps)
    path = tmp_path / "t.jsonl"
    peak = file_write_peak(trace, str(path))
    assert peak <= 3 * TEXT_CACHE_BYTES, peak
    assert Trace.from_jsonl(str(path)).steps == steps


# the hand-written traces' tree size: every node id and rumor lies below
# it; their max_steps leaves room for every step number used below
HEADER_N = 16
FAR_STEPS = 10 ** 6
HEADER = (b'{"kind":"header","max_steps":%d,"mode":"full","n":%d,"protocol":"x",'
          b'"recorded":true,"schema":"radio-gather-trace/1","seed":0}\n' % (FAR_STEPS, HEADER_N))
SUMMARY = (b'{"collisions_total":0,"completion_step":null,"delivery":{"0":0},'
           b'"incomplete":true,"kind":"summary","steps_executed":9}\n')


def recorded_summary(lines, summary=SUMMARY):
    """summary with the collisions_total of a recorded run: the
    collisions of every line json reads as a step.  A line json cannot
    read fails the load before the summary is checked."""
    total = 0
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and obj.get("kind") == "step" and isinstance(
                obj.get("collisions"), list):
            total += len(obj["collisions"])
    return summary.replace(b'"collisions_total":0', b'"collisions_total":%d' % total)


def load(blob):
    return Trace.from_jsonl_lines(io.BytesIO(blob))


def load_steps(*lines, summary=SUMMARY):
    summary = recorded_summary(lines, summary)
    return load(HEADER + b"".join(lines) + summary).steps


def loaded_or_refused(blob):
    """The trace read from blob, or None when the reader refuses it with
    a ValueError.  A trace that loads writes back blob: under /1, blob
    less its silent step lines and with the /2 tag (v2_from_v1)."""
    try:
        trace = load(blob)
    except ValueError:
        return None
    assert trace.to_jsonl_bytes() == v2_from_v1(blob), blob
    return trace


SILENT = b'{"collisions":[],"kind":"step","receptions":{},"step":5,"transmitters":[]}\n'


@pytest.mark.parametrize("line, loads", [
    (SILENT, True),
    (SILENT.replace(b"5", b"0"), True),
    (SILENT.replace(b"5", b"98765432109876543210"), True),
    (SILENT.replace(b"[]}", b"[3]}"), True),
    (SILENT.replace(b":[],", b": [],"), False),
    (SILENT.replace(b"{", b"{ ", 1), False),
    (SILENT.replace(b"\n", b" \n"), False),
    (SILENT.replace(b"\n", b"\r\n"), False),
    (SILENT.replace(b'"step":5', b'"step": 5'), False),
    (SILENT.replace(b'"step":5', b'"step":5 '), False),
    (SILENT.replace(b'"step":5', b'"step":5,"extra":1'), False),
    (SILENT.replace(b'"kind":"step"', b'"extra":[1],"kind":"step"'), False),
    (SILENT.replace(b'"step":5', b'"step":-1'), False),
    (SILENT.replace(b'"step":5', b'"step":5.0'), False),
    (SILENT.replace(b'"step":5', b'"step":5e0'), False),
    (SILENT.replace(b'"step":5', b'"step":05'), False),
], ids=repr)
def test_reader_near_silent_lines_load_only_as_written(line, loads):
    # a /1 silent line in the writer's layout loads to no record; any
    # other layout is refused, whatever json.loads makes of it
    trace = loaded_or_refused(HEADER + line + recorded_summary([line]))
    assert (trace is not None) == loads
    if trace is not None and trace.steps:
        # the same step twice describes no run
        with pytest.raises(ValueError, match="does not follow"):
            load_steps(line, line)
    elif trace is not None:
        assert load_steps(line, line) == []


@pytest.mark.parametrize("line", [
    SILENT.replace(b'"step":5', b'"step":05'),
    SILENT.replace(b'"step":5', b'"step":'),
    SILENT.replace(b'"step":5', b'"step":\xd9\xa5'),  # an Arabic-Indic digit
])
def test_reader_rejects_what_json_rejects(line):
    with pytest.raises(ValueError):
        json.loads(line)
    with pytest.raises(ValueError):
        load_steps(line)


ACTIVE = (b'{"collisions":[0],"kind":"step","receptions":{"1":{"kind":"fnf","rumor":2}},'
          b'"step":5,"transmitters":[2,3,4]}\n')


def test_reader_refuses_a_last_line_without_newline():
    # the writer ends every line, the summary too, with a newline; a step
    # line that lacks one would come after the summary
    for line in (SILENT, ACTIVE):
        summary = recorded_summary([line])
        assert loaded_or_refused(HEADER + line + summary) is not None
        with pytest.raises(ValueError, match="^the summary line is not as the writer writes it$"):
            load(HEADER + line + summary.rstrip(b"\n"))
        with pytest.raises(ValueError, match="^a step record follows the summary$"):
            load(HEADER + summary + line.rstrip(b"\n"))


def rx_line(receptions, step=3):
    return (b'{"collisions":[],"kind":"step","receptions":{%s},"step":%d,"transmitters":[1,2]}\n'
            % (receptions, step))


@pytest.mark.parametrize("receptions", [
    b'"01":{"kind":"fnf","rumor":4}',
    b'"2":{"kind":"fnf","rumor":4},"2":{"kind":"fnf","rumor":5}',
    b'"1":{"kind":"fnf","rumor":4},"01":{"kind":"fnf","rumor":5}',
    b'"1":{"kind":"fnf","rumor":4,"kind":"fnf"}',
    b'"1":{"kind":"fnf", "rumor":4}',
    b'"1":{"rumor":4,"kind":"fnf"},"2":{"kind":"fnf","rumor":4}',
    b'"1":{"kind":"fnf","rumor":4} ,"2":{"kind":"fnf","rumor":5}',
    b'"1":{"kind":"nope"},"1":{"kind":"fnf","rumor":4}',
    b'"1" :{"kind":"fnf","rumor":4}',
], ids=repr)
def test_reader_refuses_receptions_the_writer_never_writes(receptions):
    # json.loads reads each of these lines; none is what the writer
    # writes for the step it reads, so the step parser refuses it by name
    line = rx_line(receptions)
    json.loads(line)
    with pytest.raises(ValueError, match=r"^step record 3\b"):
        _parse_step_line(line.decode(), HEADER_N, {}, {}, {})
    with pytest.raises(ValueError, match=r"^step record 3\b"):
        load_steps(line)
    # again at a later step, with the message texts and keys cached
    with pytest.raises(ValueError, match=r"^step record 4\b"):
        load_steps(rx_line(b'"1":{"kind":"fnf","rumor":4}'), rx_line(receptions, step=4))


@pytest.mark.parametrize("receptions", [
    b'"1":{"kind":"fnf","rumor":4},',
    b'"1":{"kind":"fnf","rumor":4},,"2":{"kind":"fnf","rumor":5}',
    b'"1":{"kind":"fnf","rumor":4}"2":{"kind":"fnf","rumor":5}',
    b'"1":{"kind":"fnf","rumor":4',
    b'"1":{"kind":"fnf","rumor":04}',
    b'"1":{"kind":"fnf","rumor":44',
    b'"1":{"kind":"fnf","rumor":4}x',
])
def test_reader_direct_step_lines_reject_what_json_rejects(receptions):
    line = rx_line(receptions)
    with pytest.raises(ValueError):
        json.loads(line)
    with pytest.raises(ValueError):
        load_steps(line)
    # once the message's text is cached, too
    with pytest.raises(ValueError):
        load_steps(rx_line(b'"1":{"kind":"fnf","rumor":4}', step=2), line)


FNF = b'{"kind":"fnf","rumor":4}'
BOUNDED = b'{"height2":1,"kind":"bounded","parity":null,"rumor":4,"sender":2}'
UNBOUNDED = b'{"aux":[],"kind":"unbounded","rumors":[1,2]}'


@pytest.mark.parametrize("message", [
    FNF.replace(b"4", b'"a"'),
    FNF.replace(b"4", b"true"),
    FNF.replace(b"4", b"1.0"),
    FNF.replace(b"4", b"-1"),
    FNF.replace(b"4", b"null"),
    BOUNDED.replace(b'"rumor":4', b'"rumor":"x"'),
    BOUNDED.replace(b'"rumor":4', b'"rumor":true'),
    BOUNDED.replace(b'"rumor":4', b'"rumor":1.0'),
    BOUNDED.replace(b'"height2":1', b'"height2":"h"'),
    BOUNDED.replace(b'"sender":2', b'"sender":false'),
    BOUNDED.replace(b'"parity":null', b'"parity":[0]'),
    UNBOUNDED.replace(b"[1,2]", b"[-1]"),
    UNBOUNDED.replace(b"[1,2]", b'["a"]'),
    UNBOUNDED.replace(b"[1,2]", b"[1.5]"),
    UNBOUNDED.replace(b"[1,2]", b"[[1]]"),
    UNBOUNDED.replace(b"[1,2]", b"[1,true]"),
    UNBOUNDED.replace(b"[1,2]", b'"12"'),
    UNBOUNDED.replace(b"[1,2]", b"[%d]" % LABEL_LIMIT),
], ids=repr)
def test_reader_rejects_message_fields_that_are_no_labels(message):
    # each rumor, sender, height2 and parity is a label or, where it is
    # optional, null
    with pytest.raises(ValueError, match="^step record 3: "):
        load_steps(rx_line(b'"1":%s' % message))
    with pytest.raises(ValueError):
        message_from_json(json.loads(message))


@pytest.mark.parametrize("message", [
    b'{"kind":"fnf"}',
    b'{"kind":"bounded","rumor":1}',
    b'{"aux":5,"kind":"unbounded","rumors":[1]}',
    b'{"kind":"unbounded","rumors":[1]}',
    b'{"aux":[["}",1]],"kind":"unbounded","rumors":[2]}',
    b'{"aux":[[",\\"2\\":{",1]],"kind":"unbounded","rumors":[2]}',
    b'{"aux":[["a},\\"b",1],["}",2]],"kind":"unbounded","rumors":[]}',
    b'{"hops":1,"kind":"fnf","rumor":4}',
    b'{"aux":[],"kind":"fnf","rumors":[4]}',
    b'{"kind":["fnf"],"rumor":4}',
    b'{"kind":"nope"}',
    b"5",
    b"[4]",
    b"null",
], ids=repr)
def test_reader_rejects_malformed_messages(message):
    # a message has its kind's fields and no others, and aux is empty;
    # anything else is a ValueError, never a KeyError
    with pytest.raises(ValueError):
        load_steps(rx_line(b'"1":%s' % message))
    with pytest.raises(ValueError):
        message_from_json(json.loads(message))


@pytest.mark.parametrize("message", [
    b'{"kind":"fnf","rumor":4 }',
    b'{"rumor":4,"kind":"fnf"}',
    b'{"height2":1,"kind":"bounded","parity":null,"rumor":4,"sender":2,"sender":2}',
    b'{"aux":[],"kind":"unbounded","rumors":[2,1]}',
    b'{"aux":[],"kind":"unbounded","rumors":[1,1,2]}',
    b'{"aux":[],"kind":"unbounded","rumors":[-0,1]}',
    b'{"aux":[],"kind":"unbounded","rumors":[1,2],"aux":[]}',
], ids=repr)
def test_reader_refuses_message_texts_the_writer_never_writes(message):
    # each decodes to a message whose text differs
    message_from_json(json.loads(message))
    with pytest.raises(ValueError, match="^step record 3 holds .* not as the writer writes"):
        load_steps(rx_line(b'"1":%s' % message))


@pytest.mark.parametrize("line", [
    ACTIVE.replace(b"[2,3,4]", b"[2,3,16]"),
    ACTIVE.replace(b"[2,3,4]", b"[-1,3,4]"),
    ACTIVE.replace(b'"collisions":[0]', b'"collisions":[16]'),
    ACTIVE.replace(b'"collisions":[0]', b'"collisions":[0,-1]'),
    ACTIVE.replace(b'"1":{', b'"16":{'),
    ACTIVE.replace(b'"1":{', b'"-1":{'),
    ACTIVE.replace(b'"rumor":2', b'"rumor":16'),
    rx_line(b'"1":%s' % BOUNDED.replace(b'"rumor":4', b'"rumor":16')),
    rx_line(b'"1":%s' % BOUNDED.replace(b'"sender":2', b'"sender":16')),
    rx_line(b'"1":%s' % UNBOUNDED.replace(b"[1,2]", b"[1,16]")),
], ids=repr)
def test_reader_rejects_ids_outside_the_tree(line):
    # node ids, rumors and senders of an n-node tree lie below n
    # earlier steps whose texts below n are then cached
    cached = (ACTIVE.replace(b'"step":5', b'"step":0'), rx_line(b'"1":%s' % UNBOUNDED, step=1))
    assert len(load_steps(*cached)) == 2
    with pytest.raises(ValueError, match=r"not a label below 16|in 0\.\.15"):
        load_steps(line)
    with pytest.raises(ValueError, match=r"not a label below 16|in 0\.\.15"):
        load_steps(*cached, line)


def test_reader_checks_ids_against_the_header():
    line = rx_line(b'"1":{"kind":"fnf","rumor":99}').replace(b"[1,2]", b"[7]")
    header = HEADER.replace(b'"n":%d' % HEADER_N, b'"n":%d')
    with pytest.raises(ValueError):
        load(header % 3 + line + SUMMARY)
    assert load(header % 100 + line + SUMMARY).steps == [
        StepRecord(3, (7,), {1: FireAndForward(99)}, ())
    ]
    # the largest ids of a tree load
    top = ACTIVE.replace(b"[2,3,4]", b"[15]").replace(b'"rumor":2', b'"rumor":15')
    assert load_steps(top) == [StepRecord(5, (15,), {1: FireAndForward(15)}, (0,))]


@pytest.mark.parametrize("lines", [
    [ACTIVE, HEADER],
    [SILENT, HEADER],
    [ACTIVE.replace(b'{"collisions":', b'{"collisions": '), HEADER],
    [HEADER, HEADER],
    [HEADER, ACTIVE, HEADER],
    [HEADER.replace(b'"n":%d' % HEADER_N, b'"n":0')],
    [HEADER.replace(b'"n":%d' % HEADER_N, b'"n":"16"')],
    [HEADER.replace(b'"n":%d' % HEADER_N, b'"n":true')],
    [HEADER.replace(b'"n":%d' % HEADER_N, b'"n":%d' % (LABEL_LIMIT + 1))],
], ids=repr)
def test_reader_requires_one_header_first(lines):
    # the writer's order: one header that gives a tree size, then steps
    with pytest.raises(ValueError):
        load(b"".join(lines) + SUMMARY)


ACTIVE_SUMMARY = recorded_summary([ACTIVE])


@pytest.mark.parametrize("lines, message", [
    ([ACTIVE_SUMMARY, HEADER, ACTIVE, ACTIVE_SUMMARY], "a summary record comes before the header"),
    ([HEADER, ACTIVE, ACTIVE_SUMMARY, ACTIVE_SUMMARY], "a summary record follows the summary"),
    ([HEADER, ACTIVE_SUMMARY, ACTIVE], "a step record follows the summary"),
    ([HEADER, ACTIVE_SUMMARY, SILENT], "a step record follows the summary"),
    ([HEADER, ACTIVE_SUMMARY, HEADER], "a second header record"),
    ([HEADER, b"{}\n", ACTIVE, ACTIVE_SUMMARY], "trace record of unknown kind None"),
    ([HEADER, ACTIVE, b'{"kind":"bogus"}\n', ACTIVE_SUMMARY],
     "trace record of unknown kind 'bogus'"),
    ([b'{"kind":["step"]}\n', HEADER, ACTIVE_SUMMARY],
     r"trace record of unknown kind \['step'\]"),
], ids=["summary first", "two summaries", "step after the summary",
        "silent step after the summary", "header after the summary", "no kind", "bogus kind",
        "list kind"])
def test_reader_requires_header_steps_and_one_summary_last(lines, message):
    # the writer's order: the header, then steps, then one summary, last;
    # each of these traces would load without the line out of order
    with pytest.raises(ValueError, match=f"^{message}$"):
        load(b"".join(lines))
    assert len(load(HEADER + ACTIVE + ACTIVE_SUMMARY).steps) == 1


# One of each record with two receptions, and a summary whose delivery
# keys "10" and "2" come in string order, not number order
BASE = (HEADER + SILENT.replace(b'"step":5', b'"step":1')
        + rx_line(b'"1":{"kind":"fnf","rumor":4},"2":{"kind":"fnf","rumor":5}')
        + SUMMARY.replace(b'{"0":0}', b'{"0":0,"10":4,"2":3}'))
UNSILENT = [(SILENT.replace(b'"step":5', b'"step":1'), b"")]


@pytest.mark.parametrize("edits, message", [
    ([(b'"1":{', b'"01":{')], "has reception key"),
    ([(b'"1":{', b'" 1":{')], "has reception key"),
    ([(b'"1":{', b'"+1":{')], "has reception key"),
    ([(b'"1":{', b'"1_0":{')], "has reception key"),
    ([(b'"2":{', b'"1":{')], 'has reception key "1" after "1"'),
    ([(b'"2":{', b'"01":{')], "has reception key"),
    ([(b'"1":{"kind":"fnf","rumor":4},"2":{"kind":"fnf","rumor":5}',
       b'"2":{"kind":"fnf","rumor":5},"1":{"kind":"fnf","rumor":4}')],
     'has reception key "1" after "2"'),
    ([(b'"seed":0}\n', b'"seed":0}\n\n')], "Expecting value"),
    ([(b'"steps_executed":9}\n', b'"steps_executed":9}\n\n')], "Expecting value"),
    ([(b"[1,2]}\n", b"[1,2]}\r\n")], "step line .* is not in the writer's layout"),
    ([(b'"seed":0}\n', b'"seed":0}\r\n')], "the header line is not as the writer writes it"),
    ([(b'"n":16', b'"n": 16')], "the header line is not as the writer writes it"),
    ([(b'"n":16', b'"n":16,"n":16')], "the header line is not as the writer writes it"),
    ([(b'"seed":0', b'"seed":0,"tree":[]')], "the header line is not as the writer writes it"),
    ([(b'{"0":0,"10":4,"2":3}', b'{"0":0,"2":3,"10":4}')],
     "the summary line is not as the writer writes it"),
    ([(b'"steps_executed":9}\n', b'"steps_executed":9}')],
     "the summary line is not as the writer writes it"),
    ([(b"/1", b"/2")], "step record 1 is silent, and /2 writes no silent step"),
    (UNSILENT + [(b'"recorded":true', b'"recorded":false')],
     "a step record in a trace that records no steps"),
], ids=["key 01", "key space 1", "key +1", "key 1_0", "key 1 twice", "keys 1 and 01",
        "key 2 before 1", "blank line", "blank last line", "step CRLF", "header CRLF",
        "header space", "header key twice", "header extra key", "delivery out of order",
        "no final newline", "/2 silent step", "step of an unrecorded trace"])
def test_reader_refuses_what_the_writer_never_writes(edits, message):
    # BASE loads and writes back; each edit keeps it valid JSON of the
    # same meaning, but not the writer's bytes.  Without its silent line
    # it is the writer's /2 trace, recorded or, with no step, unrecorded
    assert loaded_or_refused(BASE) is not None
    bare = BASE.replace(*UNSILENT[0]).replace(b"/1", b"/2")
    assert load(bare).to_jsonl_bytes() == bare
    unrecorded = HEADER.replace(b'"recorded":true', b'"recorded":false') + SUMMARY
    assert load(unrecorded).to_jsonl_bytes() == v2_from_v1(unrecorded)
    blob = BASE
    for old, new in edits:
        assert old in blob
        blob = blob.replace(old, new, 1)
    with pytest.raises(ValueError, match=message):
        load(blob)


@pytest.mark.parametrize("line, message", [
    (ACTIVE.replace(b'"step":5,', b""), "step line .* is not in the writer's layout"),
    (ACTIVE.replace(b'"transmitters":[2,3,4]', b'"transmitters":3'),
     "step line .* is not in the writer's layout"),
    (ACTIVE.replace(b'"transmitters":[2,3,4]', b'"transmitters":{}'),
     "step line .* is not in the writer's layout"),
    (ACTIVE.replace(b'"transmitters":[2,3,4]', b'"transmitters":"234"'),
     "step line .* is not in the writer's layout"),
    (ACTIVE.replace(b',"transmitters":[2,3,4]', b""),
     "step line .* is not in the writer's layout"),
    (ACTIVE.replace(b'"receptions":{"1":{"kind":"fnf","rumor":2}},', b""),
     "step line .* is not in the writer's layout"),
    (ACTIVE.replace(b'{"1":{"kind":"fnf","rumor":2}}', b"[]"),
     "step line .* is not in the writer's layout"),
    (ACTIVE.replace(b'{"1":{"kind":"fnf","rumor":2}}', b"null"),
     "step line .* is not in the writer's layout"),
    (ACTIVE.replace(b'"collisions":[0],', b""), "step line .* is not in the writer's layout"),
    (ACTIVE.replace(b'"collisions":[0]', b'"collisions":null'),
     "step line .* is not in the writer's layout"),
    (ACTIVE.replace(b'"step":5', b'"step":null'), "step record null is no step number"),
    (ACTIVE.replace(b"[0]", b"[0,,1]"), r"step record 5 lists \[0,,1\]"),
    (ACTIVE.replace(b"[2,3,4]", b"[2, 3]"), r"step record 5 lists \[2, 3\]"),
], ids=repr)
def test_reader_rejects_step_lines_without_the_writers_fields(line, message):
    # a step line has the writer's four fields in its layout, or it is
    # refused by a ValueError that names the step where it can, never a
    # KeyError, TypeError or AttributeError
    with pytest.raises(ValueError, match=f"^{message}"):
        load_steps(line)


# every rumor delivered, the last (rumor 1) at step 5; keys in the
# writer's string order
ALL_DELIVERED = b'"delivery":{%s}' % b",".join(
    b'"%d":%d' % (r, 5 if r == 1 else r % 5) for r in sorted(range(HEADER_N), key=str))


@pytest.mark.parametrize("completion,incomplete,ok", [
    (b"null", b"true", True),
    (b"5", b"false", True),
    (b"null", b"false", False),
    (b"5", b"true", False),
    (b"null", b"1", False),
    (b"5", b"0", False),
])
def test_reader_derives_incomplete_from_completion_step(completion, incomplete, ok):
    summary = recorded_summary([ACTIVE])
    summary = summary.replace(b'"completion_step":null', b'"completion_step":%s' % completion)
    summary = summary.replace(b'"incomplete":true', b'"incomplete":%s' % incomplete)
    if completion != b"null":
        summary = summary.replace(b'"delivery":{"0":0}', ALL_DELIVERED)
    blob = HEADER + ACTIVE + summary
    if ok:
        trace = load(blob)
        assert trace.incomplete is (completion == b"null")
        assert trace.to_jsonl_bytes().endswith(summary)
    else:
        with pytest.raises(ValueError, match="contradicts"):
            load(blob)


@pytest.mark.parametrize("end", [b"\n", b""], ids=["newline", "eof"])
def test_reader_message_running_to_the_line_end(end):
    # the receptions object is never closed: the message swallows what
    # looks like the line's tail
    line = rx_line(b'"1":{"x":{').rstrip(b"\n") + end
    with pytest.raises(ValueError):
        json.loads(line)
    with pytest.raises(ValueError):
        load_steps(line)


# a run long enough for every step number of the lines mutated below
FAR_SUMMARY = SUMMARY.replace(b'"steps_executed":9', b'"steps_executed":%d' % FAR_STEPS)


def edited(line, rng):
    """line with one to three random byte edits.  Half the lines get
    theirs at digits, with digits and commas; most edits break the
    layout, some keep it with other numbers, keys or texts."""
    line = bytearray(line.rstrip(b"\n"))
    numeric = rng.integers(2)
    alphabet = b"0123456789," if numeric else b'{}[],":0123456789 -\\x'
    for _ in range(rng.integers(1, 4)):
        spots = ([i for i, c in enumerate(line) if c in b"0123456789"] if numeric
                 else range(len(line)))
        if not spots:
            continue
        i = int(spots[rng.integers(len(spots))])
        op = rng.integers(3)
        if op == 0:
            del line[i]
        elif op == 1:
            line.insert(i, alphabet[rng.integers(len(alphabet))])
        else:
            line[i] = alphabet[rng.integers(len(alphabet))]
    return bytes(line) + b"\n"


def sample_traces():
    """Every protocol's recorded trace on a 16-node tree, full duplex."""
    traces = []
    for name in PROTOCOL_NAMES:
        proto = make_protocol(name, 16, FULL)
        traces.append(run(from_family("random", 16, seed=3), proto, FULL,
                          max_steps=step_cap(proto), seed=3, record_steps=True))
    return traces


def test_reader_mutated_step_lines_load_only_as_written():
    # random edits of real step lines: each edited trace is refused with
    # a ValueError, or it loads and writes back to the edited bytes
    lines = []
    for trace in sample_traces():
        lines += step_lines(trace.steps[:20]).splitlines(keepends=True)
    lines.append(rx_line(b'"1":{"aux":[["}",1],[",\\"9\\":{",2]],"kind":"unbounded","rumors":[2]}'))
    rng = np.random.default_rng(7)
    kept = 0
    for _ in range(3000):
        line = edited(lines[rng.integers(len(lines))], rng)
        kept += loaded_or_refused(HEADER + line + recorded_summary([line], FAR_SUMMARY)) is not None
    # the edits that keep the layout and the ids below 16
    assert kept >= 300, kept


def test_reader_mutated_header_and_summary_lines_load_only_as_written():
    rng = np.random.default_rng(11)
    blobs = [trace.to_jsonl_bytes().splitlines(keepends=True) for trace in sample_traces()]
    kept = 0
    for _ in range(1000):
        lines = list(blobs[rng.integers(len(blobs))])
        i = rng.choice([0, len(lines) - 1])
        lines[i] = edited(lines[i], rng)
        kept += loaded_or_refused(b"".join(lines)) is not None
    assert kept >= 50, kept


def test_reader_loads_equal_message_texts_as_one_object():
    fnf = b'{"kind":"fnf","rumor":4}'
    rumors = b'{"aux":[],"kind":"unbounded","rumors":[1,2]}'
    steps = load_steps(
        rx_line(b'"1":%s,"2":%s' % (fnf, rumors)),
        rx_line(b'"7":%s,"9":%s' % (rumors, fnf), step=4),
    )
    a, b = steps[0].receptions, steps[1].receptions
    assert a[1] is b[9] and a[2] is b[7]
    assert a[1] == FireAndForward(4) and a[2] == Unbounded(0b110)


def ordered_trace(schema, active, steps_executed=4):
    """A hand-written trace with ACTIVE's record at each step of active,
    in that order, under schema /1 or /2.  Under /1 a silent line comes
    first for every step below steps_executed: silent lines load to
    nothing, so they take no part in the order."""
    header = HEADER.replace(b"/1", b"/%d" % schema)
    silent = [SILENT.replace(b'"step":5', b'"step":%d' % t)
              for t in range(steps_executed)] if schema == 1 else []
    lines = [ACTIVE.replace(b'"step":5', b'"step":%d' % t) for t in active]
    summary = SUMMARY.replace(b'"steps_executed":9', b'"steps_executed":%d' % steps_executed)
    return io.BytesIO(header + b"".join(silent + lines) + recorded_summary(lines, summary))


@pytest.mark.parametrize("schema", [1, 2])
@pytest.mark.parametrize("active, message", [
    ([7, 2, 2], "step record 2 does not follow step 7"),
    ([2, 1], "step record 1 does not follow step 2"),
    ([1, 1], "step record 1 does not follow step 1"),
    ([0, 2, 2, 3], "step record 2 does not follow step 2"),
    ([1, 4], "step record 4 lies past steps_executed 4"),
    ([4], "step record 4 lies past steps_executed 4"),
])
def test_reader_rejects_steps_that_describe_no_run(schema, active, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Trace.from_jsonl_lines(ordered_trace(schema, active))


@pytest.mark.parametrize("step, message", [
    (b"-1", "step record -1 is no step number"),
    (b"2.0", "step record 2.0 is no step number"),
    (b'"2"', 'step record "2" is no step number'),
    (b"true", "step record true is no step number"),
])
def test_reader_rejects_kept_steps_that_are_no_step_number(step, message):
    line = ACTIVE.replace(b'"step":5', b'"step":%s' % step)
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_steps(line)


@pytest.mark.parametrize("executed", [b'"4"', b"4.0", b"null"])
def test_reader_rejects_a_steps_executed_that_is_no_count(executed):
    summary = SUMMARY.replace(b'"steps_executed":9', b'"steps_executed":%s' % executed)
    with pytest.raises(ValueError, match="is no step count"):
        load_steps(ACTIVE, summary=summary)


@pytest.mark.parametrize("schema", [1, 2])
def test_reader_keeps_rising_steps_below_steps_executed(schema):
    trace = Trace.from_jsonl_lines(ordered_trace(schema, [0, 1, 3]))
    assert [rec.step for rec in trace.steps] == [0, 1, 3]
    assert trace.steps_executed == 4


# ---------------------------------------------------------------------------
# the summary must describe the run the header and records describe


def load_summary(summary, lines=(ACTIVE,), header=HEADER):
    return load(header + b"".join(lines) + summary)


@pytest.mark.parametrize("field", ["delivery", "completion_step", "incomplete",
                                   "collisions_total", "steps_executed"])
def test_reader_rejects_a_summary_without_a_field(field):
    obj = json.loads(recorded_summary([ACTIVE]))
    del obj[field]
    with pytest.raises(ValueError, match="summary record lacks " + field):
        load_summary(_dump_line(obj))


@pytest.mark.parametrize("field", ["protocol", "mode", "seed", "max_steps", "recorded"])
def test_reader_rejects_a_header_without_a_field(field):
    obj = json.loads(HEADER)
    del obj[field]
    with pytest.raises(ValueError, match="header record lacks " + field):
        load_summary(recorded_summary([ACTIVE]), header=_dump_line(obj))


@pytest.mark.parametrize("field, value, message", [
    ("protocol", 7, "protocol 7 is no protocol name"),
    ("protocol", None, "protocol None is no protocol name"),
    ("seed", [1], r"seed \[1\] is no nonnegative int"),
    ("seed", -3, "seed -3 is no nonnegative int"),
    ("seed", True, "seed True is no nonnegative int"),
    ("seed", 1.0, "seed 1.0 is no nonnegative int"),
    ("recorded", "no", "recorded 'no' is neither true nor false"),
    ("recorded", 1, "recorded 1 is neither true nor false"),
    ("recorded", None, "recorded None is neither true nor false"),
])
def test_reader_rejects_a_header_field_of_the_wrong_type(field, value, message):
    obj = json.loads(HEADER)
    obj[field] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_summary(recorded_summary([ACTIVE]), header=_dump_line(obj))


def test_reader_keeps_the_header_fields_as_written():
    obj = json.loads(HEADER)
    obj.update(protocol="", seed=12345678901234567890, recorded=False)
    header = _dump_line(obj)
    trace = load_summary(SUMMARY, (), header)
    assert (trace.protocol, trace.seed, trace.steps) == ("", 12345678901234567890, None)
    assert trace.to_jsonl_bytes() == v2_from_v1(header + SUMMARY)


@pytest.mark.parametrize("line", [b"[1]", b"5", b'"s"', b"null"])
@pytest.mark.parametrize("where", ["first", "after the header", "last"])
def test_reader_rejects_a_line_that_is_no_object(line, where):
    lines = [HEADER, ACTIVE, recorded_summary([ACTIVE])]
    lines.insert({"first": 0, "after the header": 1, "last": 3}[where], line + b"\n")
    with pytest.raises(ValueError, match=r"^trace line .* is no JSON object$"):
        Trace.from_jsonl_lines(io.BytesIO(b"".join(lines)))


@pytest.mark.parametrize("rumor", [b"16", b"99", b"-1", b"01", b"+1", b" 1", b"a", b""])
def test_reader_rejects_a_delivered_rumor_that_is_no_label(rumor):
    summary = recorded_summary([ACTIVE]).replace(b'"delivery":{"0":0}',
                                                 b'"delivery":{"0":0,"%s":3}' % rumor)
    with pytest.raises(ValueError, match="is no label below 16"):
        load_summary(summary)


@pytest.mark.parametrize("step", [b"9", b"10", b"-1", b"3.0", b'"3"', b"true", b"null"])
def test_reader_rejects_a_delivery_step_outside_the_run(step):
    # steps_executed 9: steps 0..8 ran
    summary = recorded_summary([ACTIVE]).replace(b'"delivery":{"0":0}',
                                                 b'"delivery":{"0":0,"3":%s}' % step)
    with pytest.raises(ValueError, match=r"outside steps 0\.\.8"):
        load_summary(summary)


def test_reader_takes_deliveries_at_the_last_step_run():
    summary = recorded_summary([ACTIVE]).replace(b'"delivery":{"0":0}',
                                                 b'"delivery":{"0":0,"3":8}')
    assert load_summary(summary).delivery == {0: 0, 3: 8}


@pytest.mark.parametrize("completion, delivery", [
    (b"4", ALL_DELIVERED),  # the last delivery is at 5
    (b"6", ALL_DELIVERED),
    (b"null", ALL_DELIVERED),
    (b"5.0", ALL_DELIVERED),
    (b"5", b'"delivery":{"0":0,"1":5}'),  # only two of 16 arrived
    (b"0", b'"delivery":{"0":0}'),
], ids=["4 of all", "6 of all", "null of all", "5.0 of all", "5 of two", "0 of one"])
def test_reader_rejects_a_completion_step_the_delivery_contradicts(completion, delivery):
    incomplete = b"true" if completion == b"null" else b"false"
    summary = (recorded_summary([ACTIVE])
               .replace(b'"delivery":{"0":0}', delivery)
               .replace(b'"completion_step":null', b'"completion_step":%s' % completion)
               .replace(b'"incomplete":true', b'"incomplete":%s' % incomplete))
    with pytest.raises(ValueError, match="contradicts the delivery"):
        load_summary(summary)


@pytest.mark.parametrize("total", [b"-5", b"-1", b"1.0", b'"1"', b"true", b"null"])
def test_reader_rejects_a_collisions_total_that_is_no_count(total):
    summary = SUMMARY.replace(b'"collisions_total":0', b'"collisions_total":%s' % total)
    with pytest.raises(ValueError, match="is no count"):
        load_summary(summary)


@pytest.mark.parametrize("total", [0, 1, 3])
def test_reader_rejects_a_collisions_total_the_records_contradict(total):
    # ACTIVE records one collision at each of its two steps
    lines = (ACTIVE, ACTIVE.replace(b'"step":5', b'"step":6'))
    summary = SUMMARY.replace(b'"collisions_total":0', b'"collisions_total":%d' % total)
    with pytest.raises(ValueError, match="differs from the 2 collisions recorded"):
        load_summary(summary, lines)
    # an unrecorded trace has no records to count against
    unrecorded = HEADER.replace(b'"recorded":true', b'"recorded":false')
    assert load_summary(summary, (), unrecorded).collisions_total == total


def test_reader_rejects_more_steps_than_max_steps():
    header = HEADER.replace(b'"max_steps":%d' % FAR_STEPS, b'"max_steps":8')
    with pytest.raises(ValueError, match="steps_executed 9 exceeds max_steps 8"):
        load_summary(recorded_summary([ACTIVE]), header=header)
    header = HEADER.replace(b'"max_steps":%d' % FAR_STEPS, b'"max_steps":9')
    assert load_summary(recorded_summary([ACTIVE]), header=header).steps_executed == 9


def test_reader_rejects_the_inconsistent_n3_summary():
    # rumor 99 outside the tree, step 7 past steps_executed 1, completion
    # with two of three rumors, a negative collision count, and more steps
    # than max_steps: each alone fails the load
    header = HEADER.replace(b'"n":%d' % HEADER_N, b'"n":3').replace(
        b'"max_steps":%d' % FAR_STEPS, b'"max_steps":10')
    good = (b'{"collisions_total":0,"completion_step":null,"delivery":{"0":0},'
            b'"incomplete":true,"kind":"summary","steps_executed":1}\n')
    assert load_summary(good, (), header).steps == []
    for old, new in [
        (b'{"0":0}', b'{"0":0,"99":7}'),
        (b'{"0":0}', b'{"0":0,"1":7}'),
        (b'"completion_step":null,"delivery":{"0":0},"incomplete":true',
         b'"completion_step":2,"delivery":{"0":0,"1":0},"incomplete":false'),
        (b'"collisions_total":0', b'"collisions_total":-5'),
        (b'"steps_executed":1', b'"steps_executed":99'),
    ]:
        with pytest.raises(ValueError):
            load_summary(good.replace(old, new), (), header)


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_reader_loads_every_written_summary(name, record):
    # n = 1 runs no step and delivers its rumor at step 0; the others
    # stop early or at a cap, with or without every rumor
    for n, steps in ((1, 5), (1, 0), (5, 3), (16, None)):
        proto = make_protocol(name, n, FULL)
        cap = step_cap(proto) if steps is None else steps
        trace = run(from_family("random", n, seed=1), proto, FULL,
                    max_steps=cap, seed=1, record_steps=record)
        blob = trace.to_jsonl_bytes()
        assert Trace.from_jsonl_lines(io.BytesIO(blob)).to_jsonl_bytes() == blob


def test_trace_rejects_unknown_schema():
    bad = b'{"kind":"header","schema":"nope","protocol":"x","n":1,"mode":"full","seed":0,"max_steps":1,"recorded":false}\n'
    with pytest.raises(ValueError):
        Trace.from_jsonl_lines(io.BytesIO(bad))


def test_mask_bits_lists_rumors_ascending():
    assert mask_bits(0) == []
    assert mask_bits(0b1011) == [0, 1, 3]
    assert mask_bits(1 << 200 | 1 << 7) == [7, 200]
    # a negative int has infinitely many set bits: no rumor set
    with pytest.raises(ValueError):
        mask_bits(-2)


def test_unbounded_delivery_unpacks_rumor_sets():
    # a single unbounded message can complete several rumors at once; a
    # later one that overlaps it delivers only its new rumors, at its step
    sends = {1: (3, 0b001110), 2: (5, 0b111101)}

    class Blast(ProtocolState):
        def __init__(self, label):
            self.at, self.mask = sends.get(label, (SLEEP_FOREVER, 0))
            self.asleep_until = self.at

        def act(self, view):
            self.asleep_until = SLEEP_FOREVER
            if view.time == self.at:
                return Unbounded(self.mask)
            return None

    proto = Protocol(
        name="blast",
        message_kind=Unbounded,
        state_factory=lambda label, n, mode, rng: Blast(label),
    )
    tree = make_star(6)
    trace = run(tree, proto, FULL, max_steps=10)
    assert trace.completion_step == 5
    # the root's own rumor and rumors 1-3 keep their first steps
    assert trace.delivery == {0: 0, 1: 3, 2: 3, 3: 3, 4: 5, 5: 5}


# ------------------------------------------------ standing beats and relays


class OfferHidden(ProtocolState):
    """Forwards act() and asleep_until only, as a timing proxy does, and
    logs what act() returns.  The engine sees neither a standing offer
    nor the forwards promise, so it calls act() for every beat and
    every relay hop."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    @property
    def asleep_until(self):
        return self._inner.asleep_until

    def act(self, view):
        msg = self._inner.act(view)
        self._log(msg)
        return msg


def hide_offer(proto, sent):
    """proto with each state behind OfferHidden, logging into sent."""
    factory = proto.state_factory
    return dataclasses.replace(
        proto,
        state_factory=lambda label, n, mode, rng: OfferHidden(
            factory(label, n, mode, rng), sent.append
        ),
    )


def log_acts(proto, sent, views=None):
    """proto with each bare state's act() logged into sent, and its view
    kept in views by label.  The state keeps its class, so the engine
    can take its standing beats and relay hops."""
    factory = proto.state_factory

    def logging(label, n, mode, rng):
        state = factory(label, n, mode, rng)

        def act(view, inner=state.act):
            if views is not None:
                views[view.label] = view
            msg = inner(view)
            sent.append(msg)
            return msg

        state.act = act
        return state

    return dataclasses.replace(proto, state_factory=logging)


class Beacon(ProtocolState):
    """Sends its own rumor at steps first + k*period below stop and
    offers the beats after the first.  stop need not fall on a beat."""

    def __init__(self, label):
        self.msg = FireAndForward(label)
        self.first = 4 * label
        self.period = 2 + label % 3
        self.stop = self.first + 3 * self.period + label % self.period
        self.asleep_until = self.first
        self.stood = False

    def act(self, view):
        t = view.time
        off = (t - self.first) % self.period
        beat = self.first <= t < self.stop and off == 0
        nxt = max(self.first, t + self.period - off)
        self.asleep_until = nxt if nxt < self.stop and not self.stood else SLEEP_FOREVER
        if beat and t == self.first:
            self.standing = (self.msg, t, self.stop, self.period)
        return self.msg if beat else None

    def stand(self):
        self.standing = None
        self.stood = True
        self.asleep_until = SLEEP_FOREVER


BEACON = Protocol(
    name="beacon",
    message_kind=FireAndForward,
    state_factory=lambda label, n, mode, rng: Beacon(label),
)


@pytest.mark.parametrize("mode", list(DuplexMode), ids=lambda m: m.value)
def test_standing_beacons_match_stepwise(mode):
    # node 1 hears beacons 2 and 3, node 4 hears 5, 6 and 7, each with
    # its own period and window, alone on some beats and colliding on
    # others.  Beacon 2's last beat comes two steps before its stop,
    # with silence up to beacon 5's next beat; the run ends one step
    # after beacon 7's last repeat reaches node 4, as a stepwise run
    # that wakes node 4 for it does
    tree = build_tree([0, 0, 1, 1, 0, 4, 4, 4], labels=range(8))
    bare, hidden = [], []
    got = run(tree, log_acts(BEACON, bare), mode, max_steps=80, record_steps=True)
    want = run(tree, hide_offer(BEACON, hidden), mode, max_steps=80, record_steps=True)
    assert got.to_jsonl_bytes() == want.to_jsonl_bytes()
    assert got.steps_executed < 80 and got.collisions_total > 0
    assert len(bare) < len(hidden)


LADDERS = ("unb1", "unb2", "bnd")
RELAYS = ("mls", "rtree")


@pytest.mark.parametrize("mode", list(DuplexMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", LADDERS + RELAYS)
def test_hidden_offer_gives_identical_traces(name, mode):
    # a proxy that forwards only act() and asleep_until never calls
    # stand() and does not promise to forward, so its states keep every
    # beat and every relay hop; the traces must agree
    bare, hidden = [], []
    for family, n in (("random", 48), ("path", 16), ("caterpillar", 33)):
        tree = from_family(family, n, seed=5)
        proto = make_protocol(name, n, mode)
        got = run(tree, log_acts(proto, bare), mode, max_steps=step_cap(proto),
                  seed=5, record_steps=True)
        want = run(tree, hide_offer(proto, hidden), mode, max_steps=step_cap(proto),
                   seed=5, record_steps=True)
        assert got.to_jsonl_bytes() == want.to_jsonl_bytes(), (family, n)
    assert len(bare) < len(hidden)


def test_relay_fire_after_an_arrival_is_silenced_stepwise():
    # path 2 -> 1 -> 0.  Label 2 fires at 0; label 1's own fire at 1
    # lands on the step after that arrival, so the engine wakes it and
    # act() silences both.  Label 2 fires again at 6 while label 1
    # sleeps past 7: the engine sends that forward at 7 itself
    tree = build_tree([0, 0, 1], labels=range(3))
    proto = schedule_protocol(FiringSchedule(n=3, T=8, fires=((), (1, 4), (0, 6))))
    bare, hidden = [], []
    got = run(tree, log_acts(proto, bare), FULL, max_steps=10, record_steps=True)
    want = run(tree, hide_offer(proto, hidden), FULL, max_steps=10, record_steps=True)
    assert got.to_jsonl_bytes() == want.to_jsonl_bytes()
    assert got.delivery == {0: 0, 1: 4, 2: 7}
    at = {rec.step: rec for rec in got.steps}
    assert at[0].receptions == {1: FireAndForward(2)}
    assert 1 not in at
    assert at[7].receptions[0] is at[6].receptions[1]
    assert bare == [FireAndForward(2), None, FireAndForward(1), FireAndForward(2)]
    assert len(hidden) == 5


def test_standing_repeat_reaches_the_parent_once():
    # on a path each parent has one child: every beat of the child's
    # standing message is recorded as heard, but only the first enters
    # the parent's inbox
    n = 16
    tree = make_path(n)
    proto = make_protocol("unb1", n)
    views = {}
    trace = run(tree, log_acts(proto, [], views), FULL, max_steps=step_cap(proto),
                record_steps=True)
    assert not trace.incomplete
    checked = 0
    for c in range(n):
        p = tree.parent[c]
        if p == c or p == tree.root:
            continue
        beats = [rec.step for rec in trace.steps
                 if rec.step >= n and (rec.step - n) % 2 == 1 and c in rec.transmitters]
        first = next(rec for rec in trace.steps if rec.step == beats[0])
        msg = first.receptions[p]
        heard = [rec.step for rec in trace.steps if rec.receptions.get(p) is msg]
        assert len(heard) >= len(beats) > 1
        kept = [s for s, m in views[tree.label[p]].inbox if m is msg and s >= beats[0]]
        assert kept == [beats[0]], c
        checked += 1
    assert checked == n - 2


@pytest.mark.parametrize("name, mode", [("unb1", FULL), ("unb2", HALF), ("bnd", HALF)])
def test_observer_sees_roster_transmitters(name, mode):
    tree = from_family("random", 48, seed=2)
    proto = make_protocol(name, 48, mode)
    seen = []

    def observe(t, states, tx, rx, collided):
        seen.append((t, tuple(sorted(tx)), dict(rx), tuple(sorted(collided))))

    watched = run(tree, proto, mode, max_steps=step_cap(proto), record_steps=True,
                  observer=observe)
    plain = run(tree, proto, mode, max_steps=step_cap(proto), record_steps=True)
    assert watched.to_jsonl_bytes() == plain.to_jsonl_bytes()
    assert [t for t, *_ in seen] == list(range(plain.steps_executed))
    active = [s for s in seen if s[1]]
    assert active == [(r.step, r.transmitters, r.receptions, r.collisions) for r in plain.steps]
    assert all(not rx and not col for _, tx, rx, col in seen if not tx)


def summary(trace):
    return (trace.delivery, trace.completion_step, trace.incomplete,
            trace.collisions_total, trace.steps_executed)


@pytest.mark.parametrize("mode", list(DuplexMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_unrecorded_runs_match_recorded(name, mode):
    # the trees of the dense reference
    for family in FAMILIES:
        for n in (2, 16, 48):
            tree = from_family(family, n, seed=3)
            proto = make_protocol(name, n, mode)
            cap = step_cap(proto)
            recorded = run(tree, proto, mode, max_steps=cap, seed=3, record_steps=True)
            plain = run(tree, proto, mode, max_steps=cap, seed=3)
            assert summary(plain) == summary(recorded), (family, n)


@pytest.mark.parametrize("call, message", [
    (lambda: load_summary(b"", lines=()), "trace stream is missing its header or summary record"),
    (lambda: load_summary(recorded_summary([ACTIVE]),
                          header=HEADER.replace(b'"max_steps":%d' % FAR_STEPS, b'"max_steps":-1')),
     "max_steps -1 is no step count"),
    (lambda: load_summary(recorded_summary([ACTIVE]).replace(b'{"0":0}', b'[0]')),
     r"delivery \[0\] is no map of rumors to steps"),
    (lambda: run(make_path(2), relay_protocol(), FULL, max_steps=-1),
     "max_steps must be nonnegative"),
], ids=["no summary", "max_steps", "delivery", "run max_steps"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
