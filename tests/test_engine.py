"""Channel semantics, wake scheduling, and trace plumbing."""
import dataclasses
import io
import json

import numpy as np
import pytest

from radio_gather.engine import (
    Bounded,
    DuplexMode,
    FireAndForward,
    NodeView,
    Protocol,
    ProtocolState,
    ProtocolViolatedMessageBound,
    SLEEP_FOREVER,
    StepRecord,
    Trace,
    Unbounded,
    _dump_line,
    _step_lines,
    message_from_json,
    message_to_json,
    run,
    step,
)
from radio_gather.trees import build_tree, from_family, make_path, make_star

from test_trace_contract import LONG_CHAINS, LONG_N, N, PINNED, recorded_trace

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
        Unbounded(frozenset({1, 5, 7}), aux=(("hops", 3),)),
        Unbounded(frozenset()),
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


def assert_steps_match_reference(steps):
    direct = _step_lines(steps)
    reference = b"".join(generic_step_line(rec) for rec in steps)
    if direct != reference:
        for rec in steps:
            assert _step_lines([rec]) == generic_step_line(rec), rec
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
        StepRecord(6, (8,), {10: Unbounded(frozenset(), aux=(("hops", 3), ("x", 0)))}, ()),
        StepRecord(7, (8, 9), {2: Unbounded(frozenset({5, 1, 30})),
                               10: Unbounded(frozenset({2}), aux=(("k", -1),))}, (1,)),
        StepRecord(123456789, (), {}, ()),
    ]
    assert_steps_match_reference(steps)
    # string order, not number order: "10" sorts before "2"
    assert _step_lines(steps[5:6]).index(b'"10"') < _step_lines(steps[5:6]).index(b'"2"')
    assert _step_lines([]) == b""


HEADER = (b'{"kind":"header","max_steps":9,"mode":"full","n":3,"protocol":"x",'
          b'"recorded":true,"schema":"radio-gather-trace/1","seed":0}\n')
SUMMARY = (b'{"collisions_total":0,"completion_step":null,"delivery":{"0":0},'
           b'"incomplete":true,"kind":"summary","steps_executed":9}\n')


def load_steps(*lines):
    return Trace.from_jsonl_lines(io.BytesIO(HEADER + b"".join(lines) + SUMMARY)).steps


def step_from_json(line):
    obj = json.loads(line)
    return StepRecord(
        step=obj["step"],
        transmitters=tuple(obj["transmitters"]),
        receptions={int(v): message_from_json(m) for v, m in obj["receptions"].items()},
        collisions=tuple(obj["collisions"]),
    )


SILENT = b'{"collisions":[],"kind":"step","receptions":{},"step":5,"transmitters":[]}\n'


@pytest.mark.parametrize("line", [
    SILENT,
    SILENT.replace(b"5", b"0"),
    SILENT.replace(b"5", b"98765432109876543210"),
    SILENT.replace(b":[],", b": [],"),
    SILENT.replace(b"{", b"{ ", 1),
    SILENT.replace(b"\n", b" \n"),
    SILENT.replace(b"\n", b"\r\n"),
    SILENT.replace(b'"step":5', b'"step": 5'),
    SILENT.replace(b'"step":5', b'"step":5 '),
    SILENT.replace(b'"step":5', b'"step":5,"extra":1'),
    SILENT.replace(b'"kind":"step"', b'"extra":[1],"kind":"step"'),
    SILENT.replace(b'"step":5', b'"step":-1'),
    SILENT.replace(b'"step":5', b'"step":5.0'),
    SILENT.replace(b'"step":5', b'"step":5e0'),
    SILENT.replace(b"[]}", b"[3]}"),
], ids=repr)
def test_reader_near_silent_lines_load_as_json_reads_them(line):
    assert load_steps(line) == [step_from_json(line)]
    assert load_steps(line, b"\n", line) == [step_from_json(line)] * 2


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


def test_reader_silent_line_without_newline():
    line = SILENT.rstrip(b"\n")
    trace = Trace.from_jsonl_lines(io.BytesIO(HEADER + SUMMARY + line))
    assert trace.steps == [StepRecord(5, (), {}, ())]


def test_trace_rejects_unknown_schema():
    bad = b'{"kind":"header","schema":"nope","protocol":"x","n":1,"mode":"full","seed":0,"max_steps":1,"recorded":false}\n'
    with pytest.raises(ValueError):
        Trace.from_jsonl_lines(io.BytesIO(bad))


def test_unbounded_delivery_unpacks_rumor_sets():
    # a single unbounded message can complete several rumors at once
    class Blast(ProtocolState):
        def __init__(self, label, n):
            self.own = label
            self.n = n
            self.asleep_until = 3 if label == 1 else SLEEP_FOREVER

        def act(self, view):
            self.asleep_until = SLEEP_FOREVER
            if view.time == 3:
                return Unbounded(frozenset(range(self.n)))
            return None

    proto = Protocol(
        name="blast",
        message_kind=Unbounded,
        state_factory=lambda label, n, mode, rng: Blast(label, n),
    )
    tree = make_star(6)
    trace = run(tree, proto, FULL, max_steps=10)
    assert trace.completion_step == 3
    assert trace.delivery == {0: 0, 1: 3, 2: 3, 3: 3, 4: 3, 5: 3}
