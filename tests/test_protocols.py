"""Protocol behaviour against the engine: completeness, step bounds,
schedule discipline, and the structural invariants each protocol's
correctness argument leans on."""

import dataclasses
import math

import numpy as np
import pytest

from radio_gather import trees
from radio_gather.engine import (
    Bounded,
    DuplexMode,
    FireAndForward,
    NodeView,
    Unbounded,
    run,
)
from radio_gather.protocols import (
    PROTOCOL_NAMES,
    FireForwardState,
    HeightPhaseRelayState,
    ceil_cbrt,
    ceil_log2,
    make_protocol,
    step_cap,
)
from radio_gather.selectors import (
    MissingSelectiveFamily,
    SelectiveFamily,
    build_disperser,
    build_selective_family,
    kautz_singleton_family,
)
from radio_gather.verify import extract_schedule, schedule_protocol

from test_dense_reference import dense_run, random_schedule
from test_engine import hide_offer, log_acts

FULL = DuplexMode.FULL
HALF = DuplexMode.HALF

SWEEP_SIZES = (1, 2, 5, 9, 16, 33)


def sweep(sizes=SWEEP_SIZES):
    for fam in ("path", "star", "caterpillar", "kary", "random"):
        for n in sizes:
            yield f"{fam}-{n}", trees.from_family(fam, n, seed=n)


def assert_complete(tree, trace):
    assert not trace.incomplete
    assert set(trace.delivery) == set(range(tree.n))


def tx_steps_by_node(trace):
    out = {}
    for rec in trace.steps:
        for v in rec.transmitters:
            out.setdefault(v, []).append(rec.step)
    return out


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9, 1024, 1025)] == [
        0, 1, 2, 2, 3, 3, 4, 10, 11,
    ]


def test_ceil_cbrt():
    assert [ceil_cbrt(n) for n in (1, 2, 8, 9, 27, 28, 64, 1000)] == [
        1, 2, 2, 3, 3, 4, 4, 10,
    ]
    for k in (10 ** 6, 10 ** 6 + 1):
        assert ceil_cbrt(k ** 3) == k
        assert ceil_cbrt(k ** 3 + 1) == k + 1


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError, match="unknown protocol"):
        make_protocol("nope", 4)
    with pytest.raises(ValueError, match="n >= 1"):
        make_protocol("rr-unb", 0)


HORIZON_SIZES = (1, 2, 3, 16, 1024)
# make_protocol(name, n, mode).horizon as (full, half) for each size;
# rtree has none
HORIZONS = {
    "rr-unb": ((1, 1), (4, 4), (9, 9), (256, 256), (1_048_576, 1_048_576)),
    "rr-bnd": ((1, 1), (4, 4), (9, 9), (256, 256), (1_048_576, 1_048_576)),
    "unb1": ((3, 3), (14, 14), (33, 33), (304, 304), (44_032, 44_032)),
    "unb2": ((4, 4), (20, 20), (48, 48), (448, 448), (65_536, 65_536)),
    "bnd": ((7, 10), (32, 44), (75, 102), (688, 928), (99_328, 133_120)),
    "mls": ((22, 56), (46, 114), (72, 174), (568, 1_136), (216_543, 433_086)),
}


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_horizons_pinned(name):
    for n, want in zip(HORIZON_SIZES, HORIZONS.get(name, [(None, None)] * 5)):
        got = tuple(make_protocol(name, n, mode).horizon for mode in (FULL, HALF))
        assert got == want, (name, n)


def test_round_robin_flood_gathers_everywhere():
    for desc, tree in sweep():
        proto = make_protocol("rr-unb", tree.n)
        trace = run(tree, proto, FULL, max_steps=proto.horizon)
        assert_complete(tree, trace)
        assert trace.completion_step <= tree.n * tree.n, desc


def test_round_robin_flood_star_is_immediate():
    tree = trees.make_star(8)
    proto = make_protocol("rr-unb", 8)
    trace = run(tree, proto, FULL, max_steps=proto.horizon)
    assert trace.delivery == {i: max(i, 0) for i in range(8)}
    assert trace.completion_step == 7


def test_round_robin_relay_collision_free():
    for desc, tree in sweep():
        proto = make_protocol("rr-bnd", tree.n)
        for mode in (FULL, HALF):
            trace = run(tree, proto, mode, max_steps=proto.horizon)
            assert_complete(tree, trace)
            assert trace.collisions_total == 0, desc
            assert trace.completion_step <= tree.n * tree.n


def test_round_robin_relay_single_transmitter_per_step():
    tree = trees.from_family("random", 17, seed=4)
    proto = make_protocol("rr-bnd", 17)
    trace = run(tree, proto, FULL, max_steps=proto.horizon, record_steps=True)
    assert all(len(rec.transmitters) <= 1 for rec in trace.steps)


def test_round_robin_relay_half_equals_full():
    tree = trees.from_family("random", 20, seed=9)
    proto = make_protocol("rr-bnd", 20)
    a = run(tree, proto, FULL, max_steps=proto.horizon, record_steps=True)
    b = run(tree, proto, HALF, max_steps=proto.horizon, record_steps=True)
    assert a.delivery == b.delivery
    assert a.steps == b.steps
    assert a.steps_executed == b.steps_executed


def test_round_robin_relay_path_delivery_exact():
    # path 0-1-2: rumor 1 at its first slot, rumor 2 relayed via node 1
    # two slots after node 1 hears it
    tree = trees.make_path(3)
    proto = make_protocol("rr-bnd", 3)
    trace = run(tree, proto, FULL, max_steps=proto.horizon)
    assert trace.delivery == {0: 0, 1: 1, 2: 5}


def test_ladder_flood_gathers_everywhere():
    for desc, tree in sweep():
        proto = make_protocol("unb1", tree.n)
        for mode in (FULL, HALF):
            trace = run(tree, proto, mode, max_steps=proto.horizon)
            assert_complete(tree, trace)


def test_ladder_flood_path_delivery_exact():
    # rumor 1 arrives with the census itself; rumor 2 rides node 1's
    # first relay beat after activation
    tree = trees.make_path(3)
    proto = make_protocol("unb1", 3)
    trace = run(tree, proto, FULL, max_steps=proto.horizon)
    assert trace.delivery == {0: 0, 1: 1, 2: 5}


def test_ladder_flood_waits_for_descendants():
    # on a path each node activates one round after its child, never on
    # the strength of the child's census slot alone
    tree = trees.make_path(4)
    proto = make_protocol("unb1", 4)
    trace = run(tree, proto, FULL, max_steps=proto.horizon,
                record_steps=True, stop_early=False)
    first = {}
    for rec in trace.steps:
        for v in rec.transmitters:
            if rec.step >= 4:
                first.setdefault(v, rec.step)
    # leaf is active in round 0 (first push beat, step 5); each parent
    # follows a full round later
    assert first == {1: 9, 2: 7, 3: 5}
    assert_complete(tree, trace)


def test_ladder_flood_activation_bound():
    for seed in (1, 5):
        for fam in ("random", "caterpillar", "kary"):
            tree = trees.from_family(fam, 33, seed=seed)
            n = tree.n
            proto = make_protocol("unb1", n)
            trace = run(
                tree, proto, FULL, max_steps=proto.horizon,
                record_steps=True, stop_early=False,
            )
            h2 = trees.gamma_heights(tree, 2).heights
            first = {}
            for rec in trace.steps:
                for v in rec.transmitters:
                    if rec.step >= n:
                        first.setdefault(v, rec.step)
            for v in range(n):
                if v == tree.root:
                    continue
                assert v in first, "every node gets an active window"
                alpha = (first[v] - n) // 2
                assert alpha <= 2 * n * h2[v] + n


def test_selector_ladder_gathers_everywhere():
    for desc, tree in sweep():
        proto = make_protocol("unb2", tree.n)
        assert proto.horizon is not None
        for mode in (FULL, HALF):
            trace = run(tree, proto, mode, max_steps=proto.horizon)
            assert_complete(tree, trace)


def test_selector_ladder_default_family_matches_cube_root():
    proto = make_protocol("unb2", 64)
    assert proto.family.k == ceil_cbrt(64) == 4
    # Kautz-Singleton with q = 7, d = 3: fewer sets than labels
    assert proto.family.m == 49 < 64


def test_selector_ladder_default_family_falls_back_to_singletons():
    # at n = 33 the polynomial family would need 7 * 7 = 49 sets
    proto = make_protocol("unb2", 33)
    assert proto.family.m == 33
    assert all(len(s) == 1 for s in proto.family.sets)


def test_selector_ladder_activation_bound():
    # the horizon proof in SelectorLadderFloodState: a node of 2-height
    # h activates by round (2n - 1) h + n - 1, whatever the family
    for seed in (1, 5):
        for fam in ("random", "caterpillar", "kary", "path"):
            tree = trees.from_family(fam, 33, seed=seed)
            n = tree.n
            h2 = trees.gamma_heights(tree, 2).heights
            for family in (build_selective_family(n, 1),
                           kautz_singleton_family(n, 2), None):
                proto = make_protocol("unb2", n, family=family)
                for mode in (FULL, HALF):
                    trace = run(tree, proto, mode, max_steps=proto.horizon,
                                record_steps=True)
                    assert_complete(tree, trace)
                    first = {}
                    for rec in trace.steps:
                        for v in rec.transmitters:
                            if rec.step >= n:
                                first.setdefault(v, rec.step)
                    for v, t in first.items():
                        alpha = (t - n) // 3
                        assert alpha <= (2 * n - 1) * h2[v] + n - 1, (
                            fam, seed, mode, v)


def test_selector_ladder_narrow_family_on_path():
    # m=1 family: the push window is one round, after which a node idles
    # between its relay beats; a path still completes through them
    n = 9
    fam = build_selective_family(n, 1)
    assert fam.m == 1
    proto = make_protocol("unb2", n, family=fam)
    assert proto.horizon == n + 3 * (2 * n * ceil_log2(n) + n)
    tree = trees.make_path(n)
    trace = run(tree, proto, FULL, max_steps=proto.horizon)
    assert_complete(tree, trace)


def test_selector_ladder_family_size_mismatch():
    fam = build_selective_family(8, 2)
    with pytest.raises(MissingSelectiveFamily):
        make_protocol("unb2", 9, family=fam)
    empty = dataclasses.replace(fam, m=0, sets=())
    with pytest.raises(MissingSelectiveFamily, match="no sets"):
        make_protocol("unb2", 8, family=empty)


def stepwise_sends(state, view, horizon, arrivals=()):
    """The steps at which state, driven alone through act() on view
    from step 0, transmits.  arrivals lists (step, message) receptions
    in step order.  The state acts where its sleep promise runs out and
    at the step after each arrival, as run() drives a state that makes
    no offer."""
    pending = list(arrivals)
    sent = []
    due = max(0, state.asleep_until)
    for t in range(horizon):
        woke = False
        while pending and pending[0][0] == t - 1:
            view.inbox.append(pending.pop(0))
            woke = True
        if t < due and not woke:
            continue
        view.time = t
        if state.act(view) is not None:
            sent.append(t)
        due = state.asleep_until
    return sent


def test_selector_ladder_push_window_ends_with_the_relay_window():
    # a family of m > n sets, each listing every label: the push and
    # selector windows last min(m, n) rounds, so they end where the
    # relay window does, not m rounds after activation
    n = 8
    sets = (frozenset(range(n)),) * (2 * n + 3)
    fam = SelectiveFamily(n=n, k=1, m=len(sets), sets=sets)
    proto = make_protocol("unb2", n, family=fam)
    for label in range(n):
        child = (label + 1) % n
        # a leaf activates in round 0; a parent that hears its child's
        # push beat in round 4 activates in round 5
        for alpha, arrivals in ((0, ()), (5, ((child, Unbounded(1 << child)),
                                              (n + 3 * 4 + 1, Unbounded(1 << child))))):
            state = proto.state_factory(label, n, FULL, None)
            sent = stepwise_sends(state, NodeView(label, n), proto.horizon, arrivals)
            assert state.alpha == alpha
            ladder = [divmod(t - n, 3) for t in sent if t >= n]
            relay = alpha + (label - alpha) % n
            assert [s for s, beat in ladder if beat == 0] == [relay]
            pushed = [s for s, beat in ladder if beat in (1, 2)]
            assert all(alpha <= s < alpha + n for s in pushed), (label, alpha, pushed)
            # the window is full: every round of it has both beats
            assert sorted(pushed) == sorted(list(range(alpha, alpha + n)) * 2)


@pytest.mark.parametrize("mode", [FULL, HALF])
def test_height_phase_ladder_duties_end_by_the_phases(mode):
    # nodes activated within n rounds of the round budget: their relay
    # windows run past it, and the cut keeps every standing and relay
    # beat before the first height phase
    n = 8
    budget = HeightPhaseRelayState.rounds(n)
    base = HeightPhaseRelayState.phases(n, mode)[0]
    assert base == HeightPhaseRelayState.round_step(n, budget)
    last, dropped = [], 0
    for label in range(n):
        for alpha in range(budget - n, budget + 1):
            state = HeightPhaseRelayState(label, n, mode)
            state.missing = set()  # every child heard
            state._activate(alpha)
            standing = list(range(state._first, state._stop, state.beats))
            assert all(t < base for t in standing + state._extras), (label, alpha)
            last.append(max(standing, default=-1))
            dropped += not state._extras
            relay = alpha + (label - alpha) % n
            assert bool(state._extras) == (relay < budget), (label, alpha)
    # the cut binds: windows end at the budget's last round, and some
    # relay rounds past it are dropped
    assert max(last) == HeightPhaseRelayState.round_step(n, budget - 1, 1)
    assert dropped > 0


def test_height_phase_gathers_everywhere():
    for desc, tree in sweep():
        for mode in (FULL, HALF):
            proto = make_protocol("bnd", tree.n, mode)
            trace = run(tree, proto, mode, max_steps=proto.horizon)
            assert_complete(tree, trace)


def test_height_phase_census_reaches_parents():
    tree = trees.from_family("random", 16, seed=2)
    proto = make_protocol("bnd", 16)
    trace = run(tree, proto, FULL, max_steps=proto.horizon,
                record_steps=True, stop_early=False)
    got = {(v, msg.rumor) for rec in trace.steps if rec.step < 16
           for v, msg in rec.receptions.items()}
    for v in range(16):
        if v != tree.root:
            assert (tree.parent[v], tree.label[v]) in got


def test_height_phase_transmitters_match_phase():
    for fam, seed in (("random", 3), ("caterpillar", 0), ("kary", 0)):
        tree = trees.from_family(fam, 33, seed=seed)
        n = tree.n
        for mode in (FULL, HALF):
            proto = make_protocol("bnd", n, mode)
            trace = run(tree, proto, mode, max_steps=proto.horizon,
                        record_steps=True, stop_early=False)
            h2 = trees.gamma_heights(tree, 2).heights
            phase_base = n + 3 * (2 * n * ceil_log2(n) + n)
            phase_len = 6 * n if mode is HALF else 3 * n
            for rec in trace.steps:
                if rec.step < phase_base:
                    continue
                ph = (rec.step - phase_base) // phase_len
                for v in rec.transmitters:
                    assert h2[v] == ph, (fam, mode, rec.step)


# (acts, transmissions) on from_family("random", 256, 100), run seed 100,
# horizon cap, stepwise: each state sits behind a proxy that hides its
# standing offer, so act() is called for every beat; measured before
# the three ladders shared one skeleton
LADDER_ACTS = {
    ("unb1", FULL): (93_659, 65_157),
    ("unb1", HALF): (68_958, 65_157),
    ("unb2", FULL): (50_620, 37_497),
    ("unb2", HALF): (40_616, 37_497),
    ("bnd", FULL): (99_272, 68_572),
    ("bnd", HALF): (75_848, 68_827),
}

# act() calls of the bare states on the same runs, whose standing beats
# the engine sends itself
LADDER_BARE_ACTS = {
    ("unb1", FULL): 1_543,
    ("unb1", HALF): 1_529,
    ("unb2", FULL): 5_181,
    ("unb2", HALF): 5_089,
    ("bnd", FULL): 5_872,
    ("bnd", HALF): 7_542,
}

# bare (acts, transmissions) of the fire-and-forward states on the same
# tree and seed, run to step_cap: the engine sends every relay hop of a
# node that sleeps past the next step, so act() is called at fire
# steps and for hops onto a node's own fire step.  Stepwise, behind
# hide_offer, the acts read mls 23,908/23,298 and rtree 18,495/21,596
# (full/half), with the same transmissions.
RELAY_BARE_ACTS = {
    ("mls", FULL): (4_231, 23_886),
    ("mls", HALF): (4_284, 23_290),
    ("rtree", FULL): (3_632, 18_444),
    ("rtree", HALF): (4_753, 21_596),
}


def test_ladder_act_counts_pinned():
    # the dense reference catches a missed duty beat; this catches a
    # wake that should have been slept through
    tree = trees.from_family("random", 256, seed=100)
    for (name, mode), want in LADDER_ACTS.items():
        proto = make_protocol(name, 256, mode)
        sent = []  # what each act() returned, None included
        trace = run(tree, hide_offer(proto, sent), mode, max_steps=proto.horizon, seed=100)
        assert not trace.incomplete
        assert (len(sent), len(sent) - sent.count(None)) == want, (name, mode.value)


def test_ladder_bare_act_counts_pinned():
    # the engine's roster sends the repeats: acts fall, and the recorded
    # transmissions are the stepwise count
    tree = trees.from_family("random", 256, seed=100)
    for (name, mode), (_, tx) in LADDER_ACTS.items():
        proto = make_protocol(name, 256, mode)
        sent = []
        trace = run(tree, log_acts(proto, sent), mode, max_steps=proto.horizon, seed=100,
                    record_steps=True)
        assert not trace.incomplete
        assert len(sent) == LADDER_BARE_ACTS[name, mode], (name, mode.value)
        assert sum(len(rec.transmitters) for rec in trace.steps) == tx, (name, mode.value)


def test_relay_bare_act_counts_pinned():
    tree = trees.from_family("random", 256, seed=100)
    for (name, mode), want in RELAY_BARE_ACTS.items():
        proto = make_protocol(name, 256, mode)
        sent = []
        trace = run(tree, log_acts(proto, sent), mode, max_steps=step_cap(proto), seed=100,
                    record_steps=True)
        assert not trace.incomplete
        tx = sum(len(rec.transmitters) for rec in trace.steps)
        assert (len(sent), tx) == want, (name, mode.value)


def test_fire_forward_schedule_adherence_on_star():
    n = 10
    tree = trees.make_star(n)
    proto = make_protocol("mls", n)
    d = proto.disperser
    trace = run(tree, proto, FULL, max_steps=proto.horizon,
                record_steps=True, stop_early=False)
    sent = tx_steps_by_node(trace)
    span = d.s + n
    for v in range(1, n):
        lab = tree.label[v]
        batch, j = divmod(lab, d.m)
        fires = sorted(batch * span + tau for tau in d.offsets(j + 1))
        # leaves never receive, so they fire exactly on schedule
        assert sent[v] == fires


def test_fire_forward_gathers_everywhere():
    for desc, tree in sweep():
        for mode in (FULL, HALF):
            proto = make_protocol("mls", tree.n, mode)
            trace = run(tree, proto, mode, max_steps=proto.horizon)
            assert_complete(tree, trace)
            batches = -(-tree.n // proto.disperser.m)
            assert trace.completion_step <= batches * (proto.disperser.s + tree.n)


def test_fire_forward_disperser_binding():
    d = build_disperser(16, FULL)
    with pytest.raises(ValueError, match="disperser"):
        make_protocol("mls", 17, disperser=d)
    with pytest.raises(ValueError, match="mode"):
        make_protocol("mls", 16, HALF, disperser=d)


def test_random_fire_forward_gathers():
    for n in (2, 5, 9, 16):
        proto = make_protocol("rtree", n)
        for fam in ("path", "star", "random"):
            tree = trees.from_family(fam, n, seed=n)
            trace = run(tree, proto, FULL, max_steps=step_cap(proto), seed=7)
            assert_complete(tree, trace)


def test_random_fire_forward_half_gathers():
    for n in (5, 9):
        cap = math.ceil(12 * n * math.log(n))
        for fam in ("path", "star"):
            tree = trees.from_family(fam, n, seed=n)
            proto = make_protocol("rtree", n, HALF)
            trace = run(tree, proto, HALF, max_steps=cap, seed=7)
            assert_complete(tree, trace)


def test_random_fire_forward_ignores_labels():
    n = 16
    base = trees.make_random_tree(n, seed=3)
    perm = [(i * 7 + 3) % n for i in range(n)]
    relabeled = trees.build_tree(base.parent, labels=[perm[l] for l in base.label])
    proto = make_protocol("rtree", n)
    cap = 400
    a = run(base, proto, FULL, max_steps=cap, seed=11,
            record_steps=True, stop_early=False)
    b = run(relabeled, proto, FULL, max_steps=cap, seed=11,
            record_steps=True, stop_early=False)
    assert ([(r.step, r.transmitters, r.collisions) for r in a.steps]
            == [(r.step, r.transmitters, r.collisions) for r in b.steps])
    assert b.delivery == {perm[l]: t for l, t in a.delivery.items()}


class NoCatchUp(FireForwardState):
    """Fails an act past the state's next fire: FireForwardState keeps
    no catch-up loop, so a caller that skipped a fire would lose it."""

    def act(self, view):
        assert view.time <= self.asleep_until, (view.time, self.asleep_until)
        return super().act(view)


def no_catch_up(proto):
    factory = proto.state_factory

    def make(*args):
        state = factory(*args)
        state.__class__ = NoCatchUp
        return state

    return dataclasses.replace(proto, state_factory=make)


def test_no_caller_acts_past_the_next_fire():
    # the guard fails a late act; then everything that drives
    # fire-and-forward states runs under it: run() with and without an
    # observer, the dense reference, stepwise_sends and extraction's
    # replays
    late = no_catch_up(make_protocol("mls", 4)).state_factory(1, 4, FULL, None)
    view = NodeView(1, 4)
    view.time = late.asleep_until + 1
    with pytest.raises(AssertionError):
        late.act(view)
    tree = trees.from_family("random", 48, seed=3)
    for mode in (FULL, HALF):
        protos = [make_protocol("mls", 48, mode), make_protocol("rtree", 48, mode),
                  schedule_protocol(random_schedule(48, 1))]
        for proto in map(no_catch_up, protos):
            cap = step_cap(proto)
            run(tree, proto, mode, max_steps=cap, seed=3, observer=lambda *a: None)
            run(tree, proto, mode, max_steps=cap, seed=3)
            dense_run(tree, proto, mode, cap, 3)
            for label in range(48):
                rng = np.random.default_rng([3, label])
                state = proto.state_factory(label, 48, mode, rng)
                arrivals = [(t, FireAndForward(0)) for t in range(0, cap, 5)]
                stepwise_sends(state, NodeView(label, 48), cap, arrivals)
        extract_schedule(no_catch_up(make_protocol("mls", 16, mode)))


def test_message_kinds():
    kinds = {
        "rr-unb": Unbounded,
        "rr-bnd": Bounded,
        "unb1": Unbounded,
        "unb2": Unbounded,
        "bnd": Bounded,
        "mls": FireAndForward,
        "rtree": FireAndForward,
    }
    assert set(kinds) == set(PROTOCOL_NAMES)
    for name, kind in kinds.items():
        assert make_protocol(name, 4).message_kind is kind


def test_selector_ladder_scaling_probe():
    # early warning for criterion 4, under the same O(n) law: the census
    # alone takes n steps, completion per node must not grow from 64 to
    # 256, and the growth exponent against n stays at most 1.15
    means = {}
    for n in (64, 256):
        tot = 0
        cases = [trees.from_family("random", n, seed=s) for s in (0, 1, 2)]
        cases.append(trees.make_path(n))
        proto = make_protocol("unb2", n)
        for tree in cases:
            trace = run(tree, proto, FULL, max_steps=proto.horizon)
            assert_complete(tree, trace)
            tot += trace.completion_step
        means[n] = tot / len(cases)
    assert all(mean >= n for n, mean in means.items()), means
    assert means[256] / 256 <= means[64] / 64, means
    slope = math.log(means[256] / means[64]) / math.log(256 / 64)
    assert slope <= 1.15, (slope, means)
