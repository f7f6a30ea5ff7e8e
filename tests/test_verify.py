"""Schedule extraction, witness search, and star-scheme statistics."""

import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from radio_gather import trees, verify
from radio_gather.engine import (
    Bounded,
    DuplexMode,
    FireAndForward,
    NodeView,
    Protocol,
    ProtocolState,
    ProtocolViolatedMessageBound,
    SLEEP_FOREVER,
    run,
)
from radio_gather.protocols import FireForwardState, make_protocol
from radio_gather.verify import (
    CaterpillarWitness,
    FiringSchedule,
    IntervalScheme,
    NotOblivious,
    ScheduleError,
    _replay,
    extract_schedule,
    find_caterpillar_witness,
    iid_all_success,
    interval_all_success,
    interval_success_samples,
    schedule_protocol,
)

from test_engine import log_acts

FULL = DuplexMode.FULL


def single_firing_schedule(n, seed, T=None):
    rng = np.random.default_rng(seed)
    T = n if T is None else T
    return FiringSchedule(
        n=n, T=T, fires=tuple((int(t),) for t in rng.integers(0, T, size=n))
    )


def test_extract_matches_disperser_schedule():
    proto = make_protocol("mls", 10)
    d = proto.disperser
    sched = extract_schedule(proto)
    assert sched.n == 10 and sched.T == proto.horizon
    span = d.s + 10
    for lab in range(10):
        batch, j = divmod(lab, d.m)
        assert sched.fires[lab] == tuple(
            sorted(batch * span + tau for tau in d.offsets(j + 1))
        )


def test_extract_rejects_randomized():
    with pytest.raises(NotOblivious, match="randomness"):
        extract_schedule(make_protocol("rtree", 8), T=100)


def test_extract_rejects_adaptive_protocols():
    for name in ("rr-unb", "rr-bnd", "unb1", "unb2"):
        with pytest.raises(NotOblivious):
            extract_schedule(make_protocol(name, 6))


def test_extract_roundtrips_replayed_schedule():
    sched = single_firing_schedule(12, seed=5, T=30)
    back = extract_schedule(schedule_protocol(sched), T=30)
    assert back == sched


def test_schedule_json_roundtrip(tmp_path):
    sched = single_firing_schedule(7, seed=1)
    assert FiringSchedule.from_json(sched.to_json()) == sched
    p = tmp_path / "sched.json"
    sched.save(str(p))
    assert FiringSchedule.load(str(p)) == sched


def test_schedule_json_rejects_wrong_count():
    with pytest.raises(ValueError, match="wrong number"):
        FiringSchedule.from_json('{"n": 3, "T": 5, "F": [[0], [1]]}')


@pytest.mark.parametrize("text", [
    '{"n": 2, "T": 5, "F": [[0], [5]]}',
    '{"n": 2, "T": 5, "F": [[0], [-1]]}',
    '{"n": 2, "T": 5, "F": [[0], [1.5]]}',
    '{"n": 2, "T": 5}',
    'not json',
])
def test_schedule_json_rejects_malformed(text):
    with pytest.raises(ScheduleError):
        FiringSchedule.from_json(text)


@pytest.mark.parametrize("text, needle", [
    ('{"n": 2, "T": -1, "F": [[], []]}', "T >= 0"),
    ('{"n": 0, "T": 0, "F": []}', "n >= 1"),
    ('{"n": true, "T": 3, "F": [[0]]}', "integer n and T"),
    ('{"n": 1, "T": false, "F": [[]]}', "integer n and T"),
])
def test_schedule_json_rejects_empty_descriptions(text, needle):
    # each would otherwise parse: a schedule of no steps or no labels,
    # or a boolean read as 1 or 0
    with pytest.raises(ScheduleError, match=needle):
        FiringSchedule.from_json(text)


@pytest.mark.parametrize("call, message", [
    (lambda tmp: FiringSchedule.load(str(tmp / "binary")), "binary is not a text file"),
    (lambda tmp: extract_schedule(dataclasses.replace(make_protocol("mls", 4), n=None)),
     "protocol must be bound to a network size"),
    (lambda tmp: extract_schedule(dataclasses.replace(make_protocol("mls", 4), horizon=None)),
     "no horizon known; pass T explicitly"),
], ids=["not text", "unbound", "no horizon"])
def test_refusals(tmp_path, call, message):
    (tmp_path / "binary").write_bytes(b"\xff\xfe{")
    with pytest.raises(ValueError, match=f"{message}$"):
        call(tmp_path)


def test_witness_found_for_single_firing_schedules():
    for seed in range(5):
        sched = single_firing_schedule(16, seed=seed)
        w = find_caterpillar_witness(sched)
        assert w is not None, seed
        assert w.offsets[w.victim] == 0
        fw = sched.fires[w.victim]
        assert len(w.pairs) == len(fw)
        blockers = [u for _, u, _ in w.pairs]
        assert len(set(blockers)) == len(blockers)
        for t, u, s in w.pairs:
            assert 0 <= s < 16
            assert t + s in sched.fires[u]
            assert w.offsets[u] == s


def test_witness_simulation_rejects_delivery():
    sched = single_firing_schedule(12, seed=3)
    w = find_caterpillar_witness(sched)
    assert w is not None
    trace = run(
        w.tree,
        schedule_protocol(sched, n_total=w.tree.n),
        FULL,
        max_steps=sched.T + 2 * sched.n,
        stop_early=False,
    )
    assert w.victim not in trace.delivery


def test_witness_trivial_for_silent_victim():
    sched = FiringSchedule(n=4, T=8, fires=((), (1,), (2,), (3,)))
    w = find_caterpillar_witness(sched)
    assert w is not None
    assert w.victim == 0 and w.pairs == ()


def test_witness_absent_when_windows_disjoint():
    sched = FiringSchedule(n=2, T=10, fires=((0,), (5,)))
    assert find_caterpillar_witness(sched) is None


def test_witness_none_for_a_lone_label():
    # a one-node caterpillar is the root alone, whose rumor is delivered
    assert find_caterpillar_witness(FiringSchedule(n=1, T=1, fires=((0,),))) is None


def test_witness_none_for_disperser_schedule():
    sched = extract_schedule(make_protocol("mls", 16))
    assert find_caterpillar_witness(sched) is None


def test_schedule_json_normalises_fires():
    sched = FiringSchedule.from_json('{"n": 3, "T": 9, "F": [[4, 1, 4], [], [8, 0]]}')
    assert sched.fires == ((1, 4), (), (0, 8))


def test_witness_despite_repeated_fire_step():
    # a replay fires on the set of steps, so step 1 listed twice is one
    # firing, which label 1 blocks from spine offset 1
    text = '{"n":3,"T":6,"F":[[1,1],[2],[5]]}'
    parsed = FiringSchedule.from_json(text)
    listed_twice = FiringSchedule(n=3, T=6, fires=((1, 1), (2,), (5,)))
    for sched in (parsed, listed_twice):
        w = find_caterpillar_witness(sched)
        assert w is not None
        assert (w.victim, w.pairs, w.offsets) == (0, ((1, 1, 1),), (0, 1, 0))


# ---------------------------------------------------------------------------
# extraction: the replay loop, each NotOblivious check, a pinned contract


FIRES = (3, 7)
HAND_T = 12


class Stepwise(ProtocolState):
    """Fires its own rumor at FIRES unless a message arrived one step
    earlier, forwards that message otherwise, and acts every step.  Its
    promise is the current step, which the replay reads as the next one.
    Each subclass below breaks one rule of that discipline."""

    def __init__(self, label, n):
        self.label = label
        self.own = FireAndForward(label)
        self.asleep_until = -3

    def act(self, view):
        t = view.time
        self.asleep_until = t
        arrived = next((m for s, m in view.inbox if s == t - 1), None)
        return self.decide(t, arrived, view)

    def decide(self, t, arrived, view):
        if t in FIRES:
            return self.own if arrived is None else None
        return arrived


class FiresOverArrival(Stepwise):
    def decide(self, t, arrived, view):
        return self.own if t in FIRES else arrived


class ForwardsOwn(Stepwise):
    def decide(self, t, arrived, view):
        if t in FIRES:
            return super().decide(t, arrived, view)
        return None if arrived is None else self.own


class ForwardsTwice(Stepwise):
    def decide(self, t, arrived, view):
        again = next((m for s, m in view.inbox if s == t - 2), None)
        return super().decide(t, arrived, view) or again


class FiresWhatItHeard(Stepwise):
    def decide(self, t, arrived, view):
        if t in FIRES and arrived is None and view.inbox:
            return view.inbox[-1][1]
        return super().decide(t, arrived, view)


class SilentAfterArrival(Stepwise):
    def decide(self, t, arrived, view):
        if view.inbox:
            return arrived
        return super().decide(t, arrived, view)


class ForwardsBounded(Stepwise):
    def decide(self, t, arrived, view):
        if t not in FIRES and arrived is not None:
            return Bounded(rumor=arrived.rumor, sender=self.label)
        return super().decide(t, arrived, view)


class FiresNeighbour(Stepwise):
    def __init__(self, label, n):
        super().__init__(label, n)
        self.own = FireAndForward((label + 1) % n)


def hand_protocol(cls, n=3):
    return Protocol(
        name=cls.__name__,
        message_kind=FireAndForward,
        state_factory=lambda label, n_, mode_, rng: cls(label, n_),
        n=n,
    )


def test_extract_accepts_stepwise_state():
    sched = extract_schedule(hand_protocol(Stepwise), T=HAND_T)
    assert sched.fires == (FIRES,) * 3


@pytest.mark.parametrize("cls, message", [
    pytest.param(cls, message, id=cls.__name__) for cls, message in [
        (FiresOverArrival, "label 0 fired at 3 over a fresh arrival"),
        (ForwardsOwn, "label 0 sent [0] at 1, not the forwarded rumor"),
        (ForwardsTwice, "label 0 transmitted off schedule at 2"),
        (FiresWhatItHeard, "label 0 changed its fire payload at 3"),
        (SilentAfterArrival, "label 0 dropped scheduled fires [3, 7] after an arrival at 0"),
        (ForwardsBounded, "label 0 sent a Bounded"),
        (FiresNeighbour, "label 0 transmitted a rumor it never held at step 3"),
    ]
])
def test_extract_names_each_violation(cls, message):
    with pytest.raises(NotOblivious, match=f"^{re.escape(message)}$"):
        extract_schedule(hand_protocol(cls), T=HAND_T)


def test_forwarding_the_wrong_kind_breaks_a_run_too():
    # extraction used to pass this state with fires (3, 7) per label;
    # the engine refuses its first forward
    with pytest.raises(ProtocolViolatedMessageBound, match="returned Bounded"):
        run(trees.make_path(3), hand_protocol(ForwardsBounded), DuplexMode.FULL,
            max_steps=HAND_T, stop_early=False)


class ForwardsOverFire(Stepwise):
    def decide(self, t, arrived, view):
        if t in FIRES and arrived is not None:
            return arrived
        return super().decide(t, arrived, view)


class ChangesALaterFire(Stepwise):
    """Once a message has arrived, fires it at the last fire, but only
    after firing its own rumor at the first: the probe then holds two
    distinct fire objects, the first of them right."""

    first = None

    def decide(self, t, arrived, view):
        out = super().decide(t, arrived, view)
        if t == FIRES[0]:
            self.first = out
        if t == FIRES[-1] and out is self.own and view.inbox and self.first is self.own:
            return view.inbox[-1][1]
        return out


class RepeatsAFire(Stepwise):
    def decide(self, t, arrived, view):
        if t == FIRES[0] + 1 and view.inbox:
            return self.own
        return super().decide(t, arrived, view)


class FiresBoundedOnceItHeard(Stepwise):
    """Fires at the last of FIRES only, and once a message has arrived
    it fires a Bounded with its own rumor there: each probe that breaks
    the kind rule holds one fire object, with the right rumor."""

    def __init__(self, label, n):
        super().__init__(label, n)
        self.bounded = Bounded(rumor=label)

    def decide(self, t, arrived, view):
        if t == FIRES[-1] and arrived is None:
            return self.bounded if view.inbox else self.own
        return None if t in FIRES else arrived


@pytest.mark.parametrize("cls, message", [
    pytest.param(cls, message, id=cls.__name__) for cls, message in [
        (ForwardsOverFire, "label 0 fired at 3 over a fresh arrival"),
        (ChangesALaterFire, "label 0 changed its fire payload at 7"),
        (RepeatsAFire, "label 0 transmitted off schedule at 4"),
        (FiresBoundedOnceItHeard, "label 0 sent a Bounded"),
    ]
])
def test_extract_names_violations_among_clean_looking_sets(cls, message):
    # each violation hides in a probe that one whole-set comparison
    # alone would pass: a fire at tau + 1 that forwards the probe, a
    # second fire object, an extra step that sends the own message, or
    # one fire object of the wrong kind with the right rumor
    with pytest.raises(NotOblivious, match=f"^{re.escape(message)}$"):
        extract_schedule(hand_protocol(cls), T=HAND_T)


class FiresOverALaterArrival(Stepwise):
    def decide(self, t, arrived, view):
        if t == FIRES[-1]:
            return self.own
        return super().decide(t, arrived, view)


class RepeatsTheLastFire(Stepwise):
    def decide(self, t, arrived, view):
        if t == FIRES[-1] + 1 and view.inbox:
            return self.own
        return super().decide(t, arrived, view)


@pytest.mark.parametrize("cls, message", [
    pytest.param(cls, message, id=cls.__name__) for cls, message in [
        (FiresOverALaterArrival, "label 0 fired at 7 over a fresh arrival"),
        (RepeatsTheLastFire, "label 0 transmitted off schedule at 8"),
    ]
])
def test_extract_names_violations_by_a_repeated_fire_object(cls, message):
    # each violation resends the fire object the same replay already
    # sent at step 3, which passed: a repeat is checked all the same
    with pytest.raises(NotOblivious, match=f"^{re.escape(message)}$"):
        extract_schedule(hand_protocol(cls), T=HAND_T)


def sends_copies(proto):
    """proto whose states send a fresh, equal copy of every message: a
    new object at each fire, and a copy of each arrival they forward."""
    factory = proto.state_factory

    def copying(label, n, mode, rng):
        state = factory(label, n, mode, rng)

        def act(view, inner=state.act):
            msg = inner(view)
            return None if msg is None else dataclasses.replace(msg)

        state.act = act
        return state

    return dataclasses.replace(proto, state_factory=copying)


@pytest.mark.parametrize("mode", [FULL, DuplexMode.HALF], ids=["full", "half"])
def test_extract_accepts_equal_copies(mode):
    # mls repeats one fire object per label, which passes on identity;
    # copies are no one message object, so each takes the full check
    proto = make_protocol("mls", 32, mode)
    assert extract_schedule(sends_copies(proto)) == extract_schedule(proto)


@pytest.mark.parametrize("mode, factories, acts", [
    ("full", 4593, 62516),
    ("half", 4600, 62611),
])
def test_every_probe_replays_a_fresh_state_once(mode, factories, acts):
    # one silent replay per label and one per probe step, each of a new
    # state from step 0: n + sum of the labels' probe counts
    made, sent = [], []
    proto = log_acts(make_protocol("mls", 128, DuplexMode(mode)), sent)
    logged = proto.state_factory

    def counting(*args):
        made.append(args[0])
        return logged(*args)

    extract_schedule(dataclasses.replace(proto, state_factory=counting))
    assert (len(made), len(sent)) == (factories, acts)


class RaisesAtTheLastStep(Stepwise):
    """Raises at the last step below HAND_T: in every replay if always,
    else in those where a message arrived."""

    always = False

    def decide(self, t, arrived, view):
        if t == HAND_T - 1 and (self.always or view.inbox):
            raise RuntimeError(f"act at {t}")
        return super().decide(t, arrived, view)


@pytest.mark.parametrize("cls, always", [
    (FiresNeighbour, True),
    (ForwardsBounded, False),
    (ForwardsOwn, False),
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_replay_runs_to_the_horizon_past_a_violation(cls, always):
    # the violation comes first, in the silent replay or at the forward
    # of the probe at 0, and the act that raises last: the replay still
    # reaches that act
    raising = type("Raising" + cls.__name__, (RaisesAtTheLastStep, cls), {"always": always})
    with pytest.raises(RuntimeError, match=f"^act at {HAND_T - 1}$"):
        extract_schedule(hand_protocol(raising), T=HAND_T)


class FiresBeforeZero(Stepwise):
    """Would fire at any step below 0; acts start at 0 all the same."""

    def decide(self, t, arrived, view):
        return self.own if t < 0 else super().decide(t, arrived, view)


def stepwise_replay(state, view, T, tau=None, msg=None):
    """act() at every step below T, ignoring the sleep promise, with msg
    joining the inbox right after step tau's act."""
    out = {}
    for t in range(T):
        view.time = t
        action = state.act(view)
        if action is not None:
            out[t] = action
        if t == tau:
            view.inbox.append((t, msg))
    return out


def replay_cases():
    """(state factory, label, T) for states that keep their promises:
    mls labels, the hand-built state (a promise of -3, then the current
    step) and a pure relay (a promise of SLEEP_FOREVER)."""
    for mode in (DuplexMode.FULL, DuplexMode.HALF):
        proto = make_protocol("mls", 16, mode)
        for label in (0, 5, 15):
            yield pytest.param(
                lambda p=proto, lab=label, m=mode: p.state_factory(lab, 16, m, None),
                label, proto.horizon, id=f"mls-{mode.value}-{label}")
    yield pytest.param(lambda: Stepwise(0, 3), 0, HAND_T, id="stepwise")
    yield pytest.param(lambda: FiresBeforeZero(0, 3), 0, HAND_T, id="before-zero")
    yield pytest.param(lambda: FireForwardState(FireAndForward(0), iter((SLEEP_FOREVER,))),
                       0, HAND_T, id="relay")


@pytest.mark.parametrize("make, label, T", list(replay_cases()))
def test_replay_matches_stepwise_driver(make, label, T):
    probe = FireAndForward(label + 1)
    silent = stepwise_replay(make(), NodeView(label, 16), T)
    assert _replay(make(), NodeView(label, 16), T, FireAndForward) == list(silent)
    # the probe steps extract_schedule uses, and the two past the horizon
    taus = {0, T - 2, T - 1, T, T + 5}
    for f in silent:
        taus.update((f - 1, f) if f > 0 else (f,))
    for tau in sorted(taus):
        want = stepwise_replay(make(), NodeView(label, 16), T, tau, probe)
        got = _replay(make(), NodeView(label, 16), T, FireAndForward, set(silent), tau, probe)
        assert got == list(want), tau


# sha256 of to_json() and act() count for mls, pinned when the replay
# was a step-by-step loop (125,127 acts at n = 128, both modes); a change
# to either is a change to extraction
EXTRACTION_PINS = {
    (16, "full"): ("f617f5d464f0d23c65ce331025ebf1bd2f1f2b379712e03e8a0ae8909a0a8bdb", 1784),
    (16, "half"): ("6f3efa13ce074b286a0aca3f081f18c88b88bedf10c58a08968b434d808679a5", 1795),
    (64, "full"): ("c42f421e49eb8206c9589ecac828d83081f3337b7671f2334f7262c165eaccf8", 23645),
    (64, "half"): ("7610cd69f76c06eae9d3059de621f2ec726ce54cf78aa2d45df58d74f3733781", 23750),
    (128, "full"): ("103349757563f6e10a37be2336457cc9cbc5f52fbd17ad76105e2e77f1814bce", 62516),
    (128, "half"): ("25d4af4d7d3301a94fc7836e025d5bc78a99905de0ac900deb4d6546531a7c18", 62611),
}
# sha256 over the NotOblivious messages of the adaptive protocols,
# one "name n mode: message" line each
ADAPTIVE_PIN = "fcaac413075015ece13fe68a1551e87d108372d26e34eba7814dc399ab27a151"


@pytest.mark.parametrize("n, mode", sorted(EXTRACTION_PINS))
def test_extraction_contract_pinned(n, mode):
    sent = []
    proto = make_protocol("mls", n, DuplexMode(mode))
    sched = extract_schedule(log_acts(proto, sent))
    assert (hashlib.sha256(sched.to_json().encode()).hexdigest(), len(sent)) \
        == EXTRACTION_PINS[(n, mode)]


def test_adaptive_rejections_pinned():
    lines = []
    for name in ("rr-unb", "rr-bnd", "unb1", "unb2", "bnd"):
        for n in (2, 6, 17, 40):
            for mode in (DuplexMode.FULL, DuplexMode.HALF):
                with pytest.raises(NotOblivious) as err:
                    extract_schedule(make_protocol(name, n, mode))
                lines.append(f"{name} {n} {mode.value}: {err.value}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ADAPTIVE_PIN


# ---------------------------------------------------------------------------
# the witness search against the scan it replaced


def reference_witness(sched):
    """The plain scan: for each victim and each of its firings, test
    every fire of every other label, then match with Kuhn's algorithm
    and re-verify by simulation.  About n^2 f^2 work for f fires per
    label, so only small schedules go through it."""

    def max_matching(adj, n_right):
        match_right = [None] * n_right
        match_left = [None] * len(adj)

        def augment(i, seen):
            for r in adj[i]:
                if r in seen:
                    continue
                seen.add(r)
                if match_right[r] is None or augment(match_right[r], seen):
                    match_right[r] = i
                    match_left[i] = r
                    return True
            return False

        for i in range(len(adj)):
            augment(i, set())
        return match_left

    n = sched.n
    if n < 2:
        return None
    window = n - 1
    for victim in range(n):
        fw = sched.fires[victim]
        others = [u for u in range(n) if u != victim]
        adj = []
        for t in fw:
            adj.append([idx for idx, u in enumerate(others)
                        if any(t <= tp <= t + window for tp in sched.fires[u])])
        matched = max_matching(adj, len(others))
        if any(m is None for m in matched):
            continue
        offsets = [0] * n
        pairs = []
        for t, idx in zip(fw, matched):
            u = others[idx]
            tp = min(tp for tp in sched.fires[u] if t <= tp <= t + window)
            offsets[u] = tp - t
            pairs.append((t, u, tp - t))
        tree = trees.make_caterpillar(n, offsets)
        trace = run(tree, schedule_protocol(sched, n_total=tree.n), FULL,
                    max_steps=sched.T + 2 * n, stop_early=False)
        if victim not in trace.delivery:
            return victim, tuple(pairs), tuple(offsets)
    return None


def witness_key(sched):
    w = find_caterpillar_witness(sched)
    return None if w is None else (w.victim, w.pairs, w.offsets)


def random_multi_fire_schedule(rng):
    # distinct steps per label, listed in random order
    n = int(rng.integers(2, 25))
    T = int(rng.integers(1, 3 * n + 1))
    fires = []
    for _ in range(n):
        count = int(rng.integers(1, min(4, T) + 1))
        fires.append(tuple(int(t) for t in rng.choice(T, size=count, replace=False)))
    return FiringSchedule(n=n, T=T, fires=tuple(fires))


def test_witness_search_matches_scan_on_random_schedules():
    rng = np.random.default_rng(2024)
    unsorted = found = 0
    for trial in range(400):
        sched = random_multi_fire_schedule(rng)
        got = witness_key(sched)
        assert got == reference_witness(sched), (trial, sched)
        unsorted += any(list(f) != sorted(f) for f in sched.fires)
        found += got is not None
    assert unsorted >= 200 and found >= 100


def test_witness_search_matches_scan_on_single_firing_schedules():
    for seed in range(40):
        sched = single_firing_schedule(int(4 + seed % 13), seed=seed, T=2 * seed + 1)
        assert witness_key(sched) == reference_witness(sched), seed


@pytest.mark.parametrize("n", [16, 25, 36])
@pytest.mark.parametrize("mode", [DuplexMode.FULL, DuplexMode.HALF])
def test_witness_search_matches_scan_on_mls(n, mode):
    sched = extract_schedule(make_protocol("mls", n, mode))
    assert witness_key(sched) == reference_witness(sched)


def test_interval_layout():
    assert IntervalScheme(3.2).layout(256) == (13, 370)
    assert IntervalScheme(0.5).layout(256) == (2, 370)


def test_interval_success_near_half():
    rate = interval_success_samples(256, samples=20000, seed=1)
    assert abs(rate - 0.5) < 0.02


def test_interval_all_success_gap():
    hi = interval_all_success(IntervalScheme(3.2), 256, trials=300, seed=2)
    lo = interval_all_success(IntervalScheme(0.5), 256, trials=300, seed=2)
    assert hi >= 0.9
    assert lo <= 0.1


def test_iid_all_success():
    assert iid_all_success(0.125, horizon=200, n=8, trials=50, seed=3) >= 0.9
    assert iid_all_success(0.0, horizon=50, n=4, trials=10, seed=3) == 0.0


# ---------------------------------------------------------------------------
# the early-stopping iid check against the full draw it replaced


def reference_iid_all_success(p, horizon, n, trials, seed=0):
    """The full draw: every trial reads all horizon x n uniforms."""
    rng = np.random.default_rng(seed)
    good = 0
    for _ in range(trials):
        fires = rng.random((horizon, n)) < p
        # the steps with exactly one firer
        alone = fires[fires.sum(axis=1) == 1]
        if alone.any(axis=0).all():
            good += 1
    return good / trials


def iid_grid(block):
    """(p, horizon, n) around a block of the given size: no steps, one
    step, a row below, at and above a block, two blocks and a bit, and
    about e n ln n, where trials at p = 1/n split."""
    for n in (1, 2, 8, 64):
        near = math.ceil(math.e * n * math.log(n)) if n > 1 else 3
        for p in (0.0, 1 / n, 0.3, 1.0):
            for horizon in sorted({0, 1, block - 1, block, block + 1, 2 * block + 3, near}):
                yield p, horizon, n


@pytest.mark.parametrize("block", [5, verify.IID_BLOCK])
def test_iid_early_stop_equals_the_full_draw(monkeypatch, block):
    monkeypatch.setattr(verify, "IID_BLOCK", block)
    fractions = []
    for p, horizon, n in iid_grid(block):
        for seed in range(10):
            got = iid_all_success(p, horizon, n, trials=5, seed=seed)
            assert got == reference_iid_all_success(p, horizon, n, 5, seed), (p, horizon, n, seed)
            fractions.append(got)
    # a stream off by one draw would show in the trials that split
    assert sum(0 < f < 1 for f in fractions) >= 20


# the fractions at the full draw, for lower-bound's two calls (seeds 100
# and 101), test_iid_all_success's two, and horizons where trials split
IID_PINS = [
    ((1 / 64, 2895, 64, 100, 100), 1.0),
    ((1 / 64, 174, 64, 100, 101), 0.0),
    ((0.125, 200, 8, 50, 3), 1.0),
    ((0.0, 50, 4, 10, 3), 0.0),
    ((1 / 64, 724, 64, 100, 100), 0.33),
    ((1 / 64, 724, 64, 100, 101), 0.39),
    ((1 / 64, 800, 64, 100, 100), 0.55),
    ((0.125, 40, 8, 50, 3), 0.3),
]


@pytest.mark.parametrize("args, fraction", IID_PINS, ids=[str(a) for a, _ in IID_PINS])
def test_iid_all_success_pinned(args, fraction):
    assert iid_all_success(*args) == fraction


# ---------------------------------------------------------------------------
# the blocked interval samplers against the million-value chunks they replaced


def reference_interval_all_success(scheme, n, trials, seed=0):
    """Trials drawn in chunks of about 10**6 slot keys."""
    intervals, length = scheme.layout(n)
    rng = np.random.default_rng(seed)
    good = 0
    chunk = max(1, 10 ** 6 // max(1, intervals * n))
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        keys = rng.integers(0, length, size=(b, intervals, n))
        keys += (np.arange(b)[:, None, None] * intervals + np.arange(intervals)[None, :, None]) * length
        counts = np.bincount(keys.ravel(), minlength=b * intervals * length)
        alone = (counts == 1)[keys]
        good += int(alone.any(axis=1).all(axis=1).sum())
        done += b
    return good / trials


def reference_interval_success_samples(n, samples, seed=0):
    """Intervals drawn in chunks of about 10**6 slot picks."""
    length = math.ceil(n / math.log(2))
    rng = np.random.default_rng(seed)
    good = 0
    chunk = max(1, 10 ** 6 // n)
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        slots = rng.integers(0, length, size=(b, n))
        clash = (slots[:, 1:] == slots[:, :1]).any(axis=1)
        good += int(b - clash.sum())
        done += b
    return good / samples


@pytest.mark.parametrize("block", [1, 777, verify.STAR_BLOCK])
def test_interval_samplers_do_not_depend_on_the_block(monkeypatch, block):
    # one trial or row per block, an odd block that splits trials
    # unevenly, and the default; each must read the stream one draw of
    # every trial reads
    monkeypatch.setattr(verify, "STAR_BLOCK", block)
    fractions = []
    for n in (1, 2, 16, 300):
        for c in (0.5, 1.0, 3.2):
            for seed in range(3):
                for trials in (1, 9, 40):
                    got = interval_all_success(IntervalScheme(c), n, trials, seed)
                    want = reference_interval_all_success(IntervalScheme(c), n, trials, seed)
                    assert got == want, (n, c, seed, trials)
                    fractions.append(got)
        for seed in range(3):
            for samples in (1, 1000, 5001):
                got = interval_success_samples(n, samples, seed)
                assert got == reference_interval_success_samples(n, samples, seed), (n, seed)
    # a stream off by one draw would show in the trials that split
    assert sum(0 < f < 1 for f in fractions) >= 20


# lower-bound's two interval calls (seeds 100 and 101) and criterion 11's three
INTERVAL_PINS = [
    ((3.2, 256, 500, 100), 0.964),
    ((0.5, 256, 500, 101), 0.0),
    ((3.2, 256, 2000, 3), 0.9705),
    ((0.5, 256, 2000, 4), 0.0),
]


@pytest.mark.parametrize("args, fraction", INTERVAL_PINS, ids=[str(a) for a, _ in INTERVAL_PINS])
def test_interval_all_success_pinned(args, fraction):
    c, n, trials, seed = args
    assert interval_all_success(IntervalScheme(c), n, trials, seed=seed) == fraction


def test_interval_success_samples_pinned():
    assert interval_success_samples(256, 100_000, seed=5) == 0.50144


@pytest.mark.parametrize("call", [
    lambda: interval_all_success(IntervalScheme(3.2), 256, 2000, seed=3),
    lambda: interval_all_success(IntervalScheme(0.5), 256, 2000, seed=4),
    lambda: interval_success_samples(256, 100_000, seed=5),
], ids=["all-success c=3.2", "all-success c=0.5", "per-interval"])
def test_interval_samplers_peak_memory(call):
    # criterion 11's calls; million-value chunks traced 16 to 32 MB
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


@pytest.mark.parametrize("call", [
    lambda count: interval_all_success(IntervalScheme(3.2), 16, count),
    lambda count: interval_success_samples(16, count),
    lambda count: iid_all_success(0.1, 10, 4, count),
    # a star of no players: division by zero, log 0, or a vacuous success
    lambda count: interval_all_success(IntervalScheme(1.0), count, 5),
    lambda count: interval_success_samples(count, 5),
    lambda count: iid_all_success(0.5, 10, count, 3),
], ids=["all-success", "per-interval", "iid", "all-success n", "per-interval n", "iid n"])
@pytest.mark.parametrize("count", [0, -1])
def test_star_samplers_refuse_impossible_counts(call, count):
    with pytest.raises(ValueError, match=f"must be at least 1, got {count}$"):
        call(count)
