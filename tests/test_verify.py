"""Schedule extraction, witness search, and star-scheme statistics."""

import numpy as np
import pytest

from radio_gather import trees
from radio_gather.engine import DuplexMode, run
from radio_gather.protocols import make_protocol
from radio_gather.verify import (
    CaterpillarWitness,
    FiringSchedule,
    IntervalScheme,
    NotOblivious,
    ScheduleError,
    extract_schedule,
    find_caterpillar_witness,
    iid_all_success,
    interval_all_success,
    interval_success_samples,
    schedule_protocol,
)

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
