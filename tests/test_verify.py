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
    delivery_oracle,
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


def test_delivery_oracle_gathers_all():
    for n in (1, 2, 9, 17):
        tree = trees.from_family("random", n, seed=n)
        got = delivery_oracle(tree)
        assert set(got) == set(range(n))
        assert got[tree.label[tree.root]] == 0


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
