"""Release gate: thirteen numbered criteria covering the whole package.

Each test prints one line of the form

    [criterion N] PASS - detail
    [criterion N] FAIL - detail

directly to the terminal (bypassing capture) before asserting, so the
full scorecard is visible in any pytest run.  Tolerances are pinned
here and nowhere else; a criterion that cannot be met at desk scale
still runs faithfully and reports its measured values.
"""

import math
import time

import numpy as np
import pytest

from radio_gather import trees
from radio_gather.engine import (
    Bounded,
    DuplexMode,
    FireAndForward,
    Protocol,
    ProtocolState,
    SLEEP_FOREVER,
    run,
)
from radio_gather.protocols import (
    PROTOCOL_NAMES,
    ceil_log2,
    default_family,
    make_protocol,
    step_cap,
)
from radio_gather.selectors import (
    build_disperser,
    build_verified_selective_family,
    uncovered_firing,
    verify_disperser_pairwise,
    verify_selective_family,
)
from radio_gather.verify import (
    FiringSchedule,
    IntervalScheme,
    extract_schedule,
    find_caterpillar_witness,
    interval_all_success,
    interval_success_samples,
)

FULL = DuplexMode.FULL
FAMILIES = trees.FAMILIES
SWEEP_NS = (1, 2, 16, 64, 256)
TREE_SEED = 11
RUN_SEED = 7
REGRESSION_NS = (64, 128, 256, 512, 1024)


def trial_seed(trial: int) -> int:
    return 100 + 1000003 * trial


def loglog_slope(ns, values) -> float:
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str) -> bool:
        with capsys.disabled():
            print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}",
                  flush=True)
        return ok
    return _announce


@pytest.fixture(scope="module")
def sweep():
    """Every protocol on every family at every sweep size, full duplex,
    plus the tree of each (family, size).  Shared by criteria 1, 2, and
    6; the elapsed time is part of criterion 1."""
    t0 = time.perf_counter()
    sweep_trees = {}
    traces = {}
    for fam in FAMILIES:
        for n in SWEEP_NS:
            tree = sweep_trees[(fam, n)] = trees.from_family(fam, n, seed=TREE_SEED)
            for name in PROTOCOL_NAMES:
                proto = make_protocol(name, n)
                traces[(name, fam, n)] = run(
                    tree, proto, FULL, max_steps=step_cap(proto), seed=RUN_SEED,
                )
    return traces, sweep_trees, time.perf_counter() - t0


def test_criterion_01_gathering_sweep(sweep, announce):
    traces, sweep_trees, elapsed = sweep
    bad = []
    for key, trace in traces.items():
        tree = sweep_trees[key[1:]]
        if (set(trace.delivery) != set(tree.label)
                or trace.delivery.get(tree.label[tree.root]) != 0):
            bad.append(key)
    ok = not bad and elapsed < 30.0
    detail = (
        f"{len(traces)} runs ({len(PROTOCOL_NAMES)} protocols x "
        f"{len(FAMILIES)} families x {len(SWEEP_NS)} sizes) each deliver "
        f"every label of the tree, the root's own at step 0, in "
        f"{elapsed:.1f}s (budget 30s)"
    )
    if bad:
        detail = f"delivery mismatches at {bad[:5]}"
    assert announce(1, ok, detail), detail


def test_criterion_02_round_robin_quadratic_bound(sweep, announce):
    traces, _, _ = sweep
    worst = 0.0
    for (name, fam, n), trace in traces.items():
        if name not in ("rr-unb", "rr-bnd"):
            continue
        assert not trace.incomplete, (name, fam, n)
        worst = max(worst, trace.completion_step / (n * n))
    ok = worst <= 1.0
    assert announce(
        2, ok, f"round-robin completion within n^2 on every sweep tree "
        f"(worst ratio {worst:.3f})"), worst


def test_criterion_03_ladder_activation_bound(announce):
    violations = 0
    checked = 0
    worst = 0.0
    for fam in FAMILIES:
        for n in (64, 256):
            seeds = (TREE_SEED, 1, 2) if fam == "random" else (TREE_SEED,)
            for seed in seeds:
                tree = trees.from_family(fam, n, seed=seed)
                h2 = trees.gamma_heights(tree, 2).heights
                first = {}

                def obs(t, states, transmitters, receptions, collided):
                    if t >= n:
                        for v in transmitters:
                            first.setdefault(v, t)

                proto = make_protocol("unb1", n)
                trace = run(tree, proto, FULL, max_steps=proto.horizon,
                            seed=RUN_SEED, observer=obs)
                assert not trace.incomplete, (fam, n, seed)
                for v, tau in first.items():
                    # two steps per round after the n census steps
                    alpha = (tau - n) // 2
                    bound = 2 * n * h2[v] + n
                    checked += 1
                    worst = max(worst, alpha / bound)
                    if alpha > bound:
                        violations += 1
    ok = violations == 0
    assert announce(
        3, ok, f"{checked} activations within 2nh + n rounds of the census "
        f"at n in {{64, 256}}, {violations} violations "
        f"(worst ratio {worst:.3f})"), violations


def test_criterion_04_selector_ladder_linearity(announce):
    t0 = time.perf_counter()
    maxes = []
    sizes_m = []
    for n in REGRESSION_NS:
        proto = make_protocol("unb2", n)
        sizes_m.append(proto.family.m)
        worst = 0
        for trial in range(10):
            s = trial_seed(trial)
            tree = trees.make_random_tree(n, seed=s)
            trace = run(tree, proto, FULL, max_steps=proto.horizon, seed=s)
            assert not trace.incomplete, (n, trial)
            worst = max(worst, trace.completion_step)
        maxes.append(worst)
    elapsed = time.perf_counter() - t0
    slope = loglog_slope(REGRESSION_NS, maxes)
    per_n = [w / n for w, n in zip(maxes, REGRESSION_NS)]
    # O(n) is an upper bound: the slope has a ceiling, the census gives
    # every run n steps, and worst/n may not grow across the range
    ok = (slope <= 1.15 and min(per_n) >= 1.0 and per_n[-1] <= per_n[0]
          and all(m < n for m, n in zip(sizes_m, REGRESSION_NS))
          and elapsed <= 300.0)
    assert announce(
        4, ok, f"max-completion slope {slope:.4f} vs ceiling 1.15 over n in "
        f"{REGRESSION_NS}, 10 random trees each, {elapsed:.0f}s (budget "
        f"300s); family sizes m = {sizes_m}; worst/n = "
        f"{', '.join(f'{r:.2f}' for r in per_n)} (each at least 1, last "
        f"at most first)"), (slope, per_n, sizes_m)


def h2_chains(tree):
    """Maximal parent-child chains of equal 2-height, deepest node
    first, for chains of length at least two."""
    h = trees.gamma_heights(tree, 2).heights
    same_child = {}
    for v in range(tree.n):
        p = tree.parent[v]
        if p >= 0 and h[p] == h[v]:
            same_child[p] = v
    chains = []
    for v in range(tree.n):
        p = tree.parent[v]
        if p >= 0 and h[p] == h[v]:
            continue
        chain = [v]
        while chain[-1] in same_child:
            chain.append(same_child[chain[-1]])
        if len(chain) >= 2:
            chain.reverse()
            chains.append((h[v], chain))
    return chains


class StreamStagePotential:
    """Per-step audit of the height-phase relay.

    Tracks, along every maximal equal-height chain, the potential
    sum(max(phi_i, 1)) over chain nodes above the deepest one still
    holding unsent rumors, phi_i being node i's unsent-rumor count at
    the start of the step.  Also flags any transmission whose fields
    fall outside the bounded-message format.
    """

    def __init__(self, tree, n):
        level = ceil_log2(n)
        self.base = n + 3 * (2 * n * level + n)
        self.phase_len = 3 * n
        self.n = n
        self.level = level
        self.chains = h2_chains(tree)
        self.series = {}
        self.guard_trips = 0

    def __call__(self, t, states, transmitters, receptions, collided):
        n = self.n
        for v, msg in transmitters.items():
            if not (isinstance(msg, Bounded) and 0 <= msg.rumor < n
                    and 0 <= msg.sender < n
                    and (msg.height2 is None or 0 <= msg.height2 <= self.level)
                    and msg.parity in (None, 0, 1)):
                self.guard_trips += 1
        if t < self.base:
            return
        phase, off = divmod(t - self.base, self.phase_len)
        if off >= 2 * n:
            return
        for idx, (height, chain) in enumerate(self.chains):
            if height != phase:
                continue
            # a node's unsent count at step start is its post-step queue
            # plus the rumor it just streamed out
            phis = [len(states[u].pending) + (1 if u in transmitters else 0)
                    for u in chain[:-1]]
            alive = next((i for i, f in enumerate(phis) if f), None)
            total = 0 if alive is None else sum(max(f, 1) for f in phis[alive:])
            self.series.setdefault((phase, idx), []).append(total)


def test_criterion_05_height_phase_relay(announce):
    means = []
    for n in REGRESSION_NS:
        proto = make_protocol("bnd", n, FULL)
        comp = []
        for trial in range(5):
            s = trial_seed(trial)
            tree = trees.make_random_tree(n, seed=s)
            trace = run(tree, proto, FULL, max_steps=proto.horizon, seed=s)
            assert not trace.incomplete, (n, trial)
            comp.append(trace.completion_step)
        means.append(sum(comp) / len(comp))
    slope = loglog_slope(REGRESSION_NS, means)

    guard_trips = 0
    monotone_failures = 0
    oversized_start = 0
    chains_checked = 0
    audit_trees = [(fam, TREE_SEED) for fam in FAMILIES]
    audit_trees += [("random", 1), ("random", 2)]
    for fam, seed in audit_trees:
        for n in (16, 64):
            tree = trees.from_family(fam, n, seed=seed)
            audit = StreamStagePotential(tree, n)
            proto = make_protocol("bnd", n, FULL)
            trace = run(tree, proto, FULL, max_steps=proto.horizon,
                        seed=RUN_SEED, stop_early=False, observer=audit)
            assert not trace.incomplete, (fam, n)
            guard_trips += audit.guard_trips
            for seq in audit.series.values():
                chains_checked += 1
                if seq[0] > 2 * n:
                    oversized_start += 1
                monotone_failures += sum(
                    1 for a, b in zip(seq, seq[1:]) if a > 0 and b >= a)

    ok = (1.0 <= slope <= 1.3 and guard_trips == 0
          and monotone_failures == 0 and oversized_start == 0)
    assert announce(
        5, ok, f"completion slope {slope:.4f} vs target [1.0, 1.3] "
        f"(n log n reference measures about 1.18 over this range); "
        f"message guard clean over all audited runs; stream-stage "
        f"potential strictly decreased on {chains_checked} chains "
        f"({monotone_failures} failures, {oversized_start} oversized "
        f"starts)"), (slope, guard_trips, monotone_failures)


def test_criterion_06_batch_schedule(sweep, announce):
    traces, _, _ = sweep
    worst = 0.0
    for (name, fam, n), trace in traces.items():
        if name != "mls":
            continue
        assert not trace.incomplete, (fam, n)
        bound = make_protocol("mls", n, FULL).horizon
        worst = max(worst, trace.completion_step / bound)

    means = []
    for n in REGRESSION_NS:
        proto = make_protocol("mls", n, FULL)
        comp = []
        for trial in range(5):
            s = trial_seed(trial)
            tree = trees.make_random_tree(n, seed=s)
            trace = run(tree, proto, FULL, max_steps=proto.horizon, seed=s)
            assert not trace.incomplete, (n, trial)
            comp.append(trace.completion_step)
        means.append(sum(comp) / len(comp))
    slope = loglog_slope(REGRESSION_NS, means)
    ok = worst <= 1.0 and 1.35 <= slope <= 1.65
    assert announce(
        6, ok, f"completion within batches x window on every sweep tree "
        f"(worst ratio {worst:.3f}); slope {slope:.4f} vs target "
        f"[1.35, 1.65]"), (worst, slope)


def test_criterion_07_disperser_caps(announce):
    primes = [p for p in range(2, 32) if all(p % q for q in range(2, p))]
    checked = 0
    for p in primes:
        n = p * p
        for mode, cap in ((DuplexMode.FULL, 2), (DuplexMode.HALF, 4)):
            d = build_disperser(n, mode)
            assert d.p >= p
            assert verify_disperser_pairwise(d, cap), (p, mode.value)
            rng = np.random.default_rng([p, cap])
            for _ in range(50):
                delta = {i: int(rng.integers(0, n))
                         for i in range(1, d.m + 1)}
                j = int(rng.integers(1, d.m + 1))
                assert uncovered_firing(d, delta, j) is not None, (p, mode.value)
                checked += 1
    assert announce(
        7, True, f"pairwise caps 2 (full) and 4 (half) hold for every "
        f"prime up to 31; {checked} random depth assignments all admit "
        f"an uncovered firing"), checked


def test_criterion_08_selective_family_exhaustive(announce):
    # the builder skips its own check for families it marks verified, so
    # every family goes through the exhaustive oracle here
    worst_retries = 0
    checked = 0
    broken = []
    for n in range(1, 15):
        for k in (1, 2, 3):
            built, retries = build_verified_selective_family(
                n, k, seed=0, max_retries=5)
            assert built.verified
            worst_retries = max(worst_retries, retries)
            for fam in (default_family(n, k), built):
                checked += 1
                if not verify_selective_family(fam):
                    broken.append((n, k, fam.m))
    ok = not broken and worst_retries <= 5
    assert announce(
        8, ok, f"{checked} families exhaustively verified: unb2's default "
        f"family and the built family for all n <= 14, k <= 3 "
        f"(not selective: {broken or 'none'}; worst retry count "
        f"{worst_retries} of 5 allowed)"), (broken, worst_retries)


def star_completion_probability(n: int, steps: int) -> float:
    """Chance that rtree gathers make_star(n) within the given steps.

    A leaf's rumor arrives exactly when it fires while the other n - 2
    leaves stay silent, so each step delivers leaf i with probability
    q = (1/n)(1 - 1/n)^(n-2), the events are disjoint across leaves,
    and steps are independent.  Inclusion-exclusion over the leaves
    never delivered gives the sum below; its terms shrink at least
    geometrically at the sizes used here, so the float sum is stable.
    """
    q = (1 / n) * (1 - 1 / n) ** (n - 2)
    return sum((-1) ** k * math.comb(n - 1, k) * (1 - k * q) ** steps
               for k in range(n))


def test_criterion_09_random_fire_statistics(announce):
    n = 32
    steps = 100_000
    tree = trees.make_star(n)
    alone = [0]

    def obs(t, states, transmitters, receptions, collided):
        if len(transmitters) == 1 and 1 in transmitters:
            alone[0] += 1

    proto = make_protocol("rtree", n)
    run(tree, proto, FULL, max_steps=steps, seed=RUN_SEED,
        stop_early=False, observer=obs)
    p_hat = alone[0] / steps
    # the other n - 2 leaves stay silent; the root never transmits
    p_ref = (1 / n) * (1 - 1 / n) ** (n - 2)
    se = math.sqrt(p_hat * (1 - p_hat) / steps)
    z = abs(p_hat - p_ref) / se

    rates = {}
    exact = {}
    for size in (32, 128):
        cap = math.ceil(4 * size * math.log(size))
        star = trees.make_star(size)
        star_proto = make_protocol("rtree", size)
        done = sum(
            not run(star, star_proto, FULL, max_steps=cap,
                    seed=RUN_SEED + 1000003 * trial).incomplete
            for trial in range(200)
        )
        rates[size] = done / 200
        exact[size] = star_completion_probability(size, cap)

    rate_z = {size: abs(rates[size] - exact[size])
              / math.sqrt(exact[size] * (1 - exact[size]) / 200)
              for size in rates}
    ok = z <= 3.0 and all(rz <= 3.0 for rz in rate_z.values())
    assert announce(
        9, ok, f"designated-child delivery rate {p_hat:.6f} vs reference "
        f"{p_ref:.6f} is {z:.2f} standard errors over {steps} steps; "
        f"completion within 4n ln n in {rates[32]:.3f} (n=32) and "
        f"{rates[128]:.3f} (n=128) of 200 trials vs exact "
        f"{exact[32]:.4f} and {exact[128]:.4f}, {rate_z[32]:.2f} and "
        f"{rate_z[128]:.2f} standard errors (limit 3)"), (z, rates, exact)


def test_criterion_10_adversary_witnesses(announce):
    rng = np.random.default_rng(2024)
    found = 0
    for _ in range(100):
        fires = rng.integers(0, 16, size=16)
        sched = FiringSchedule(n=16, T=16,
                               fires=tuple((int(f),) for f in fires))
        if find_caterpillar_witness(sched) is not None:
            found += 1

    clean = []
    for n in (4, 9, 16, 25, 36, 49, 64):
        sched = extract_schedule(make_protocol("mls", n, FULL))
        clean.append(find_caterpillar_witness(sched) is None)

    ok = found >= 80 and all(clean)
    assert announce(
        10, ok, f"re-verified witnesses for {found}/100 random "
        f"single-firing schedules (threshold 80); no witness exists for "
        f"the batch schedule at any n up to 64"), (found, clean)


def test_criterion_11_star_retry_schemes(announce):
    hi = interval_all_success(IntervalScheme(3.2), 256, 2000, seed=3)
    lo = interval_all_success(IntervalScheme(0.5), 256, 2000, seed=4)
    rate = interval_success_samples(256, 100_000, seed=5)
    sigma3 = 3 * math.sqrt(0.25 / 100_000)
    ok = hi - lo >= 0.5 and abs(rate - 0.5) <= sigma3
    assert announce(
        11, ok, f"all-success gap {hi:.4f} - {lo:.4f} = {hi - lo:.4f} "
        f"(threshold 0.5); per-interval success {rate:.5f} within "
        f"{sigma3:.5f} of one half"), (hi, lo, rate)


def test_criterion_12_height_lemmas(announce):
    rng = np.random.default_rng(0)
    violations = 0
    for i in range(1000):
        n = int(rng.integers(1, 513))
        tree = trees.make_random_tree(n, seed=i)
        sizes = tree.subtree_sizes()
        for gamma in (2, 3, 4):
            heights = trees.gamma_heights(tree, gamma).heights
            if heights[tree.root] > trees.log_gamma_bound(n, gamma) + 1e-9:
                violations += 1
            if any(sizes[v] < gamma ** heights[v] for v in range(n)):
                violations += 1
            for h in range(1, heights[tree.root] + 1):
                sub = trees.subtree_above(tree, gamma, h)
                kept = sorted(v for v in range(n) if heights[v] >= h)
                new = trees.gamma_heights(sub, gamma).heights
                if any(new[i2] != heights[v] - h
                       for i2, v in enumerate(kept)):
                    violations += 1
    ok = violations == 0
    assert announce(
        12, ok, f"depth cap, subtree lower bound, and height shift hold "
        f"over 1000 random trees up to n=512 for gamma in {{2, 3, 4}} "
        f"({violations} violations)"), violations


class _OneShot(ProtocolState):
    """Transmit own rumor at one fixed step, else stay silent."""

    def __init__(self, label, fire_at):
        self.label = label
        self.fire_at = SLEEP_FOREVER if fire_at is None else fire_at
        self.asleep_until = self.fire_at

    def act(self, view):
        self.asleep_until = SLEEP_FOREVER
        if view.time == self.fire_at:
            return FireAndForward(self.label)
        return None


def _one_shot_protocol(fire_steps):
    return Protocol(
        name="one-shot",
        message_kind=FireAndForward,
        state_factory=lambda label, n, mode, rng: _OneShot(
            label, fire_steps.get(label)),
    )


def test_criterion_13_engine_properties(announce):
    # two children colliding must look exactly like two children silent
    tree = trees.build_tree([0, 0, 1, 1], labels=range(4))
    heard = {"quiet": [], "clash": []}

    def listener(log):
        def obs(t, states, transmitters, receptions, collided):
            log.append(1 in receptions)
        return obs

    # 0 and 1 fire inside the window to keep the run alive for all 8 steps
    quiet = run(tree, _one_shot_protocol({0: 7, 1: 7, 2: 90, 3: 90}), FULL,
                max_steps=8, observer=listener(heard["quiet"]))
    clash = run(tree, _one_shot_protocol({0: 7, 1: 7, 2: 4, 3: 4}), FULL,
                max_steps=8, observer=listener(heard["clash"]))
    collision_ok = (clash.collisions_total == 1
                    and quiet.collisions_total == 0
                    and heard["quiet"] == heard["clash"] == [False] * 8)

    # a node's coin flips and actions must not depend on its label
    base = trees.make_random_tree(16, seed=3)
    perm = [(i * 7 + 3) % 16 for i in range(16)]
    relabeled = trees.build_tree(base.parent,
                                 labels=[perm[l] for l in base.label])
    proto = make_protocol("rtree", 16)
    fired = {"base": [], "relabeled": []}

    def recorder(log):
        def obs(t, states, transmitters, receptions, collided):
            log.append((frozenset(transmitters), frozenset(collided)))
        return obs

    a = run(base, proto, FULL, max_steps=600, seed=5, stop_early=False,
            observer=recorder(fired["base"]))
    b = run(relabeled, proto, FULL, max_steps=600, seed=5, stop_early=False,
            observer=recorder(fired["relabeled"]))
    label_ok = (fired["base"] == fired["relabeled"]
                and b.delivery == {perm[l]: t
                                   for l, t in a.delivery.items()})

    # identical seeds replay to identical bytes, different seeds do not
    t1 = run(base, proto, FULL, max_steps=400, seed=9, record_steps=True)
    t2 = run(base, proto, FULL, max_steps=400, seed=9, record_steps=True)
    t3 = run(base, proto, FULL, max_steps=400, seed=10, record_steps=True)
    bytes_ok = (t1.to_jsonl_bytes() == t2.to_jsonl_bytes()
                and t1.to_jsonl_bytes() != t3.to_jsonl_bytes())

    ok = collision_ok and label_ok and bytes_ok
    assert announce(
        13, ok, f"collision indistinguishable from silence ({collision_ok}), "
        f"label isolation under relabeling ({label_ok}), byte-identical "
        f"replay under a fixed seed ({bytes_ok})"), (
            collision_ok, label_ok, bytes_ok)
