"""Selective families and dispersers, checked against exhaustive oracles."""
import itertools
import math

import numpy as np
import pytest

from radio_gather.engine import DuplexMode
from radio_gather.selectors import (
    Disperser,
    MissingSelectiveFamily,
    ParametersTooLarge,
    SelectiveFamily,
    build_disperser,
    build_selective_family,
    build_verified_selective_family,
    disperser_value,
    is_prime,
    kautz_singleton_family,
    kautz_singleton_parameters,
    random_selective_family,
    singleton_family,
    smallest_prime_with_square_geq,
    uncovered_firing,
    verify_disperser_pairwise,
    verify_selective_family,
)

FULL = DuplexMode.FULL
HALF = DuplexMode.HALF


# ---------------------------------------------------------------------------
# primes

def sieve_oracle(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = False
    return flags


def test_is_prime_matches_sieve():
    flags = sieve_oracle(5000)
    for m in range(5001):
        assert is_prime(m) == bool(flags[m])


def test_smallest_prime_examples():
    assert smallest_prime_with_square_geq(9) == 3
    assert smallest_prime_with_square_geq(10) == 5
    assert smallest_prime_with_square_geq(100) == 11
    assert smallest_prime_with_square_geq(1) == 2


def test_smallest_prime_is_minimal():
    flags = sieve_oracle(1000)
    primes = [i for i in range(1001) if flags[i]]
    for n in range(1, 900):
        expect = next(p for p in primes if p * p >= n)
        assert smallest_prime_with_square_geq(n) == expect


def test_bertrand_window():
    # where no small-m bump applies the prime sits inside [sqrt n, 2 sqrt n)
    for n in range(5, 2000):
        p = build_disperser(n, FULL).p
        assert math.sqrt(n) <= p < 2 * math.sqrt(n)


# ---------------------------------------------------------------------------
# dispersers

def test_disperser_n9_known_values():
    d = build_disperser(9, FULL)
    assert (d.p, d.m, d.s) == (3, 1, 21)
    assert d.offsets(1) == (0, 7, 8)


def test_disperser_n10_both_modes():
    d = build_disperser(10, FULL)
    assert (d.p, d.m, d.s) == (5, 2, 55)
    assert d.offsets(1) == (0, 11, 14, 42, 43)
    assert d.offsets(2) == (0, 22, 23, 31, 34)
    h = build_disperser(10, HALF)
    assert (h.p, h.m) == (5, 1)


def test_disperser_tiny_n_bumps_prime():
    # p=2 gives no sets at all in full duplex, p=3 none in half duplex
    d = build_disperser(2, FULL)
    assert d.p >= 3 and d.m >= 1
    h = build_disperser(9, HALF)
    assert h.p == 5 and h.m == 1


def test_offsets_fit_window():
    for n in (9, 30, 100, 500):
        for mode in (FULL, HALF):
            d = build_disperser(n, mode)
            for j in range(1, d.m + 1):
                offs = d.offsets(j)
                assert len(offs) == d.p
                assert all(0 <= t < d.s for t in offs)


def test_value_formula_spot_checks():
    assert disperser_value(1, 2, 3) == 2 + 6 * 1
    assert disperser_value(2, 3, 5) == 1 + 10 * 3


def test_size_bounds_across_range():
    # the prime bump at tiny n trades the linear span bound for m >= 1,
    # so those few sizes are pinned instead of bounded
    for n in range(1, 4097):
        d = build_disperser(n, FULL)
        h = build_disperser(n, HALF)
        assert h.m >= 1
        if n <= 2:
            assert (d.p, d.s) == (3, 21)
        else:
            assert d.m >= (math.sqrt(n) - 1) / 2
            assert d.s < 8 * n + 2 * math.sqrt(n) + 1
        if n <= 6:
            assert (h.p, h.s) == (5, 55)
        else:
            assert h.s < 8 * n + 2 * math.sqrt(n) + 1


@pytest.mark.parametrize("n", [9, 10, 50, 120, 300, 900])
def test_pairwise_caps(n):
    d = build_disperser(n, FULL)
    assert verify_disperser_pairwise(d, kill_cap=2)
    h = build_disperser(n, HALF)
    assert verify_disperser_pairwise(h, kill_cap=4)


def test_pairwise_cap_rejects_duplicates():
    d = build_disperser(50, FULL)
    assert d.m >= 2
    broken = Disperser(n=d.n, p=d.p, m=d.m, s=d.s, mode=d.mode,
                       sets=(d.sets[0],) * d.m)
    assert not verify_disperser_pairwise(broken, kill_cap=2)


def brute_uncovered(d, delta, j):
    covered = set()
    for i in range(1, d.m + 1):
        if i != j:
            covered.update(t + delta.get(i, 0) for t in d.offsets(i))
    for t in d.offsets(j):
        if t + delta.get(j, 0) not in covered:
            return t
    return None


def test_uncovered_firing_zero_shift():
    d = build_disperser(10, FULL)
    assert uncovered_firing(d, {}, 1) == 11


def test_uncovered_firing_matches_brute_force():
    rng = np.random.default_rng(42)
    for n in (10, 50, 120):
        for mode in (FULL, HALF):
            d = build_disperser(n, mode)
            for _ in range(40):
                delta = {i: int(rng.integers(0, d.n)) for i in range(1, d.m + 1)}
                for j in range(1, d.m + 1):
                    got = uncovered_firing(d, delta, j)
                    assert got == brute_uncovered(d, delta, j)
                    assert got is not None


def test_uncovered_firing_bad_index():
    d = build_disperser(10, FULL)
    with pytest.raises(ValueError):
        uncovered_firing(d, {}, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: build_disperser(10, FULL).offsets(0), r"index 0 outside 1\.\.2"),
    (lambda: build_disperser(0), "n must be positive"),
    (lambda: kautz_singleton_parameters(0, 2), "need n >= 1 and k >= 1"),
    (lambda: kautz_singleton_parameters(8, 0), "need n >= 1 and k >= 1"),
    (lambda: build_selective_family(0, 1), "need n >= 1 and k >= 1"),
    (lambda: build_selective_family(8, 0), "need n >= 1 and k >= 1"),
], ids=["offsets index", "disperser n", "kautz n", "kautz k", "family n", "family k"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_a_family_for_no_set_size_passes_vacuously():
    assert verify_selective_family(SelectiveFamily(n=4, k=0, m=0, sets=()))


def test_uncovered_firing_none_when_every_offset_is_covered():
    d = Disperser(n=2, p=2, m=2, s=1, mode=FULL, sets=((0,), (0,)))
    assert uncovered_firing(d, {}, 1) is None


# ---------------------------------------------------------------------------
# selective families

def brute_selective(fam: SelectiveFamily) -> bool:
    """Literal restatement of the definition, no bit tricks."""
    for size in range(1, fam.k + 1):
        for X in itertools.combinations(range(fam.n), size):
            sx = set(X)
            for x in X:
                if not any(s & sx == {x} for s in fam.sets):
                    return False
    return True


def test_k1_family_is_whole_set():
    fam = build_selective_family(16, 1)
    assert fam.m == 1 and fam.sets[0] == frozenset(range(16))
    assert verify_selective_family(fam)


def test_large_k_gets_singletons():
    fam = build_selective_family(8, 4)
    assert fam.m == 8
    assert sorted(min(s) for s in fam.sets) == list(range(8))
    assert fam.verified


def test_threshold_regimes():
    # k = 2 stays in the singleton regime up to n = 16 and goes randomized after
    assert build_selective_family(16, 2).m == 16
    fam = build_selective_family(17, 2)
    assert fam.m == math.ceil(8 * 4 * math.log(17))
    assert not fam.verified


def test_randomized_family_n12_k2_verifies():
    for seed in (0, 1, 2, 3):
        fam = random_selective_family(12, 2, seed)
        assert fam.m == math.ceil(32 * math.log(12))
        assert verify_selective_family(fam)


def test_kautz_singleton_family_verifies():
    for n in range(1, 15):
        for k in (1, 2, 3):
            q, d = kautz_singleton_parameters(n, k)
            assert is_prime(q) and q ** d >= n and q > (k - 1) * (d - 1)
            fam = kautz_singleton_family(n, k)
            assert (fam.n, fam.k, fam.m) == (n, k, q * q)
            assert verify_selective_family(fam), (n, k)


def test_kautz_singleton_sizes_below_n():
    # k = ceil(n^(1/3)) at the sizes the selector ladder is measured on
    got = [kautz_singleton_parameters(n, k) for n, k in
           ((64, 4), (128, 6), (256, 7), (512, 8), (1024, 11))]
    assert got == [(7, 3), (11, 3), (13, 3), (17, 3), (23, 3)]


def test_verifier_matches_brute_force():
    # the verifier tests only |X| = min(k, n); the oracle tests every
    # size, so this also checks the superset argument behind that
    rng = np.random.default_rng(7)
    seen = {"k > n": 0, "k = 4": 0, "empty set": 0, "unused element": 0,
            "over 64 sets": 0, True: 0, False: 0}
    for trial in range(600):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, 6))
        m = int(rng.integers(1, 14))
        density = rng.choice([0.2, 0.4, 0.6])
        sets = [set(int(x) for x in np.flatnonzero(rng.random(n) < density))
                for _ in range(m)]
        if trial % 3 == 0:
            sets += [{x} for x in range(n) if rng.random() < 0.7]
        if trial % 5 == 0:
            sets.append(set())
        if trial % 7 == 0:
            gone = int(rng.integers(0, n))
            sets = [s - {gone} for s in sets]
        if trial % 4 == 1:
            # whole-set padding isolates nothing once |X| >= 2, so the
            # deciding sets sit in a second or third 64-bit word
            sets = [set(range(n))] * int(rng.integers(60, 140)) + sets
        fam = SelectiveFamily(n=n, k=k, m=len(sets),
                              sets=tuple(frozenset(s) for s in sets))
        got = verify_selective_family(fam)
        assert got == brute_selective(fam), (n, k, sets)
        seen[True] += got
        seen[False] += not got
        seen["k > n"] += k > n
        seen["k = 4"] += k == 4
        seen["empty set"] += any(not s for s in sets)
        seen["unused element"] += len(set().union(*sets)) < n
        seen["over 64 sets"] += len(sets) > 64
    assert min(seen.values()) >= 50, seen


def test_verifier_rejects_non_selective():
    # one whole-set block cannot isolate members of a pair
    fam = SelectiveFamily(n=4, k=2, m=1, sets=(frozenset(range(4)),))
    assert not verify_selective_family(fam)
    # missing element 2 entirely
    fam2 = SelectiveFamily(n=3, k=1, m=2,
                           sets=(frozenset({0}), frozenset({1})))
    assert not verify_selective_family(fam2)


def test_verifier_budget_guard():
    fam = singleton_family(10, 2)
    with pytest.raises(ParametersTooLarge):
        verify_selective_family(fam, work_budget=10)


def test_build_verified_small_grid():
    for n in range(2, 15):
        for k in range(1, 4):
            fam, retries = build_verified_selective_family(n, k)
            assert fam.verified
            assert retries <= 5
            assert verify_selective_family(fam)


def test_build_verified_randomized_branch():
    fam, retries = build_verified_selective_family(17, 2, seed=0)
    assert fam.verified and retries <= 5


def test_retry_exhaustion_raises():
    with pytest.raises(MissingSelectiveFamily):
        build_verified_selective_family(17, 2, max_retries=-1)
