"""Combinatorial transmission-schedule building blocks.

Two constructions live here.  A strong k-selective family over [n] is a
list of sets F_0..F_{m-1} such that every subset X of size at most k has,
for each of its members x, some F_j with F_j intersecting X exactly in
{x}.  A quadratic-residue style disperser assigns each index a set of
firing offsets inside a window so that any two indices, arbitrarily
shifted, collide in at most a bounded number of positions.

Both come with exhaustive verifiers sized for small instances; the
verifiers are deliberately independent of the builders so they can act
as oracles in tests.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Mapping

import numpy as np

from .engine import DuplexMode


class ParametersTooLarge(ValueError):
    pass


class MissingSelectiveFamily(ValueError):
    """No usable selective family: construction failed or a supplied
    family does not fit the requested parameters."""


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def smallest_prime_with_square_geq(n: int) -> int:
    # isqrt is exact, so (isqrt(n - 1) + 1)**2 >= n for every n >= 1
    p = max(2, math.isqrt(max(n - 1, 0)) + 1)
    while not is_prime(p):
        p += 1
    return p


# ---------------------------------------------------------------------------
# dispersers

@dataclasses.dataclass(frozen=True)
class Disperser:
    """Firing-offset sets D_1..D_m inside a window of s slots.

    sets[j-1] holds the offsets of index j.  Offsets come from
    d_a(x) = (a*x mod p) + 2p*(a*x^2 mod p) over x in [0, p).
    """

    n: int
    p: int
    m: int
    s: int
    mode: DuplexMode
    sets: tuple[tuple[int, ...], ...]

    def offsets(self, j: int) -> tuple[int, ...]:
        if not 1 <= j <= self.m:
            raise ValueError(f"index {j} outside 1..{self.m}")
        return self.sets[j - 1]


def disperser_value(a: int, x: int, p: int) -> int:
    return (a * x) % p + 2 * p * ((a * x * x) % p)


def build_disperser(n: int, mode: DuplexMode = DuplexMode.FULL) -> Disperser:
    """Smallest prime p with p*p >= n, bumped until the mode admits at
    least one set (tiny n would otherwise get m = 0)."""
    if n < 1:
        raise ValueError("n must be positive")
    p = smallest_prime_with_square_geq(n)
    while True:
        m = (p - 1) // 2 if mode is DuplexMode.FULL else (p - 1) // 4
        if m >= 1:
            break
        p += 1
        while not is_prime(p):
            p += 1
    s = 2 * p * p + p
    sets = []
    for a in range(1, m + 1):
        vals = sorted(disperser_value(a, x, p) for x in range(p))
        if len(set(vals)) != p:
            raise AssertionError("offset map must be injective for a valid prime")
        sets.append(tuple(vals))
    return Disperser(n=n, p=p, m=m, s=s, mode=mode, sets=tuple(sets))


def verify_disperser_pairwise(d: Disperser, kill_cap: int) -> bool:
    """Exhaustively check the pairwise collision cap.

    Full duplex: no difference value d_a(x) - d_b(y) occurs more than
    kill_cap times for any pair a != b.  Half duplex additionally counts
    the adjacent difference (a transmission one slot later can also
    destroy a reception), so the cap applies to each pair of neighbouring
    difference values combined.
    """
    lo = -(d.s + 1)
    width = 2 * (d.s + 1) + 2
    for a in range(1, d.m + 1):
        da = np.array(d.offsets(a))
        for b in range(a + 1, d.m + 1):
            db = np.array(d.offsets(b))
            diffs = np.subtract.outer(da, db).ravel() - lo
            hist = np.bincount(diffs, minlength=width + 1)
            if d.mode is DuplexMode.FULL:
                worst = int(hist.max())
            else:
                worst = int((hist[:-1] + hist[1:]).max())
            if worst > kill_cap:
                return False
    return True


def uncovered_firing(d: Disperser, delta: Mapping[int, int], j: int) -> int | None:
    """First offset of index j that, under per-index shifts delta, lands
    on a slot no other index occupies.  Returns None when every offset
    is covered."""
    if not 1 <= j <= d.m:
        raise ValueError(f"index {j} outside 1..{d.m}")
    covered = set()
    for i in range(1, d.m + 1):
        if i == j:
            continue
        di = delta.get(i, 0)
        for off in d.offsets(i):
            covered.add(off + di)
    dj = delta.get(j, 0)
    for off in d.offsets(j):
        if off + dj not in covered:
            return off
    return None


# ---------------------------------------------------------------------------
# selective families

@dataclasses.dataclass(frozen=True)
class SelectiveFamily:
    n: int
    k: int
    m: int
    sets: tuple[frozenset[int], ...]
    verified: bool = False


def _family(n: int, k: int, sets, verified=False) -> SelectiveFamily:
    fs = tuple(frozenset(s) for s in sets)
    return SelectiveFamily(n=n, k=k, m=len(fs), sets=fs, verified=verified)


def singleton_family(n: int, k: int) -> SelectiveFamily:
    """n singletons; trivially strong k-selective for every k."""
    return _family(n, k, [{x} for x in range(n)], verified=True)


def kautz_singleton_parameters(n: int, k: int) -> tuple[int, int]:
    """The prime q and digit count d of the smallest polynomial family.

    Minimises q*q subject to q**d >= n (every label gets its own
    polynomial) and q > (k-1)(d-1) (k-1 polynomials cannot cover all q
    points of another); ties go to the smaller d.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    best = None
    # from d = ceil(log2 n) on, q = 2 covers n and larger d only raise q
    for d in range(1, (n - 1).bit_length() + 2):
        q = max(2, (k - 1) * (d - 1) + 1)
        while q ** d < n or not is_prime(q):
            q += 1
        if best is None or q < best[0]:
            best = (q, d)
    return best


def kautz_singleton_family(n: int, k: int) -> SelectiveFamily:
    """Deterministic strong k-selective family of q*q sets (Kautz and
    Singleton, 1964).

    Label x becomes the polynomial p_x over GF(q) whose d coefficients
    are the base-q digits of x, and set a*q + b holds x iff p_x(a) = b.
    Distinct polynomials of degree below d agree on at most d-1 points,
    so k-1 others leave x alone on at least q - (k-1)(d-1) > 0 points a,
    and set (a, p_x(a)) isolates x.  No randomness and no retries.
    """
    q, d = kautz_singleton_parameters(n, k)
    sets = [set() for _ in range(q * q)]
    for x in range(n):
        coeffs = [(x // q ** i) % q for i in range(d)]
        for a in range(q):
            b = 0
            for c in reversed(coeffs):
                b = (b * a + c) % q
            sets[a * q + b].add(x)
    return _family(n, k, sets, verified=True)


def random_selective_family(n: int, k: int, seed: int) -> SelectiveFamily:
    """ceil(8 k^2 ln n) random sets with inclusion probability 1/k.

    The failure probability of the construction is small but nonzero;
    callers that need certainty should verify and retry.
    """
    m = math.ceil(8 * k * k * math.log(max(n, 2)))
    rng = np.random.default_rng(seed)
    draws = rng.random((m, n)) < (1.0 / k)
    sets = [frozenset(np.flatnonzero(row)) for row in draws]
    return _family(n, k, sets)


def build_selective_family(n: int, k: int, seed: int = 0) -> SelectiveFamily:
    """Pick the construction by regime.

    k = 1 needs just the whole ground set; large k (at least
    sqrt(n / log2 n)) is served by singletons; in between the randomized
    construction applies.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if k == 1:
        return _family(n, 1, [set(range(n))], verified=True)
    if n <= 2 or k >= math.sqrt(n / math.log2(n)):
        return singleton_family(n, k)
    return random_selective_family(n, k, seed)


def verify_selective_family(fam: SelectiveFamily, work_budget: int = 2_000_000) -> bool:
    """Exhaustive check over all X with |X| <= k.

    Only the largest sets, |X| = r = min(k, n), need testing.  If no
    F_j meets X exactly in {x}, none meets a superset X' of X exactly
    in {x} either (F_j & X' = {x} would give F_j & X = {x}), and every
    smaller X lies inside some set of size r.  So each (r-1)-set Y is
    tested against every x outside it: x is isolated from Y iff its
    membership mask has a bit outside the union of Y's masks.  The
    masks are packed into uint64 words and the Y taken in chunks, so
    temporaries stay under about a megabyte.  Guarded by the count of
    all (X, x) pairs with |X| <= k, since that explodes combinatorially.
    """
    n, k = fam.n, fam.k
    pairs = sum(math.comb(n, i) * i for i in range(1, min(k, n) + 1))
    if pairs > work_budget:
        raise ParametersTooLarge(
            f"{pairs} (X, x) pairs exceed the budget of {work_budget}")
    r = min(k, n)
    if r < 1:
        return True
    sets = fam.sets
    words = max(1, -(-len(sets) // 64))
    member = np.zeros((n, 64 * words), dtype=bool)
    member[np.fromiter(itertools.chain.from_iterable(sets), dtype=np.intp),
           np.repeat(np.arange(len(sets)), [len(s) for s in sets])] = True
    masks = np.packbits(member, axis=1, bitorder="little").view(np.uint64)
    if r == 1:
        return bool(masks.any(axis=1).all())
    by_word = masks.T.copy()
    chunk = max(1, (1 << 20) // (8 * (2 * n + (r - 1) * words)))
    combos = itertools.combinations(range(n), r - 1)
    while True:
        ys = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, chunk)),
                         dtype=np.intp).reshape(-1, r - 1)
        if not len(ys):
            return True
        outside = ~np.bitwise_or.reduce(masks[ys], axis=1)
        # left[c, x]: the bits of x's mask outside Y_c, OR-ed over words
        left = np.zeros((len(ys), n), dtype=np.uint64)
        part = np.empty_like(left)
        for w in range(words):
            np.bitwise_and(by_word[w], outside[:, w, None], out=part)
            left |= part
        isolated = left != 0
        isolated[np.arange(len(ys))[:, None], ys] = True  # x ranges outside Y
        if not isolated.all():
            return False


def build_verified_selective_family(
        n: int, k: int, seed: int = 0,
        max_retries: int = 5) -> tuple[SelectiveFamily, int]:
    """Build, verify, and retry with bumped seeds; returns the family and
    how many retries were needed."""
    for attempt in range(max_retries + 1):
        fam = build_selective_family(n, k, seed + attempt)
        if fam.verified or verify_selective_family(fam):
            return dataclasses.replace(fam, verified=True), attempt
    raise MissingSelectiveFamily(
        f"no verified ({n}, {k}) family within {max_retries} retries")
