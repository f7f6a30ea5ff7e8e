"""Executable checks around the hardness results: extracting firing
schedules from oblivious fire-and-forward protocols, searching for a
caterpillar on which a given schedule provably fails, and measuring
retry schemes for the star network.

The extraction step treats the protocol as a black box.  A state is
replayed against pure silence to read off its firing schedule, then
replayed again with single injected receptions; any behaviour that is
not "fire on schedule unless something just arrived, forward what just
arrived, otherwise stay silent" is reported as NotOblivious.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .engine import (
    DuplexMode,
    FireAndForward,
    NodeView,
    Protocol,
    Unbounded,
    mask_bits,
    run,
)
from .protocols import scheduled_factory
from .trees import Tree, make_caterpillar


class NotOblivious(ValueError):
    """The protocol's transmissions depend on more than (label, time)."""


class ScheduleError(ValueError):
    """A firing schedule document that does not describe a schedule."""


@dataclasses.dataclass(frozen=True)
class FiringSchedule:
    """Per-label firing steps of an oblivious fire-and-forward protocol."""

    n: int
    T: int
    fires: tuple[tuple[int, ...], ...]

    def to_json(self) -> str:
        doc = {"n": self.n, "T": self.T, "F": [list(f) for f in self.fires]}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FiringSchedule":
        """Parse a schedule document; anything malformed raises
        ScheduleError: bad JSON, missing keys, n or T not an integer
        (booleans included) or n < 1 or T < 0, a fire list per label
        other than n of them, or a fire that is not an integer in [0, T).
        Each label's fires become its sorted distinct steps, the set a
        replay fires on."""
        try:
            doc = json.loads(text)
            n, T, F = doc["n"], doc["T"], doc["F"]
        except (ValueError, TypeError, KeyError) as exc:
            raise ScheduleError(f"not a schedule document: {exc}") from None
        if type(n) is not int or type(T) is not int or not isinstance(F, list):
            raise ScheduleError("schedule needs integer n and T and a list F")
        if n < 1 or T < 0:
            raise ScheduleError(f"schedule needs n >= 1 and T >= 0, got n = {n}, T = {T}")
        if len(F) != n:
            raise ScheduleError(
                f"schedule lists fires for the wrong number of labels: {len(F)}, not n = {n}"
            )
        for label, f in enumerate(F):
            if not isinstance(f, list) or not all(
                type(x) is int and 0 <= x < T for x in f
            ):
                raise ScheduleError(
                    f"fires of label {label} must be integers in [0, {T})"
                )
        return cls(n=n, T=T, fires=tuple(tuple(sorted(set(f))) for f in F))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FiringSchedule":
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ScheduleError(f"cannot read schedule {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ScheduleError(f"{path} is not a text file") from None
        return cls.from_json(text)


def _carried(msg) -> int:
    if isinstance(msg, Unbounded):
        return msg.mask
    return 1 << msg.rumor


def _replay(state, view, T: int, kind, fires: set[int] | None = None,
            tau: int | None = None, probe=None) -> list[int]:
    """Drive one state alone for steps below T, honoring its sleep
    promises the way the engine does, check each transmission as it is
    made, and return the steps of its transmissions.

    The first act is due at asleep_until, or at 0 if the promise lies
    below 0; after an act at t the next is due at its new promise, or
    at t + 1 if that is not later.  probe arrives at tau: the act due at
    tau itself runs first, then the message joins the inbox and pulls
    the next act to tau + 1 if it was due later.

    Each transmission, in step order, must be of kind; at tau + 1 it
    must forward the probe's rumor, and tau + 1 must be no fire;
    elsewhere it must fall on one of fires (any step, when fires is
    None) and carry the label's own rumor alone.  A message object
    that already passed as a fire passes again on identity; an equal
    copy takes the full check.  After a probe, each of fires but tau + 1
    must have been sent.  The first violation is raised as NotOblivious
    only once the replay has run to T, so a later act that raises still
    raises.
    """
    label = view.label
    own_set = 1 << label
    allowed = range(T) if fires is None else fires
    fwd = -1 if tau is None else tau + 1
    sent = []
    append = sent.append
    own = bad = None
    act = state.act
    t = state.asleep_until
    if t < 0:
        t = 0
    stop = T if fwd < 0 or tau >= T else fwd
    while True:
        while t < stop:
            view.time = t
            msg = act(view)
            if msg is not None and bad is None:
                if msg is own and t != fwd and t in allowed:
                    append(t)
                elif type(msg) is not kind:
                    bad = f"label {label} sent a {type(msg).__name__}"
                elif t == fwd:
                    carried = _carried(msg)
                    if t in allowed:
                        bad = f"label {label} fired at {t} over a fresh arrival"
                    elif carried != _carried(probe):
                        bad = (f"label {label} sent {mask_bits(carried)} at {t}, "
                               f"not the forwarded rumor")
                    else:
                        append(t)
                elif t not in allowed:
                    bad = f"label {label} transmitted off schedule at {t}"
                elif _carried(msg) != own_set:
                    bad = (f"label {label} transmitted a rumor it never held at step {t}"
                           if fires is None else
                           f"label {label} changed its fire payload at {t}")
                else:
                    own = msg
                    append(t)
            due = state.asleep_until
            t = due if due > t else t + 1
        if stop == T:
            break
        view.inbox.append((tau, probe))
        if t > stop:
            t = stop
        stop = T
    if bad is None and fires is not None:
        missing = fires.difference(sent)
        missing.discard(fwd)
        if missing:
            bad = (f"label {label} dropped scheduled fires {sorted(missing)} "
                   f"after an arrival at {tau}")
    if bad is not None:
        raise NotOblivious(bad)
    return sent


# Probe steps drawn per label besides 0, horizon - 2 and each fire and
# the step before it, from a generator seeded with (PROBE_SEED, label).
PROBES = 8
PROBE_SEED = 0


def extract_schedule(protocol: Protocol, T: int | None = None) -> FiringSchedule:
    """Read the firing schedule off an oblivious protocol, or raise
    NotOblivious.

    Per label: a silence-fed replay defines the schedule, then each
    probe injects one foreign rumor at step tau and demands the mls
    discipline: scheduled fires still happen (except at tau+1, where
    the arrival must silence them), the injected rumor may be forwarded
    at tau+1 only, and nothing else is ever transmitted.  Every
    transmission, silent or probed, must be of the protocol's message
    kind; that check comes first.

    Each probe replays a fresh state from step 0, once: rebuilding a
    state and making its acts costs less than copying one.  The replay
    checks each transmission as it is made (_replay), so the
    NotOblivious message names the first violation in step order.  The
    probe message, the fire set and the probe steps are built once per
    label.  mls and schedule_protocol build each label's own-rumor
    message and its closed fire tuple once per protocol, so a fresh
    state of theirs only stores them.
    """
    if protocol.needs_rng:
        raise NotOblivious("protocol draws randomness")
    if protocol.n is None:
        raise ValueError("protocol must be bound to a network size")
    n = protocol.n
    horizon = T if T is not None else protocol.horizon
    if horizon is None:
        raise ValueError("no horizon known; pass T explicitly")
    mode = protocol.mode if protocol.mode is not None else DuplexMode.FULL
    kind = protocol.message_kind
    factory = protocol.state_factory

    all_fires = []
    for label in range(n):
        fires = tuple(_replay(factory(label, n, mode, None), NodeView(label, n), horizon, kind))
        if n > 1:
            fire_set = set(fires)
            foreign = (label + 1) % n
            probe = Unbounded(1 << foreign) if kind is Unbounded else kind(rumor=foreign)
            taus = {0, max(0, horizon - 2)}
            for f in fires:
                taus.add(f)
                if f > 0:
                    taus.add(f - 1)
            rng = np.random.default_rng([PROBE_SEED, label])
            if horizon > 1:
                taus.update(int(x) for x in rng.integers(0, horizon - 1, size=PROBES))
            for tau in sorted(taus):
                _replay(factory(label, n, mode, None), NodeView(label, n), horizon,
                        kind, fire_set, tau, probe)
        all_fires.append(fires)
    return FiringSchedule(n=n, T=horizon, fires=tuple(all_fires))


def schedule_protocol(
    sched: FiringSchedule, *, n_total: int | None = None
) -> Protocol:
    """Replay a firing schedule as a protocol.  Labels beyond the
    schedule (relay nodes on a witness tree) never fire, only forward."""
    n = n_total if n_total is not None else sched.n
    fires = [sorted(set(f)) for f in sched.fires]
    return Protocol(
        name="schedule",
        message_kind=FireAndForward,
        state_factory=scheduled_factory(fires + [()] * (n - len(fires))),
        n=n,
    )


def _max_matching(adj: list[list[int]], n_right: int) -> list[int] | None:
    """Kuhn's augmenting paths; adj[i] lists right nodes of left i.
    Returns the matched right node per left, or None as soon as some
    left node finds no augmenting path: later augmentations only walk
    through matched left nodes, so that node would stay unmatched."""
    match_right: list[int | None] = [None] * n_right
    match_left: list[int] = [0] * len(adj)

    def augment(i: int, seen: set[int]) -> bool:
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
        if not augment(i, set()):
            return None
    return match_left


@dataclasses.dataclass(frozen=True)
class CaterpillarWitness:
    """A caterpillar on which the schedule provably fails to deliver
    the victim's rumor, plus the blocker assignment that kills each of
    the victim's firings.  pairs holds (fire step, blocker label, spine
    position); re-verification by simulation already passed."""

    victim: int
    pairs: tuple[tuple[int, int, int], ...]
    offsets: tuple[int, ...]
    tree: Tree


def _verify_witness(sched: FiringSchedule, victim: int, tree: Tree) -> bool:
    proto = schedule_protocol(sched, n_total=tree.n)
    trace = run(
        tree,
        proto,
        DuplexMode.FULL,
        max_steps=sched.T + 2 * sched.n,
        stop_early=False,
    )
    return victim not in trace.delivery


def find_caterpillar_witness(sched: FiringSchedule) -> CaterpillarWitness | None:
    """Search every victim label for a caterpillar that silences it.

    The victim's leaf sits at the deep end of an n-node spine.  Each of
    its firings at t must be killed in transit: a blocker leaf at spine
    position s fires into the same spine node the rumor crosses at t+s,
    iff t+s is in the blocker's own schedule.  A perfect matching of
    firings to distinct blockers kills every attempt; remaining labels
    sit at position 0 where their fires only add collisions.  Every
    candidate is re-verified by simulation before being returned.

    Each label's fires are indexed once, sorted and deduplicated, as
    one sorted array of keys u * span + step - lo.  For one victim a
    single searchsorted over that array finds, for every (firing t,
    label u) at once, u's first fire at or after t; u can block t iff
    that fire lies in [t, t + n - 1], and its offset from t is the
    blocker's spine position.  Victims are tried in label order, their
    firings in schedule order (a repeated step counts once), and a
    victim with a firing that nobody can block is passed over without
    matching.
    """
    n = sched.n
    if n < 2:
        return None
    window = n - 1
    steps = [sorted(set(f)) for f in sched.fires]
    every = [t for f in steps for t in f]
    lo, hi = min(every, default=0), max(every, default=0)
    span = hi - lo + window + 1
    # base[u] + t is the key of step t of label u; keys rise with (u, t).
    # Past u's last fire the search lands on a later label's key, which
    # reads as a step of at least span + lo > t + window; the closing
    # key (step lo of a label n) does the same at the end of the array.
    base = np.arange(n, dtype=np.int64) * span - lo
    keys = np.array([b + t for b, f in zip(base.tolist(), steps) for t in f]
                    + [n * span], dtype=np.int64)
    for victim in range(n):
        fw = list(dict.fromkeys(sched.fires[victim]))
        t = np.array(fw, dtype=np.int64)
        # first[u, i]: u's first fire at or after fw[i].  Label-major:
        # for sorted fires the queries ascend, which the search exploits.
        q = base[:, None] + t
        first = keys[np.searchsorted(keys, q.ravel()).reshape(q.shape)] - base[:, None]
        blocks = first <= t + window
        blocks[victim] = False
        width = np.count_nonzero(blocks, axis=0)
        if not width.all():
            continue
        # adj[i]: the labels that can block fw[i], in label order
        labels = np.nonzero(blocks.T)[1].tolist()
        ends = np.cumsum(width).tolist()
        adj = [labels[a:b] for a, b in zip([0] + ends, ends)]
        matched = _max_matching(adj, n)
        if matched is None:
            continue
        offsets = [0] * n
        pairs = []
        for i, (t0, u) in enumerate(zip(fw, matched)):
            s = int(first[u, i]) - t0
            offsets[u] = s
            pairs.append((t0, u, s))
        tree = make_caterpillar(n, offsets)
        if _verify_witness(sched, victim, tree):
            return CaterpillarWitness(
                victim=victim,
                pairs=tuple(pairs),
                offsets=tuple(offsets),
                tree=tree,
            )
    return None


# ---------------------------------------------------------------------------
# star-network retry schemes


@dataclasses.dataclass(frozen=True)
class IntervalScheme:
    """Repeated uniform-slot intervals: I = ceil(c ln2 ln n) intervals,
    each of L = ceil(n / ln2) slots; every player picks one uniform slot
    per interval."""

    c: float

    def layout(self, n: int) -> tuple[int, int]:
        intervals = math.ceil(self.c * math.log(2) * math.log(n))
        length = math.ceil(n / math.log(2))
        return max(1, intervals), length


# Values drawn per block by the interval samplers: a block's keys, slot
# counts and their temporaries stay within a few MB, while numpy's
# per-call cost stays small.
STAR_BLOCK = 2 ** 16

# Rows of one iid trial drawn at a time: small enough that a trial
# stops soon after its last player first fires alone, large enough that
# numpy's per-call cost stays small.
IID_BLOCK = 256


def _check_count(name: str, count: int) -> None:
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")


def interval_all_success(
    scheme: IntervalScheme, n: int, trials: int, seed: int = 0
) -> float:
    """Fraction of trials in which every player owns some slot alone in
    at least one interval.

    Trials are drawn in blocks of about STAR_BLOCK slot picks, in
    (trial, interval, player) order.  For a range below 2^32,
    Generator.integers builds each value from the bit generator's
    32-bit outputs, and the spare half of a 64-bit word waits in the
    bit generator, not in the call.  So the blocks read the very values
    that one draw of every trial would, and no result depends on the
    block size."""
    _check_count("n", n)
    _check_count("trials", trials)
    intervals, length = scheme.layout(n)
    rng = np.random.default_rng(seed)
    good = 0
    chunk = max(1, STAR_BLOCK // (intervals * n))
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        # each (trial, interval) pair gets its own block of slot keys
        keys = rng.integers(0, length, size=(b, intervals, n))
        keys += (np.arange(b)[:, None, None] * intervals + np.arange(intervals)[None, :, None]) * length
        counts = np.bincount(keys.ravel(), minlength=b * intervals * length)
        alone = (counts == 1)[keys]
        good += int(alone.any(axis=1).all(axis=1).sum())
        done += b
    return good / trials


def interval_success_samples(n: int, samples: int, seed: int = 0) -> float:
    """Per-interval success rate of a designated player: fraction of
    intervals in which player 0's slot is chosen by nobody else.

    Intervals are drawn in blocks of about STAR_BLOCK slot picks; as in
    interval_all_success, the values read do not depend on the block
    size."""
    _check_count("n", n)
    _check_count("samples", samples)
    length = math.ceil(n / math.log(2))
    rng = np.random.default_rng(seed)
    good = 0
    chunk = max(1, STAR_BLOCK // n)
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        slots = rng.integers(0, length, size=(b, n))
        own = slots[:, 0]
        clash = (slots[:, 1:] == own[:, None]).any(axis=1)
        good += int(b - clash.sum())
        done += b
    return good / samples


def iid_all_success(
    p: float, horizon: int, n: int, trials: int, seed: int = 0
) -> float:
    """Fraction of trials in which every one of n players, transmitting
    independently with probability p per step, fires alone at least
    once within the horizon.

    A trial draws its horizon x n uniforms row-major, IID_BLOCK rows at
    a time, and stops once every player has fired alone.  The rows it
    leaves unread are skipped with bit_generator.advance: Generator.random
    takes exactly one 64-bit output per double, so the next trial reads
    the very stream that drawing the whole horizon would leave it, and
    every result equals the full draw's."""
    _check_count("n", n)
    _check_count("trials", trials)
    rng = np.random.default_rng(seed)
    good = 0
    for _ in range(trials):
        alone = np.zeros(n, dtype=bool)
        left = horizon
        while left and not alone.all():
            rows = min(IID_BLOCK, left)
            left -= rows
            fires = rng.random((rows, n)) < p
            # the players of the steps with exactly one firer
            alone |= fires[fires.sum(axis=1) == 1].any(axis=0)
        rng.bit_generator.advance(left * n)
        good += bool(alone.all())
    return good / trials
