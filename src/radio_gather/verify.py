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
    Bounded,
    DuplexMode,
    FireAndForward,
    NodeView,
    Protocol,
    SLEEP_FOREVER,
    Unbounded,
    mask_bits,
    run,
)
from .protocols import ScheduledFireForwardState
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


def _replay(state, view, T: int, inject_step: int | None = None, inject_msg=None):
    """Drive one state alone for steps below T, honoring its sleep
    promises the way the engine does, and return {step: message} for
    every transmission.

    The first act is due at asleep_until, or at 0 if the promise lies
    below 0; after an act at t the next is due at its new promise, or
    at t + 1 if that is not later.  inject_msg arrives at inject_step
    (tau): the act due at tau itself runs first, then the message joins
    the inbox and pulls the next act to tau + 1 if it was due later.
    Acts run in two stretches of the same loop, those before tau + 1
    and the rest, so no step pays for the comparison with tau.
    """
    out = {}
    act = state.act
    t = state.asleep_until
    if t < 0:
        t = 0
    stop = T if inject_step is None or inject_step >= T else inject_step + 1
    while True:
        while t < stop:
            view.time = t
            msg = act(view)
            if msg is not None:
                out[t] = msg
            due = state.asleep_until
            t = due if due > t else t + 1
        if stop == T:
            return out
        view.inbox.append((inject_step, inject_msg))
        if t > stop:
            t = stop
        stop = T


def _clean_probe(seen, nxt, fire_set, kind, own_set, foreign_set) -> bool:
    """Whether a probe's transmissions seen, with the arrival at nxt - 1,
    pass every check of extract_schedule's walk, decided by whole-set
    comparisons: the steps other than nxt are the fires other than nxt
    and carry one message object, of kind, whose rumors are own_set; at
    nxt the node sends nothing, or, if nxt is no fire, a message of kind
    whose rumors are foreign_set.  False only means "walk this probe".
    """
    fires = seen
    fwd = seen.get(nxt)
    if fwd is not None:
        if nxt in fire_set or type(fwd) is not kind or _carried(fwd) != foreign_set:
            return False
        fires = seen.copy()
        del fires[nxt]
    if (fires.keys() ^ fire_set) - {nxt}:
        return False
    if not fires:
        return True
    if len(set(map(id, fires.values()))) != 1:
        return False
    own = next(iter(fires.values()))
    return type(own) is kind and _carried(own) == own_set


def extract_schedule(
    protocol: Protocol,
    T: int | None = None,
    *,
    probes: int = 8,
    probe_seed: int = 0,
) -> FiringSchedule:
    """Read the firing schedule off an oblivious protocol, or raise
    NotOblivious.

    Per label: a silence-fed replay defines the schedule, then each
    probe injects one foreign rumor at step tau and demands the mls
    discipline: scheduled fires still happen (except at tau+1, where
    the arrival must silence them), the injected rumor may be forwarded
    at tau+1 only, and nothing else is ever transmitted.  Every
    transmission, silent or probed, must be of the protocol's message
    kind; that check comes first.

    Each probe replays a fresh state from step 0: rebuilding a state
    and making its acts costs less than copying one.  The probe
    message and the expected rumor sets are built once per label.  A
    clean probe passes on whole-set comparisons (_clean_probe); any
    other goes through a walk of its transmissions in step order, whose
    only job is to name the first violation, so every NotOblivious
    message is the one a walk of every probe would raise.
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

    all_fires = []
    for label in range(n):
        state = protocol.state_factory(label, n, mode, None)
        silent = _replay(state, NodeView(label, n), horizon)
        own_set = 1 << label
        for t, msg in silent.items():
            if type(msg) is not kind:
                raise NotOblivious(f"label {label} sent a {type(msg).__name__}")
            if _carried(msg) != own_set:
                raise NotOblivious(
                    f"label {label} transmitted a rumor it never held at step {t}"
                )
        fires = tuple(sorted(silent))
        fire_set = set(fires)

        if n > 1:
            foreign = (label + 1) % n
            probe = Unbounded(1 << foreign) if kind is Unbounded else kind(rumor=foreign)
            foreign_set = 1 << foreign
            taus = {0, max(0, horizon - 2)}
            for f in fires:
                taus.add(f)
                if f > 0:
                    taus.add(f - 1)
            rng = np.random.default_rng([probe_seed, label])
            if horizon > 1:
                taus.update(int(x) for x in rng.integers(0, horizon - 1, size=probes))
            for tau in sorted(taus):
                state = protocol.state_factory(label, n, mode, None)
                seen = _replay(
                    state,
                    NodeView(label, n),
                    horizon,
                    inject_step=tau,
                    inject_msg=probe,
                )
                if _clean_probe(seen, tau + 1, fire_set, kind, own_set, foreign_set):
                    continue
                for t, msg in seen.items():
                    if type(msg) is not kind:
                        raise NotOblivious(f"label {label} sent a {type(msg).__name__}")
                    carried = _carried(msg)
                    if t == tau + 1:
                        if t in fire_set:
                            raise NotOblivious(
                                f"label {label} fired at {t} over a fresh arrival"
                            )
                        if carried != foreign_set:
                            raise NotOblivious(
                                f"label {label} sent {mask_bits(carried)} at {t}, "
                                f"not the forwarded rumor"
                            )
                    elif t not in fire_set:
                        raise NotOblivious(
                            f"label {label} transmitted off schedule at {t}"
                        )
                    elif carried != own_set:
                        raise NotOblivious(
                            f"label {label} changed its fire payload at {t}"
                        )
                missing = fire_set - seen.keys() - {tau + 1}
                if missing:
                    raise NotOblivious(
                        f"label {label} dropped scheduled fires {sorted(missing)} "
                        f"after an arrival at {tau}"
                    )
        all_fires.append(fires)
    return FiringSchedule(n=n, T=horizon, fires=tuple(all_fires))


def schedule_protocol(
    sched: FiringSchedule, *, n_total: int | None = None
) -> Protocol:
    """Replay a firing schedule as a protocol.  Labels beyond the
    schedule (relay nodes on a witness tree) never fire, only forward."""
    fires = tuple(tuple(sorted(set(f))) for f in sched.fires)

    def factory(label, n_, mode_, rng):
        own = fires[label] if label < len(fires) else ()
        return ScheduledFireForwardState(label, own)

    return Protocol(
        name="schedule",
        message_kind=FireAndForward,
        state_factory=factory,
        n=n_total if n_total is not None else sched.n,
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
