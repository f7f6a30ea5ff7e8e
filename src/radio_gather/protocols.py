"""Rumor-gathering protocols for the tree collision channel.

Seven protocols, selected by string name through make_protocol():

  rr-unb   round-robin flooding with unbounded messages
  rr-bnd   round-robin relay, one rumor per slot, bounded messages
  unb1     census plus two-beat rounds, unbounded messages
  unb2     census plus three-beat rounds with a selective family
  bnd      bounded messages, one phase per 2-height value
  mls      oblivious fire-and-forward driven by a disperser schedule
  rtree    randomized label-independent fire-and-forward

Every state keeps a cursor into its inbox and absorbs new entries at
the top of act(), so the engine's wake scheduling never changes what a
node knows, only when it looks.
"""

from __future__ import annotations

import collections
from typing import Any

from .engine import (
    Bounded,
    DuplexMode,
    FireAndForward,
    Protocol,
    ProtocolState,
    SLEEP_FOREVER,
    Unbounded,
)
from .selectors import (
    Disperser,
    MissingSelectiveFamily,
    SelectiveFamily,
    build_disperser,
    build_selective_family,  # noqa: F401  re-exported; timing probes patch it here
    kautz_singleton_family,
    singleton_family,
)

PROTOCOL_NAMES = ("rr-unb", "rr-bnd", "unb1", "unb2", "bnd", "mls", "rtree")


def ceil_log2(n: int) -> int:
    """Smallest e with 2**e >= n, for n >= 1."""
    return (n - 1).bit_length()


def ceil_cbrt(n: int) -> int:
    """Smallest k with k**3 >= n, for n >= 1.

    Integer arithmetic only; float cube roots land on the wrong side
    of exact cubes (27 ** (1 / 3) rounds up to 4 after ceil).
    """
    k = max(1, round(n ** (1.0 / 3.0)))
    while k ** 3 < n:
        k += 1
    while k > 1 and (k - 1) ** 3 >= n:
        k -= 1
    return k


def _take_arrival(view, cursor: int, t: int):
    """Consume inbox entries up to step t-1; return (message heard at
    t-1 or None, cursor).  The message is returned itself, so a
    fire-and-forward state forwards it without building a new one."""
    inbox = view.inbox
    got = None
    while cursor < len(inbox):
        s, msg = inbox[cursor]
        cursor += 1
        if s == t - 1:
            got = msg
    return got, cursor


class RoundRobinFloodState(ProtocolState):
    """Transmit every rumor gathered so far whenever the clock hits the
    node's slot (step == label mod n).

    Each transmitted set is one node's whole history, so a received set
    either is already known or strictly extends what the receiver has;
    the id() cache skips re-unions of sets seen before.  The cache is
    sound only while the inbox keeps every received message, and so its
    rumor set, alive: a freed set's id could be reused by a new one.
    """

    def __init__(self, label: int, n: int):
        self.label = label
        self.n = n
        self.rumors = {label}
        self.asleep_until = label
        self._cursor = 0
        self._seen: set[int] = set()
        self._msg: Unbounded | None = None

    def _absorb(self, view) -> None:
        inbox = view.inbox
        while self._cursor < len(inbox):
            _, msg = inbox[self._cursor]
            self._cursor += 1
            rs = msg.rumors
            if id(rs) in self._seen:
                continue
            self._seen.add(id(rs))
            if not rs <= self.rumors:
                self.rumors |= rs
                self._msg = None

    def act(self, view):
        self._absorb(view)
        t = view.time
        if t % self.n == self.label:
            self.asleep_until = t + self.n
            if self._msg is None:
                self._msg = Unbounded(frozenset(self.rumors))
            return self._msg
        self.asleep_until = t + (self.label - t) % self.n
        return None


class RoundRobinRelayState(ProtocolState):
    """One rumor per slot: at step t transmit rumor u = t mod n iff it
    is held and was never relayed before.

    At most one node in the whole tree transmits at any step (copies of
    rumor u sit on u's path to the root, and only the lowest unsent copy
    fires in slot u), so the run is collision-free and half duplex
    behaves exactly like full duplex.  Rumor sets are bitmasks; the next
    wake is found by rotating the pending mask to the current slot.
    """

    def __init__(self, label: int, n: int):
        self.label = label
        self.n = n
        self.held = 1 << label
        self.pending = 1 << label
        self.asleep_until = label
        self._cursor = 0

    def _absorb(self, view) -> None:
        inbox = view.inbox
        while self._cursor < len(inbox):
            _, msg = inbox[self._cursor]
            self._cursor += 1
            bit = 1 << msg.rumor
            if not self.held & bit:
                self.held |= bit
                self.pending |= bit

    def _next_slot(self, t: int) -> int:
        if not self.pending:
            return SLEEP_FOREVER
        u = t % self.n
        rot = (self.pending >> u) | ((self.pending & ((1 << u) - 1)) << (self.n - u))
        return t + (rot & -rot).bit_length() - 1

    def act(self, view):
        self._absorb(view)
        t = view.time
        u = t % self.n
        if self.pending >> u & 1:
            self.pending &= ~(1 << u)
            self.asleep_until = self._next_slot(t + 1)
            return Bounded(rumor=u, sender=self.label)
        self.asleep_until = self._next_slot(t)
        return None


class LadderFloodState(ProtocolState):
    """Census, then rounds of two beats; unbounded messages.

    Steps 0..n-1 are the census: each node transmits its own rumor at
    the step equal to its label, which is collision-free and tells every
    node the labels of its children.  From step n on, round s occupies
    steps n+2s and n+2s+1.  The first beat belongs to the label s mod n,
    the second to every active node.

    A node becomes active in the first round after it has heard every
    child again post-census (a leaf right at the census end), stays
    active for n rounds, then retires for good.  Received rumor sets are
    attributed to the child whose own label they contain; sibling
    subtrees cannot share a rumor, so the attribution is unique.  An
    active node sleeps from one of its duty beats to the next
    (_next_duty), so it is not woken at steps where it stays silent.
    Re-unions are skipped by an id() cache of rumor sets seen before,
    as in RoundRobinFloodState, and it is sound for the same reason:
    the inbox keeps every received message alive.
    """

    beats = 2

    def __init__(self, label: int, n: int):
        self.label = label
        self.n = n
        self.rumors = {label}
        self.children: set[int] = set()
        self.missing: set[int] | None = None
        self.alpha: int | None = None
        self.asleep_until = label
        self._cursor = 0
        self._seen: set[int] = set()
        self._msg: Unbounded | None = None

    def _finish_census(self) -> None:
        if self.missing is None:
            self.missing = set(self.children)
            if not self.missing:
                self.alpha = 0

    def _absorb(self, view) -> None:
        n = self.n
        inbox = view.inbox
        while self._cursor < len(inbox):
            step, msg = inbox[self._cursor]
            self._cursor += 1
            rs = msg.rumors
            if id(rs) not in self._seen:
                self._seen.add(id(rs))
                if not rs <= self.rumors:
                    self.rumors |= rs
                    self._msg = None
            if step < n:
                self.children.add(step)
                continue
            self._finish_census()
            if self.alpha is not None:
                continue
            for c in self.missing:
                if c in rs:
                    self.missing.discard(c)
                    break
            if not self.missing:
                self.alpha = (step - n) // self.beats + 1

    def _message(self) -> Unbounded:
        if self._msg is None:
            self._msg = Unbounded(frozenset(self.rumors))
        return self._msg

    def act(self, view):
        t = view.time
        n = self.n
        # absorb first: census entries must register as children before
        # the census is closed out, or a node that last acted early
        # would mistake itself for a leaf
        self._absorb(view)
        if t >= n:
            self._finish_census()
        if t < n:
            if t == self.label:
                self.asleep_until = n
                return self._message()
            self.asleep_until = self.label if t < self.label else n
            return None
        if self.alpha is None:
            # dormant: some child still unheard, a reception will wake us
            self.asleep_until = SLEEP_FOREVER
            return None
        duty = self._next_duty(t)
        if duty > t:
            self.asleep_until = duty
            return None
        self.asleep_until = self._next_duty(t + 1)
        return self._message()

    def _next_duty(self, u: int) -> int:
        """First step >= u (u >= n) at which this active node transmits:
        beat 1 of every round in its window, and beat 0 of its relay
        round.  Only the duty beats are acted on; absorbing a reception
        never moves them, since alpha is fixed once set."""
        n = self.n
        s, beat = divmod(u - n, 2)
        if s < self.alpha:
            s, beat = self.alpha, 0
        if s % n != self.label:
            beat = 1
        if s >= self.alpha + n:
            return SLEEP_FOREVER
        return n + 2 * s + beat


class SelectorLadderFloodState(LadderFloodState):
    """Three-beat variant of LadderFloodState steered by a selective
    family.

    Round s occupies steps n+3s .. n+3s+2: a relay beat owned by label
    s mod n, a push beat for every node inside its push window, and a
    selector beat for nodes listed in family set s mod m.  The push and
    selector windows last m rounds from activation; the relay window
    lasts n rounds as before.

    Horizon: a run completes by step n + 3(2n ceil(log2 n) + n) under
    any family with m >= 1 sets, in either duplex mode.  The proof uses
    only the relay and push beats.  Write a_v for v's activation round
    and h(v) for its 2-height (trees.gamma_heights with gamma 2).

    1. After the census a node transmits only while active, and an
       active node holds its whole subtree, so v activates one round
       after it has heard each child c in a round where c is active.
    2. A relay beat has at most one transmitter in the whole tree, so
       it always gets through.  Child c owns one relay beat in rounds
       a_c .. a_c + n - 1, so its parent hears it by round a_c + n - 1.
    3. Claim: a_v <= A_h = (2n - 1) h + n - 1 for h = h(v), by induction
       on h with A_{-1} = -n.  Follow v = u_0, u_1, .., u_L down through
       the one child of equal 2-height (two such children would raise
       h(v)), so L <= n - 1.  The other children of chain nodes have
       2-height below h.  They activate by A_{h-1}, so by step 2 their
       parents hear them by round B - 1, where B = A_{h-1} + n.  Their
       push windows of min(m, n) rounds are over before round B.  So
       u_L activates by round B.  For i >= 1, u_{i-1} hears u_i by
       round max(a_{u_i}, B): via the relay beat if a_{u_i} <= A_{h-1},
       else on the push beat of round max(a_{u_i}, A_{h-1} + min(m, n)).
       That round lies in u_i's push window.  No sibling pushes in it.
       u_{i-1} is silent then, because it is dormant until it hears u_i,
       so half duplex does not deafen it.  Hence a_{u_{i-1}} <=
       max(a_{u_i}, B) + 1, and a_v <= B + L <= A_{h-1} + 2n - 1 = A_h.
    4. The root never transmits, so step 3 holds for it as well: it
       hears its last child by round A_h - 1 with h = h(root) <=
       floor(log2 n), since 2-height h needs 2**h nodes.  That is step
       n + 3(A_h - 1) + 2 at the latest, below the horizon.
    """

    beats = 3

    def __init__(self, label: int, n: int, sets: tuple[frozenset[int], ...]):
        super().__init__(label, n)
        self.sets = sets
        self.m = len(sets)

    def _next_duty(self, u: int) -> int:
        """Inside the push window (the first min(m, n) active rounds) the
        duty beats are the relay beat of the relay round, every push beat
        and the selector beats of rounds whose set lists the label; after
        it only the relay beat is left."""
        n = self.n
        s, beat = divmod(u - n, 3)
        if s < self.alpha:
            s, beat = self.alpha, 0
        push_end = self.alpha + min(self.m, n)
        while s < push_end:
            if beat == 0 and s % n == self.label:
                return n + 3 * s
            if beat <= 1:
                return n + 3 * s + 1
            if self.label in self.sets[s % self.m]:
                return n + 3 * s + 2
            s, beat = s + 1, 0
        if beat:
            s += 1
        relay = s + (self.label - s) % n
        if relay >= self.alpha + n:
            return SLEEP_FOREVER
        return n + 3 * relay


class HeightPhaseRelayState(ProtocolState):
    """Bounded-message gathering in phases ordered by 2-height.

    Three stages of preprocessing share the step line with the census:
    steps 0..n-1 are the census (own rumor at step == label), then a
    reporting ladder of three-beat rounds runs long enough for every
    node to learn its own 2-height: a node that has heard the heights of
    all children takes the larger of (max child height) and, when two or
    more children attain that max, max + 1.  Ladder reports carry the
    sender's label as the rumor, so preprocessing also advances every
    rumor one hop toward the root.

    After preprocessing, phase h serves exactly the nodes of 2-height h.
    Full duplex: 2n steps in which every such node streams rumors it has
    never sent during a phase, then n round-robin slots (rumor u in slot
    u whenever held).  Half duplex prepends a parity-token pass: nodes
    of one height form vertex-disjoint upward paths, the path-deepest
    node stamps parity 0 and each path node relays the token with the
    parity flipped, after which the streaming stage alternates by
    parity so a transmitting node is never deaf to its path child.
    The round-robin slots stay collision-free in both modes because the
    copies of rumor u live on a single root path and only the lowest
    never-relayed copy can fire.
    """

    def __init__(self, label: int, n: int, mode: DuplexMode):
        self.label = label
        self.n = n
        self.half = mode is DuplexMode.HALF
        self.pre_rounds = 2 * n * ceil_log2(n) + n
        self.phase_base = n + 3 * self.pre_rounds
        self.phase_len = 6 * n if self.half else 3 * n
        self.last_phase = ceil_log2(n)
        self.children: set[int] = set()
        self.child_heights: dict[int, int] = {}
        self.missing: set[int] | None = None
        self.alpha: int | None = None
        self.height2: int | None = None
        self.held = 1 << label
        self.pending = collections.deque([label])
        self.parity: int | None = None
        self.asleep_until = label
        self._cursor = 0
        self._relay_token_at: int | None = None
        self._report: Bounded | None = None

    def _finish_census(self) -> None:
        if self.missing is None:
            self.missing = set(self.children)
            if not self.missing:
                self.height2 = 0
                self.alpha = 0

    def _set_height(self, alpha: int) -> None:
        hs = list(self.child_heights.values())
        top = max(hs)
        self.height2 = top + 1 if hs.count(top) >= 2 else top
        self.alpha = alpha

    def _absorb(self, view) -> None:
        n = self.n
        inbox = view.inbox
        while self._cursor < len(inbox):
            step, msg = inbox[self._cursor]
            self._cursor += 1
            r = msg.rumor
            bit = 1 << r
            if not self.held & bit:
                self.held |= bit
                self.pending.append(r)
            if step < n:
                self.children.add(step)
                continue
            if step < self.phase_base:
                self._finish_census()
                if self.height2 is None and r in self.missing:
                    # a ladder report's rumor is the sender's own label
                    self.missing.discard(r)
                    self.child_heights[r] = msg.height2
                    if not self.missing:
                        self._set_height((step - n) // 3 + 1)
                continue
            if msg.parity is not None and self.height2 is not None:
                ph, off = divmod(step - self.phase_base, self.phase_len)
                if ph == self.height2 and msg.height2 == self.height2 and off < n:
                    self.parity = 1 - msg.parity
                    self._relay_token_at = step + 1

    def act(self, view):
        t = view.time
        n = self.n
        self._absorb(view)
        if t >= n:
            self._finish_census()
        if t < n:
            if t == self.label:
                self.asleep_until = n
                return Bounded(rumor=self.label, sender=self.label)
            self.asleep_until = self.label if t < self.label else n
            return None
        if t < self.phase_base:
            return self._ladder_act(t)
        return self._phase_act(t)

    def _ladder_act(self, t: int):
        if self.alpha is None:
            self.asleep_until = SLEEP_FOREVER
            return None
        duty = self._ladder_duty(t)
        if duty > t:
            self.asleep_until = duty
            return None
        self.asleep_until = self._ladder_duty(t + 1)
        if self._report is None:
            self._report = Bounded(
                rumor=self.label, sender=self.label, height2=self.height2
            )
        return self._report

    def _ladder_duty(self, u: int) -> int:
        """First step >= u at which this active node reports: beat 1 of
        every ladder round, and all three beats of its relay round.  Past
        the ladder window it sleeps until its own height phase."""
        n = self.n
        s, beat = divmod(u - n, 3)
        if s < self.alpha:
            s, beat = self.alpha, 0
        if s % n != self.label:
            if beat == 2:
                s, beat = s + 1, 0
            if s % n != self.label:
                beat = 1
        if s >= min(self.alpha + n, self.pre_rounds):
            return self.phase_base + self.height2 * self.phase_len
        return n + 3 * s + beat

    def _phase_act(self, t: int):
        ph, off = divmod(t - self.phase_base, self.phase_len)
        if self.height2 is None or ph > self.height2 or ph > self.last_phase:
            self.asleep_until = SLEEP_FOREVER
            return None
        if ph < self.height2:
            self.asleep_until = self.phase_base + self.height2 * self.phase_len
            return None
        if self.half:
            return self._phase_half(t, off)
        return self._phase_full(t, off)

    def _phase_full(self, t: int, off: int):
        n = self.n
        if off < 2 * n:
            if self.pending:
                self.asleep_until = t + 1
                return Bounded(rumor=self.pending.popleft(), sender=self.label)
            self.asleep_until = t - off + 2 * n
            return None
        return self._slot_act(t, off - 2 * n)

    def _phase_half(self, t: int, off: int):
        n = self.n
        if off < n:
            stream_start = t - off + n
            if off == 0 and self.height2 not in self.child_heights.values():
                # deepest node of the path: originate the token
                self.parity = 0
                self.asleep_until = stream_start
                return Bounded(
                    rumor=self.label,
                    sender=self.label,
                    height2=self.height2,
                    parity=0,
                )
            if self._relay_token_at == t:
                self.asleep_until = stream_start
                return Bounded(
                    rumor=self.label,
                    sender=self.label,
                    height2=self.height2,
                    parity=self.parity,
                )
            self.asleep_until = stream_start
            return None
        if off < 5 * n:
            # the token lands before streaming starts: paths have at most
            # n nodes, so the last relay step is inside the token stage
            assert self.parity is not None
            if self.pending:
                self.asleep_until = t + 1
                if (off - n) % 2 == self.parity:
                    return Bounded(rumor=self.pending.popleft(), sender=self.label)
                return None
            self.asleep_until = t - off + 5 * n
            return None
        return self._slot_act(t, off - 5 * n)

    def _slot_act(self, t: int, u: int):
        rest = self.held >> (u + 1)
        if rest:
            self.asleep_until = t + (rest & -rest).bit_length()
        else:
            self.asleep_until = SLEEP_FOREVER
        if self.held >> u & 1:
            return Bounded(rumor=u, sender=self.label)
        return None


class ScheduledFireForwardState(ProtocolState):
    """Oblivious fire-and-forward against a fixed firing schedule.

    At a scheduled step the node transmits its own rumor, unless a
    message arrived exactly one step earlier, which silences the fire.
    At an unscheduled step the node retransmits a rumor that arrived one
    step earlier, if any.  Nothing else is ever sent, and received
    rumors are never stored beyond that single step.  The own-rumor
    message is built once, and a forward sends the received message
    object itself: messages are immutable, so sharing them is safe.
    """

    def __init__(self, label: int, fires):
        self.own = FireAndForward(label)
        self.fires = tuple(sorted(set(fires)))
        self._cursor = 0
        self._fp = 0
        self.asleep_until = self.fires[0] if self.fires else SLEEP_FOREVER

    def act(self, view):
        t = view.time
        arrived, self._cursor = _take_arrival(view, self._cursor, t)
        fires = self.fires
        fp = self._fp
        while fp < len(fires) and fires[fp] < t:
            fp += 1
        scheduled = fp < len(fires) and fires[fp] == t
        if scheduled:
            fp += 1
        self._fp = fp
        self.asleep_until = fires[fp] if fp < len(fires) else SLEEP_FOREVER
        if scheduled:
            return self.own if arrived is None else None
        return arrived


class RandomFireForwardState(ProtocolState):
    """Label-independent fire-and-forward: fire with probability 1/n
    each step, forward whatever arrived one step earlier.

    Full duplex silences a fire that coincides with an arrival, like
    the scheduled variant.  Half duplex always lets the fire through;
    the channel itself discards receptions at a transmitting node, so
    the suppression happens at the receiver with no decision needed.
    Fire steps are drawn as geometric gaps, which keeps sleep intervals
    long without changing the per-step law.  Messages are shared as in
    ScheduledFireForwardState: one own-rumor message, forwards by
    reference.
    """

    def __init__(self, label: int, n: int, mode: DuplexMode, rng):
        self.own = FireAndForward(label)
        self.n = n
        self.half = mode is DuplexMode.HALF
        self.rng = rng
        self.next_fire = -1
        self._cursor = 0
        self._advance(0)

    def _advance(self, floor: int) -> None:
        while self.next_fire < floor:
            self.next_fire += int(self.rng.geometric(1.0 / self.n))
        self.asleep_until = self.next_fire

    def act(self, view):
        t = view.time
        arrived, self._cursor = _take_arrival(view, self._cursor, t)
        if t > self.next_fire:
            self._advance(t)
        decided = t == self.next_fire
        if decided:
            self._advance(t + 1)
        else:
            self.asleep_until = self.next_fire
        if decided:
            return self.own if self.half or arrived is None else None
        return arrived


def _ladder_horizon(n: int, beats: int) -> int:
    # census + beats * (activation bound + active window)
    return n + beats * (2 * n * ceil_log2(n) + n)


def default_family(n: int, k: int) -> SelectiveFamily:
    """unb2's family when none is injected: the Kautz-Singleton family,
    or n singletons where that family would have n sets or more (the
    windows last m rounds, and singletons give m = n with the same
    guarantee)."""
    fam = kautz_singleton_family(n, k)
    if fam.m >= n:
        return singleton_family(n, k)
    return fam


def make_protocol(
    name: str,
    n: int,
    mode: DuplexMode = DuplexMode.FULL,
    *,
    kappa: int | None = None,
    family: SelectiveFamily | None = None,
    disperser: Disperser | None = None,
) -> Protocol:
    """Bind a protocol to a network size and duplex mode.

    The returned Protocol carries a horizon: a step count by which a
    run on any n-node tree completes (None for rtree, whose completion
    time is random).  unb2 gets the three-beat ladder horizon under its
    default family and under any injected family with at least one set;
    SelectorLadderFloodState gives the proof.  Its default family is
    default_family(n, k) for k = ceil(n^(1/3)).

    Only bnd and mls pin the duplex mode, because their constructions
    (phase layout, disperser) depend on it; the others run under either
    mode and leave the binding open.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if name == "rr-unb":
        return Protocol(
            name="rr-unb",
            message_kind=Unbounded,
            state_factory=lambda label, n_, mode_, rng: RoundRobinFloodState(label, n_),
            n=n,
            mode=None,
            horizon=n * n,
        )
    if name == "rr-bnd":
        return Protocol(
            name="rr-bnd",
            message_kind=Bounded,
            state_factory=lambda label, n_, mode_, rng: RoundRobinRelayState(label, n_),
            n=n,
            mode=None,
            horizon=n * n,
        )
    if name == "unb1":
        return Protocol(
            name="unb1",
            message_kind=Unbounded,
            state_factory=lambda label, n_, mode_, rng: LadderFloodState(label, n_),
            n=n,
            mode=None,
            horizon=_ladder_horizon(n, 2),
        )
    if name == "unb2":
        k = kappa if kappa is not None else ceil_cbrt(n)
        fam = family
        if fam is None:
            fam = default_family(n, k)
        elif fam.n != n:
            raise MissingSelectiveFamily(
                f"family covers a ground set of {fam.n}, protocol needs {n}"
            )
        elif fam.m < 1:
            raise MissingSelectiveFamily("family has no sets")
        sets = fam.sets
        return Protocol(
            name="unb2",
            message_kind=Unbounded,
            state_factory=lambda label, n_, mode_, rng: SelectorLadderFloodState(
                label, n_, sets
            ),
            n=n,
            mode=None,
            horizon=_ladder_horizon(n, 3),
            family=fam,
        )
    if name == "bnd":
        phase_len = 6 * n if mode is DuplexMode.HALF else 3 * n
        horizon = n + 3 * (2 * n * ceil_log2(n) + n) + (ceil_log2(n) + 1) * phase_len
        return Protocol(
            name="bnd",
            message_kind=Bounded,
            state_factory=lambda label, n_, mode_, rng: HeightPhaseRelayState(
                label, n_, mode_
            ),
            n=n,
            mode=mode,
            horizon=horizon,
        )
    if name == "mls":
        d = disperser if disperser is not None else build_disperser(n, mode)
        if d.n != n:
            raise ValueError(f"disperser built for n={d.n}, protocol needs n={n}")
        if d.mode is not mode:
            raise ValueError(f"disperser mode {d.mode.value} != protocol mode {mode.value}")
        span = d.s + n
        batches = -(-n // d.m)

        def factory(label, n_, mode_, rng, d=d, span=span):
            batch, j = divmod(label, d.m)
            fires = [batch * span + tau for tau in d.offsets(j + 1)]
            return ScheduledFireForwardState(label, fires)

        return Protocol(
            name="mls",
            message_kind=FireAndForward,
            state_factory=factory,
            n=n,
            mode=mode,
            horizon=batches * span,
            disperser=d,
        )
    if name == "rtree":
        return Protocol(
            name="rtree",
            message_kind=FireAndForward,
            state_factory=lambda label, n_, mode_, rng: RandomFireForwardState(
                label, n_, mode_, rng
            ),
            n=n,
            mode=None,
            needs_rng=True,
        )
    raise ValueError(f"unknown protocol {name!r}; choose from {PROTOCOL_NAMES}")
