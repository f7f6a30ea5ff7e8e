"""Rumor-gathering protocols for the tree collision channel.

Seven protocols, selected by string name through make_protocol():

  rr-unb   round-robin flooding with unbounded messages
  rr-bnd   round-robin relay, one rumor per slot, bounded messages
  unb1     census plus two-beat rounds, unbounded messages
  unb2     census plus three-beat rounds with a selective family
  bnd      bounded messages, one phase per 2-height value
  mls      oblivious fire-and-forward driven by a disperser schedule
  rtree    randomized label-independent fire-and-forward

Every other state keeps a cursor into its inbox and absorbs new entries
at the top of act(), so neither the engine's wake scheduling nor its
sending of the ladders' standing beats (it leaves out repeats a parent
already holds) changes what a node knows, only when it looks.  mls,
rtree and schedule replays run one FireForwardState, which keeps
nothing of a message but the next step's forward, so the engine sends
the relay hops that fall between a node's fires itself
(ProtocolState.forwards) and those never reach the inbox.
"""

from __future__ import annotations

import collections
import math

from .engine import (
    Bounded,
    DuplexMode,
    FireAndForward,
    Protocol,
    ProtocolState,
    SLEEP_FOREVER,
    StateFactory,
    Unbounded,
)
from .selectors import (
    Disperser,
    MissingSelectiveFamily,
    SelectiveFamily,
    build_disperser,
    build_selective_family,  # noqa: F401  unused here; perfbench/layers.py patches this name
    kautz_singleton_family,
    singleton_family,
)

PROTOCOL_NAMES = ("rr-unb", "rr-bnd", "unb1", "unb2", "bnd", "mls", "rtree")


def ceil_log2(n: int) -> int:
    """Smallest e with 2**e >= n, for n >= 1."""
    return (n - 1).bit_length()


def ceil_cbrt(n: int) -> int:
    """Smallest k with k**3 >= n, for n >= 1.

    The rounded float cube root is only an estimate, raised to the
    answer in integers: for large n it lies below the true root by
    more than a unit, since 1.0 / 3.0 < 1/3, but it is never a half or
    more above it, so it never passes the answer.
    """
    k = max(1, round(n ** (1.0 / 3.0)))
    while k ** 3 < n:
        k += 1
    return k


class UnboundedRumors(ProtocolState):
    """The rumor set an unbounded-message state gathers and transmits, a
    mask with bit r for rumor r; its message is built once per change."""

    def __init__(self, label: int):
        self.mask = 1 << label
        self._msg: Unbounded | None = None

    def _receive(self, step: int, msg: Unbounded) -> None:
        if msg.mask & ~self.mask:
            self.mask |= msg.mask
            self._msg = None

    def _message(self) -> Unbounded:
        if self._msg is None:
            self._msg = Unbounded(self.mask)
        return self._msg


class RoundRobinFloodState(UnboundedRumors):
    """Transmit every rumor gathered so far whenever the clock hits the
    node's slot (step == label mod n)."""

    def __init__(self, label: int, n: int):
        super().__init__(label)
        self.label = label
        self.n = n
        self.asleep_until = label
        self._cursor = 0

    def act(self, view):
        inbox = view.inbox
        while self._cursor < len(inbox):
            self._receive(*inbox[self._cursor])
            self._cursor += 1
        t = view.time
        if t % self.n == self.label:
            self.asleep_until = t + self.n
            return self._message()
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


class CensusLadderState(ProtocolState):
    """The preprocessing unb1, unb2 and bnd share: a census, then a
    ladder of rounds in which each node learns that its subtree is done.

    Steps 0..n-1 are the census: each node transmits at the step equal
    to its label, which is collision-free and tells every node the
    labels of its children.  From step n on, beat b of round s is step
    round_step(n, s, b), and the ladder's round budget, rounds(n), ends
    at step horizon(n, mode).  A node becomes active in the first round
    after it has heard a ladder message from every child (a leaf right
    at the census end); until then it is dormant, and only a reception
    wakes it.

    Subclasses say what a reception adds (_receive), which missing
    child a ladder message comes from (_missing_sender), what they
    transmit (_message), and their duty beats (_duties).  The beats are
    data, built once at activation: beat 1 of every round in a window
    is the standing beat, and _duties(relay, end) returns the round the
    window ends, extra (round, beat) pairs, and the step to sleep until
    after all of them.  relay is the one round of the relay window
    alpha .. end - 1 that the node's label owns.  An active node sleeps
    from one duty step to the next, so it is not woken at steps where it
    stays silent; absorbing a reception never moves them, since alpha is
    fixed once set.

    At its first standing-beat transmission the node offers the rest
    of that beat (ProtocolState.standing); its message is fixed by
    then, since an active node holds all its subtree will ever send.
    Once the engine calls stand(), the node sleeps through the beat.
    """

    beats: int

    @staticmethod
    def rounds(n: int) -> int:
        """The ladder's round budget."""
        return 2 * n * ceil_log2(n) + n

    @classmethod
    def round_step(cls, n: int, s: int, beat: int = 0) -> int:
        return n + cls.beats * s + beat

    @classmethod
    def horizon(cls, n: int, mode: DuplexMode) -> int:
        return cls.round_step(n, cls.rounds(n))

    def __init__(self, label: int, n: int):
        self.label = label
        self.n = n
        self.children: set[int] = set()
        self.missing: set[int] | None = None
        self.alpha: int | None = None
        self.asleep_until = label
        self._cursor = 0

    def _finish_census(self) -> None:
        if self.missing is None:
            self.missing = set(self.children)
            if not self.missing:
                self._activate(0)

    def _absorb(self, view) -> None:
        n = self.n
        inbox = view.inbox
        while self._cursor < len(inbox):
            step, msg = inbox[self._cursor]
            self._cursor += 1
            self._receive(step, msg)
            if step < n:
                self.children.add(step)
                continue
            self._finish_census()
            if self.alpha is not None:
                continue
            c = self._missing_sender(msg)
            if c is not None:
                self.missing.discard(c)
                if not self.missing:
                    self._activate((step - n) // self.beats + 1)

    def _activate(self, alpha: int) -> None:
        self.alpha = alpha
        n = self.n
        relay = alpha + (self.label - alpha) % n
        end, extras, self._after = self._duties(relay, alpha + n)
        self._first = self.round_step(n, alpha, 1)
        self._stop = self.round_step(n, max(end, alpha), 1)
        # extras still ahead, latest first; _x is the earliest of them
        self._extras = sorted((self.round_step(n, s, b) for s, b in extras), reverse=True)
        self._x = -1

    def _next_duty(self, u: int) -> int:
        """First duty step >= u: the next step of the standing beat or
        the next extra step, whichever comes first, else _after.  The
        clock only moves forward, so extras behind u are dropped for
        good."""
        first = self._first
        nxt = first if u <= first else u + (first - u) % self.beats
        if nxt >= self._stop:
            nxt = self._after
        x = self._x
        while x < u:
            x = self._x = self._extras.pop() if self._extras else SLEEP_FOREVER
        return x if x < nxt else nxt

    def act(self, view):
        t = view.time
        n = self.n
        # absorb first: census entries must register as children before
        # the census is closed out, or a node that last acted early
        # would mistake itself for a leaf
        self._absorb(view)
        if t < n:
            if t == self.label:
                self.asleep_until = n
                return self._message()
            self.asleep_until = self.label if t < self.label else n
            return None
        self._finish_census()
        if self.alpha is None:
            # dormant: some child still unheard, a reception will wake us
            self.asleep_until = SLEEP_FOREVER
            return None
        duty = self._next_duty(t)
        if duty > t:
            self.asleep_until = duty
            return None
        self.asleep_until = self._next_duty(t + 1)
        msg = self._message()
        if t == self._first:
            self.standing = (msg, t, self._stop, self.beats)
        return msg

    def stand(self) -> None:
        """The engine sends the standing beats from here on: empty the
        window, so only extra steps and _after remain duties."""
        self.standing = None
        self._stop = self._first
        self.asleep_until = self._next_duty(self._first + 1)


class LadderFloodState(UnboundedRumors, CensusLadderState):
    """Census, then rounds of two beats; unbounded messages.

    The census transmits the node's rumors so far.  The first beat of
    round s belongs to the label s mod n, the second to every active
    node; a node stays active for n rounds, then retires for good.
    Received rumor sets are attributed to the child whose own label
    they contain; sibling subtrees cannot share a rumor, so the
    attribution is unique.
    """

    beats = 2

    def __init__(self, label: int, n: int):
        CensusLadderState.__init__(self, label, n)
        UnboundedRumors.__init__(self, label)

    def _missing_sender(self, msg: Unbounded) -> int | None:
        for c in self.missing:
            if msg.mask >> c & 1:
                return c
        return None

    def _duties(self, relay: int, end: int):
        """Beat 1 of every round in the window, beat 0 of the relay
        round."""
        return end, ((relay, 0),), SLEEP_FOREVER


class SelectorLadderFloodState(LadderFloodState):
    """Three-beat variant of LadderFloodState steered by a selective
    family.

    Round s occupies steps n+3s .. n+3s+2: a relay beat owned by label
    s mod n, a push beat for every node inside its push window, and a
    selector beat for nodes listed in family set s mod m.  The push and
    selector windows last min(m, n) rounds from activation; the relay
    window lasts n rounds as before.

    Horizon: a run completes by horizon(n, mode), the end of the
    three-beat ladder's round budget, n + 3(2n ceil(log2 n) + n), under
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

    def _duties(self, relay: int, end: int):
        """Inside the push window (the first min(m, n) active rounds)
        every push beat and the selector beats of rounds whose set lists
        the label; anywhere in the relay window, the relay beat.  Each
        set index i falls on the one round alpha + (i - alpha) mod m of
        the first m active rounds."""
        m, a = self.m, self.alpha
        push_end = min(a + m, end)
        extras = [(relay, 0)]
        for i, members in enumerate(self.sets):
            s = a + (i - a) % m
            if s < push_end and self.label in members:
                extras.append((s, 2))
        return push_end, extras, SLEEP_FOREVER


class HeightPhaseRelayState(CensusLadderState):
    """Bounded-message gathering in phases ordered by 2-height.

    Preprocessing is the census (own rumor at step == label) and then a
    reporting ladder of three-beat rounds, cut off at the round budget:
    a node that has heard the heights of all children takes the larger
    of (max child height) and, when two or more children attain that
    max, max + 1.  An active node reports on beat 1 of every round and
    on all three beats of its relay round.  Ladder reports carry the
    sender's label as the rumor, so preprocessing also advances every
    rumor one hop toward the root.

    After preprocessing, phase h serves exactly the nodes of 2-height h
    (phases() lays them out).  Full duplex: 2n steps in which every
    such node streams rumors it has never sent during a phase, then n
    round-robin slots (rumor u in slot u whenever held).  Half duplex
    prepends a parity-token pass: nodes of one height form
    vertex-disjoint upward paths, the path-deepest node stamps parity 0
    and each path node relays the token with the parity flipped, after
    which the streaming stage alternates by parity so a transmitting
    node is never deaf to its path child.

    Horizon: a run completes by horizon(n, mode), the end of
    ceil(log2 n) + 1 phases of 3n steps (6n under half duplex) after the
    three-beat ladder's round budget.
    1. Beat 1 is a push beat for the whole relay window, so
       SelectorLadderFloodState's proof with m = n puts every
       activation, and with it every 2-height, inside the budget.
    2. Phase h starts with every rumor at a node of 2-height h or more.
       A phase-h node has at most one child in the phase, so streaming
       is collision-free along each path; at most n rumors cross at
       most n nodes, so the stream stage (2n steps, or 4n alternating
       ones) brings them all to the path's top.
    3. The slots are collision-free: the copies of rumor u live on a
       single root path, and no two of its nodes are siblings.  So the
       top's parent, of 2-height above h or the root, ends the phase
       holding them all.
    4. 2-height h needs 2**h nodes, so after phase ceil(log2 n) the
       root holds every rumor.
    """

    beats = 3

    @classmethod
    def phases(cls, n: int, mode: DuplexMode) -> tuple[int, int, int]:
        """The height phases: first step, length and count."""
        return super().horizon(n, mode), (6 if mode is DuplexMode.HALF else 3) * n, ceil_log2(n) + 1

    @classmethod
    def horizon(cls, n: int, mode: DuplexMode) -> int:
        base, length, count = cls.phases(n, mode)
        return base + count * length

    def __init__(self, label: int, n: int, mode: DuplexMode):
        super().__init__(label, n)
        self.half = mode is DuplexMode.HALF
        self.phase_base, self.phase_len, _ = self.phases(n, mode)
        self.child_heights: dict[int, int] = {}
        self.height2: int | None = None
        # the first step of its own phase, once its height is known
        self.home = SLEEP_FOREVER
        self.held = 1 << label
        self.pending = collections.deque([label])
        self.parity: int | None = None
        self._relay_token_at: int | None = None
        # the census message; activation replaces it by the ladder report
        self._report = Bounded(rumor=label, sender=label)

    def _receive(self, step: int, msg: Bounded) -> None:
        r = msg.rumor
        bit = 1 << r
        if not self.held & bit:
            self.held |= bit
            self.pending.append(r)
        if msg.parity is not None and msg.height2 == self.height2 and 0 <= step - self.home < self.n:
            self.parity = 1 - msg.parity
            self._relay_token_at = step + 1

    def _missing_sender(self, msg: Bounded) -> int | None:
        # only a ladder report carries a height and no parity; its rumor
        # is the sender's own label
        r = msg.rumor
        if msg.height2 is None or msg.parity is not None or r not in self.missing:
            return None
        self.child_heights[r] = msg.height2
        return r

    def _activate(self, alpha: int) -> None:
        hs = list(self.child_heights.values())
        top = max(hs, default=0)
        self.height2 = top + 1 if hs.count(top) >= 2 else top
        self.home = self.phase_base + self.height2 * self.phase_len
        self._report = Bounded(rumor=self.label, sender=self.label, height2=self.height2)
        super()._activate(alpha)

    def _duties(self, relay: int, end: int):
        """Beat 1 of every ladder round, and beats 0 and 2 of the relay
        round if it comes before the cut-off.  Past the ladder window
        the node sleeps until its own height phase."""
        end = min(end, self.rounds(self.n))
        extras = ((relay, 0), (relay, 2)) if relay < end else ()
        return end, extras, self.home

    def _message(self) -> Bounded:
        return self._report

    def act(self, view):
        if view.time < self.phase_base:
            return super().act(view)
        # the census closed at step n, when every node acts
        self._absorb(view)
        return self._phase_act(view.time)

    def _phase_act(self, t: int):
        off = t - self.home
        if not 0 <= off < self.phase_len:
            # before its phase, or past it (or it never learnt a height)
            self.asleep_until = self.home if off < 0 else SLEEP_FOREVER
            return None
        n = self.n
        slots = self.phase_len - n
        if off >= slots:
            return self._slot_act(t, off - slots)
        if self.half and off < n:
            self.asleep_until = t - off + n
            if off == 0 and self.height2 not in self.child_heights.values():
                # deepest node of the path: originate the token
                self.parity = 0
            elif self._relay_token_at != t:
                return None
            return Bounded(rumor=self.label, sender=self.label, height2=self.height2, parity=self.parity)
        # the token lands before streaming starts: paths have at most n
        # nodes, so the last relay step is inside the token stage
        assert not self.half or self.parity is not None
        if self.pending:
            self.asleep_until = t + 1
            if not self.half or (off - n) % 2 == self.parity:
                return Bounded(rumor=self.pending.popleft(), sender=self.label)
            return None
        self.asleep_until = t - off + slots
        return None

    def _slot_act(self, t: int, u: int):
        rest = self.held >> (u + 1)
        self.asleep_until = t + (rest & -rest).bit_length() if rest else SLEEP_FOREVER
        if self.held >> u & 1:
            return Bounded(rumor=u, sender=self.label)
        return None


class FireForwardState(ProtocolState):
    """Fire-and-forward, the one rule mls, rtree and schedule replays
    share: a node sends only its own rumor or the rumor it heard one
    step earlier, and which steps it fires on is all that tells them
    apart.

    fires iterates over the node's fire steps, distinct and ascending
    and never exhausted before a step no clock reaches (a schedule
    closes them by SLEEP_FOREVER).  asleep_until is always the next
    fire.  At a fire step the node sends own, unless a message arrived
    one step earlier and yields is set, which silences the fire; half
    duplex rtree does not yield, since the channel already discards a
    reception at a transmitting node.  At any other step it forwards
    the arrival, the message object itself: messages are immutable, so
    sharing them is safe.  Nothing of an arrival is kept past the next
    step, so the state needs no inbox cursor, and a forward between
    fires moves neither the fire nor the sleep promise, which is what
    ProtocolState.forwards promises.  No caller acts past a state's
    next fire (run() and every replay act at the sleep promise or at
    the step after an arrival, whichever comes first), so act() never
    catches up on fires it missed.
    """

    forwards = True

    def __init__(self, own: FireAndForward, fires, yields: bool = True):
        self.own = own
        self.yields = yields
        self._fires = fires
        self.asleep_until = next(fires)

    def act(self, view):
        t = view.time
        inbox = view.inbox
        # arrivals come in step order, so one at t - 1 is the last
        arrived = inbox[-1][1] if inbox and inbox[-1][0] == t - 1 else None
        if t == self.asleep_until:
            self.asleep_until = next(self._fires)
            return self.own if arrived is None or not self.yields else None
        return arrived


def scheduled_factory(fires) -> StateFactory:
    """The state factory of an oblivious schedule: label l fires at
    fires[l], distinct ascending steps.  Each label's own-rumor message
    and its fires closed by SLEEP_FOREVER are built once here, so a
    fresh state only stores them."""
    args = [(FireAndForward(label), (*f, SLEEP_FOREVER)) for label, f in enumerate(fires)]

    def factory(label, n, mode, rng):
        own, steps = args[label]
        return FireForwardState(own, iter(steps))

    return factory


def geometric_fires(n: int, rng):
    """rtree's fire steps: each step fires with probability 1/n, drawn
    as geometric gaps, which keeps sleep intervals long without
    changing the per-step law.  The gaps come 16 per generator call,
    the values 16 single draws would give; the generator is this
    node's alone, so drawing ahead changes nothing else."""
    t = -1
    while True:
        for gap in rng.geometric(1.0 / n, size=16).tolist():
            t += gap
            yield t


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
    family: SelectiveFamily | None = None,
    disperser: Disperser | None = None,
) -> Protocol:
    """Bind a protocol to a network size and duplex mode.

    The returned Protocol carries a horizon: a step count by which a
    run on any n-node tree completes (None for rtree, whose completion
    time is random).  unb1, unb2 and bnd take theirs from their state
    class's horizon(n, mode), beside its proof; unb2's holds under its
    default family and under any injected family with at least one set.
    Its default family is default_family(n, k) for k = ceil(n^(1/3)).

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
            horizon=LadderFloodState.horizon(n, mode),
        )
    if name == "unb2":
        fam = family
        if fam is None:
            fam = default_family(n, ceil_cbrt(n))
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
            horizon=SelectorLadderFloodState.horizon(n, mode),
            family=fam,
        )
    if name == "bnd":
        return Protocol(
            name="bnd",
            message_kind=Bounded,
            state_factory=lambda label, n_, mode_, rng: HeightPhaseRelayState(
                label, n_, mode_
            ),
            n=n,
            mode=mode,
            horizon=HeightPhaseRelayState.horizon(n, mode),
        )
    if name == "mls":
        d = disperser if disperser is not None else build_disperser(n, mode)
        if d.n != n:
            raise ValueError(f"disperser built for n={d.n}, protocol needs n={n}")
        if d.mode is not mode:
            raise ValueError(f"disperser mode {d.mode.value} != protocol mode {mode.value}")
        span = d.s + n
        batches = -(-n // d.m)
        # label b * m + j fires at b * span plus the offsets of index j + 1
        offsets = [sorted(set(offs)) for offs in d.sets]
        fires = [[b * span + tau for tau in offs] for b in range(batches) for offs in offsets]
        return Protocol(
            name="mls",
            message_kind=FireAndForward,
            state_factory=scheduled_factory(fires[:n]),
            n=n,
            mode=mode,
            horizon=batches * span,
            disperser=d,
        )
    if name == "rtree":
        return Protocol(
            name="rtree",
            message_kind=FireAndForward,
            state_factory=lambda label, n_, mode_, rng: FireForwardState(
                FireAndForward(label), geometric_fires(n_, rng), mode_ is not DuplexMode.HALF
            ),
            n=n,
            mode=None,
            needs_rng=True,
        )
    raise ValueError(f"unknown protocol {name!r}; choose from {PROTOCOL_NAMES}")


def step_cap(proto: Protocol) -> int:
    """The step budget for a run of proto: its horizon, or else
    ceil(8 n ln max(n, 2)) for rtree, which guarantees nothing."""
    if proto.horizon is not None:
        return proto.horizon
    return math.ceil(8 * proto.n * math.log(max(proto.n, 2)))
