"""The values the channel carries and the trace records: the duplex
setting and the three message kinds."""
import dataclasses
from enum import Enum


class DuplexMode(Enum):
    """Whether a transmitting node can hear its children in the same step."""

    FULL = "full"
    HALF = "half"


@dataclasses.dataclass(frozen=True)
class Unbounded:
    """Arbitrarily large rumor set: bit r of mask is rumor r."""

    mask: int


@dataclasses.dataclass(frozen=True)
class Bounded:
    """One rumor and O(log n) bits of bookkeeping."""

    rumor: int
    sender: int | None = None
    height2: int | None = None
    parity: int | None = None


@dataclasses.dataclass(frozen=True)
class FireAndForward:
    """One rumor and nothing else."""

    rumor: int


# Messages are immutable values.  The engine hands the very object a
# child transmitted to its parent's inbox, so a state may forward a
# received message by identity instead of building an equal copy.
Message = Unbounded | Bounded | FireAndForward


def mask_bits(mask: int) -> list[int]:
    """The rumors of a mask, ascending: the one way a mask is listed."""
    if mask < 0:
        raise ValueError(f"a rumor mask is never negative, got {mask}")
    out = []
    while mask:
        r = mask.bit_length() - 1
        out.append(r)
        mask ^= 1 << r
    return out[::-1]
