"""Check the traced counters against values pinned at seed 100.

    python3 perfbench/selftest.py

Runs unb1, unb2, bnd and mls on the seed-100 random tree with n=1024
in full duplex through the traced calls of layers.TracedOps, and
compares protocols.acts, protocols.tx and (for mls) engine.active_steps
with the values below.  They were measured from outside the package,
and they agree with ROADMAP item 1's baseline table.  The counters
are deterministic, so any difference means the probe or the protocol's
work changed; a change that reduces acts on purpose reports its new
counts against these.  Exits 0 when all match, 1 otherwise.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from workloads import FULL, gather  # noqa: E402

SEED = 100
N = 1024
PINNED = {
    "unb1": {"protocols.acts": 2_160_441, "protocols.tx": 1_046_538},
    "unb2": {"protocols.acts": 3_205_737, "protocols.tx": 1_047_559},
    "bnd": {"protocols.acts": 3_236_108, "protocols.tx": 1_063_871},
    "mls": {"protocols.acts": 265_367, "engine.active_steps": 84_664},
}


def main() -> int:
    mismatches = 0
    for name, want in PINNED.items():
        ops = layers.TracedOps()
        tree = ops.tree("random", N, SEED)
        _, outcome = gather(ops, f"random n={N}", tree, ops.protocol(name, N, FULL), FULL, SEED)
        got = {k: ops.counters()[k] for k in want}
        ok = outcome.ok and got == want
        mismatches += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got}"
              + ("" if ok else f" expected {want} {'; '.join(outcome.problems)}"), flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
