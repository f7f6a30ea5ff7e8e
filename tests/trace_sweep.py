"""Byte-identity gate over 840 recorded runs: one digest to compare.

    PYTHONPATH=src python tests/trace_sweep.py

Runs every protocol on every tree family at n in {2, 5, 16, 33, 64,
128}, with tree seed and run seed 0 and then 1, in both duplex modes,
nested in that order.  Each run is recorded with max_steps =
protocols.step_cap.  The script prints the sha256 taken over the raw
sha256 digest of each trace's to_jsonl_bytes(), then the run count and
the elapsed time.  A refactor that keeps every trace byte-identical
prints the same digest before and after.  The script exits 1 when the
digest differs from EXPECTED, so a check can gate on it; a change that
alters traces on purpose updates EXPECTED with it.

The file name has no test_ prefix, so pytest does not collect it; it
takes about 15 s on one core.
"""
import hashlib
import sys
import time

from radio_gather.engine import DuplexMode, run
from radio_gather.protocols import PROTOCOL_NAMES, make_protocol, step_cap
from radio_gather.trees import FAMILIES, from_family

SIZES = (2, 5, 16, 33, 64, 128)
SEEDS = (0, 1)
EXPECTED = "52a50766c339db66d384504b5a2baa1f23f1da0edd2ebd667ec8e42fb5fad2c2"


def sweep_digest() -> tuple[str, int]:
    outer = hashlib.sha256()
    runs = 0
    for name in PROTOCOL_NAMES:
        for family in FAMILIES:
            for n in SIZES:
                for seed in SEEDS:
                    tree = from_family(family, n, seed=seed)
                    for mode in DuplexMode:
                        proto = make_protocol(name, n, mode)
                        trace = run(tree, proto, mode, max_steps=step_cap(proto),
                                    seed=seed, record_steps=True)
                        outer.update(hashlib.sha256(trace.to_jsonl_bytes()).digest())
                        runs += 1
    return outer.hexdigest(), runs


if __name__ == "__main__":
    t0 = time.perf_counter()
    digest, runs = sweep_digest()
    print(digest)
    print(f"{runs} runs in {time.perf_counter() - t0:.1f} s")
    if digest != EXPECTED:
        print(f"digest mismatch: expected {EXPECTED}", file=sys.stderr)
        sys.exit(1)
