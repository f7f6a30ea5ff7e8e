"""Byte-identity gate over 840 recorded runs: two digests to compare.

    PYTHONPATH=src python tests/trace_sweep.py

Runs every protocol on every tree family at n in {2, 5, 16, 33, 64,
128}, with tree seed and run seed 0 and then 1, in both duplex modes,
nested in that order.  Each run is recorded with max_steps =
protocols.step_cap.  The script prints two digests, each the sha256
taken over the raw sha256 digest of every trace: first over the /1
bytes that trace_v1 rebuilds from it, then over its own /2
to_jsonl_bytes().  Then it prints the run count and the elapsed time.
A refactor that keeps every trace byte-identical prints the same
digests before and after.  Each trace is also written to a temporary
file with to_jsonl(), and the script counts the files whose bytes
differ from to_jsonl_bytes().  It exits 1 when either digest differs
from its EXPECTED value or some file differs, so a check can gate on
it; a change that alters traces on purpose updates EXPECTED with it.
The /1 digest has been pinned since before schema /2, which stores no
silent steps.

The file name has no test_ prefix, so pytest does not collect it; it
takes about 20 s on one core.
"""
import hashlib
import os
import sys
import tempfile
import time

from radio_gather.engine import run
from radio_gather.messages import DuplexMode
from radio_gather.protocols import PROTOCOL_NAMES, make_protocol, step_cap
from radio_gather.trees import FAMILIES, from_family

from trace_v1 import v1_bytes

SIZES = (2, 5, 16, 33, 64, 128)
SEEDS = (0, 1)
EXPECTED = {
    "radio-gather-trace/1": "52a50766c339db66d384504b5a2baa1f23f1da0edd2ebd667ec8e42fb5fad2c2",
    "radio-gather-trace/2": "70808f6498f771ff00f28136da11bf9bb58166ba134b6f3812b30cc047402027",
}


def sweep_digests(tmp: str) -> tuple[dict[str, str], int, int]:
    """The two digests, the run count, and the number of runs whose
    to_jsonl() file, written under tmp, differs from to_jsonl_bytes()."""
    v1, v2 = hashlib.sha256(), hashlib.sha256()
    runs = mismatched = 0
    path = os.path.join(tmp, "trace.jsonl")
    for name in PROTOCOL_NAMES:
        for family in FAMILIES:
            for n in SIZES:
                for seed in SEEDS:
                    tree = from_family(family, n, seed=seed)
                    for mode in DuplexMode:
                        proto = make_protocol(name, n, mode)
                        trace = run(tree, proto, mode, max_steps=step_cap(proto),
                                    seed=seed, record_steps=True)
                        v1.update(hashlib.sha256(v1_bytes(trace)).digest())
                        blob = trace.to_jsonl_bytes()
                        v2.update(hashlib.sha256(blob).digest())
                        trace.to_jsonl(path)
                        with open(path, "rb") as fh:
                            mismatched += fh.read() != blob
                        runs += 1
    return dict(zip(EXPECTED, (v1.hexdigest(), v2.hexdigest()))), runs, mismatched


if __name__ == "__main__":
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        digests, runs, mismatched = sweep_digests(tmp)
    for schema, digest in digests.items():
        print(f"{schema} {digest}")
    print(f"{runs} runs in {time.perf_counter() - t0:.1f} s")
    wrong = [schema for schema, digest in digests.items() if digest != EXPECTED[schema]]
    for schema in wrong:
        print(f"{schema} digest mismatch: expected {EXPECTED[schema]}", file=sys.stderr)
    if mismatched:
        print(f"{mismatched} of {runs} to_jsonl files differ from to_jsonl_bytes()",
              file=sys.stderr)
    if wrong or mismatched:
        sys.exit(1)
