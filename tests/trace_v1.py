"""Schema /1 bytes rebuilt from a trace, for digests pinned under /1.

/1 wrote one step line for every step below steps_executed.  /2 writes
only the steps with a transmitter; every other step of a run was silent,
so the /1 bytes follow from a /2 trace alone.  v1_bytes() rebuilds them,
and v2_from_v1() goes back the other way on bytes.
"""
import dataclasses
import re

from radio_gather.trace import TRACE_SCHEMA, StepRecord, Trace

V1_TAG = b'"schema":"radio-gather-trace/1"'
V2_TAG = b'"schema":"%s"' % TRACE_SCHEMA.encode()
SILENT_LINE = re.compile(
    rb'\{"collisions":\[\],"kind":"step","receptions":\{\},"step":[0-9]+,"transmitters":\[\]\}\n'
)


def v1_bytes(trace: Trace) -> bytes:
    """The trace as /1 wrote it: a silent record for each step below
    steps_executed that has none, and the header's schema tag swapped."""
    if trace.steps is not None:
        kept = {rec.step: rec for rec in trace.steps}
        dense = [kept[t] if t in kept else StepRecord(t, (), {}, ())
                 for t in range(trace.steps_executed)]
        trace = dataclasses.replace(trace, steps=dense)
    return trace.to_jsonl_bytes().replace(V2_TAG, V1_TAG, 1)


def v2_from_v1(blob: bytes) -> bytes:
    """/1 bytes with every silent step line removed and the tag swapped."""
    lines = blob.splitlines(keepends=True)
    kept = [line for line in lines if not SILENT_LINE.fullmatch(line)]
    return b"".join(kept).replace(V1_TAG, V2_TAG, 1)
