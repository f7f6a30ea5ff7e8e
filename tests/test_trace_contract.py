"""The JSONL trace is the behavioural contract: pinned hashes.

Each hash is the sha256 of Trace.to_jsonl_bytes() for a recorded run
(record_steps=True) on from_family("random", 64, 100) with run seed 100
and max_steps the protocol's horizon, or ceil(8 n ln n) for rtree.
The hashes were computed before the step-keyed wake queue and the
duty-beat ladder sleeps went in, from the engine that woke ladder nodes
at every step, so they pin that those changes left every byte alone.
A change that alters a trace on purpose must say why and re-pin here.
"""
import hashlib
import math

import pytest

from radio_gather.engine import DuplexMode, run
from radio_gather.protocols import make_protocol
from radio_gather.trees import from_family

N = 64
SEED = 100

PINNED = {
    ("rr-unb", "full"): "554dc9b84bb6d5103baefe3cb1325507b82b6afbc334a4f8364fd64ac7fff24c",
    ("rr-unb", "half"): "5b93def45932cf75efb46b11bbb653bf67f89f87317f21668f43273c933b44ce",
    ("rr-bnd", "full"): "933207d499fe5793edd50d4f1b54bc439dcdecb3e303cceb474100d4b9a72b65",
    ("rr-bnd", "half"): "fa32c61d836b19e80561dba3226bf72bbdac9b1d4049ff404511e6a9dc9a742d",
    ("unb1", "full"): "47b3a594fb8a26c019fa9ae7549f38255374c42c18def16075ac751f48e064e3",
    ("unb1", "half"): "898af5b0ed0d7d8b85f44b1defa4cb77b48fa271a76de1218e7ff3240fb5c167",
    ("unb2", "full"): "f654f05e0a4f89c897244541c1062cdb1273a7ef421e94894f2e6231176468c9",
    ("unb2", "half"): "30fa1805fd7ad61233bbcbda7e765d8b202bbe8b0f82f2f18dad2fa1407329a1",
    ("bnd", "full"): "93e04dc8fbcf826fc96010b74b71136b79c551d522cfdbe301d5d292e4e6019d",
    ("bnd", "half"): "7ef5335761512e27ba7e738e52a199274004cc42a51ce0d4c94a62a82b8380f6",
    ("mls", "full"): "4be18d4370276e88f18989cc782f3af9430be7527d6f066a6cb247ebf2db411a",
    ("mls", "half"): "d6b034c774baa7b44a58c3d8ee1092c12fa989235259d86dc63ea2ba4de881f7",
    ("rtree", "full"): "84763b22b08e4561f0716ca7a0f5995c47e261bd4405d168817ae4d6dd21eea4",
    ("rtree", "half"): "11297221aeb310f697f6dad87bffeb64fbbe52267b4c9a274a3ef01c3b00d011",
}


@pytest.mark.parametrize("name,mode", sorted(PINNED), ids=lambda x: x)
def test_trace_bytes_pinned(name, mode):
    tree = from_family("random", N, SEED)
    duplex = DuplexMode(mode)
    proto = make_protocol(name, N, duplex)
    cap = proto.horizon if proto.horizon is not None else math.ceil(8 * N * math.log(N))
    trace = run(tree, proto, duplex, max_steps=cap, seed=SEED, record_steps=True)
    assert hashlib.sha256(trace.to_jsonl_bytes()).hexdigest() == PINNED[(name, mode)]
