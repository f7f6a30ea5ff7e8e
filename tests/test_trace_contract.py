"""The JSONL trace is the behavioural contract: pinned hashes.

Each hash is the sha256 of Trace.to_jsonl_bytes() for a recorded run
(record_steps=True) on from_family("random", 64, 100) with run seed 100
and max_steps = protocols.step_cap: the protocol's horizon, or
ceil(8 n ln n) for rtree.
The hashes were computed before the step-keyed wake queue and the
duty-beat ladder sleeps went in, from the engine that woke ladder nodes
at every step, so they pin that those changes left every byte alone.
A change that alters a trace on purpose must say why and re-pin here.

The hashes predate schema /2, which stores only the steps with a
transmitter, so they are taken over the /1 bytes that trace_v1 rebuilds
from each trace.  Each check also asserts that the /2 bytes are those /1
bytes without their silent lines, that both load to the run's records,
and that the /2 bytes round-trip unchanged.

LONG_CHAINS pins mls and rtree on path and caterpillar trees of 128
nodes (tree seed and run seed 100), where most transmissions forward
what arrived one step earlier.  Those hashes were computed before
fire-and-forward states began forwarding the received message object
and before the step lines were written without the generic encoder.

LADDERS pins unb1, unb2 and bnd on path, star, caterpillar and kary
trees of 64 nodes (tree seed and run seed 100), where the census and
ladder see chains, one wide fan-in, and both mixed.  Those hashes were
computed before the three ladders were merged into one census-and-ladder
skeleton whose duty beats are built once at activation.
"""
import hashlib
import io

import pytest

from radio_gather.engine import DuplexMode, Trace, run
from radio_gather.protocols import make_protocol, step_cap
from radio_gather.trees import from_family

from trace_v1 import v1_bytes, v2_from_v1

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

LONG_N = 128

LONG_CHAINS = {
    ("path", "mls", "full"): "9d1362bd9da39aae85c6e61125748370451d0c042a16acd62992241dca1962cd",
    ("path", "mls", "half"): "5c2c0c50ab4746148d4f48246d83613bdcd383826ad427be9ebebaa9a0c16e7b",
    ("path", "rtree", "full"): "2208a3e529e6bb9f15411c084ff732578e7660ff28d88ca00d9c29aa07f0a0b5",
    ("path", "rtree", "half"): "a0f398bc59252a6b09b1d082cfdb43fe41cf18bb74f441eadecf386f3eb5d01e",
    ("caterpillar", "mls", "full"): "ada62d7d7587c05f88db302770bd412f0891439e907802a30d39df5fff0ed07d",
    ("caterpillar", "mls", "half"): "4f96ea71cd993ad911564a143904823b4610835ac1e4d22b24c9188aa9bd4a24",
    ("caterpillar", "rtree", "full"): "20d116251fd5828ed5db2c33c4e8098f0c17e8347824a595c83bd93c489a822b",
    ("caterpillar", "rtree", "half"): "a2c0bf70d5ac9c4861ec58db0658b14b16892559864cfcaedf237af7df6e5598",
}

LADDERS = {
    ("path", "unb1", "full"): "1b76d67e8a5f0b7c08f5e89c75c215e6341e26b87f7f096fbc76a7ef1df56df7",
    ("path", "unb1", "half"): "d405209d43f2645ab5f93df9e9457b153206d8b78f17073cf68baf1c0c860e91",
    ("path", "unb2", "full"): "7fcfcdd1afa6617f34ec864a7779f47c85184a8d6d8eb34627171094a20e3b16",
    ("path", "unb2", "half"): "514199a40c578709414af3452fd435ec65abf2e5751fae3310b63294e4becd34",
    ("path", "bnd", "full"): "1d56309d08ec5e9eab6cc57667e6baa9deac9f3e8ecd222ad86e02f3ada3c616",
    ("path", "bnd", "half"): "838805ac3d2dc0a6a2841c15767a79a904ac42851a09929d48007eb0b3b68b97",
    ("star", "unb1", "full"): "28eeb08ba4d16d0457fc1f06fdc4dac4f73d9368446ff5b96cf198c524ab555f",
    ("star", "unb1", "half"): "cd0f3c911a34be5ae0f025e36bf7134214ba10648262c29dd30d134df03b5d46",
    ("star", "unb2", "full"): "baaf245333e040fd070a9c5db0954ecbc80d2588c296c1eb2f614475d09d4e0c",
    ("star", "unb2", "half"): "64cbc1ca8399ab235614f18efe3121dbaa9e77fe12198007d5c671367f0f0b5c",
    ("star", "bnd", "full"): "f6a0edb2390d376987d01a3c4a1c34196ce997dffb5bf7bc42145e952a8c8b89",
    ("star", "bnd", "half"): "9172150569c34e4c6e60fc495dfa216e45b81e08c2a204d381a75386c597f886",
    ("caterpillar", "unb1", "full"): "db596071ed54dad3f866d8c9eb58cb5ea44fb6f8e7c4d27d1a103cfbd0074bc9",
    ("caterpillar", "unb1", "half"): "265bddd067b2d774060d200adfa1e9e01fe02335e8454989f8337c96e4ab5085",
    ("caterpillar", "unb2", "full"): "83fdc96f8c65babde88b6bef4d645015e92d67df52fcfe5e1212ac91af09ad7b",
    ("caterpillar", "unb2", "half"): "4e55bf05784467e297a9ebeec06e4e2eb7cab1e6fc25d796a278fece04531e15",
    ("caterpillar", "bnd", "full"): "64b00a86926545a07747f333febe1107fa1a6a2379f4a7d96f17bab83d03d83d",
    ("caterpillar", "bnd", "half"): "89c8aa007a8324d3441aca4b3a018061db610b2dce5a7fc59708ff8a54e72bcb",
    ("kary", "unb1", "full"): "b362a204f5e9e65658aefcdecfa16f537a4ba2cb10fd59ab223fec12186e6e47",
    ("kary", "unb1", "half"): "322e706564987119ab59cc2210494aebc7452faa2c30f388649d0fcfa67f7196",
    ("kary", "unb2", "full"): "b08416ad3effabcfc39377b738335934c8e1b76261c1097110ddcdd050007a3d",
    ("kary", "unb2", "half"): "eaeeddf3c30d0f0d39d957153197bfa6bbf4d2e657b05da5f020769f80c4dfc3",
    ("kary", "bnd", "full"): "19af49b70d46351c3b0336ff30d5b3310d931d4b253c2e547680f232250068cb",
    ("kary", "bnd", "half"): "529c804a85e4586c869a0203af1958ff50b21bd869b45e3e299c57dde29db8ef",
}


def recorded_trace(family, n, name, mode):
    tree = from_family(family, n, SEED)
    duplex = DuplexMode(mode)
    proto = make_protocol(name, n, duplex)
    return run(tree, proto, duplex, max_steps=step_cap(proto), seed=SEED, record_steps=True)


def assert_pinned(trace, digest):
    v1 = v1_bytes(trace)
    assert hashlib.sha256(v1).hexdigest() == digest
    v2 = trace.to_jsonl_bytes()
    assert v2 == v2_from_v1(v1)
    for blob in (v1, v2):
        assert Trace.from_jsonl_lines(io.BytesIO(blob)).steps == trace.steps
    assert Trace.from_jsonl_lines(io.BytesIO(v2)).to_jsonl_bytes() == v2


@pytest.mark.parametrize("name,mode", sorted(PINNED), ids=lambda x: x)
def test_trace_bytes_pinned(name, mode):
    assert_pinned(recorded_trace("random", N, name, mode), PINNED[(name, mode)])


@pytest.mark.parametrize("family,name,mode", sorted(LONG_CHAINS), ids=lambda x: x)
def test_long_chain_trace_bytes_pinned(family, name, mode):
    trace = recorded_trace(family, LONG_N, name, mode)
    assert_pinned(trace, LONG_CHAINS[(family, name, mode)])


@pytest.mark.parametrize("family,name,mode", sorted(LADDERS), ids=lambda x: x)
def test_ladder_trace_bytes_pinned(family, name, mode):
    assert_pinned(recorded_trace(family, N, name, mode), LADDERS[(family, name, mode)])
