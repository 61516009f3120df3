"""Property tests: per-link traffic accounting is conservative.

NVLink-C2C keeps no tally of its own: with a timeline wired, every
charged transfer emits one ``c2c:<class>`` span carrying its bytes and
direction, and those spans, summed by class and direction, must equal
the bytes charged, no matter what sequence of transfers runs. Bandwidth
asymmetry (H2D faster than D2H) must survive any payload as well. A
fabric link's ``<kind>:exchange`` spans, summed by direction, must equal
the bytes charged each way.
"""

from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.interconnect import CopyEngine, FabricLink, LinkKind, NvlinkC2C
from repro.profiling.timeline import Timeline
from repro.sim.config import MemKind, NodeId, Processor, SystemConfig
from tests.helpers.timeline import exchange_bytes

SIZES = st.integers(1, 1 << 24)
PROCS = st.sampled_from([Processor.CPU, Processor.GPU])

#: ``(charge, sender or accessor, transfer sizes, class of an external
#: record)``; every charge but ``streams`` charges one size at a time.
c2c_ops = st.lists(
    st.tuples(
        st.sampled_from(["stream", "streams", "remote", "migrate", "external"]),
        PROCS,
        st.lists(SIZES, max_size=4),
        st.sampled_from(["dma", "remote", "migration"]),
    ),
    max_size=30,
)

#: The class each cost formula records its transfers under.
FORMULA_CLASS = {
    "stream": "dma", "streams": "dma", "remote": "remote", "migrate": "migration",
}


def traced_link(cfg: SystemConfig) -> NvlinkC2C:
    link = NvlinkC2C(cfg)
    link.timeline = Timeline(time_fn=lambda: 0.0)
    return link


def span_bytes(link: NvlinkC2C) -> Counter:
    """Bytes of the link's ``c2c:<class>`` spans by (class, direction)."""
    out: Counter = Counter()
    for span in link.timeline.spans(track="fabric/c2c"):
        cls = span.name.removeprefix("c2c:")
        out[cls, span.args["direction"]] += span.args["bytes"]
    return out


def direction(src: Processor) -> str:
    return "h2d" if src is Processor.CPU else "d2h"


@given(c2c_ops)
def test_nvlink_per_class_conservation(ops):
    """Each charge emits one span per transfer, and the spans' bytes by
    class and direction equal the bytes charged."""
    cfg = SystemConfig.paper_gh200()
    link = traced_link(cfg)
    expect: Counter = Counter()
    transfers = 0
    for kind, proc, sizes, cls in ops:
        if kind == "streams":
            link.streaming_times(np.array(sizes, dtype=np.int64), proc, proc.other)
        for n in sizes:
            if kind == "stream":
                link.streaming_time(n, proc, proc.other)
            elif kind == "remote":
                link.remote_access_time(n, proc)
            elif kind == "migrate":
                link.migration_time(n, proc, proc.other)
            elif kind == "external":
                link.account_external(n, proc, 1e-6, cls)
        # A remote accessor pulls: data flows *toward* the accessor.
        sender = proc.other if kind == "remote" else proc
        expect[FORMULA_CLASS.get(kind, cls), direction(sender)] += sum(sizes)
        transfers += len(sizes)

    assert len(link.timeline.spans(track="fabric/c2c")) == transfers
    assert span_bytes(link) == expect


@given(SIZES)
def test_nvlink_h2d_d2h_asymmetry(nbytes):
    """The same streaming payload is never slower H2D than D2H (the
    paper measures 375 vs 297 GB/s), and neither direction beats its
    calibrated streaming rate."""
    cfg = SystemConfig.paper_gh200()
    link = NvlinkC2C(cfg)
    t_h2d = link.streaming_time(nbytes, Processor.CPU, Processor.GPU)
    t_d2h = link.streaming_time(nbytes, Processor.GPU, Processor.CPU)
    assert t_h2d <= t_d2h
    assert nbytes / t_h2d <= cfg.c2c_h2d_bandwidth
    assert nbytes / t_d2h <= cfg.c2c_d2h_bandwidth


copy_ops = st.lists(
    st.tuples(PROCS, PROCS, st.integers(0, 1 << 24), st.booleans()),
    max_size=30,
)


@given(copy_ops)
def test_copy_engine_totals_and_link_conservation(ops):
    cfg = SystemConfig.paper_gh200()
    link = traced_link(cfg)
    engine = CopyEngine(cfg, link)
    crossing: Counter = Counter()
    for src, dst, nbytes, pinned in ops:
        t = engine.memcpy(nbytes, src, dst, pinned=pinned)
        assert t >= cfg.cuda_memcpy_call_cost
        if nbytes and src is not dst:
            crossing["dma", direction(src)] += nbytes

    # Only cross-link copies touch NVLink-C2C, and all of them land in
    # the "dma" class — conservation must hold regardless of mix.
    assert span_bytes(link) == crossing


fabric_ops = st.lists(st.tuples(st.booleans(), SIZES), max_size=30)


@given(fabric_ops)
def test_fabric_link_conservation(ops):
    link = FabricLink(
        NodeId(0, MemKind.HBM),
        NodeId(1, MemKind.HBM),
        LinkKind.NVLINK,
        fwd_bandwidth=100e9,
        rev_bandwidth=100e9,
        latency=1e-6,
    )
    link.timeline = Timeline(time_fn=lambda: 0.0)
    expect: Counter = Counter()
    for forward, nbytes in ops:
        link.charge(nbytes, forward=forward)
        expect[link.name, forward] += nbytes

    assert len(link.timeline) == len(ops)
    assert exchange_bytes(link.timeline) == expect
