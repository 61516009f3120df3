"""Property tests: per-link traffic accounting is conservative.

NVLink-C2C keeps per-direction byte totals *and* per-traffic-class
tallies; the invariant is that the class tallies always sum to the
direction totals, no matter what sequence of transfers runs. Bandwidth
asymmetry (H2D faster than D2H) must survive any traffic mix as well.
A fabric link keeps per-direction totals only, which must equal the
bytes charged each way.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.interconnect import CopyEngine, FabricLink, LinkKind, NvlinkC2C
from repro.sim.config import MemKind, NodeId, Processor, SystemConfig

SIZES = st.integers(1, 1 << 24)
PROCS = st.sampled_from([Processor.CPU, Processor.GPU])

c2c_ops = st.lists(
    st.one_of(
        st.tuples(st.just("stream"), PROCS, SIZES),
        st.tuples(st.just("remote"), PROCS, SIZES),
        st.tuples(st.just("migrate"), PROCS, SIZES),
        st.tuples(st.just("external"), PROCS, SIZES),
    ),
    max_size=30,
)


@given(c2c_ops)
def test_nvlink_per_class_conservation(ops):
    cfg = SystemConfig.paper_gh200()
    link = NvlinkC2C(cfg)
    expect = {"h2d": 0, "d2h": 0}
    for kind, proc, nbytes in ops:
        if kind == "stream":
            link.streaming_time(nbytes, proc, proc.other)
            expect["h2d" if proc is Processor.CPU else "d2h"] += nbytes
        elif kind == "remote":
            # The accessor pulls: data flows *toward* the accessor.
            link.remote_access_time(nbytes, proc)
            expect["h2d" if proc is Processor.GPU else "d2h"] += nbytes
        elif kind == "migrate":
            link.migration_time(nbytes, proc, proc.other)
            expect["h2d" if proc is Processor.CPU else "d2h"] += nbytes
        else:
            link.account_external(nbytes, proc, 1e-6, cls="dma")
            expect["h2d" if proc is Processor.CPU else "d2h"] += nbytes

    assert link.stats.conserved()
    assert link.stats.h2d_bytes == expect["h2d"]
    assert link.stats.d2h_bytes == expect["d2h"]
    assert link.stats.total_bytes == expect["h2d"] + expect["d2h"]
    by_class = sum(
        link.stats.class_bytes(c) for c in ("dma", "remote", "migration")
    )
    assert by_class == link.stats.total_bytes


@given(SIZES)
def test_nvlink_h2d_d2h_asymmetry(nbytes):
    """The same streaming payload is never slower H2D than D2H (the
    paper measures 375 vs 297 GB/s), and each direction's achieved
    bandwidth stays at or below its calibrated streaming rate."""
    cfg = SystemConfig.paper_gh200()
    link = NvlinkC2C(cfg)
    t_h2d = link.streaming_time(nbytes, Processor.CPU, Processor.GPU)
    t_d2h = link.streaming_time(nbytes, Processor.GPU, Processor.CPU)
    assert t_h2d <= t_d2h
    assert link.achieved_bandwidth("h2d") <= cfg.c2c_h2d_bandwidth
    assert link.achieved_bandwidth("d2h") <= cfg.c2c_d2h_bandwidth
    assert link.achieved_bandwidth("h2d") >= link.achieved_bandwidth("d2h")


copy_ops = st.lists(
    st.tuples(PROCS, PROCS, st.integers(0, 1 << 24), st.booleans()),
    max_size=30,
)


@given(copy_ops)
def test_copy_engine_totals_and_link_conservation(ops):
    cfg = SystemConfig.paper_gh200()
    link = NvlinkC2C(cfg)
    engine = CopyEngine(cfg, link)
    crossing = 0
    for src, dst, nbytes, pinned in ops:
        t = engine.memcpy(nbytes, src, dst, pinned=pinned)
        assert t >= cfg.cuda_memcpy_call_cost
        if nbytes and src is not dst:
            crossing += nbytes

    # Only cross-link copies touch NVLink-C2C, and all of them land in
    # the "dma" class — conservation must hold regardless of mix.
    assert link.stats.total_bytes == crossing
    assert link.stats.class_bytes("dma") == crossing
    assert link.stats.conserved()


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
    fwd = rev = 0
    for forward, nbytes in ops:
        link.charge(nbytes, forward=forward)
        if forward:
            fwd += nbytes
        else:
            rev += nbytes

    assert link.stats.fwd_bytes == fwd
    assert link.stats.rev_bytes == rev
    assert link.stats.total_bytes == fwd + rev
