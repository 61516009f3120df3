"""Property: ``MemorySubsystem.access``'s local-residency shortcut charges
exactly what each backend's own path charges.

A system or managed allocation whose every page already sits where the
accessing processor reads locally is charged its local traffic without a
backend call. Two freshly built systems of the same backend run the same
hypothesis-generated epoch: a prologue that leaves each allocation
unmapped, partly or fully resident on the CPU or the GPU, then an
arbitrary interleaving of read/write descriptors over SYSTEM and MANAGED
allocations through :meth:`MemorySubsystem.access_batch`. On the
reference system ``is_homogeneous`` is forced false, so every descriptor
takes the backend's own path. The returned :class:`AccessResult` must
match field for field (bit-exact floats), and the *entire* mutable
system state must fingerprint identically through the following epoch
boundary (which services the access counters the epoch fed).
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.arch import architecture_names
from repro.mem.pageset import PageSet
from repro.sim.checkpoint import SystemCheckpoint
from repro.sim.config import Processor, SystemConfig

N_ELEMS = 1 << 16  # 64 pages of 4 KiB per allocation at 1/1024 scale


@dataclasses.dataclass(frozen=True)
class Epoch:
    """One generated scenario."""

    #: Per allocation: which processor initialises it, and what prefix.
    inits: tuple  # ((processor, fraction), (processor, fraction))
    descriptors: tuple  # (alloc_idx, lo_frac, hi_frac, write)
    processor: Processor


inits = st.tuples(
    st.sampled_from([Processor.CPU, Processor.GPU]),
    st.sampled_from([0.0, 0.5, 1.0]),
)

epochs = st.builds(
    Epoch,
    inits=st.tuples(inits, inits),
    descriptors=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    ).map(tuple),
    processor=st.sampled_from([Processor.GPU, Processor.CPU]),
)


def build_and_run(epoch: Epoch, mem_arch: str, *, shortcut: bool):
    gh = GraceHopperSystem(
        SystemConfig.scaled(1 / 1024, migration_enable=True, mem_arch=mem_arch)
    )
    arrays = [
        gh.malloc(np.float32, (N_ELEMS,), name="eq.sys"),
        gh.cuda_malloc_managed(np.float32, (N_ELEMS,), name="eq.man"),
    ]
    if not shortcut:
        for arr in arrays:
            arr.alloc.is_homogeneous = lambda loc: False
    # The prologue runs as kernels and phases, so the clock moves and the
    # epoch's managed-block touches land at a later time than the
    # prologue's.
    for arr, (proc, fraction) in zip(arrays, epoch.inits):
        if fraction:
            n = int(arr.alloc.n_pages * fraction)
            init = [ArrayAccess.write_(arr, PageSet.range(0, n))]
            if proc is Processor.GPU:
                gh.launch_kernel("init", init)
            else:
                gh.cpu_phase("init", init)
    descriptors = []
    for idx, lo_f, hi_f, write in epoch.descriptors:
        arr = arrays[idx]
        n = arr.alloc.n_pages
        lo, hi = sorted((int(lo_f * n), int(hi_f * n)))
        if hi == lo:
            hi = min(lo + 1, n)
        make = ArrayAccess.write_ if write else ArrayAccess.read
        acc = make(arr, PageSet.range(lo, hi))
        descriptors.append((arr.alloc, acc.pages, acc.shape, acc.write))
    result = gh.mem.access_batch(epoch.processor, descriptors, now=gh.now)
    gh.mem.begin_epoch()
    return result, SystemCheckpoint.capture(gh)


@settings(max_examples=30, deadline=None)
@given(epochs)
def test_local_shortcut_equals_backend_path(epoch):
    for mem_arch in architecture_names():
        result, state = build_and_run(epoch, mem_arch, shortcut=True)
        ref_result, ref_state = build_and_run(epoch, mem_arch, shortcut=False)
        for f in dataclasses.fields(result):
            assert getattr(result, f.name) == getattr(ref_result, f.name), (
                f"{mem_arch}: AccessResult.{f.name} diverged"
            )
        assert state.fingerprint() == ref_state.fingerprint(), mem_arch
