"""The no-trace contract of a first touch that does not fit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import ArrayAccess
from repro.mem.physical import OutOfMemoryError
from repro.sim.config import Location


def _pools(gh) -> list:
    phys = gh.mem.physical
    return [(pool.used, dict(pool.by_tag)) for pool in (phys.cpu, phys.gpu)]


def assert_overflowing_touch_leaves_no_trace(gh, extra_pages: int = 64):
    """A CPU first touch of a ``malloc`` ``extra_pages`` pages past the
    free CPU memory of ``gh`` (a sanitizing system) raises
    :class:`OutOfMemoryError`, maps no page, reserves no byte, and leaves
    the sanitizer passing. Returns the allocation."""
    nbytes = gh.mem.physical.cpu.free + extra_pages * gh.config.system_page_size
    arr = gh.malloc(np.int8, (nbytes,))
    before = _pools(gh)
    with pytest.raises(OutOfMemoryError):
        gh.cpu_phase("touch", [ArrayAccess.write_(arr)])
    assert arr.alloc.is_homogeneous(Location.UNMAPPED)
    assert _pools(gh) == before
    gh.mem.sanitizer.check_all()
    return arr.alloc


def assert_overflowing_gpu_touch_leaves_no_trace(gh, allocate, extra_pages=64):
    """A GPU first touch (a ``launch_kernel`` write) of an allocation from
    ``allocate`` (``gh.malloc`` or ``gh.cuda_malloc_managed``)
    ``extra_pages`` pages larger than free GPU plus free CPU memory raises
    :class:`OutOfMemoryError`, maps no page, leaves both pools' used bytes
    as they were with no entry under its tag, and leaves the sanitizer
    passing. Returns the allocation."""
    phys = gh.mem.physical
    room = phys.gpu.free + phys.cpu.free
    arr = allocate(np.int8, (room + extra_pages * gh.config.system_page_size,))
    used = [phys.cpu.used, phys.gpu.used]
    with pytest.raises(OutOfMemoryError):
        gh.launch_kernel("touch", [ArrayAccess.write_(arr)])
    assert arr.alloc.is_homogeneous(Location.UNMAPPED)
    assert [phys.cpu.used, phys.gpu.used] == used
    for pool in (phys.cpu, phys.gpu):
        assert arr.alloc.tag not in pool.by_tag
    gh.mem.sanitizer.check_all()
    return arr.alloc
