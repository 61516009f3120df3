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
