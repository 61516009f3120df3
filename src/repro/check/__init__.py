"""Correctness layer over the simulated memory subsystem.

Three independent lines of defence, built after three PRs of aggressive
vectorisation (symbolic interval-list PageSets, batched counters, the
multi-superchip fabric) left the fast paths without an oracle:

* :mod:`repro.check.sanitizer` — an opt-in, epoch-hooked invariant
  checker (:class:`MemSanitizer`) asserting residency exclusivity, byte
  conservation across the DDR and HBM pools, counter conservation
  against NVLink-C2C traffic, and page-table coherence on every
  allocation/epoch/access/free. Enable with ``SystemConfig.sanitize=True``
  or ``REPRO_SANITIZE=1``.
* :mod:`repro.check.reference` — a deliberately naive per-page reference
  executor plus a differential replay harness
  (:func:`differential_replay`) that runs recorded access traces through
  both the production batched path and the naive model and demands
  identical counters and times.
* :mod:`repro.check.golden` — canonical result fingerprints per
  registered experiment at a fixed small scale, committed under
  ``tests/golden/`` and checked by ``repro-bench verify``.
"""

from .golden import (
    GOLDEN_SCALE,
    compute_fingerprint,
    golden_kwargs,
    load_golden,
    result_fingerprint,
    verify_experiments,
    write_golden,
)
from .reference import (
    DifferentialReport,
    ReferenceSystem,
    SvmReferenceSystem,
    UpmReferenceSystem,
    differential_replay,
    reference_system_for,
)
from .sanitizer import InvariantViolation, MemSanitizer, sanitize_requested

__all__ = [
    "DifferentialReport",
    "GOLDEN_SCALE",
    "InvariantViolation",
    "MemSanitizer",
    "ReferenceSystem",
    "SvmReferenceSystem",
    "UpmReferenceSystem",
    "compute_fingerprint",
    "differential_replay",
    "golden_kwargs",
    "load_golden",
    "reference_system_for",
    "result_fingerprint",
    "sanitize_requested",
    "verify_experiments",
    "write_golden",
]
