"""The benchmark's workloads and the seeded inputs they run.

Every workload is a list of *units*. A sim unit is one registry
experiment on one memory backend, run in-process through
``run_experiment``; a serve unit is one ``submit`` request. The seed
only permutes: it shuffles unit order inside every sim pass after the
first (see ``simload.py``) and the request order inside every serve
pass, so two seeds run the same multiset of work and their timings are
comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.experiments import experiment_ids
from repro.check.golden import golden_kwargs

FULL_SCALE = 1.0
BACKENDS = ("gh200", "upm", "svm")


@dataclass(frozen=True)
class Unit:
    exp_id: str
    mem_arch: str
    #: Paper-testbed scale when True, the pinned golden configuration
    #: (``golden_kwargs``) otherwise; decides which expected output the
    #: unit is checked against.
    full_scale: bool
    job_class: str = "batch"

    @property
    def uid(self) -> str:
        return f"{self.exp_id}@{self.mem_arch}{'' if self.full_scale else '/golden'}"

    def kwargs(self) -> dict:
        if not self.full_scale:
            return golden_kwargs(self.exp_id, self.mem_arch)
        kwargs: dict = {"scale": FULL_SCALE}
        if self.mem_arch != "gh200":
            kwargs["mem_arch"] = self.mem_arch
        return kwargs


def _full(*exp_ids: str) -> list[Unit]:
    return [Unit(e, "gh200", True) for e in exp_ids]


# -- serve-mixed -------------------------------------------------------------

INTERACTIVE = ("table1", "sec21", "fig4", "fig10")
BATCH = ("fig9", "fig12", "fig13", "fig7")
JOB_CLASSES = ("interactive", "batch")
#: Requests of each class in one serve pass: equal numbers of each, as
#: few as still give every key at least one request.
SERVE_PASS_PER_CLASS = 40


def _serve_keys(job_class: str) -> list[Unit]:
    """The class's 12 keys in popularity rank order: backend-major, so
    the most popular keys spread over every experiment of the class."""
    exps = INTERACTIVE if job_class == "interactive" else BATCH
    return [Unit(e, arch, False, job_class) for arch in BACKENDS for e in exps]


def zipf_counts(n: int, pmf) -> list[int]:
    """``n`` requests split over ranks by ``pmf``, with largest-remainder
    rounding so they sum to ``n``: every pass holds the same multiset."""
    exact = n * pmf
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(pmf)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def serve_pass_units() -> list[Unit]:
    """One serve pass's requests, in canonical (unshuffled) order.

    Key popularity follows the cluster traffic model's Zipf exponents:
    interactive traffic hammers a hot set (``hot_zipf_s``), batch
    traffic sweeps a flatter tail (``tail_zipf_s``).
    """
    # Imported here: the cluster package is not part of sim set-up.
    from repro.cluster.traffic import TrafficMix, _zipf_pmf

    zipf_s = {"interactive": TrafficMix.hot_zipf_s, "batch": TrafficMix.tail_zipf_s}
    out: list[Unit] = []
    for job_class in JOB_CLASSES:
        keys = _serve_keys(job_class)
        pmf = _zipf_pmf(len(keys), zipf_s[job_class])
        for unit, count in zip(keys, zipf_counts(SERVE_PASS_PER_CLASS, pmf)):
            out.extend([unit] * count)
    return out


#: Each workload's units. Sim workloads run them in-process, serve-mixed
#: submits them to ``repro-bench serve``.
UNITS = {
    "qv-oversub": lambda: _full("fig12", "fig13"),
    "rodinia-inmem": lambda: _full("fig3", "fig7"),
    "backends-golden": lambda: [
        Unit(e, arch, False) for arch in ("upm", "svm") for e in experiment_ids()
    ],
    "serve-mixed": serve_pass_units,
}
WORKLOADS = tuple(UNITS)
SIM_WORKLOADS = WORKLOADS[:3]


def pass_orders(units: list[Unit], seed: int):
    """Yield the units of pass 0, 1, 2, ... each in a seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(units)
        rng.shuffle(order)
        yield order
