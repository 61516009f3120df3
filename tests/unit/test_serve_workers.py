"""Serve worker processes exit when the process that owns their pool
dies, and honour SIGTERM although their owner ignores it."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.serve.workers import DEFAULT_RUNNER, _worker_main

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not Path("/proc/self/stat").exists(),
    reason="needs fork and /proc",
)

#: A pool owner shaped like ``repro-bench serve``: an asyncio loop with a
#: SIGTERM handler that the forked workers inherit. Prints the worker pids.
OWNER = """
import asyncio, signal
from repro.serve.workers import SupervisedWorkerPool

async def main():
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, lambda: None)
    pool = SupervisedWorkerPool(2)
    print(*(w.pid for w in pool.workers), flush=True)
    await asyncio.sleep(60)

asyncio.run(main())
"""


def _running(pid: int) -> bool:
    """True unless the process is gone or a zombie (``/proc/<pid>/stat``)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _wait_stopped(pids, timeout=5.0) -> list:
    deadline = time.monotonic() + timeout
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if _running(pid)]


@pytest.fixture
def owner():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", OWNER], stdout=subprocess.PIPE, text=True, env=env
    )
    pids = [int(p) for p in proc.stdout.readline().split()]
    yield proc, pids
    proc.kill()
    proc.wait()
    for pid in filter(_running, pids):  # never leak a worker on failure
        os.kill(pid, signal.SIGKILL)


def test_workers_exit_when_their_owner_is_killed(owner):
    proc, pids = owner
    assert len(pids) == 2 and all(map(_running, pids))
    proc.kill()
    proc.wait()
    assert _wait_stopped(pids) == [], "workers outlived their owner"


def test_workers_stop_on_sigterm(owner):
    _, pids = owner
    os.kill(pids[0], signal.SIGTERM)
    assert _wait_stopped(pids[:1]) == []
    assert _running(pids[1])


def test_worker_exits_when_spawned_for_an_owner_already_gone():
    """The owner pid is fixed at spawn: a worker whose owner died before
    it started finds another parent and exits, though its pipe stays
    open."""
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    # This process is the child's parent; its own parent stands in for
    # an owner that died before the child ran.
    proc = ctx.Process(
        target=_worker_main, args=(theirs, DEFAULT_RUNNER, os.getppid()),
        daemon=True,
    )
    proc.start()
    try:
        proc.join(timeout=2)
        assert proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join()
        ours.close()
        theirs.close()
