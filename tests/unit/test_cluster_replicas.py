"""Spawning a local replica: the ready handshake is bounded.

``LocalReplicaProcess`` starts a real ``repro-bench serve`` child and
waits for its ready line. A child that says nothing within
``spawn_timeout`` or exits before binding must fail the spawn in bounded
time and leave no process behind."""

import multiprocessing
import subprocess
import time

import pytest

import repro.cluster.replicas as replicas
from repro.cluster import LocalReplicaProcess

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="replica worker pools rely on fork",
)


@pytest.fixture
def spawned(monkeypatch):
    """Every child the replica module starts, so a test can check that a
    failed spawn reaped its child."""
    children = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    monkeypatch.setattr(replicas.subprocess, "Popen", Recording)
    return children


def test_spawn_timeout_bounds_a_silent_child(spawned):
    # A replica takes about a second to import and bind; 50 ms is far
    # shorter, so the ready line cannot arrive before the deadline.
    t0 = time.monotonic()
    with pytest.raises(TimeoutError, match="never reported ready"):
        LocalReplicaProcess("r-slow", spawn_timeout=0.05)
    assert time.monotonic() - t0 < 10.0
    (child,) = spawned
    assert child.returncode is not None  # killed and reaped


def test_child_that_exits_before_binding_fails_the_spawn(spawned):
    # Zero workers is refused at service start, before the socket binds.
    with pytest.raises(RuntimeError, match="exited before binding"):
        LocalReplicaProcess(
            "r-bad", extra_args=["--workers", "0"], spawn_timeout=60.0
        )
    (child,) = spawned
    assert child.returncode is not None

