"""Replica fleet plumbing: process spawning and the per-replica record.

A replica is one :class:`~repro.serve.service.SimulationService` — either
spawned locally as a ``repro-bench serve`` subprocess (port 0, parsed
from its ready line) or addressed remotely as ``host:port``. The gateway
talks to each replica over a single
:class:`~repro.serve.protocol.AsyncReplicaConnection` carrying many
concurrent requests, correlated by the ``id`` field the serve protocol
echoes back (see :func:`repro.serve.protocol.serve_tcp`).
"""

from __future__ import annotations

import contextlib
import os
import queue
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from ..serve.protocol import AsyncReplicaConnection
from .ring import ring_hash  # noqa: F401  (re-exported for convenience)

_READY_PREFIX = "repro-serve listening on "


def _repro_env() -> dict:
    """Child env with this repro importable even from a src/ checkout."""
    env = os.environ.copy()
    src_root = str(Path(__file__).resolve().parents[2])
    parts = [src_root] + [
        p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


class LocalReplicaProcess:
    """One ``repro-bench serve`` child bound to an OS-assigned port."""

    def __init__(
        self,
        name: str,
        *,
        workers: int = 2,
        capacity: int = 64,
        runner_spec: str | None = None,
        timeout: float | None = None,
        spawn_timeout: float = 60.0,
        extra_args: list[str] | None = None,
    ):
        self.name = name
        argv = [
            sys.executable, "-m", "repro.bench", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(workers),
            "--capacity", str(capacity),
            "--no-cache",  # the gateway owns the shared cache tier
            "--metrics-interval", "0",
        ]
        if runner_spec:
            argv += ["--runner", runner_spec]
        if timeout:
            argv += ["--timeout", str(timeout)]
        argv += extra_args or []
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_repro_env(),
            text=True,
        )
        # One thread reads stdout for the child's whole life: it hands
        # over the ready line and keeps the pipe drained, so the child
        # can never block on stdout and a silent child cannot outlast
        # ``spawn_timeout``.
        self._ready: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(
            target=self._read_stdout, name=f"{name}-stdout", daemon=True
        ).start()
        try:
            self.host, self.port = self._await_ready(spawn_timeout)
        except BaseException:
            self.kill()
            raise

    def _await_ready(self, timeout: float) -> tuple[str, int]:
        try:
            address = self._ready.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"{self.name} never reported ready within {timeout}s"
            ) from None
        if address is None:
            raise RuntimeError(
                f"{self.name} exited before binding "
                f"(exit={self.proc.poll()})"
            )
        return address

    def _read_stdout(self) -> None:
        address = None
        with contextlib.suppress(Exception):
            for line in self.proc.stdout:
                if address is None and line.startswith(_READY_PREFIX):
                    host, _, port = (
                        line[len(_READY_PREFIX):].strip().partition(":")
                    )
                    address = (host, int(port))
                    self._ready.put(address)
        if address is None:
            self._ready.put(None)  # EOF before the ready line

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL — the fault-injection path (simulated crash)."""
        with contextlib.suppress(ProcessLookupError):
            self.proc.kill()
        self.proc.wait(timeout=10)

    def terminate(self, timeout: float = 10.0) -> None:
        """Polite stop (SIGTERM → the serve loop drains and exits)."""
        if self.alive():
            with contextlib.suppress(ProcessLookupError):
                self.proc.terminate()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()


@dataclass
class Replica:
    """Gateway-side handle on one fleet member."""

    replica_id: str
    host: str = ""
    port: int = 0
    conn: AsyncReplicaConnection | None = None
    proc: LocalReplicaProcess | None = None
    healthy: bool = False
    respawning: bool = False
    respawns: int = 0
    forwarded: int = 0  # requests sent to this replica
    completed: int = 0  # successful replies
    errors: int = 0  # connection losses / failed replies
    spawn_kwargs: dict = field(default_factory=dict)

    @property
    def local(self) -> bool:
        return self.proc is not None or bool(self.spawn_kwargs)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def snapshot(self) -> dict:
        return {
            "address": self.address,
            "healthy": self.healthy,
            "local": self.local,
            "pid": self.proc.pid if self.proc is not None else None,
            "respawns": self.respawns,
            "forwarded": self.forwarded,
            "completed": self.completed,
            "errors": self.errors,
            "in_flight": self.conn.in_flight if self.conn else 0,
        }
