"""The serving wire protocol: newline-delimited JSON over TCP.

The one module that knows the wire format, for every front
(:class:`~repro.serve.frontend.Frontend`: a single service or the
cluster gateway):

* :func:`serve_tcp` — the server loop. Ops: ``ping``, ``metrics``,
  ``submit``, ``shutdown``, plus any read-only op the front adds
  (:meth:`~repro.serve.frontend.Frontend.extra_op`, e.g. the gateway's
  ``cluster``). Requests carrying an ``id`` are answered concurrently,
  with the id echoed, so one connection can pipeline many submits.
* :func:`run_server` — the signal-draining runner behind
  ``repro-bench serve`` and ``repro-bench cluster serve``.
* :class:`ServeClient` — blocking client (scripts and ``repro-bench
  submit``, whose entry point :func:`main_submit` lives here too).
* :class:`AsyncReplicaConnection` — asyncio client carrying many
  id-correlated requests over one socket (the gateway's replica links).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import signal
import socket
import time

from .frontend import _UNSET
from .metrics import logger
from .queue import AdmissionError

#: Ops safe to replay blind on a fresh connection: pure reads, plus
#: ``submit`` — simulations are deterministic and cache-keyed, so a
#: resubmitted job either coalesces, hits the cache, or recomputes the
#: identical result.
IDEMPOTENT_OPS = frozenset({"ping", "metrics", "submit"})


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------


async def _reply(front, request: dict) -> dict:
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "op": "ping"}
    if op == "metrics":
        return {"ok": True, "metrics": front.metrics_snapshot()}
    if op == "submit":
        try:
            handle = front.submit(
                request["exp_id"],
                request.get("kwargs") or {},
                job_class=request.get("job_class", "batch"),
                tenant=request.get("tenant", "anon"),
                timeout=request.get("timeout", _UNSET),
                retries=request.get("retries", _UNSET),
            )
        except AdmissionError as exc:
            return {
                "ok": False,
                "rejected": True,
                "reason": exc.reason,
                "detail": exc.detail,
            }
        except KeyError as exc:
            return {"ok": False, "error": f"missing field {exc}"}
        response = {
            "ok": True,
            "job_id": handle.job_id,
            "coalesced": handle.coalesced,
            "cached": handle.cached,
        }
        if request.get("wait", True):
            try:
                result = await handle.result(request.get("wait_timeout"))
            except asyncio.TimeoutError:
                return {**response, "ok": False, "error": "wait timed out"}
            except Exception as exc:  # noqa: BLE001 — report job failure
                return {**response, "ok": False, "error": str(exc)}
            response["result"] = front.encode_result(result)
        return response
    fields = await front.extra_op(op)
    if fields is not None:
        return {"ok": True, **fields}
    return {"ok": False, "error": f"unknown op {op!r}"}


async def serve_tcp(
    front,
    host: str = "127.0.0.1",
    port: int = 8642,
    on_ready=None,
) -> None:
    """Serve a started ``front`` until a ``shutdown`` op (or
    cancellation); then shut the front down, draining it first.
    ``on_ready(host, port)`` fires once the socket is bound (pass
    ``port=0`` to let the OS pick)."""
    done = asyncio.Event()

    async def on_connection(reader, writer):
        # Requests carrying an ``id`` are answered concurrently (the
        # reply echoes the id, and ordering is no longer guaranteed), so
        # one connection can pipeline many in-flight submits — the
        # cluster gateway's replica links depend on this. Requests
        # without an id keep the original strict request/reply order.
        write_lock = asyncio.Lock()
        pipelined: set[asyncio.Task] = set()

        async def send(response: dict) -> None:
            async with write_lock:
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()

        async def respond(request: dict) -> None:
            response = await _reply(front, request)
            response["id"] = request["id"]
            with contextlib.suppress(ConnectionError, OSError):
                await send(response)

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    response = {"ok": False, "error": f"bad json: {exc}"}
                else:
                    if request.get("op") == "shutdown":
                        done.set()
                        response = {"ok": True, "op": "shutdown"}
                    elif request.get("id") is not None:
                        task = asyncio.create_task(respond(request))
                        pipelined.add(task)
                        task.add_done_callback(pipelined.discard)
                        continue
                    else:
                        response = await _reply(front, request)
                await send(response)
                if done.is_set():
                    break
        finally:
            for task in pipelined:
                task.cancel()
            if pipelined:
                await asyncio.gather(*pipelined, return_exceptions=True)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    server = await asyncio.start_server(on_connection, host, port)
    addr = server.sockets[0].getsockname()
    logger.info("%s: listening on %s:%s", front.banner, addr[0], addr[1])
    print(f"{front.banner} listening on {addr[0]}:{addr[1]}", flush=True)
    if on_ready is not None:
        on_ready(addr[0], addr[1])
    try:
        await done.wait()
    finally:
        server.close()
        await server.wait_closed()
        await front.shutdown()


def run_server(front, host: str, port: int) -> None:
    """Start ``front`` and serve it until a ``shutdown`` op, SIGINT or
    SIGTERM; every way out drains accepted work first."""

    async def amain() -> None:
        await front.start()
        server_task = asyncio.ensure_future(serve_tcp(front, host, port))
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, server_task.cancel)
        try:
            await server_task
        except asyncio.CancelledError:
            logger.info("%s: signal received, draining", front.banner)
            await front.shutdown()

    asyncio.run(amain())


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------


class ServeClient:
    """One blocking connection to a running front.

    A dropped connection mid-session (a replica killed and respawned by
    the cluster gateway, a server restart) is invisible for idempotent
    payloads: :meth:`request` redials with exponential backoff and
    replays the op up to ``reconnects`` times before giving up.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        *,
        connect_timeout: float = 5.0,
        reconnects: int = 2,
        reconnect_backoff: float = 0.2,
    ):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.max_reconnects = reconnects
        self.reconnect_backoff = reconnect_backoff
        self.reconnects = 0  # successful redials, for observability
        self._connect(connect_timeout)

    def _connect(self, connect_timeout: float) -> None:
        deadline = time.monotonic() + connect_timeout
        while True:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=5.0
                )
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)  # server may still be starting
        self._file = self._sock.makefile("rwb")

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(
        self,
        payload: dict,
        timeout: float | None = None,
        *,
        idempotent: bool | None = None,
    ) -> dict:
        """Send one op and block for its reply line.

        ``idempotent`` overrides the per-op default
        (:data:`IDEMPOTENT_OPS`); non-idempotent payloads fail fast on a
        dropped connection instead of replaying."""
        if idempotent is None:
            idempotent = payload.get("op") in IDEMPOTENT_OPS
        retries = self.max_reconnects if idempotent else 0
        backoff = self.reconnect_backoff
        for attempt in range(retries + 1):
            try:
                return self._request_once(payload, timeout)
            except (ConnectionError, OSError):
                if attempt >= retries:
                    raise
                time.sleep(backoff)
                backoff *= 2
                self.close()
                self._connect(self.connect_timeout)
                self.reconnects += 1
        raise AssertionError("unreachable")

    def _request_once(self, payload: dict, timeout: float | None) -> dict:
        self._sock.settimeout(timeout)
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def ping(self) -> bool:
        return self.request({"op": "ping"}).get("ok", False)

    def submit(
        self,
        exp_id: str,
        kwargs: dict | None = None,
        *,
        job_class: str = "batch",
        timeout: float | None = None,
        retries: int | None = None,
        wait: bool = True,
        wait_timeout: float | None = None,
    ) -> dict:
        """Submit one what-if job; with ``wait`` the reply carries the
        serialised result rows. Rejections come back as
        ``{"ok": False, "rejected": True, "reason": ...}``."""
        payload: dict = {
            "op": "submit",
            "exp_id": exp_id,
            "kwargs": kwargs or {},
            "job_class": job_class,
            "wait": wait,
        }
        if timeout is not None:
            payload["timeout"] = timeout
        if retries is not None:
            payload["retries"] = retries
        if wait_timeout is not None:
            payload["wait_timeout"] = wait_timeout
        return self.request(payload, timeout=None if wait else 10.0)

    def metrics(self) -> dict:
        return self.request({"op": "metrics"})["metrics"]

    def shutdown(self) -> dict:
        """Ask the server to drain and exit."""
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


class ReplicaUnavailable(ConnectionError):
    """The replica's connection dropped (crash, kill, network)."""


def _expire(future: asyncio.Future) -> None:
    if not future.done():
        future.set_exception(asyncio.TimeoutError("no reply in time"))


class AsyncReplicaConnection:
    """One socket, many in-flight requests (id-correlated JSON lines)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._closed = False
        self._reader_task = asyncio.create_task(
            self._read_loop(), name="cluster-replica-reader"
        )

    @classmethod
    async def open(
        cls, host: str, port: int, timeout: float = 5.0
    ) -> "AsyncReplicaConnection":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        return cls(reader, writer)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    line = await self._reader.readline()
                except (ConnectionError, OSError):
                    break  # reset by a killed replica == EOF
                if not line:
                    break
                try:
                    reply = json.loads(line)
                except json.JSONDecodeError:
                    continue  # protocol noise; the waiter will time out
                future = self._pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        finally:
            self._fail_pending()

    def _fail_pending(self) -> None:
        self._closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ReplicaUnavailable("replica connection lost")
                )

    async def request(self, payload: dict,
                      timeout: float | None = None) -> dict:
        """Send one op; await its id-matched reply (``TimeoutError``
        after ``timeout`` seconds).

        The timeout is a timer that fails the reply future, not
        ``asyncio.wait_for``: up to Python 3.11, ``wait_for`` returns the
        result when its task is cancelled in the same loop pass that the
        reply lands, dropping the cancellation. The gateway's health loop
        pings through here and must end when ``Gateway.stop`` cancels it,
        or ``stop`` waits for it forever."""
        if self._closed:
            raise ReplicaUnavailable("replica connection closed")
        request_id = next(self._ids)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(
                json.dumps({**payload, "id": request_id}).encode() + b"\n"
            )
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            self._fail_pending()
            raise ReplicaUnavailable(str(exc)) from exc
        timer = None
        if timeout is not None:
            timer = loop.call_later(timeout, _expire, future)
        try:
            return await future
        finally:
            if timer is not None:
                timer.cancel()
            self._pending.pop(request_id, None)

    async def ping(self, timeout: float = 2.0) -> bool:
        reply = await self.request({"op": "ping"}, timeout)
        return bool(reply.get("ok"))

    async def metrics(self, timeout: float = 10.0) -> dict:
        reply = await self.request({"op": "metrics"}, timeout)
        return reply.get("metrics", {})

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        with contextlib.suppress(asyncio.CancelledError, Exception):
            await self._reader_task
        self._writer.close()
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()
        self._fail_pending()


def main_submit(argv: list[str] | None = None) -> int:
    """``repro-bench submit`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-bench submit",
        description="Submit what-if jobs to a running 'repro-bench serve' "
        "instance (or fetch its metrics / shut it down).",
    )
    parser.add_argument(
        "experiments", nargs="*", help="experiment ids to submit"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--kwargs", metavar="JSON", default="{}",
        help='experiment kwargs as JSON, e.g. \'{"scale": 0.05}\'',
    )
    parser.add_argument(
        "--class", dest="job_class", default="batch",
        choices=["interactive", "batch"],
    )
    parser.add_argument("--timeout", type=float, help="per-job timeout (s)")
    parser.add_argument("--retries", type=int, help="per-job retry budget")
    parser.add_argument(
        "--no-wait", action="store_true",
        help="enqueue and return immediately (no result rows)",
    )
    parser.add_argument(
        "--connect-timeout", type=float, default=5.0,
        help="seconds to keep retrying the initial connection",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the service metrics snapshot (after any submissions)",
    )
    parser.add_argument(
        "--shutdown", action="store_true",
        help="drain and stop the server (after any submissions)",
    )
    args = parser.parse_args(argv)
    if not (args.experiments or args.metrics or args.shutdown):
        parser.error("nothing to do: give experiment ids, --metrics, "
                     "or --shutdown")
    try:
        kwargs = json.loads(args.kwargs)
    except json.JSONDecodeError as exc:
        parser.error(f"--kwargs is not valid JSON: {exc}")

    from ..bench.report import render_table
    from ..bench.runner import _deserialize

    failures = 0
    with ServeClient(
        args.host, args.port, connect_timeout=args.connect_timeout
    ) as client:
        for exp_id in args.experiments:
            reply = client.submit(
                exp_id,
                kwargs,
                job_class=args.job_class,
                timeout=args.timeout,
                retries=args.retries,
                wait=not args.no_wait,
            )
            if reply.get("rejected"):
                failures += 1
                print(
                    f"{exp_id}: REJECTED ({reply['reason']}"
                    f"{': ' + reply['detail'] if reply.get('detail') else ''})"
                )
            elif not reply.get("ok"):
                failures += 1
                print(f"{exp_id}: FAILED ({reply.get('error')})")
            elif "result" in reply:
                tag = (
                    "cache" if reply.get("cached")
                    else "coalesced" if reply.get("coalesced")
                    else reply.get("job_id", "?")
                )
                print(render_table(_deserialize(reply["result"])))
                print(f"[{exp_id} served ({tag})]\n")
            else:
                print(f"{exp_id}: queued as {reply.get('job_id')}")
        if args.metrics:
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
        if args.shutdown:
            client.shutdown()
            print("server shutting down")
    return 1 if failures else 0
