"""The process of serve-mixed: real simulations through ``repro-bench serve``.

``run.py`` spawns this file once per run. It starts the server exactly
as a user would: ``python -m repro.bench serve --port 0 --workers 2
--no-cache --metrics-interval 0``, and is its client. It drives the
server's JSON-lines wire protocol as a closed loop on one asyncio thread
over two connections, each with one request outstanding, checks every
reply against the golden digests, and prints one ``{"event": "done"}``
line.

Untraced, it starts the server ``--setups`` times to measure set-up, and
runs passes on the middle start until ``--seconds`` have elapsed. With
``--trace`` it runs one pass on an untraced server and one on a server
started with ``--timeline``, recording one span per request.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from checks import Checker, result_from_payload  # noqa: E402
from repro.profiling.timeline import Timeline, export_perfetto  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import pass_orders, serve_pass_units  # noqa: E402

CONNECTIONS = 2
SERVER_ARGS = ("-m", "repro.bench", "serve", "--port", "0", "--workers", "2",
               "--no-cache", "--metrics-interval", "0")
#: Reply lines carry whole result tables.
LINE_LIMIT = 1 << 24


def _readline(sock: socket.socket) -> bytes:
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    return buf


class Server:
    """One ``repro-bench serve`` process, ready once both client
    connections answer ``ping``; ``setup`` spans spawn to ready, which
    includes starting the worker processes.

    Waits are unbounded here: ``run.py`` ends an overrunning run with
    SIGTERM, and on any error :meth:`kill` ends the server's process
    group, which holds its workers.
    """

    def __init__(self, root: Path, log_path: Path, timeline: Path | None = None):
        args = [sys.executable, *SERVER_ARGS]
        if timeline is not None:
            args += ["--timeline", str(timeline)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        t0 = time.perf_counter()
        with log_path.open("ab") as log:
            self.proc = subprocess.Popen(
                args, cwd=root, env=env, stdout=subprocess.PIPE, stderr=log,
                start_new_session=True,
            )
        self.peak_rss_mb = 0.0
        self.socks: list[socket.socket] = []
        try:
            port = self._read_port()
            for _ in range(CONNECTIONS):
                sock = socket.create_connection(("127.0.0.1", port))
                self.socks.append(sock)
                sock.sendall(b'{"op": "ping"}\n')
                if not json.loads(_readline(sock)).get("ok"):
                    raise RuntimeError("server did not answer ping")
        except BaseException:
            self.kill()
            raise
        self.setup = (t0, time.perf_counter())

    def _read_port(self) -> int:
        for line in self.proc.stdout:
            if line.startswith(b"repro-serve listening on"):
                return int(line.rsplit(b":", 1)[1])
        raise RuntimeError(f"server exited with {self.proc.wait()}")

    def wait_exit(self) -> None:
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss of a reaped child covers its reaped children too:
        # the largest of the server and its workers.
        self.peak_rss_mb = usage.ru_maxrss / 1024
        if self.proc.returncode:
            raise RuntimeError(f"server exited with {self.proc.returncode}")

    def stop(self) -> None:
        """Ask the server to drain and exit, and wait until it has."""
        for sock in self.socks[1:]:
            sock.close()
        self.socks[0].sendall(b'{"op": "shutdown"}\n')
        _readline(self.socks[0])
        self.socks[0].close()
        self.wait_exit()

    def kill(self) -> None:
        for sock in self.socks:
            sock.close()
        if self.proc.returncode is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


async def _drive(server: Server, orders, seconds: float, passes: int | None,
                 checker, timeline=None) -> dict:
    conns = [await asyncio.open_connection(sock=s, limit=LINE_LIMIT)
             for s in server.socks]
    requests: list[dict] = []
    problems: list[str] = []
    verified: dict[str, dict] = {}

    async def client(i: int, reader, writer, work) -> None:
        for unit in work:
            line = json.dumps({
                "op": "submit", "exp_id": unit.exp_id, "kwargs": unit.kwargs(),
                "job_class": unit.job_class,
            }).encode() + b"\n"
            t0 = time.perf_counter()
            writer.write(line)
            await writer.drain()
            raw = await reader.readline()
            t1 = time.perf_counter()
            reply = json.loads(raw) if raw else {"ok": False, "error": "closed"}
            ok = _check_reply(unit, reply, checker, verified, problems)
            requests.append({"class": unit.job_class, "span": (t0, t1), "ok": ok})
            if timeline is not None:
                timeline.complete(
                    "request", t0, t1 - t0, cat="client", track=f"conn{i}",
                    job_id=reply.get("job_id", ""), exp_id=unit.exp_id,
                    mem_arch=unit.mem_arch, job_class=unit.job_class,
                    coalesced=bool(reply.get("coalesced")),
                )

    pass_spans = []
    start = time.perf_counter()
    for order in orders:
        work = iter(order)  # shared: each client takes the next request
        t0 = time.perf_counter()
        await asyncio.gather(*(client(i, r, w, work)
                               for i, (r, w) in enumerate(conns)))
        pass_spans.append((t0, time.perf_counter()))
        done = len(pass_spans) >= passes if passes else (
            time.perf_counter() - start >= seconds)
        if done:
            break
    reader, writer = conns[0]
    metrics = json.loads(await _request(reader, writer, b'{"op": "metrics"}\n'))
    for _, other in conns[1:]:
        other.close()
        await other.wait_closed()
    await _request(reader, writer, b'{"op": "shutdown"}\n')
    writer.close()
    await writer.wait_closed()
    return {"passes": pass_spans, "requests": requests, "problems": problems,
            "server_metrics": metrics["metrics"]}


async def _request(reader, writer, line: bytes) -> bytes:
    writer.write(line)
    await writer.drain()
    return await reader.readline()


def _check_reply(unit, reply: dict, checker, verified: dict, problems: list) -> bool:
    if not reply.get("ok"):
        problems.append(f"{unit.uid}: {reply.get('reason') or reply.get('error')}")
        return False
    payload = reply["result"]
    if verified.get(unit.uid) == payload:
        return True
    lines = checker.check(unit, result_from_payload(payload))
    if lines:
        problems.extend(lines)
        return False
    verified[unit.uid] = payload
    return True


def run_server(seed: int, seconds: float, checker, *,
               passes: int | None = None, trace: bool = False) -> dict:
    """Start a server, run serve passes against it, stop it.

    Untraced, passes repeat until ``seconds`` have elapsed; ``passes``
    fixes their number instead. With ``trace`` the server writes its
    Perfetto timeline and this client records one span per request.
    Times are returned as ``(start, end)`` spans.
    """
    out = HERE / "out"
    timeline_path = out / "serve-mixed.server.perfetto.json" if trace else None
    server = Server(ROOT, out / "serve-mixed.server.log", timeline_path)
    client_tl = None
    if trace:
        client_tl = Timeline(capacity=1 << 20, time_fn=time.perf_counter,
                             name="serve-client")
    try:
        orders = pass_orders(serve_pass_units(), seed)
        res = asyncio.run(_drive(server, orders, seconds, passes, checker, client_tl))
        server.wait_exit()
    finally:
        server.kill()
    res.update(setup=server.setup, peak_rss_mb=server.peak_rss_mb)
    if trace:
        res["perfetto"] = [
            str(export_perfetto([client_tl], out / "serve-mixed.client.perfetto.json")),
            str(timeline_path),
        ]
    return res


def probe_setup() -> tuple[float, float]:
    """Start a server, wait until it is ready, stop it; its set-up span."""
    server = Server(ROOT, HERE / "out" / "serve-mixed.server.log")
    try:
        server.stop()
    finally:
        server.kill()
    return server.setup


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--setups", type=int, required=True,
                   help="server starts whose set-up is measured (untraced)")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "serve-mixed.server.log").write_bytes(b"")  # this run's only
    # run.py ends an overrunning run with SIGTERM: unwind, so the server
    # is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    checker = Checker()
    probe = SpeedProbe()
    if args.trace:
        runs = [run_server(args.seed, args.seconds, checker, passes=1),
                run_server(args.seed, args.seconds, checker, passes=1, trace=True)]
        setups = []
    else:
        probe.start()
        # Set-up is sampled before and after the passes, so the median
        # spans the run rather than one moment of it.
        before = (args.setups - 1) // 2
        setups = [probe_setup() for _ in range(before)]
        runs = [run_server(args.seed, args.seconds, checker)]
        setups.append(runs[0]["setup"])
        setups += [probe_setup() for _ in range(args.setups - 1 - before)]
        probe.stop()
    seconds_of = probe.normalise if probe.samples else (lambda t0, t1: t1 - t0)
    for run in runs:
        del run["setup"]
        spans = run.pop("passes")
        run["pass_s"] = [seconds_of(*span) for span in spans]
        run["raw_pass_s"] = [t1 - t0 for t0, t1 in spans]
        for request in run["requests"]:
            request["latency_s"] = seconds_of(*request.pop("span"))
    print(json.dumps({"event": "done", "runs": runs,
                      "setup_s": [seconds_of(*span) for span in setups]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
