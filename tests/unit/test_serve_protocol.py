"""The JSON-lines wire protocol, driven the same way against both fronts.

One raw asyncio connection talks to a service behind ``serve_tcp`` (its
workers run ``test_serve_service``'s job body) and to the cluster gateway
behind ``serve_gateway_tcp`` (over ``test_cluster_gateway``'s fake
fleet). Every reply is checked field by field, so a change to the wire
format of either front fails here.
"""

import asyncio
import json
import multiprocessing

import pytest
from test_cluster_gateway import FakeFleet
from test_serve_service import _test_runner

import repro.cluster.gateway as gateway_mod
from repro.cluster import (
    AsyncReplicaConnection,
    Gateway,
    GatewayConfig,
    serve_gateway_tcp,
)
from repro.serve import ServiceConfig, SimulationService, serve_tcp

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="service workers rely on fork inheriting the test job body",
)

KNOWN = frozenset({"ok"})


@pytest.fixture(params=["serve_tcp", "serve_gateway_tcp"])
def front(request, monkeypatch):
    """``(unstarted front, its TCP server coroutine function)``."""
    if request.param == "serve_tcp":
        service = SimulationService(ServiceConfig(
            workers=1,
            capacity=8,
            runner_spec=f"{_test_runner.__module__}:_test_runner",
            metrics_interval=0.0,
            known_experiments=KNOWN,
        ))
        return service, serve_tcp
    fleet = FakeFleet()
    monkeypatch.setattr(
        gateway_mod, "LocalReplicaProcess", fleet.make_proc(fleet)
    )
    monkeypatch.setattr(
        gateway_mod, "AsyncReplicaConnection", fleet.make_conn(fleet)
    )
    gateway = Gateway(GatewayConfig(
        replicas=1, health_interval=0.0, cache=None, known_experiments=KNOWN,
    ))
    return gateway, serve_gateway_tcp


def converse(front, script, *, shuts_down=False):
    """Start ``front``, serve it on an OS-picked port, and return what
    ``script(send, recv)`` returns over one connection. With
    ``shuts_down`` the server must then stop by itself; otherwise it is
    cancelled, which also shuts the front down."""
    front, serve = front

    async def body():
        await front.start()
        ready = asyncio.get_running_loop().create_future()
        server = asyncio.ensure_future(serve(
            front, "127.0.0.1", 0,
            on_ready=lambda host, port: ready.set_result(port),
        ))
        port = await asyncio.wait_for(ready, 10)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def send(request) -> None:
            if not isinstance(request, bytes):
                request = json.dumps(request).encode()
            writer.write(request + b"\n")
            await writer.drain()

        async def recv() -> dict:
            return json.loads(await asyncio.wait_for(reader.readline(), 10))

        try:
            value = await script(send, recv)
            if shuts_down:
                await asyncio.wait_for(server, 10)
        finally:
            writer.close()
            if not server.done():
                server.cancel()
                await asyncio.gather(server, return_exceptions=True)
        return value

    return asyncio.run(body())


def ask(request):
    async def script(send, recv):
        await send(request)
        return await recv()

    return script


def test_ping(front):
    reply = converse(front, ask({"op": "ping"}))
    assert reply == {"ok": True, "op": "ping"}


def test_unknown_op(front):
    reply = converse(front, ask({"op": "frobnicate"}))
    assert reply == {"ok": False, "error": "unknown op 'frobnicate'"}


def test_bad_json_line(front):
    reply = converse(front, ask(b"{not json"))
    assert reply["ok"] is False
    assert reply["error"].startswith("bad json: ")


def test_submit_without_exp_id(front):
    reply = converse(front, ask({"op": "submit"}))
    assert reply == {"ok": False, "error": "missing field 'exp_id'"}


def test_rejected_submit(front):
    reply = converse(front, ask({"op": "submit", "exp_id": "nope"}))
    assert reply == {
        "ok": False,
        "rejected": True,
        "reason": "unknown experiment",
        "detail": "nope",
    }


def test_submit_reply_fields(front):
    reply = converse(front, ask({"op": "submit", "exp_id": "ok"}))
    assert reply["ok"] is True
    assert set(reply) == {"ok", "job_id", "coalesced", "cached", "result"}
    assert reply["coalesced"] is False and reply["cached"] is False


def test_pipelined_ids_each_get_their_reply(front):
    async def script(send, recv):
        await send({"op": "submit", "exp_id": "ok", "kwargs": {"n": 1},
                    "id": "a"})
        await send({"op": "submit", "exp_id": "ok", "kwargs": {"n": 2},
                    "id": "b"})
        return [await recv(), await recv()]

    replies = converse(front, script)
    assert sorted(reply["id"] for reply in replies) == ["a", "b"]
    assert all(reply["ok"] and "result" in reply for reply in replies)
    assert replies[0]["job_id"] != replies[1]["job_id"]


def test_shutdown_replies_then_drains(front):
    async def script(send, recv):
        await send({"op": "submit", "exp_id": "ok",
                    "kwargs": {"delay": 0.2}, "wait": False})
        queued = await recv()
        await send({"op": "shutdown"})
        return queued, await recv()

    queued, reply = converse(front, script, shuts_down=True)
    assert queued["ok"] and "result" not in queued
    assert reply == {"ok": True, "op": "shutdown"}
    service = front[0]
    assert service.queue.closed
    snap = service.metrics_snapshot()
    assert snap["jobs"]["completed"] == 1  # the queued job was delivered
    assert snap["in_flight"] == 0


def test_cluster_op_only_on_the_gateway(front):
    reply = converse(front, ask({"op": "cluster"}))
    if isinstance(front[0], Gateway):
        assert reply["ok"] is True
        assert reply["ring"] == ["r0"]
        assert set(reply) == {
            "ok", "ring", "replicas", "replica_metrics", "shared_cache",
        }
    else:
        assert reply == {"ok": False, "error": "unknown op 'cluster'"}


# ----------------------------------------------------------------------
# The gateway's replica link (client side)
# ----------------------------------------------------------------------


class _Wire:
    """Writer half of a replica link: records each request sent."""

    def __init__(self):
        self.sent = []

    def write(self, data: bytes) -> None:
        self.sent.append(json.loads(data))

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def _reply_line(request_id, **fields) -> bytes:
    return json.dumps({"id": request_id, "ok": True, **fields}).encode() + b"\n"


def test_replica_link_delivers_a_cancel_that_races_the_reply():
    # The gateway stops its health loop by cancelling it, possibly while a
    # ping is out. If the ping's reply lands in the same loop pass as the
    # cancel, the request must still end cancelled, or the loop outlives
    # the cancel and Gateway.stop() waits on it forever.
    async def body():
        reader, wire = asyncio.StreamReader(), _Wire()
        link = AsyncReplicaConnection(reader, wire)
        ping = asyncio.create_task(link.request({"op": "ping"}, timeout=5.0))
        await asyncio.sleep(0)  # sent; now waiting for the reply
        (sent,) = wire.sent
        reader.feed_data(_reply_line(sent["id"], op="ping"))
        ping.cancel()
        with pytest.raises(asyncio.CancelledError):
            await ping
        assert link.in_flight == 0
        await link.close()

    asyncio.run(body())


def test_replica_link_times_out_then_ignores_the_late_reply():
    async def body():
        reader, wire = asyncio.StreamReader(), _Wire()
        link = AsyncReplicaConnection(reader, wire)
        with pytest.raises(asyncio.TimeoutError):
            await link.request({"op": "ping"}, timeout=0.01)
        assert link.in_flight == 0
        reader.feed_data(_reply_line(wire.sent[0]["id"], op="ping"))
        ping = asyncio.create_task(link.request({"op": "ping"}, timeout=5.0))
        await asyncio.sleep(0)
        reader.feed_data(_reply_line(wire.sent[1]["id"], op="ping"))
        assert (await ping)["op"] == "ping"
        assert not link.closed
        await link.close()

    asyncio.run(body())
