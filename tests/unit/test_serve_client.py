"""ServeClient reconnect-with-backoff: idempotent ops are replayed over
a fresh connection when the server drops mid-request (a replica killed
and respawned by the cluster gateway); non-idempotent ops fail fast."""

import json
import socket
import threading

import pytest

from repro.serve.protocol import IDEMPOTENT_OPS, ServeClient


def _flaky_server(listener: socket.socket, drop_first: int) -> None:
    """Close the first ``drop_first`` connections after one request
    without replying; serve every later connection normally."""
    conns = 0
    while True:
        try:
            sock, _ = listener.accept()
        except OSError:
            return  # listener closed: test over
        conns += 1
        # The makefile must be closed too, or the fd (and thus the FIN
        # the client is waiting for) outlives the ``with sock`` block.
        with sock, sock.makefile("rwb") as f:
            while True:
                line = f.readline()
                if not line:
                    break
                if conns <= drop_first:
                    break  # hang up mid-request, no reply
                request = json.loads(line)
                f.write(
                    json.dumps(
                        {"ok": True, "op": request.get("op")}
                    ).encode() + b"\n"
                )
                f.flush()


@pytest.fixture
def flaky_port():
    listener = socket.create_server(("127.0.0.1", 0))
    thread = threading.Thread(
        target=_flaky_server, args=(listener, 1), daemon=True
    )
    thread.start()
    yield listener.getsockname()[1]
    listener.close()


def test_idempotent_request_survives_a_dropped_connection(flaky_port):
    with ServeClient(
        "127.0.0.1", flaky_port, reconnect_backoff=0.01
    ) as client:
        reply = client.request({"op": "ping"})
        assert reply == {"ok": True, "op": "ping"}
        assert client.reconnects == 1
        # The healthy connection is reused afterwards.
        assert client.ping()
        assert client.reconnects == 1


def test_submit_is_idempotent_by_default(flaky_port):
    assert "submit" in IDEMPOTENT_OPS
    with ServeClient(
        "127.0.0.1", flaky_port, reconnect_backoff=0.01
    ) as client:
        reply = client.submit("fig3", {"scale": 0.1})
        assert reply["ok"]
        assert client.reconnects == 1


def test_non_idempotent_op_fails_fast(flaky_port):
    with ServeClient(
        "127.0.0.1", flaky_port, reconnect_backoff=0.01
    ) as client:
        with pytest.raises((ConnectionError, OSError)):
            client.request({"op": "shutdown"})
        assert client.reconnects == 0


def test_explicit_idempotent_override_replays(flaky_port):
    with ServeClient(
        "127.0.0.1", flaky_port, reconnect_backoff=0.01
    ) as client:
        reply = client.request({"op": "shutdown"}, idempotent=True)
        assert reply["ok"]
        assert client.reconnects == 1


def test_reconnect_budget_exhausted_raises():
    listener = socket.create_server(("127.0.0.1", 0))
    thread = threading.Thread(
        target=_flaky_server, args=(listener, 10**6), daemon=True
    )
    thread.start()
    try:
        with ServeClient(
            "127.0.0.1", listener.getsockname()[1],
            reconnects=2, reconnect_backoff=0.01,
        ) as client:
            with pytest.raises((ConnectionError, OSError)):
                client.request({"op": "ping"})
            assert client.reconnects == 2
    finally:
        listener.close()
