"""One TCP peer layer at both ends of the real backend.

:class:`~repro.runtime.transport.TcpTransport` does the ``hello``
handshake, the frame pump and ``send`` for the coordinator front-end
(which dials) and for every site (whose :class:`SiteServer` accepts).
These tests drive both ends over loopback sockets in-process, plus the
standalone ``repro serve`` site process.
"""

import asyncio
import os
import re
import sys
from pathlib import Path

import pytest

import repro
from repro.runtime.codec import MAX_FRAME_BYTES, read_frame, write_frame
from repro.runtime.siteserver import SiteServer
from repro.runtime.transport import TcpTransport
from repro.sim.messages import ReadReply, ReadRequest
from repro.sim.replica import Timestamp

SRC = str(Path(repro.__file__).resolve().parents[1])
HOST = "127.0.0.1"


class _Inbox:
    """A coordinator stand-in: collects whatever the transport delivers."""

    up = True

    def __init__(self) -> None:
        self.received = []

    def receive(self, message) -> None:
        self.received.append(message)


async def _until(predicate, timeout: float = 5.0) -> None:
    async def poll():
        while not predicate():
            await asyncio.sleep(0.005)

    await asyncio.wait_for(poll(), timeout)


def _run_against_site(scenario, sid: int = 0) -> None:
    """Run ``scenario(server, transport, inbox)`` with a started site
    ``sid`` and an undialed front-end transport (SID -1) to it."""

    async def main():
        server = SiteServer(sid)
        await server.start()
        transport = TcpTransport(-1)
        inbox = _Inbox()
        transport.register(-1, inbox)
        try:
            await scenario(server, transport, inbox)
        finally:
            await transport.close()
            await server.stop()

    asyncio.run(main())


def test_an_unencodable_reply_drops_one_frame_and_keeps_the_connection():
    async def scenario(server, transport, inbox):
        await transport.connect(0, HOST, server.port)
        store = server.site.store
        store.apply_write("big", "x" * MAX_FRAME_BYTES, Timestamp(1, 0))
        store.apply_write("small", "v", Timestamp(1, 0))
        transport.send(ReadRequest(-1, 0, key="big", request_id=1))
        transport.send(ReadRequest(-1, 0, key="small", request_id=2))
        await _until(lambda: inbox.received)
        [reply] = inbox.received
        assert isinstance(reply, ReadReply)
        assert (reply.key, reply.value) == ("small", "v")
        assert server.transport.stats.dropped_dead == 1
        assert transport.is_live(0)

    _run_against_site(scenario)


def test_dialer_rejects_a_peer_announcing_another_sid():
    async def scenario(server, transport, inbox):
        with pytest.raises(ConnectionError, match="announced 3"):
            await transport.connect(4, HOST, server.port)
        assert not transport.is_live(4)

    _run_against_site(scenario, sid=3)


@pytest.mark.parametrize(
    "first_frame",
    [
        {"kind": "msg", "type": "ReadRequest"},
        {"kind": "hello", "sid": "7"},
        {"kind": "hello"},
    ],
    ids=["protocol-message", "string-sid", "no-sid"],
)
def test_acceptor_refuses_a_first_frame_that_is_not_a_hello(first_frame):
    async def scenario(server, transport, inbox):
        reader, writer = await asyncio.open_connection(HOST, server.port)
        try:
            write_frame(writer, first_frame)
            # Refused: the site closes the connection without answering.
            assert await asyncio.wait_for(read_frame(reader), 5.0) is None
        finally:
            writer.close()
            await writer.wait_closed()

    _run_against_site(scenario)


def test_crashed_site_refuses_a_hello_and_serves_again_after_recover():
    async def scenario(server, transport, inbox):
        server.crash()
        with pytest.raises(ConnectionError):
            await asyncio.wait_for(
                transport.connect(0, HOST, server.port), 5.0
            )
        assert not transport.is_live(0)
        server.recover()
        await transport.connect(0, HOST, server.port)
        transport.send(ReadRequest(-1, 0, key="k", request_id=1))
        await _until(lambda: inbox.received)
        [reply] = inbox.received
        assert isinstance(reply, ReadReply) and reply.request_id == 1

    _run_against_site(scenario)


def test_repro_serve_answers_a_dialer_and_exits_on_sigterm():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing

    async def main():
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "serve", "--sid", "3",
            "--port", "0",
            env=env, stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.PIPE,
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), 30.0)
            match = re.fullmatch(rb"REPRO-SITE sid=3 port=(\d+)\n", line)
            assert match, line
            transport = TcpTransport(-1)
            inbox = _Inbox()
            transport.register(-1, inbox)
            try:
                await transport.connect(3, HOST, int(match[1]))
                transport.send(ReadRequest(-1, 3, key="k", request_id=9))
                await _until(lambda: inbox.received)
            finally:
                await transport.close()
            [reply] = inbox.received
            assert isinstance(reply, ReadReply) and reply.request_id == 9
            proc.terminate()
            await asyncio.wait_for(proc.wait(), 10.0)  # it exits
        finally:
            if proc.returncode is None:
                proc.kill()
                await proc.wait()

    asyncio.run(main())
