"""One replica site served over TCP — the site-process entry point.

``python -m repro.runtime.siteserver --sid N`` and ``repro serve --sid
N`` both run :func:`main`; a cluster's launcher forks its sites in
:func:`launch`.  What this module imports is a site process's whole
import budget, so it must not reach :mod:`repro.cli`,
:mod:`repro.quorums.load` or :mod:`repro.sim.engine`.

A :class:`SiteServer` owns a *real* :class:`repro.sim.site.Site` — the
same class the simulator runs, with its versioned store, 2PC prepare log
and recovery protocol — and exposes it on a listening socket.  The site
itself is wired to a :class:`_SitePeerTransport`, a seam implementation
whose ``send`` routes outbound messages (replies, votes, acks, recovery
``DecisionRequest``\\ s) to whichever connection the destination SID
arrived on.

Connection protocol: a connecting peer (the coordinator front-end) first
sends a ``hello`` control frame carrying its own SID; every later frame
is a protocol message for this site.  Replies flow back on the same
connection.  A peer that disconnects is forgotten — messages to it drop,
exactly like the simulator's delivery-time liveness check.

Crash injection: the *real* chaos mode SIGKILLs the whole process (see
:mod:`repro.runtime.cluster`).  For in-process tests, :meth:`crash`
models the same observable event — the site stops answering and its
connections drop — while :meth:`recover` restores service with stable
storage intact and runs the site's 2PC termination protocol.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys
from collections.abc import Sequence
from typing import Any

from repro.runtime.clock import AsyncClock
from repro.runtime.codec import (
    CodecError,
    decode_message,
    encode_message,
    read_frame,
    write_frame,
)
from repro.runtime.interfaces import Clock, Endpoint
from repro.sim.site import Site


class _SitePeerTransport:
    """The seam as seen from inside one site process.

    Outbound routing is by destination SID -> live connection; liveness
    epochs are a local counter (each process observes its own site's
    transitions — remote liveness is the coordinator transport's job).
    """

    def __init__(self, clock: Clock, server: "SiteServer") -> None:
        self._clock = clock
        self._server = server
        self._endpoints: dict[int, Endpoint] = {}
        self._liveness_epoch = 0

    @property
    def clock(self) -> Clock:
        return self._clock

    def register(self, sid: int, endpoint: Endpoint) -> None:
        if sid in self._endpoints:
            raise ValueError(f"SID {sid} already registered")
        self._endpoints[sid] = endpoint

    def current_liveness_epoch(self) -> int:
        return self._liveness_epoch

    def bump_liveness_epoch(self) -> None:
        self._liveness_epoch += 1

    def send(self, message: Any) -> None:
        self._server.route(message)

    def broadcast(self, messages: list) -> None:
        for message in messages:
            self.send(message)


class SiteServer:
    """Serve one replica site on a TCP port."""

    def __init__(
        self,
        sid: int,
        host: str = "127.0.0.1",
        port: int = 0,
        service_time: float = 0.0,
    ) -> None:
        self.sid = sid
        self._host = host
        self._port = port
        self._service_time = service_time
        self._server: asyncio.base_events.Server | None = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._accepting = True
        self.site: Site | None = None
        self.transport: _SitePeerTransport | None = None

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when ``port=0``)."""
        return self._port

    async def start(self) -> None:
        """Bind the socket and wire the site to the peer transport."""
        clock = AsyncClock(asyncio.get_running_loop())
        self.transport = _SitePeerTransport(clock, self)
        self.site = Site(
            self.sid, self.transport, service_time=self._service_time
        )
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drop every connection, release the port."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._drop_connections()
        for task in list(self._conn_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    # -- crash / recovery (in-process fault injection) -----------------

    def crash(self) -> None:
        """Fail-stop the site and sever its connections.

        Observably identical to SIGKILL from the coordinator's side: the
        connection drops and nothing answers until :meth:`recover`.
        """
        self._accepting = False
        assert self.site is not None
        self.site.crash()
        self._drop_connections()

    def recover(self) -> None:
        """Resume service (stable storage intact, 2PC termination runs)."""
        self._accepting = True
        assert self.site is not None
        self.site.recover()

    def _drop_connections(self) -> None:
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()

    # -- outbound ------------------------------------------------------

    def route(self, message: Any) -> None:
        """Deliver an outbound protocol message to its peer connection."""
        writer = self._writers.get(message.dst)
        if writer is None or writer.is_closing():
            return  # peer gone: drop, the quorum layer tolerates loss
        try:
            write_frame(writer, encode_message(message))
        except (ConnectionError, CodecError):
            self._writers.pop(message.dst, None)

    # -- inbound -------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        peer_sid: int | None = None
        try:
            hello = await read_frame(reader)
            if (
                not self._accepting
                or hello is None
                or hello.get("kind") != "hello"
                or not isinstance(hello.get("sid"), int)
            ):
                return
            peer_sid = hello["sid"]
            self._writers[peer_sid] = writer
            write_frame(writer, {"kind": "hello", "sid": self.sid})
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                if frame.get("kind") != "msg":
                    continue  # control frames are not for the site
                message = decode_message(frame)
                if self._accepting:
                    assert self.site is not None
                    self.site.receive(message)
        except (ConnectionError, CodecError, asyncio.CancelledError):
            return
        finally:
            if peer_sid is not None and self._writers.get(peer_sid) is writer:
                del self._writers[peer_sid]
            writer.close()


def _report(line: str) -> None:
    """One line on stdout in one write: a launcher's sites share the pipe."""
    with contextlib.suppress(BrokenPipeError):  # the reader is gone
        os.write(1, f"{line}\n".encode())


async def serve_site(
    sid: int,
    host: str = "127.0.0.1",
    port: int = 0,
    service_time: float = 0.0,
) -> None:
    """Run one site process until cancelled (see :func:`main`).

    Prints ``REPRO-SITE sid=<sid> port=<port>`` once the socket is bound
    so a parent orchestrator can scrape the ephemeral port.
    """
    server = SiteServer(sid, host=host, port=port, service_time=service_time)
    await server.start()
    _report(f"REPRO-SITE sid={sid} port={server.port}")
    try:
        await asyncio.Event().wait()  # serve until cancelled/killed
    finally:
        await server.stop()


def _reap(children: dict[int, int], flags: int) -> None:
    """Report each exited site's rc.  A SIGCHLD may rerun this inside
    itself, and the inner run may reap the last child: hence ECHILD."""
    while children:
        try:
            pid, status = os.waitpid(-1, flags)
        except ChildProcessError:
            return
        if pid == 0:
            return
        rc = os.waitstatus_to_exitcode(status)
        _report(f"REPRO-EXIT sid={children.pop(pid)} pid={pid} rc={rc}")


def launch() -> None:
    """A cluster's launcher (``sys.argv[1:]``: the host, then the SIDs).

    Forks every site before any thread or event loop exists.  Each site
    writes ``REPRO-FORK sid= pid=`` before announcing; the launcher writes
    ``REPRO-EXIT sid= pid= rc=`` as it reaps one, and at EOF on stdin (the
    driver stopped or died) SIGKILLs and reaps every site left."""
    host, *sids = sys.argv[1:]
    children: dict[int, int] = {}  # pid -> SID, until reaped
    for sid in map(int, sids):
        if (pid := os.fork()) == 0:
            try:
                _report(f"REPRO-FORK sid={sid} pid={os.getpid()}")
                asyncio.run(serve_site(sid, host=host))
            finally:
                os._exit(1)
        children[pid] = sid
    signal.signal(signal.SIGCHLD, lambda *_: _reap(children, os.WNOHANG))
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # outlive Ctrl-C to reap
    _reap(children, os.WNOHANG)  # sites that exited before the handler
    while os.read(0, 512):
        pass
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    for pid in children:  # unreaped, so no pid here is reused yet
        os.kill(pid, signal.SIGKILL)
    _reap(children, 0)


def main(argv: Sequence[str] | None = None, prog: str | None = None) -> int:
    """Parse the site flags — defined here and nowhere else — and serve."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="run ONE replica site as a real TCP server (the "
                    "runtime backend's per-process entry point)",
    )
    parser.add_argument("--sid", type=int, required=True,
                        help="this site's replica SID (>= 0)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral; the bound port is announced on "
             "stdout as 'REPRO-SITE sid=... port=...')",
    )
    parser.add_argument(
        "--service-time", type=float, default=0.0,
        help="artificial per-message processing delay in seconds",
    )
    args = parser.parse_args(argv)
    try:
        asyncio.run(
            serve_site(
                args.sid,
                host=args.host,
                port=args.port,
                service_time=args.service_time,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
