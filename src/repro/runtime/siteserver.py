"""One replica site served over TCP — the site-process entry point.

``python -m repro.runtime.siteserver --sid N`` and ``repro serve --sid
N`` both run :func:`main`; a cluster's launcher forks its sites in
:func:`launch`.  What this module imports is a site process's whole
import budget, so it must not reach :mod:`repro.cli`,
:mod:`repro.quorums.load` or :mod:`repro.sim.engine`.

A :class:`SiteServer` owns a *real* :class:`repro.sim.site.Site` — the
same class the simulator runs, with its versioned store, 2PC prepare log
and recovery protocol — registered on a
:class:`~repro.runtime.transport.TcpTransport` whose
:meth:`~repro.runtime.transport.TcpTransport.accept` serves the listening
socket.  That transport is the same class the coordinator front-end dials
with, so the ``hello`` handshake, the frame pump, ``send`` and the
per-peer connection table are one piece of code at both ends: a peer
(the coordinator front-end) first sends a ``hello`` carrying its own
SID, and every outbound message of the site (replies, votes, acks,
recovery ``DecisionRequest``\\ s) goes back on the connection its
destination SID arrived on.  A peer that disconnects is forgotten —
messages to it drop, exactly like the simulator's delivery-time liveness
check.

Crash injection: the *real* chaos mode SIGKILLs the whole process (see
:mod:`repro.runtime.cluster`).  For in-process tests, :meth:`crash`
models the same observable event — the site stops answering, its
connections drop and a new ``hello`` is refused — while :meth:`recover`
restores service with stable storage intact and runs the site's 2PC
termination protocol.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys
from collections.abc import Sequence

from repro.runtime.transport import TcpTransport
from repro.sim.site import Site


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
        self.site: Site | None = None
        self.transport: TcpTransport | None = None

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when ``port=0``)."""
        return self._port

    async def start(self) -> None:
        """Wire the site to its transport and bind the listening socket."""
        self.transport = TcpTransport(local_sid=self.sid)
        self.site = Site(
            self.sid, self.transport, service_time=self._service_time
        )
        self._server = await asyncio.start_server(
            self.transport.accept, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drop every connection, release the port."""
        if self._server is not None:
            self._server.close()
            await self.transport.close()
            await self._server.wait_closed()
            self._server = None

    # -- crash / recovery (in-process fault injection) -----------------

    def crash(self) -> None:
        """Fail-stop the site and sever its connections.

        Observably identical to SIGKILL from the coordinator's side: the
        connection drops and nothing answers until :meth:`recover`.
        """
        assert self.site is not None and self.transport is not None
        self.site.crash()
        self.transport.disconnect_all()

    def recover(self) -> None:
        """Resume service (stable storage intact, 2PC termination runs)."""
        assert self.site is not None
        self.site.recover()


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
