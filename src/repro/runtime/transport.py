"""The TCP transport: the seam over real sockets, at both ends.

A :class:`TcpTransport` is the real backend's only TCP peer layer.  The
coordinator front-end dials every site with :meth:`~TcpTransport.connect`;
each site's :class:`~repro.runtime.siteserver.SiteServer` hands
:meth:`~TcpTransport.accept` to ``asyncio.start_server``.  Either end
keeps one connection per peer SID and implements the transport seam the
protocol layer speaks:

* the first frame each way is a ``hello`` carrying the sender's SID,
  validated by :func:`_read_hello` at both ends; the listening end
  answers only while its local endpoint is up;
* ``send``/``broadcast`` encode protocol messages as length-prefixed
  JSON frames onto the destination's connection — a message to a dead or
  never-connected peer, or one that cannot be encoded, is dropped and
  counted without touching the connection: the loss the quorum
  timeout/retry machinery exists to absorb;
* inbound frames are decoded and handed to the registered local endpoint
  if it is up — delivery order per peer is the socket's FIFO;
* connection loss marks the peer dead, bumps the liveness epoch (so
  cached live-sets and leases invalidate) and feeds :meth:`is_live`,
  which is the runtime's liveness oracle: a SIGKILLed site's socket
  drops within the OS's RST/FIN handling and quorum selection routes
  around it on the next attempt.

Reconnection is explicit (:meth:`connect` again) — policy belongs to the
operator/cluster layer, not the transport.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass
from typing import Any

from repro.runtime.clock import AsyncClock
from repro.runtime.codec import (
    CodecError,
    decode_message,
    encode_message,
    read_frame,
    write_frame,
)
from repro.runtime.interfaces import Endpoint


@dataclass
class TransportStats:
    """Delivery counters (mirrors the simulator's ``NetworkStats`` shape)."""

    sent: int = 0
    delivered: int = 0
    dropped_dead: int = 0
    disconnects: int = 0


async def _read_hello(reader: asyncio.StreamReader) -> int | None:
    """The SID a peer's first frame announces, or ``None`` unless that
    frame is a ``hello`` with an ``int`` SID."""
    try:
        hello = await read_frame(reader)
    except (ConnectionError, CodecError):
        return None
    if hello is None or hello.get("kind") != "hello":
        return None
    sid = hello.get("sid")
    return sid if isinstance(sid, int) else None


class TcpTransport:
    """The transport seam over one-connection-per-peer TCP."""

    def __init__(self, local_sid: int = -1) -> None:
        self._clock = AsyncClock(asyncio.get_event_loop())
        #: SID announced in the ``hello`` handshake; the peer routes
        #: messages addressed to it back on this transport's connection.
        self.local_sid = local_sid
        self._endpoints: dict[int, Endpoint] = {}
        self._writers: dict[int, asyncio.StreamWriter] = {}
        #: Handshakes and pumps still running, cancelled by :meth:`close`.
        self._tasks: set[asyncio.Task] = set()
        self._liveness_epoch = 0
        self.stats = TransportStats()

    @property
    def clock(self) -> AsyncClock:
        """The wall clock protocol timeouts run on."""
        return self._clock

    # -- registry ------------------------------------------------------

    def register(self, sid: int, endpoint: Endpoint) -> None:
        """Attach a local endpoint (a coordinator or a site) under ``sid``."""
        if sid in self._endpoints:
            raise ValueError(f"SID {sid} already registered")
        self._endpoints[sid] = endpoint

    def endpoint(self, sid: int) -> Endpoint:
        """Look up a registered local endpoint."""
        return self._endpoints[sid]

    # -- liveness ------------------------------------------------------

    def is_live(self, sid: int) -> bool:
        """The runtime liveness oracle: a usable connection exists."""
        writer = self._writers.get(sid)
        return writer is not None and not writer.is_closing()

    @property
    def liveness_epoch(self) -> int:
        """Counter bumped on every connect/disconnect."""
        return self._liveness_epoch

    def current_liveness_epoch(self) -> int:
        """Bound-method accessor for :attr:`liveness_epoch`."""
        return self._liveness_epoch

    def bump_liveness_epoch(self) -> None:
        """Invalidate cached live-set views."""
        self._liveness_epoch += 1

    # -- connections ---------------------------------------------------

    async def connect(
        self,
        sid: int,
        host: str,
        port: int,
        deadline: float = 5.0,
        retry_delay: float = 0.05,
    ) -> None:
        """Dial site ``sid``, retrying until ``deadline`` wall seconds.

        Retries absorb the race where the site process has announced its
        port but the accept loop is not up yet.
        """
        start = self._clock.now
        while True:
            try:
                reader, writer = await asyncio.open_connection(host, port)
                break
            except (ConnectionError, OSError):
                if self._clock.now - start > deadline:
                    raise
                await asyncio.sleep(retry_delay)
        try:
            write_frame(writer, {"kind": "hello", "sid": self.local_sid})
            peer = await _read_hello(reader)
        except asyncio.CancelledError:
            writer.close()
            raise
        if peer != sid:
            writer.close()
            raise ConnectionError(
                f"dialed site {sid} but peer announced {peer}"
            )
        old = self._writers.get(sid)
        if old is not None:
            old.close()
        self._writers[sid] = writer
        self.bump_liveness_epoch()
        pump = self._pump(sid, reader, writer)
        self._track(asyncio.get_running_loop().create_task(pump))

    async def accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The listening end (the ``asyncio.start_server`` callback).

        Answers a peer's ``hello`` only while the local endpoint is up,
        then pumps the connection exactly like a dialed one.
        """
        self._track(asyncio.current_task())
        try:
            peer = await _read_hello(reader)
            local = self._endpoints.get(self.local_sid)
            if peer is None or local is None or not local.up:
                return
            write_frame(writer, {"kind": "hello", "sid": self.local_sid})
            self._writers[peer] = writer
            self.bump_liveness_epoch()
            await self._pump(peer, reader, writer)
        finally:
            writer.close()

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _pump(
        self,
        sid: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Per-connection inbound loop: frame -> message -> endpoint."""
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                if frame.get("kind") != "msg":
                    continue
                message = decode_message(frame)
                endpoint = self._endpoints.get(message.dst)
                if endpoint is None or not endpoint.up:
                    continue
                self.stats.delivered += 1
                endpoint.receive(message)
        except (ConnectionError, CodecError):
            return
        finally:
            if self._writers.get(sid) is writer:
                del self._writers[sid]
                self.stats.disconnects += 1
                self.bump_liveness_epoch()
            writer.close()

    def disconnect_all(self) -> None:
        """Close every connection; each pump then ends on its EOF."""
        for writer in self._writers.values():
            writer.close()

    async def close(self) -> None:
        """Drop every connection and cancel the handshakes and pumps."""
        self.disconnect_all()
        self._writers.clear()
        for task in list(self._tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    # -- delivery ------------------------------------------------------

    def send(self, message: Any) -> None:
        """Frame and queue one protocol message (drops if the peer is gone
        or the message cannot be encoded)."""
        self.stats.sent += 1
        writer = self._writers.get(message.dst)
        if writer is None or writer.is_closing():
            self.stats.dropped_dead += 1
            return
        try:
            write_frame(writer, encode_message(message))
        except (ConnectionError, CodecError):
            self.stats.dropped_dead += 1

    def broadcast(self, messages: list) -> None:
        """Send a batch in order (per-destination FIFO is the socket's)."""
        for message in messages:
            self.send(message)
