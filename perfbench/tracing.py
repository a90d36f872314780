"""Spans and counts recorded around the program's layer entry points.

Tracing lives in the benchmark, not in the program: :func:`installed`
replaces public entry points of each layer with timing wrappers for the
duration of a ``with`` block and restores them afterwards.  Wrappers go
on the *classes* before anything is constructed, because hot paths keep
bound methods (the coordinator's dispatch table, partial callbacks).

A span has a name, start and end (``perf_counter_ns``), the span open
around it when it began (its parent) and the operation it serves.  A
layer's self time is its span's duration minus the time its child spans
cover.  Operation ids are the benchmark's own: each coordinator
submission opens a new one, requests remember the op that sent them, and
replies and lock grants inherit it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import types
from collections import defaultdict
from pathlib import Path

from repro.runtime import cluster as cluster_mod
from repro.runtime import codec as codec_mod
from repro.runtime import transport as transport_mod
from repro.sim.coordinator import QuorumCoordinator
from repro.sim.locks import LockManager
from repro.sim.messages import (
    AckMessage,
    CommitMessage,
    PrepareMessage,
    ReadReply,
    ReadRequest,
    VersionReply,
    VersionRequest,
    VoteMessage,
)
from repro.sim.network import Network
from repro.sim.site import Site

#: Request type -> round name, and reply type -> the round it answers.
ROUNDS = {
    ReadRequest: "read", VersionRequest: "version",
    PrepareMessage: "prepare", CommitMessage: "commit",
}
REPLIES = {
    ReadReply: "read", VersionReply: "version",
    VoteMessage: "prepare", AckMessage: "commit",
}

#: Spans kept for the span file; aggregates always cover every span.
MAX_KEPT_SPANS = 50_000

_now = time.perf_counter_ns


def _message_id(message):
    request_id = getattr(message, "request_id", None)
    if request_id is not None:
        return request_id
    return getattr(message, "txid", None)


class Tracer:
    """Span stack, per-name aggregates and counters for one phase."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        #: name -> [calls, total ns, self ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []
        self._next_span = 0
        self._next_op = 0
        #: (round, message id, site) -> send time in ns
        self._requests: dict[tuple, int] = {}
        #: message id -> op id, for replies.
        self._op_of_id: dict[int, int] = {}

    # -- spans -------------------------------------------------------------

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    @property
    def current_op(self):
        return self._stack[-1][4] if self._stack else None

    def enter(self, name: str, op=None) -> None:
        self._next_span += 1
        if op is None and self._stack:
            op = self._stack[-1][4]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_span, name, _now(), 0, op, parent])

    def exit(self) -> None:
        span_id, name, start, child, op, parent = self._stack.pop()
        end = _now()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, name, start, end, parent, op))
        else:
            self.dropped_spans += 1

    def wrap(self, name: str, fn, op_of=None):
        """``fn`` inside a span; ``op_of(*args)`` may name its operation."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, op_of(*args) if op_of is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    # -- per-layer figures -------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.totals[name][0] for name in names)

    def self_us(self, *names: str, per: int | None = None) -> float:
        """Summed self time of ``names`` in µs, per call unless ``per``."""
        total = sum(self.totals[name][2] for name in names)
        base = per if per is not None else self.calls(names[0])
        return total / 1e3 / base if base else 0.0

    def note_request(self, message) -> None:
        round_name = ROUNDS.get(type(message))
        if round_name is None:
            return
        ident = _message_id(message)
        self._requests[(round_name, ident, message.dst)] = _now()
        self._op_of_id[ident] = self.current_op

    def note_reply(self, message) -> None:
        round_name = REPLIES.get(type(message))
        if round_name is None:
            return
        sent = self._requests.pop(
            (round_name, _message_id(message), message.src), None
        )
        if sent is not None:
            self.samples[f"rtt.{round_name}"].append((_now() - sent) / 1e6)

    def op_of_message(self, message):
        return self._op_of_id.get(_message_id(message))

    def write_spans(self, path: Path, meta: dict) -> None:
        """One JSON line per kept span, self time included."""
        child: dict[int, int] = defaultdict(int)
        for span_id, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"meta": meta,
                                  "dropped_spans": self.dropped_spans}) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op": op,
                    "self_ns": end - start - child[span_id],
                }) + "\n")


def _patch(patches: list, owner, attr: str, value) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced entry point for the ``with`` block."""
    patches: list = []
    t = tracer

    # Coordinator: submissions open an operation, replies inherit one.
    submit = lambda self, *a, **k: t.new_op()  # noqa: E731
    _patch(patches, QuorumCoordinator, "read",
           t.wrap("coordinator.submit", QuorumCoordinator.read, submit))
    _patch(patches, QuorumCoordinator, "write",
           t.wrap("coordinator.submit", QuorumCoordinator.write, submit))
    receive = QuorumCoordinator.receive

    def coordinator_receive(self, message):
        t.note_reply(message)
        return receive(self, message)

    _patch(patches, QuorumCoordinator, "receive",
           t.wrap("coordinator.receive", coordinator_receive,
                  lambda self, message: t.op_of_message(message)))
    # The batching stage has no public entry point: its flush is the hook.
    flush = QuorumCoordinator._flush_batch

    def flush_batch(self):
        t.counts["batch.rounds"] += 1
        t.counts["batch.ops"] += len(self._batch)
        return flush(self)

    _patch(patches, QuorumCoordinator, "_flush_batch", flush_batch)

    # Lock manager: wall time from acquire to the grant callback.
    acquire = LockManager.acquire

    def lock_acquire(self, txid, key, mode, callback):
        t.counts["locks.acquired"] += 1
        op, asked = t.current_op, _now()

        def granted(ok):
            t.samples["locks.wait"].append((_now() - asked) / 1e6)
            t.enter("locks.grant", op)
            try:
                return callback(ok)
            finally:
                t.exit()

        return acquire(self, txid, key, mode, granted)

    _patch(patches, LockManager, "acquire",
           t.wrap("locks.acquire", lock_acquire))

    # Simulated network and sites.
    send = Network.send
    broadcast = Network.broadcast
    depth = [0]

    def network_send(self, message):
        if not depth[0]:
            t.counts["network.sent"] += 1
        return send(self, message)

    def network_broadcast(self, messages):
        messages = list(messages)
        t.counts["network.sent"] += len(messages)
        depth[0] += 1
        try:
            return broadcast(self, messages)
        finally:
            depth[0] -= 1

    _patch(patches, Network, "send", t.wrap("network.send", network_send))
    _patch(patches, Network, "broadcast",
           t.wrap("network.send", network_broadcast))
    _patch(patches, Site, "receive", t.wrap("site.receive", Site.receive))

    # Real transport, and the codec as the transport module imports it.
    tcp = transport_mod.TcpTransport
    tcp_send = tcp.send

    def transport_send(self, message):
        t.counts["transport.sent"] += 1
        t.note_request(message)
        return tcp_send(self, message)

    _patch(patches, tcp, "send", t.wrap("transport.send", transport_send))
    _patch(patches, transport_mod, "encode_message",
           t.wrap("codec.encode", transport_mod.encode_message))
    _patch(patches, transport_mod, "decode_message",
           t.wrap("codec.decode", transport_mod.decode_message))
    _patch(patches, transport_mod, "write_frame",
           t.wrap("transport.write_frame", transport_mod.write_frame))
    encode_frame = codec_mod.encode_frame

    def frame(obj):
        data = encode_frame(obj)
        t.counts["codec.bytes_out"] += len(data)
        return data

    _patch(patches, codec_mod, "encode_frame", t.wrap("codec.frame", frame))
    loads = json.loads

    def parse(text):
        t.counts["codec.bytes_in"] += len(text)
        return loads(text)

    _patch(patches, codec_mod, "json", types.SimpleNamespace(
        dumps=json.dumps, loads=t.wrap("codec.parse", parse),
        JSONDecodeError=json.JSONDecodeError,
    ))
    read_frame = transport_mod.read_frame

    async def counted_read_frame(reader):
        frame_obj = await read_frame(reader)
        if frame_obj is not None:
            t.counts["transport.frames_in"] += 1
        return frame_obj

    _patch(patches, transport_mod, "read_frame", counted_read_frame)

    # Cluster set-up: spawn and connect windows (concurrent per site).
    for owner, attr, label in (
        (cluster_mod.SiteProcess, "spawn", "cluster.spawn"),
        (tcp, "connect", "cluster.connect"),
    ):
        original = getattr(owner, attr)

        def timed(*args, _original=original, _label=label, **kwargs):
            async def run():
                began = time.perf_counter()
                try:
                    return await _original(*args, **kwargs)
                finally:
                    t.samples[_label].append((began, time.perf_counter()))
            return run()

        _patch(patches, owner, attr, timed)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)
