"""Per-key read leases: quorum-read results served without quorum rounds.

*Read-Write Quorum Systems Made Practical* (PAPERS.md) observes that
read-dominant workloads should not pay a full quorum round per read; the
tree protocol's cheap read quorums (PAPER.md Section 3.3) make the
cached-read variant especially attractive.  A :class:`LeaseCache` holds,
per key, the latest value a coordinator group has *proven* current —
either by completing a read quorum (every member answered, the dominant
timestamp won) or by committing a write (the 2PC commit applied the
value on a full write quorum before the exclusive lock was released).

Safety rests on two invalidation rules, both enforced by the
coordinator:

1. **Conflicting writes** — the lease is invalidated the moment a
   write's *exclusive lock is granted* on the key, i.e. before any state
   anywhere can change, and re-granted only after the write commits.
   Between those points reads miss the cache and queue on the lock like
   any other reader, so a leased serve can never return a value older
   than the latest committed write.
2. **Liveness epochs** — every entry is stamped with
   :attr:`~repro.sim.network.Network.liveness_epoch` at grant time and
   dropped when the epoch has moved (site crash/recovery, partition
   install/heal).  Within one coordinator group rule 1 alone is
   sufficient (the shared lock manager serialises writers regardless of
   liveness), but revoking leases on membership events is what lets a
   future multi-group deployment treat a lease as a lease rather than a
   hint, and it keeps cache lifetime bounded under chaos.

One cache is shared by every coordinator of a replica group (exactly
like the version floor): an invalidation triggered by one client's write
must be seen by every other client's reads.

Leased outcomes carry ``leased=True``, an **empty** quorum and
``attempts=0``, so measured quorum load and cost honestly report that
nobody was contacted; the invariant checker skips only the
quorum-intersection audit for them (there is no quorum to intersect) and
still enforces freshness and read-monotonicity.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.sim.replica import Timestamp


@dataclass(slots=True)
class LeaseEntry:
    """One key's cached read result and the epoch it was granted in."""

    value: Any
    timestamp: Timestamp
    epoch: int


class LeaseCache:
    """Epoch-stamped per-key cache of proven-current read results.

    Parameters
    ----------
    epoch:
        Zero-argument callable returning the current liveness epoch
        (wire it to ``network.current_liveness_epoch``).  Entries granted
        under an older epoch are treated as missing and dropped.

    The ``hits`` / ``misses`` / ``grants`` / ``invalidations`` /
    ``epoch_invalidations`` counters make lease behaviour observable to
    tests and benchmarks.
    """

    __slots__ = (
        "_epoch",
        "_entries",
        "hits",
        "misses",
        "grants",
        "invalidations",
        "epoch_invalidations",
        "flushes",
    )

    def __init__(self, epoch: Callable[[], int]) -> None:
        self._epoch = epoch
        self._entries: dict[Any, LeaseEntry] = {}
        self.hits = 0
        self.misses = 0
        self.grants = 0
        self.invalidations = 0
        self.epoch_invalidations = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Any) -> LeaseEntry | None:
        """The live lease for ``key``, or ``None`` (stale entries drop)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.epoch != self._epoch():
            del self._entries[key]
            self.epoch_invalidations += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def grant(self, key: Any, value: Any, timestamp: Timestamp) -> None:
        """Install/refresh the lease for ``key`` under the current epoch.

        Callers grant only off proven-current results: a completed read
        quorum, or a committed write (write-through).
        """
        self._entries[key] = LeaseEntry(
            value=value, timestamp=timestamp, epoch=self._epoch()
        )
        self.grants += 1

    def invalidate(self, key: Any) -> None:
        """Revoke ``key``'s lease (called at exclusive-lock grant)."""
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1

    def flush(self) -> int:
        """Drop every entry (reconfiguration epoch edges; returns count).

        The epoch stamp already makes stale entries unservable once the
        liveness epoch moves, so this is belt-and-braces: no lease
        granted against one tree may ever answer under another, even if
        an epoch counter is wired differently in a future composition.
        """
        dropped = len(self._entries)
        if dropped:
            self._entries.clear()
        self.flushes += 1
        return dropped

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def summary(self) -> dict[str, float]:
        """Counter snapshot for benchmarks and tests."""
        return {
            "entries": float(len(self._entries)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "grants": float(self.grants),
            "invalidations": float(self.invalidations),
            "epoch_invalidations": float(self.epoch_invalidations),
            "flushes": float(self.flushes),
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"LeaseCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, invalidations={self.invalidations})"
        )
