"""Correctness of every operation the benchmark issues, on both backends.

Every outcome passes through ``fault.invariants.InvariantChecker``
(quorum intersection and version monotonicity) as it arrives, and every
successful read is also checked, at the end, against the benchmark's own
record of writes:

* the (timestamp, value) pair it returned was produced by a write of
  that key, or is the initial zero timestamp with no value;
* it is not older than the newest write of that key acknowledged before
  the read was invoked.

Times are the coordinator clock's (wall time on the real backend,
virtual time in the simulator), taken from the outcome itself.  Outcomes
are kept as flat tuples of numbers and strings: the garbage collector
stops tracking those, so keeping tens of thousands of them does not slow
the collections the program under test pays for.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

from repro.fault.invariants import InvariantChecker
from repro.sim.coordinator import OperationOutcome


class Op(NamedTuple):
    """One completed operation, flattened."""

    op_type: str
    key: str
    success: bool
    value: object
    #: Timestamp as its sort key, ``(version, -sid)``.
    timestamp: tuple[int, int] | None
    started_at: float
    finished_at: float
    attempts: int
    leased: bool
    #: Quorum members as a bit mask over site ids.
    quorum: int

    @property
    def latency(self) -> float:
        return self.finished_at - self.started_at


def _mask(sites) -> int:
    mask = 0
    for sid in sites:
        mask |= 1 << sid
    return mask


class History:
    """Collects outcomes and reports every violation seen in them."""

    def __init__(self) -> None:
        self.outcomes: list[Op] = []
        self.invariants = InvariantChecker(strict=False)

    def record(self, outcome: OperationOutcome) -> None:
        """Audit one outcome and keep it."""
        self.invariants.check(outcome)
        timestamp = outcome.timestamp
        self.outcomes.append(Op(
            outcome.op_type, outcome.key, outcome.success, outcome.value,
            None if timestamp is None else timestamp.sort_key(),
            outcome.started_at, outcome.finished_at, outcome.attempts,
            outcome.leased, _mask(outcome.quorum),
        ))

    def wrap(self, on_outcome):
        """``InvariantChecker.wrap``'s shape, for ``build_simulation``."""

        def sink(outcome: OperationOutcome) -> None:
            self.record(outcome)
            on_outcome(outcome)

        return sink

    @property
    def failed(self) -> int:
        """Operations that failed or were refused."""
        return sum(1 for o in self.outcomes if not o.success)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    def violations(self) -> list[str]:
        """Invariant violations plus read-value violations."""
        found = list(self.invariants.violations)
        writes: dict = {}
        for op in self.outcomes:
            if op.op_type == "write" and op.success:
                writes.setdefault(op.key, []).append(op)
        index = {}
        for key, done in writes.items():
            done.sort(key=lambda op: op.finished_at)
            finished, newest, best = [], [], None
            for op in done:
                best = max(best or op.timestamp, op.timestamp)
                finished.append(op.finished_at)
                newest.append(best)
            index[key] = (finished, newest,
                          {op.timestamp: op.value for op in done})
        for op in self.outcomes:
            if op.op_type != "read" or not op.success:
                continue
            finished, newest, produced = index.get(op.key, ([], [], {}))
            if op.timestamp[0] == 0:
                if op.value is not None:
                    found.append(f"read of {op.key!r} returned {op.value!r} "
                                 "at the initial timestamp")
            elif produced.get(op.timestamp, object()) != op.value:
                found.append(
                    f"read of {op.key!r} returned {op.value!r} at "
                    f"{op.timestamp}, which no acknowledged write made"
                )
            acked = bisect.bisect_right(finished, op.started_at)
            if acked and op.timestamp < newest[acked - 1]:
                found.append(
                    f"read of {op.key!r} invoked at {op.started_at} returned "
                    f"{op.timestamp}, older than a write acknowledged "
                    "before it"
                )
        return found
