"""Edge-case tests for the coordinator: lock timeouts, stale replies,
copy_key onto an override write system, quiescence accounting."""

import random

import pytest

from repro.core.builder import from_spec, mostly_write
from repro.core.protocol import ArbitraryProtocol
from repro.sim.coordinator import (
    FailureReason,
    QuorumCoordinator,
)
from repro.sim.events import Scheduler
from repro.sim.locks import LockManager, LockMode
from repro.sim.network import Network
from repro.sim.site import Site


def make_rig(spec="1-3-5", lock_timeout=None, max_attempts=3, seed=0):
    tree = from_spec(spec)
    scheduler = Scheduler()
    network = Network(scheduler, random.Random(seed), latency=1.0)
    sites = [Site(sid, network) for sid in range(tree.n)]
    locks = LockManager(scheduler, wait_timeout=lock_timeout)
    coordinator = QuorumCoordinator(
        sid=-1,
        network=network,
        system=ArbitraryProtocol(tree),
        locks=locks,
        detector=lambda sid: sites[sid].is_up,
        rng=random.Random(seed + 1),
        timeout=8.0,
        max_attempts=max_attempts,
        writer_id=tree.n,
    )
    return tree, scheduler, network, sites, locks, coordinator


class TestLockTimeout:
    def test_blocked_writer_times_out(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig(
            lock_timeout=5.0
        )
        outcomes = []
        # park an exclusive lock under a foreign transaction id so the
        # coordinator's request queues until the wait timeout fires
        locks.acquire(999_999, "k", LockMode.EXCLUSIVE, lambda granted: None)
        coordinator.write("k", "v", outcomes.append)
        scheduler.run()
        assert outcomes and not outcomes[0].success
        assert outcomes[0].reason is FailureReason.LOCK_TIMEOUT
        assert coordinator.is_quiescent()


class TestStaleReplies:
    def test_replies_from_previous_attempt_ignored(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig()
        outcomes = []
        coordinator.read("k", outcomes.append)
        # crash a quorum member while the request is in flight, forcing a
        # timeout and a second attempt; then recover it so the first
        # attempt's late reply (if any) would race the second attempt
        scheduler.run(until=0.5)
        sites[0].crash()
        scheduler.run(until=9.0)
        sites[0].recover()
        scheduler.run()
        assert len(outcomes) == 1  # on_done fired exactly once
        assert outcomes[0].success
        assert coordinator.is_quiescent()


class TestWriteWithSystem:
    """``copy_key(write_system=...)``: read the current system, write another."""

    def test_data_lands_on_override_quorum(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig()
        override = ArbitraryProtocol(mostly_write(8))
        outcomes = []
        coordinator.write("k", "v", outcomes.append)
        scheduler.run()
        coordinator.copy_key("k", outcomes.append, write_system=override)
        scheduler.run()
        assert outcomes[1].success
        assert outcomes[1].quorum in set(override.write_quorums())

    def test_versions_still_come_from_current_system(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig()
        outcomes = []
        coordinator.write("k", "v1", outcomes.append)
        scheduler.run()
        override = ArbitraryProtocol(mostly_write(8))
        coordinator.copy_key("k", outcomes.append, write_system=override)
        scheduler.run()
        assert outcomes[1].timestamp.version == outcomes[0].timestamp.version + 1
        assert outcomes[1].value == "v1"


class TestQuiescence:
    def test_counts_reads_and_writes(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig()
        done = []
        assert coordinator.is_quiescent()
        coordinator.read("a", done.append)
        coordinator.write("b", 1, done.append)
        assert not coordinator.is_quiescent()
        scheduler.run()
        assert len(done) == 2
        assert coordinator.is_quiescent()

    def test_quiescent_after_failures_too(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig(
            max_attempts=1
        )
        for sid in (0, 1, 2):
            sites[sid].crash()
        done = []
        coordinator.read("k", done.append)
        scheduler.run()
        assert done and not done[0].success
        assert coordinator.is_quiescent()


class TestSystemIntrospection:
    def test_system_universe(self):
        tree, *_rest, coordinator = make_rig()
        assert coordinator.system_universe() == frozenset(range(8))

    def test_system_universe_unavailable_for_opaque_systems(self):
        tree, scheduler, network, sites, locks, coordinator = make_rig()

        class Opaque:
            def select_read_quorum(self, live, rng=None):
                return frozenset({0})

            def select_write_quorum(self, live, rng=None):
                return frozenset({0})

        coordinator.set_system(Opaque())
        with pytest.raises(TypeError, match="universe"):
            coordinator.system_universe()
