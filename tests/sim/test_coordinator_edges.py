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
from repro.sim.leases import LeaseCache
from repro.sim.locks import LockManager, LockMode
from repro.sim.network import Network
from repro.sim.site import Site


def make_rig(
    spec="1-3-5",
    lock_timeout=None,
    max_attempts=3,
    seed=0,
    batch_window=0.0,
    leases=False,
):
    tree = from_spec(spec)
    scheduler = Scheduler()
    network = Network(scheduler, random.Random(seed), latency=1.0)
    sites = [Site(sid, network) for sid in range(tree.n)]
    locks = LockManager(scheduler, wait_timeout=lock_timeout)

    def epoch():
        return network.liveness_epoch

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
        liveness_epoch=epoch,
        batch_window=batch_window,
        leases=LeaseCache(epoch=epoch) if leases else None,
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

    @pytest.mark.parametrize(
        "submit,batch_window,stage",
        [
            (lambda c, done: c.read("k", done), 0.0, "read"),
            (lambda c, done: c.write("k", "v", done), 0.0, "version"),
            (lambda c, done: c.copy_key("k", done), 0.0, "read"),
            (lambda c, done: c.write("k", "v", done), 2.0, "version"),
        ],
        ids=["read", "write", "copy", "batched-write"],
    )
    def test_lock_timeout_reports_the_starting_stage(
        self, submit, batch_window, stage
    ):
        tree, scheduler, network, sites, locks, coordinator = make_rig(
            lock_timeout=5.0, batch_window=batch_window
        )
        outcomes = []
        locks.acquire(999_999, "k", LockMode.EXCLUSIVE, lambda granted: None)
        submit(coordinator, outcomes.append)
        scheduler.run()
        assert outcomes[0].reason is FailureReason.LOCK_TIMEOUT
        assert outcomes[0].failed_stage == stage
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

    @pytest.mark.parametrize(
        "batch_window,leases",
        [(0.0, False), (0.0, True), (2.0, False), (2.0, True)],
    )
    def test_settles_through_every_front_stage(self, batch_window, leases):
        # Lease hits, coalesced read groups, skip-version writes and
        # deferred replays must each leave the in-flight count where they
        # found it.
        tree, scheduler, network, sites, locks, coordinator = make_rig(
            batch_window=batch_window, leases=leases
        )
        done = []
        coordinator.write("k", 0, done.append)
        scheduler.run()
        for i in range(3):
            coordinator.read("k", done.append)
            coordinator.read(f"x{i}", done.append)
        coordinator.write("k", 1, done.append)
        coordinator.write("k", 2, done.append)
        coordinator.read("k", done.append)
        scheduler.run(until=scheduler.now + 1.0)
        coordinator.pause()
        coordinator.read("k", done.append)
        coordinator.write("y", 3, done.append)
        scheduler.run()
        # Deferred submissions have touched nothing: not in flight.
        assert coordinator.is_quiescent()
        assert len(done) == 10
        coordinator.resume()
        assert not coordinator.is_quiescent()
        scheduler.run()
        assert len(done) == 12
        assert all(outcome.success for outcome in done)
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
