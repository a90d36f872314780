"""End-to-end tests of the sharded keyspace simulation.

Covers the tentpole contract: per-shard replica groups behind a router
and load balancer, heterogeneous quorum systems, per-shard measurement
that folds cleanly, and bit-identical results between a serial repeat
loop and a ``--jobs N`` process-pool fan-out.
"""

import math
import pickle

import pytest

from repro.fault.retry import RetryPolicySpec
from repro.runner import merge_monitors, parallel_shard_simulations
from repro.shard import (
    HashRouter,
    ShardedConfig,
    build_sharded_simulation,
    simulate_sharded,
)
from repro.sim import WorkloadSpec


def _spec(**overrides):
    base = dict(operations=300, keys=512, arrival="poisson", rate=1.0)
    base.update(overrides)
    return WorkloadSpec(**base)


class TestShardedConfig:
    def test_system_broadcast(self):
        config = ShardedConfig(shards=3, systems=(("tree", "1-3"),))
        assert len(config.resolve_systems()) == 3

    def test_mismatched_system_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedConfig(shards=3, systems=(("tree", "1-3"),) * 2)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedConfig(shards=0)


class TestShardedSimulation:
    def test_all_operations_complete_and_route_consistently(self):
        config = ShardedConfig(workload=_spec(zipf_s=1.0), shards=4, seed=11)
        result = simulate_sharded(config)
        monitor = result.monitor
        assert monitor.total_operations == 300
        # Monitor attribution matches the balancer's dispatch counters:
        # every operation landed on the shard its key routed to.
        per_shard = [m.total_operations for m in monitor.shards]
        assert per_shard == result.store.balancer.dispatched
        assert sum(per_shard) == 300

    def test_routing_respects_router(self):
        scheduler, workload, store = build_sharded_simulation(
            ShardedConfig(workload=_spec(), shards=4, seed=2)
        )
        assert isinstance(store.router, HashRouter)
        workload.start()
        while workload.completed < 300:
            assert scheduler.step(), "stalled"
        # Hash routing over uniform keys spreads load: no empty shard.
        assert all(count > 0 for count in store.balancer.dispatched)

    def test_deterministic_under_same_seed(self):
        config = dict(workload=_spec(zipf_s=0.8), shards=4, p=0.9, seed=5)
        first = simulate_sharded(ShardedConfig(**config))
        second = simulate_sharded(ShardedConfig(**config))
        assert first.summary() == second.summary()
        assert first.monitor.per_shard_summaries() == (
            second.monitor.per_shard_summaries()
        )

    def test_seed_changes_results(self):
        base = dict(workload=_spec(), shards=2, p=0.85)
        first = simulate_sharded(ShardedConfig(**base, seed=1))
        second = simulate_sharded(ShardedConfig(**base, seed=2))
        assert first.summary() != second.summary()

    def test_heterogeneous_systems_per_shard(self):
        config = ShardedConfig(
            workload=_spec(operations=200),
            shards=2,
            systems=(("tree", "1-3-5"), ("protocol", "majority", 5)),
            router="range",
            seed=3,
        )
        result = simulate_sharded(config)
        assert result.monitor.total_operations == 200
        systems = [group.system for group in result.store.groups]
        assert systems[0].name != systems[1].name

    def test_ops_per_sec_reported(self):
        result = simulate_sharded(
            ShardedConfig(workload=_spec(), shards=2, seed=9)
        )
        summary = result.summary()
        assert summary["ops_per_sec"] > 0
        assert summary["shards"] == 2

    def test_regional_latency_slows_quorums(self):
        fast = simulate_sharded(ShardedConfig(
            workload=_spec(operations=150), shards=2, seed=4,
        ))
        slow = simulate_sharded(ShardedConfig(
            workload=_spec(operations=150), shards=2, seed=4,
            regions=2,
        ))
        assert (
            slow.summary()["write_latency_mean"]
            > fast.summary()["write_latency_mean"]
        )

    def test_least_outstanding_balancer_runs(self):
        result = simulate_sharded(ShardedConfig(
            workload=_spec(operations=200, rate=4.0),
            shards=2, clients=3,
            balancer="least-outstanding", service_time=0.5, seed=6,
        ))
        assert result.monitor.total_operations == 200
        # All slots were released on completion.
        for shard in range(2):
            assert result.store.balancer.outstanding(shard) == (0, 0, 0)


def _nan_to_none(summary):
    """``summary`` with NaN values as ``None``, so equal runs compare equal."""
    return {
        key: None if isinstance(value, float) and math.isnan(value) else value
        for key, value in summary.items()
    }


# Literal outcomes of the two pinned sharded runs below, recorded once and
# never regenerated: a change to the sharded build that moves any event,
# RNG draw or outcome fails here.  NaN (no failures to average) is None.
_A_SUMMARY = {
    "shards": 3.0, "reads": 137, "writes": 163, "read_availability": 1.0,
    "write_availability": 0.8773006134969326, "read_cost": 2.0,
    "write_cost": 3.6153846153846154, "write_cost_total": 5.615384615384615,
    "read_latency_mean": 7.062728121772044,
    "write_latency_mean": 26.625827601821015, "read_latency_p50": 6.25,
    "read_latency_p99": 38.35565483881611,
    "write_latency_p50": 18.750000000000007,
    "write_latency_p99": 66.5250418873502,
    "failure_latency_mean": 34.41483314580398,
    "ops_per_sec": 0.8362456895695229, "messages_sent": 3983.0,
    "messages_delivered": 3882.0, "messages_dropped": 101.0,
    "duration": 358.74624376770424,
}
_A_PER_SHARD = [
    {
        "reads": 48, "writes": 49, "read_availability": 1.0,
        "write_availability": 0.673469387755102, "read_cost": 2.0,
        "write_cost": 3.8484848484848486, "write_version_cost": 2.0,
        "write_cost_total": 5.848484848484849,
        "read_load": 0.5208333333333334, "write_load": 0.5757575757575758,
        "read_latency_mean": 7.295746180828346,
        "write_latency_mean": 28.52975150513981,
        "read_failure_latency_mean": None,
        "write_failure_latency_mean": 28.543881926805064,
        "failure_latency_mean": 28.543881926805064,
    },
    {
        "reads": 39, "writes": 63, "read_availability": 1.0,
        "write_availability": 0.9682539682539683, "read_cost": 2.0,
        "write_cost": 3.6557377049180326, "write_version_cost": 2.0,
        "write_cost_total": 5.655737704918033,
        "read_load": 0.46153846153846156, "write_load": 0.6721311475409836,
        "read_latency_mean": 6.976382770417303,
        "write_latency_mean": 27.269320882586957,
        "read_failure_latency_mean": None,
        "write_failure_latency_mean": 57.4222760435993,
        "failure_latency_mean": 57.4222760435993,
    },
    {
        "reads": 50, "writes": 51, "read_availability": 1.0,
        "write_availability": 0.9607843137254902, "read_cost": 2.0,
        "write_cost": 3.4081632653061225, "write_version_cost": 2.0,
        "write_cost_total": 5.408163265306122, "read_load": 0.42,
        "write_load": 0.7959183673469388,
        "read_latency_mean": 6.906380159134694,
        "write_latency_mean": 24.542509664346664,
        "read_failure_latency_mean": None,
        "write_failure_latency_mean": 58.375, "failure_latency_mean": 58.375,
    },
]
_A_EVENTS = 6670

_B_SUMMARY = {
    "shards": 2.0, "reads": 272, "writes": 28, "read_availability": 1.0,
    "write_availability": 1.0, "read_cost": 0.6875, "write_cost": 3.5,
    "write_cost_total": 5.785714285714286,
    "read_latency_mean": 0.6889685169721638,
    "write_latency_mean": 6.913386775913689, "read_latency_p50": 0.0,
    "read_latency_p99": 2.5, "write_latency_p50": 6.5,
    "write_latency_p99": 13.491932976481168, "failure_latency_mean": None,
    "ops_per_sec": 0.9552035815707682, "messages_sent": 894.0,
    "messages_delivered": 894.0, "messages_dropped": 0.0,
    "duration": 314.0691741405221,
}
_B_PER_SHARD = [
    {
        "reads": 161, "writes": 18, "read_availability": 1.0,
        "write_availability": 1.0, "read_cost": 0.39751552795031053,
        "write_cost": 3.7777777777777777,
        "write_version_cost": 1.8888888888888888,
        "write_cost_total": 5.666666666666667,
        "read_load": 0.07453416149068323, "write_load": 0.6111111111111112,
        "read_latency_mean": 0.4976797440996025,
        "write_latency_mean": 7.1624312926801394,
        "read_failure_latency_mean": None, "write_failure_latency_mean": None,
        "failure_latency_mean": None,
    },
    {
        "reads": 111, "writes": 10, "read_availability": 1.0,
        "write_availability": 1.0, "read_cost": 1.1081081081081081,
        "write_cost": 3.0, "write_version_cost": 3.0, "write_cost_total": 6.0,
        "read_load": 0.25225225225225223, "write_load": 0.7,
        "read_latency_mean": 0.966423403751284,
        "write_latency_mean": 6.465106645734079,
        "read_failure_latency_mean": None, "write_failure_latency_mean": None,
        "failure_latency_mean": None,
    },
]
_B_EVENTS = 1298


def _pinned_a():
    """Regions, two clients per shard, failures, detector, exponential
    retry, message loss and service time: every group knob off default."""
    return ShardedConfig(
        workload=WorkloadSpec(
            operations=300, keys=256, arrival="poisson", rate=1.0
        ),
        shards=3, regions=2, clients=2, p=0.9, detector=True,
        retry_policy=RetryPolicySpec(kind="exponential"),
        drop_probability=0.02, service_time=0.25, seed=21,
    )


def _pinned_b():
    """Batching and leases on Zipf keys over heterogeneous systems."""
    return ShardedConfig(
        workload=WorkloadSpec(
            operations=300, keys=128, zipf_s=1.1, read_fraction=0.9,
            arrival="poisson", rate=1.0,
        ),
        shards=2, systems=(("tree", "1-3-5"), ("protocol", "majority", 5)),
        batch_window=0.5, leases=True, seed=22,
    )


class TestPinnedShardedRuns:
    @pytest.mark.parametrize("config, summary, per_shard, events", [
        (_pinned_a, _A_SUMMARY, _A_PER_SHARD, _A_EVENTS),
        (_pinned_b, _B_SUMMARY, _B_PER_SHARD, _B_EVENTS),
    ], ids=["regions-faults-retry", "batching-leases-heterogeneous"])
    def test_outcomes_match_the_recorded_run(
        self, config, summary, per_shard, events
    ):
        result = simulate_sharded(config())
        assert _nan_to_none(result.summary()) == summary
        assert [
            _nan_to_none(shard)
            for shard in result.monitor.per_shard_summaries()
        ] == per_shard
        assert result.events_processed == events


class TestParallelEquivalence:
    def test_serial_and_jobs_fanout_bit_identical(self):
        config = ShardedConfig(
            workload=_spec(operations=200, keys=256, zipf_s=1.0, rate=0.25),
            shards=4, p=0.9, timeout=8.0, seed=13,
        )
        serial = merge_monitors(
            parallel_shard_simulations(config, 4, jobs=1)
        )
        fanned = merge_monitors(
            parallel_shard_simulations(config, 4, jobs=2)
        )
        assert serial.summary() == fanned.summary()
        assert serial.per_shard_summaries() == fanned.per_shard_summaries()

    def test_sharded_config_pickle_round_trip(self):
        # The config itself is the pool task: it must survive pickling
        # equal and still resolve its system references in the worker.
        config = ShardedConfig(
            workload=_spec(), shards=2, systems=(("protocol", "grid", 16),),
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        systems = clone.resolve_systems()
        assert len(systems) == 2
        assert all(n == 16 for _system, n in systems)


class TestShardReconfiguration:
    """Reconfiguration is shard-local: one group transitions, others serve."""

    def test_online_reconfigure_one_shard(self):
        from repro.core.builder import from_spec
        from repro.sim.engine import run_workload

        config = ShardedConfig(
            workload=_spec(operations=600, keys=64, rate=0.25),
            shards=3, systems=(("tree", "1-3-5"),), seed=7,
            clients=2,
        )
        scheduler, workload, store = build_sharded_simulation(config)
        outcomes = []
        keys = store.shard_keys(1, 64)
        assert keys and all(
            store.router.shard_of(int(key[1:])) == 1 for key in keys
        )
        scheduler.schedule_at(150.0, lambda: store.reconfigure_shard(
            1, from_spec("1-4-4"), keys, outcomes.append
        ))
        run_workload(scheduler, workload, 5_000_000)
        assert outcomes and outcomes[0].success
        assert outcomes[0].mode == "online"
        assert outcomes[0].epoch == 1
        # the reconfigured shard's pool is on the new tree ...
        for coordinator in store.groups[1].coordinators:
            assert coordinator.system.tree.spec() == "1-4-4"
        # ... the untouched shards are not
        for shard in (0, 2):
            for coordinator in store.groups[shard].coordinators:
                assert coordinator.system.tree.spec() == "1-3-5"
        summary = store.monitor.summary()
        assert summary["read_availability"] == 1.0
        assert summary["write_availability"] == 1.0
