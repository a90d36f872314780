"""Discrete-event distributed-system simulator (the paper's Section 2.2).

The paper's evaluation is analytical; this subpackage provides the system
model it assumes, so that every closed-form quantity (communication cost,
availability, per-replica load) can also be *measured* end-to-end:

* sites = processing unit + storage + unique SID, fail-stop with transient,
  detectable failures (:mod:`repro.sim.site`, :mod:`repro.sim.failures`);
* bidirectional links with latency, loss and partitions
  (:mod:`repro.sim.network`);
* timestamps of (version, SID) and one-copy-equivalent reads
  (:mod:`repro.sim.replica`);
* a centralised concurrency-control scheme (:mod:`repro.sim.locks`);
* transactions executed atomically with 2PC (:mod:`repro.sim.transactions`,
  :mod:`repro.sim.coordinator`);
* client workload generation and measurement (:mod:`repro.sim.workload`,
  :mod:`repro.sim.monitor`);
* one-call experiment wiring (:mod:`repro.sim.engine`);
* structured tracing of every operation (spans, message counters, lock
  metrics) via :mod:`repro.obs` — pass ``SimulationConfig(trace=True)``.
"""

import importlib

#: Where each re-exported name lives; resolved on first access (PEP 562)
#: so importing one submodule — :mod:`repro.sim.site` in a replica
#: process — does not load the coordinator, the engine or numpy.
_EXPORTS = {
    "OperationOutcome": "coordinator",
    "QuorumCoordinator": "coordinator",
    "ReplicaGroup": "engine",
    "SimulationConfig": "engine",
    "SimulationResult": "engine",
    "build_replica_group": "engine",
    "run_workload": "engine",
    "simulate": "engine",
    "Scheduler": "events",
    "BernoulliFailures": "failures",
    "CrashRepairProcess": "failures",
    "FailureInjector": "failures",
    "LockManager": "locks",
    "LockMode": "locks",
    "AbortMessage": "messages",
    "CommitMessage": "messages",
    "PrepareMessage": "messages",
    "ReadReply": "messages",
    "ReadRequest": "messages",
    "VoteMessage": "messages",
    "Monitor": "monitor",
    "ShardedMonitor": "monitor",
    "Network": "network",
    "PartitionSpec": "network",
    "RegionLatencyMatrix": "network",
    "ReconfigOutcome": "reconfigure",
    "ReconfigStatus": "reconfigure",
    "TreeReconfigurer": "reconfigure",
    "Timestamp": "replica",
    "VersionedStore": "replica",
    "Site": "site",
    "SiteState": "site",
    "Operation": "transactions",
    "OperationType": "transactions",
    "Transaction": "transactions",
    "Workload": "workload",
    "WorkloadSpec": "workload",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
