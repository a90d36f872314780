"""The benchmark's workloads, and why each one exists.

Every workload is one traffic mix on the paper's 1-3-5 tree (a logical
root over levels of 3 and 5 physical sites, so n = 8; a read touches one
site per level, 2 sites; a write touches one whole level, 3 or 5 sites).
Each run drives the mix through *both* backends, so every end-to-end
metric is defined on every workload:

* the real backend: ``runtime.cluster.LocalCluster`` with 8 site
  processes on localhost, ``timeout=1.0`` and ``max_attempts=4``, driven
  through ``LocalCluster.get``/``put`` from one thread of this process.
  The load is driven in-process because ``KVFrontend`` serves one
  request at a time per connection, so an external client could only
  keep one operation in flight per socket and the load generator would
  measure the front end's framing rather than the protocol.  A fresh
  cluster is spawned for the open-loop phase and another for the closed
  window, which also gives two set-up samples per run;
* the simulator: ``sim.engine`` with the system model of the
  ``single_group_legacy`` case of ``benchmarks/bench_simcore.py`` (4
  clients, ``service_time=1``, fixed latency 1, ``timeout=800``), where
  a time unit is one message hop and ``service_time`` makes site CPU a
  queue.

Rates are chosen below the knee.  The "saturated" ``bench_simcore`` case
runs at rate 4.0, past capacity: its virtual read p99 is 7008 at 20k
operations and 22283 at 60k, so it measures the length of the run and
not the protocol.  At rate 1.0 the same mix gives read p99 of about 19 at
both 20k and 60k operations, while 2.0 already has a growing backlog.
Capacity is therefore measured separately, by bisection on the rate.

Three workloads keep the whole benchmark inside its time budget: each
run spawns two 8-process clusters, at about 6 s of CPU-bound start-up
each on a 2-core host.  The lease-free simulator run of the
``single_group_legacy`` mix is therefore not a workload of its own; lock
contention in the simulator is covered by ``write-contended``.

``read-heavy``
    90% reads over 1000 uniform keys.  On the real backend at 1000 ops/s
    (the closed-window knee is about 2200 ops/s on a 2-core host) reads
    cost about 2.8 outbound frames per operation and locks are idle, so
    codec, transport and socket cost dominate.  A lock-manager change
    should show no change here.
``write-contended``
    20% reads, Zipf(1.1) over 64 keys, at 400 ops/s on the real backend
    (a closed window of 8 completes about 700 ops/s).  Writes run the
    version, prepare and commit rounds over 3-5 sites and a large share
    of lock grants wait.  The same codec and transport carry about 4x
    the frames per operation, so a gain for reads that costs writes
    shows here.  In the simulator the hot keys serialise writes behind
    the lock manager, so the knee is far lower than on the read mixes
    and the fixed rate is 0.15 (capacity is about 0.29).
``leased``
    The ``single_group_legacy`` mix: 90% reads, Zipf(1.1) over 128
    keys.  The simulator runs it with ``batch_window=2`` and
    ``leases=True``, the only place the batching and lease stages run
    (the real backend cannot configure them, so its phase here is the
    same mix without them: the bypass case for a lease or batching
    change).  In a 60k-operation probe 53.8k
    of 60k reads were leased and messages per operation fell from 5.6 to
    2.0.  Because most leased reads finish in zero virtual time, the
    median read latency is 0 here, so the benchmark reports the mean
    simulated read latency instead of the median.

No workload injects a fault: a SIGKILLed site cannot restart yet, so
every later run would see a different cluster.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The paper's example tree, shared by both backends.
SPEC = "1-3-5"


@dataclass(frozen=True)
class Workload:
    """One traffic mix, with its rates on each backend."""

    name: str
    read_fraction: float
    keys: int
    #: Zipf exponent of key popularity; 0 means uniform.
    zipf_s: float
    #: Open-loop Poisson rate on the real backend, ops per wall second.
    kv_rate: float
    #: Fixed Poisson rate in the simulator, ops per virtual time unit.
    sim_rate: float
    #: Operations in the fixed-rate simulator run.
    sim_ops: int
    #: Bracket searched for the simulator's capacity, and probe length.
    capacity_bracket: tuple[float, float]
    capacity_ops: int
    batch_window: float = 0.0
    leases: bool = False

    def key_picker(self, rng: random.Random):
        """A function drawing key names with this mix's popularity."""
        names = [f"k{index}" for index in range(self.keys)]
        if not self.zipf_s:
            return lambda: names[rng.randrange(self.keys)]
        weights = [1.0 / rank ** self.zipf_s
                   for rank in range(1, self.keys + 1)]
        cum, total = [], 0.0
        for weight in weights:
            total += weight
            cum.append(total)
        return lambda: rng.choices(names, cum_weights=cum)[0]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="read-heavy",
            read_fraction=0.9, keys=1000, zipf_s=0.0,
            kv_rate=1000.0, sim_rate=1.0, sim_ops=20_000,
            capacity_bracket=(1.5, 2.5), capacity_ops=10_000,
        ),
        Workload(
            name="write-contended",
            read_fraction=0.2, keys=64, zipf_s=1.1,
            kv_rate=400.0, sim_rate=0.15, sim_ops=40_000,
            capacity_bracket=(0.2, 0.4), capacity_ops=10_000,
        ),
        Workload(
            name="leased",
            read_fraction=0.9, keys=128, zipf_s=1.1,
            kv_rate=1000.0, sim_rate=1.0, sim_ops=40_000,
            capacity_bracket=(2.5, 3.5), capacity_ops=40_000,
            batch_window=2.0, leases=True,
        ),
    )
}
