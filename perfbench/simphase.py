"""The simulator under load: a fixed-rate run and a capacity search.

Both use ``sim.engine``'s own two halves, ``build_simulation`` (timed as
set-up) and ``run_workload`` (timed as work), which is exactly what
``simulate`` does for a run without reconfiguration.  Virtual-time
figures are deterministic for a seed.  ``sim_ops_per_s`` is every
simulated operation of the run over the wall time of all the runs: a
fixed, seeded body of work, timed over several seconds so that a short
stall of the host moves it little.  It is printed but not gated: over
ten runs on a shared 2-vCPU VM it spread 0.13-0.28 of its median,
because the host's speed moved by a third within minutes.

``sim_capacity`` is the highest Poisson rate, in operations per virtual
time unit, at which the p99 latency of all operations stays under
:data:`LIMIT_T` with no growing backlog.  The p99 is taken over the
second half of each probe's operations: a growing backlog makes the
second half slower than the whole, so one figure covers both conditions.
It is found by regula falsi on log p99 over the workload's bracket, and
the root is interpolated, so the figure is continuous and deterministic
per seed.  Long probes matter more than many: near the knee a short
probe's p99 depends more on the seed's bursts than on the rate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.core.builder import from_spec
from repro.runtime.cluster import percentile
from repro.sim.engine import SimulationConfig, build_simulation, run_workload
from repro.sim.workload import WorkloadSpec

from history import History
from workloads import SPEC, Workload

LIMIT_T = 40.0
#: Probes between the two bracket ends.
CAPACITY_STEPS = 1
MAX_EVENTS = 5_000_000


def config(workload: Workload, seed: int, rate: float, operations: int,
           trace: bool = False) -> SimulationConfig:
    return SimulationConfig(
        tree=from_spec(SPEC),
        workload=WorkloadSpec(
            operations=operations, read_fraction=workload.read_fraction,
            keys=workload.keys, arrival="poisson", rate=rate,
            zipf_s=workload.zipf_s,
        ),
        clients=4, service_time=1.0, timeout=800.0, seed=seed,
        batch_window=workload.batch_window, leases=workload.leases,
        trace=trace,
    )


@dataclass
class SimRun:
    """One built-and-run simulation."""

    history: History
    build_s: float
    wall_s: float
    events: int
    workload: object
    monitor: object
    network: object

    def latencies(self, op_type: str) -> list[float]:
        return [o.latency for o in self.history.outcomes
                if o.op_type == op_type]

    def signature(self) -> tuple:
        return tuple(
            (o.op_type, o.key, o.success, o.started_at, o.finished_at)
            for o in self.history.outcomes
        )


def run_once(cfg: SimulationConfig) -> SimRun:
    history = History()
    began = time.perf_counter()
    scheduler, workload, monitor, network, _ = build_simulation(
        cfg, invariants=history
    )
    built = time.perf_counter()
    events = run_workload(scheduler, workload, MAX_EVENTS)
    done = time.perf_counter()
    return SimRun(history, built - began, done - built, events,
                  workload, monitor, network)


@dataclass
class SimResult:
    fixed: SimRun | None = None
    capacity: float = 0.0
    #: (history, wall seconds) of each capacity probe.
    probes: list[tuple[History, float]] = field(default_factory=list)
    #: Build (set-up) seconds of every simulation in the run.
    builds: list[float] = field(default_factory=list)

    @property
    def histories(self) -> list[History]:
        return [self.fixed.history] + [history for history, _ in self.probes]

    @property
    def ops_per_s(self) -> float:
        """Operations per wall second over every simulation of the run."""
        ops = sum(len(history.outcomes) for history in self.histories)
        return ops / (self.fixed.wall_s + sum(wall for _, wall in self.probes))


def _excess(run: SimRun) -> float:
    """log(p99 of the second half / LIMIT_T): negative while under it."""
    outcomes = sorted(run.history.outcomes, key=lambda o: o.started_at)
    late = outcomes[len(outcomes) // 2:]
    return math.log(percentile([o.latency for o in late], 99) / LIMIT_T)


def capacity(workload: Workload, seed: int, result: SimResult) -> float:
    def probe(rate: float) -> float:
        run = run_once(config(workload, seed, rate, workload.capacity_ops))
        result.probes.append((run.history, run.wall_s))
        result.builds.append(run.build_s)
        return _excess(run)

    def root() -> float:
        return low - f_low * (high - low) / (f_high - f_low)

    low, high = workload.capacity_bracket
    f_low, f_high = probe(low), probe(high)
    for _ in range(CAPACITY_STEPS):
        rate = root()
        f_rate = probe(rate)
        if f_rate < 0:
            low, f_low = rate, f_rate
        else:
            high, f_high = rate, f_rate
    return root()


def run(workload: Workload, seed: int) -> SimResult:
    """The fixed-rate run, then the capacity search."""
    result = SimResult()
    cfg = config(workload, seed, workload.sim_rate, workload.sim_ops)
    result.fixed = run_once(cfg)
    result.builds.append(result.fixed.build_s)
    result.capacity = capacity(workload, seed, result)
    return result
