"""Recovery time after a mass crash: suspicion detector vs blind selection.

The scenario behind the fault layer's acceptance criterion.  A 1-3-5
arbitrary-protocol fleet runs a Poisson workload; two sites (one on the
middle level, one on the leaf level) are permanent *stragglers* — up,
answering, but 20x slower than the quorum timeout — and at a fixed
instant a mass crash takes out three further sites.  Post-crash the live
read quorums are scarce, so blind selection keeps drafting the
stragglers, times out, and burns retry attempts; the suspicion-based
:class:`~repro.fault.detector.SuspectList` has already learnt them from
pre-crash timeouts and steers selection around them.

Per seed the measurement is **time-to-first-success (TTFS)**: the delay
from the crash instant until the first *read* started after it succeeds.
Reads are where selection has freedom — a read quorum picks one site per
physical level, so the detector can route around a straggler; a write
quorum is an entire level, so the surviving level's straggler taxes both
arms identically and would only add noise to the metric.  The bench runs
both arms (detector on / off) over the same seeds and asserts the
detector's median TTFS is lower — the adaptive layer must buy back real
recovery time, not just emit counters.  Every run is audited by the
safety invariant checker, so the speed-up cannot come from serving stale
or non-intersecting reads.

Run directly::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py [--quick] [--out P]
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

try:
    from benchmarks.perf_harness import write_bench_json
except ImportError:  # direct `python benchmarks/bench_fault_recovery.py`
    sys.path.insert(0, str(Path(__file__).parent))
    from perf_harness import write_bench_json

from repro.core.builder import from_spec
from repro.fault.invariants import InvariantChecker
from repro.fault.retry import RetryPolicySpec
from repro.fault.scenarios import MassCrash, StragglerSites
from repro.sim.engine import SimulationConfig, build_simulation
from repro.sim.failures import CompositeFailures
from repro.sim.workload import WorkloadSpec

#: Fleet layout: 1-3-5 tree (logical root, physical levels
#: SIDs 0 1 2 | 3 4 5 6 7), so n = 8.
SPEC = "1-3-5"
#: Stragglers: one per physical level — alive but 20x slow.
STRAGGLERS = (1, 5)
#: Mass-crash victims, disjoint from the stragglers and sparing the full
#: top physical level (writes stay possible): post-crash the leaf level
#: is down to {3, 5}, so half of all blind read quorums draft the
#: straggler there.
VICTIMS = (4, 6, 7)
CRASH_AT = 150.0
RECOVER_AFTER = 150.0


class _CapturingChecker(InvariantChecker):
    """Safety auditor that also keeps every outcome for TTFS analysis."""

    def __init__(self) -> None:
        super().__init__()
        self.outcomes = []

    def check(self, outcome) -> None:
        self.outcomes.append(outcome)
        super().check(outcome)


def _config(seed: int, detector: bool, operations: int) -> SimulationConfig:
    failures = CompositeFailures([
        StragglerSites(factor=20.0, sids=STRAGGLERS, start=0.0),
        MassCrash(
            at=CRASH_AT, sids=VICTIMS,
            recover_after=RECOVER_AFTER, stagger=10.0,
        ),
    ])
    return SimulationConfig(
        tree=from_spec(SPEC),
        # Read-heavy mix over many keys: writes must include the surviving
        # level's straggler whatever the detector says, and a stuck write
        # holds its key's lock — a wide key space keeps post-crash reads
        # off those locks so TTFS measures selection, not lock queueing.
        workload=WorkloadSpec(
            operations=operations, read_fraction=0.75, keys=64,
            arrival="poisson", rate=0.25,
        ),
        failures=failures,
        timeout=8.0,
        max_attempts=6,
        seed=seed,
        retry_policy=RetryPolicySpec(
            kind="exponential", base=0.5, factor=2.0, cap=8.0, jitter=0.2
        ),
        detector=detector,
    )


def _time_to_first_success(seed: int, detector: bool, operations: int) -> dict:
    """Run one arm and measure TTFS past the crash instant."""
    checker = _CapturingChecker()
    scheduler, workload, monitor, network, sites = build_simulation(
        _config(seed, detector, operations), invariants=checker
    )
    workload.start()
    while workload.completed < operations:
        if not scheduler.step():
            raise RuntimeError("queue drained before the workload completed")
    assert checker.ok, f"invariant violations: {checker.violations}"
    post_crash = [
        outcome for outcome in checker.outcomes
        if (
            outcome.success
            and outcome.op_type == "read"
            and outcome.started_at >= CRASH_AT
        )
    ]
    ttfs = (
        min(outcome.finished_at for outcome in post_crash) - CRASH_AT
        if post_crash else float("inf")
    )
    summary = monitor.summary()
    suspects = workload.coordinators[0].suspects
    return {
        "seed": seed,
        "ttfs": ttfs,
        "read_availability": summary["read_availability"],
        "selection_avoided": (
            suspects.counters()["selection_avoided"] if suspects else 0
        ),
    }


def run(quick: bool = False, out: str | None = None) -> dict:
    operations = 150 if quick else 400
    seeds = range(5) if quick else range(9)

    arms = {}
    for label, detector in (("blind", False), ("detector", True)):
        runs = [
            _time_to_first_success(seed, detector, operations)
            for seed in seeds
        ]
        arms[label] = {
            "runs": runs,
            "median_ttfs": statistics.median(r["ttfs"] for r in runs),
            "mean_read_availability": statistics.fmean(
                r["read_availability"] for r in runs
            ),
        }

    blind = arms["blind"]["median_ttfs"]
    adaptive = arms["detector"]["median_ttfs"]
    speedup = blind / adaptive if adaptive > 0 else float("inf")
    results = [
        {
            "case": f"mass-crash+stragglers/{label}/operations={operations}",
            "median_ttfs": arm["median_ttfs"],
            "mean_read_availability": round(arm["mean_read_availability"], 4),
            "runs": arm["runs"],
        }
        for label, arm in arms.items()
    ]
    summary = {
        "median_ttfs_blind": blind,
        "median_ttfs_detector": adaptive,
        "ttfs_speedup": round(speedup, 3),
        "seeds": len(list(seeds)),
        "quick": quick,
    }
    print(
        f"median TTFS after mass crash: blind {blind:.1f} vs "
        f"detector {adaptive:.1f} time units ({speedup:.2f}x faster), "
        f"{len(list(seeds))} seeds, {operations} ops/run"
    )
    write_bench_json("fault", results, summary, out=out)
    assert adaptive < blind, (
        f"detector median TTFS {adaptive:.1f} is not below blind "
        f"{blind:.1f}; the adaptive layer bought no recovery time"
    )
    return summary


def test_fault_recovery_smoke(emit):
    """CI smoke: quick tier; detector TTFS must beat blind TTFS.

    Writes to a ``_smoke`` JSON so a local pytest run never clobbers the
    recorded full-run trajectory in ``BENCH_fault.json``.
    """
    from benchmarks.perf_harness import RESULTS_DIR

    summary = run(quick=True, out=str(RESULTS_DIR / "BENCH_fault_smoke.json"))
    emit(
        "fault_recovery_smoke",
        "fault recovery smoke: median TTFS blind "
        f"{summary['median_ttfs_blind']:.1f} vs detector "
        f"{summary['median_ttfs_detector']:.1f} "
        f"({summary['ttfs_speedup']:.2f}x)",
    )
    assert summary["median_ttfs_detector"] < summary["median_ttfs_blind"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer seeds and operations (CI smoke tier)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default benchmarks/results/BENCH_fault.json)",
    )
    arguments = parser.parse_args()
    run(quick=arguments.quick, out=arguments.out)
