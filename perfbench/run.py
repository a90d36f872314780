"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload read-heavy --seed 1 --seconds 12

Run from the root of a checkout: the program is imported from ``src/``.
Each run drives the workload's traffic mix through the real asyncio/TCP
backend and through the simulator (see ``workloads.py`` for the mixes and
why each exists) and checks every operation's outcome.

``--trace 0`` prints the end-to-end metrics, then wall-clock figures that
are measured but too unsteady on a shared host to gate (marked "not
gated"; see ``kvphase.py`` and ``simphase.py``); ``--trace 1`` wraps each
layer's entry points (``tracing.py``), prints the per-layer metrics,
cross-checks the wrapper counts against the program's own counters and
writes the spans under ``perfbench/out/``.  Each metric is printed on its
own line with its unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Provenance (seed,
host fingerprint) is printed on the line before it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no src/repro under {ROOT}: run from a checkout of the repo")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT))

from benchmarks.perf_harness import host_fingerprint  # noqa: E402
from repro.core import metrics as closed_form  # noqa: E402
from repro.core.builder import from_spec  # noqa: E402
from repro.obs.report import phase_breakdown  # noqa: E402
from repro.runtime.cluster import percentile  # noqa: E402

import kvphase  # noqa: E402
import simphase  # noqa: E402
import tracing  # noqa: E402
from workloads import SPEC, WORKLOADS  # noqa: E402

TREE = from_spec(SPEC)


def expected_frames_per_op(read_share: float) -> float:
    """Outbound requests per operation from the paper's closed forms.

    A read sends one request per read-quorum member; a write asks a read
    quorum for versions, then prepares and commits a write quorum.
    """
    read = closed_form.read_cost(TREE)
    write = read + 2 * closed_form.write_cost_avg(TREE)
    return read_share * read + (1 - read_share) * write


def quorum_figures(outcomes) -> dict[str, float]:
    """Quorum sizes and the busiest site's share, against ``1/d`` etc."""
    ok = [o for o in outcomes if o.success and not o.leased]
    reads = [o for o in ok if o.op_type == "read"]
    writes = [o for o in ok if o.op_type == "write"]
    busiest = max(
        sum(1 for o in ok if o.quorum >> sid & 1) for sid in range(TREE.n)
    ) / len(ok)
    read_share = len(reads) / len(ok)
    optimal = (read_share * closed_form.read_load(TREE)
               + (1 - read_share) * closed_form.write_load(TREE))
    return {
        "read_size": statistics.mean(o.quorum.bit_count() for o in reads),
        "write_size": statistics.mean(o.quorum.bit_count() for o in writes),
        "busiest_site_share": busiest,
        "load_ratio": busiest / optimal,
        "read_share": read_share,
    }


def sliced_p99(slices: list[list[float]]) -> float:
    """Median over time slices of each slice's p99."""
    return statistics.median(percentile(part, 99) for part in slices if part)


def latency_figures(prefix: str, reads, writes) -> dict:
    """p50 over all operations and sliced p99, for reads and writes."""
    return {
        f"{prefix}{op}_{name}_ms": (value, "ms")
        for op, slices in (("read", reads), ("write", writes))
        for name, value in (
            ("p50", percentile([ms for part in slices for ms in part], 50)),
            ("p99", sliced_p99(slices)),
        )
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, seed: int, seconds: float):
    kv = asyncio.run(kvphase.run(workload, seed, seconds))
    sim = simphase.run(workload, seed)
    base = sim.fixed
    metrics = {
        "sim_read_mean_t": (statistics.mean(base.latencies("read")), "t"),
        "sim_read_p99_t": (percentile(base.latencies("read"), 99), "t"),
        "sim_write_p99_t": (percentile(base.latencies("write"), 99), "t"),
        "sim_capacity": (sim.capacity, "1/t"),
        "setup_s": (
            statistics.median(kv.setup_s)
            + statistics.median(sim.builds),
            "s",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    ops, front_cpu, site_cpu = kv.phase_cpu[-1]
    ungated = {
        "sat_ops_per_s": (statistics.median(kv.slice_ops_per_s), "1/s"),
        "kv_cpu_ms_per_op": ((front_cpu + site_cpu) / ops * 1e3, "ms"),
        "sim_ops_per_s": (sim.ops_per_s, "1/s"),
        **latency_figures("closed_", kv.closed_read_ms, kv.closed_write_ms),
        **latency_figures("open_", kv.read_ms, kv.write_ms),
        "gen.late_ms_p99": (percentile(kv.late_ms, 99), "ms"),
    }
    notes = {
        "samples": {
            name: sum(map(len, slices)) for name, slices in (
                ("closed_reads", kv.closed_read_ms),
                ("closed_writes", kv.closed_write_ms),
                ("open_reads", kv.read_ms), ("open_writes", kv.write_ms))
        } | {"sim_reads": len(base.latencies("read")),
             "sim_writes": len(base.latencies("write"))},
        "kv_setup_s": kv.setup_s,
    }
    return metrics, ungated, kv.histories + sim.histories, [], notes


def per_layer(workload, seed: int, seconds: float):
    kv_tracer = tracing.Tracer()
    with tracing.installed(kv_tracer):
        kv = asyncio.run(kvphase.run(workload, seed, seconds))
    cfg = simphase.config(workload, seed, workload.sim_rate, workload.sim_ops)
    plain = simphase.run_once(cfg)
    sim_tracer = tracing.Tracer()
    traced_cfg = simphase.config(workload, seed, workload.sim_rate,
                                 workload.sim_ops, trace=True)
    with tracing.installed(sim_tracer):
        traced = simphase.run_once(traced_cfg)

    mismatches = []

    def agree(what: str, wrapped: int, program: int) -> None:
        if wrapped != program:
            mismatches.append(f"{what}: wrappers saw {wrapped}, "
                              f"the program counted {program}")

    t = kv_tracer
    agree("transport sends", t.counts["transport.sent"], kv.lifetime_sent)
    agree("kv lock requests", t.counts["locks.acquired"],
          kv.lifetime_lock_decisions)
    agree("frames read (replies plus one handshake per connection)",
          t.counts["transport.frames_in"],
          kv.lifetime_delivered + TREE.n * len(kv.histories))
    ops = len(kv.body)
    kv_quorums = quorum_figures(kv.body)
    frames = kv.transport_sent / ops
    all_ops = sum(len(h.outcomes) for h in kv.histories)
    rtt = {name: t.samples[f"rtt.{name}"]
           for name in ("read", "version", "prepare", "commit")}
    lock_wait = t.samples["locks.wait"]

    def window(label: str) -> float:
        spans = t.samples[label]
        size = TREE.n
        groups = [spans[i:i + size] for i in range(0, len(spans), size)]
        return statistics.median(
            max(end for _, end in g) - min(start for start, _ in g)
            for g in groups
        )

    metrics = {
        "cluster.spawn_s": (window("cluster.spawn"), "s"),
        "cluster.connect_s": (window("cluster.connect"), "s"),
        "codec.encode_us": (
            t.self_us("codec.frame", "codec.encode",
                      per=t.calls("codec.frame")), "us"),
        "codec.decode_us": (
            t.self_us("codec.parse", "codec.decode",
                      per=t.calls("codec.parse")), "us"),
        "codec.bytes_per_op": (
            (t.counts["codec.bytes_out"] + t.counts["codec.bytes_in"])
            / all_ops, "B"),
        "transport.frames_per_op": (frames, "count"),
        "transport.frames_ratio": (
            frames / expected_frames_per_op(kv_quorums["read_share"]),
            "ratio"),
        "transport.send_us": (
            t.self_us("transport.send", "transport.write_frame",
                      per=t.calls("transport.send")), "us"),
        "transport.dropped": (kv.transport_dropped, "count"),
        "coordinator.receive_us": (t.self_us("coordinator.receive"), "us"),
        "coordinator.submit_us": (t.self_us("coordinator.submit"), "us"),
        "coordinator.attempts_per_op": (
            statistics.mean(o.attempts for o in kv.body), "count"),
        "coordinator.cpu_ms_per_op": (
            sum(cost[1] for cost in kv.phase_cpu) / ops * 1e3, "ms"),
        "locks.wait_ms_p50": (percentile(lock_wait, 50), "ms"),
        "locks.wait_ms_p99": (percentile(lock_wait, 99), "ms"),
        "locks.waited_share": (kv.lock_waited / kv.lock_decided, "ratio"),
        "site.cpu_ms_per_op": (
            sum(cost[2] for cost in kv.phase_cpu) / ops * 1e3, "ms"),
        "quorums.read_size": (kv_quorums["read_size"], "sites"),
        "quorums.write_size": (kv_quorums["write_size"], "sites"),
        "quorums.busiest_site_share": (
            kv_quorums["busiest_site_share"], "ratio"),
        "quorums.load_ratio": (kv_quorums["load_ratio"], "ratio"),
        "gen.late_ms_p99": (percentile(kv.late_ms, 99), "ms"),
    }
    for name, samples in rtt.items():
        metrics[f"site.rtt_ms_p50.{name}"] = (percentile(samples, 50), "ms")
        metrics[f"site.rtt_ms_p99.{name}"] = (percentile(samples, 99), "ms")

    s = sim_tracer
    network = traced.network.stats
    locks = traced.workload.coordinators[0].locks
    leases = traced.workload.coordinators[0].leases
    agree("simulated messages", s.counts["network.sent"], network.sent)
    agree("simulated lock requests", s.counts["locks.acquired"],
          locks.stats.granted + locks.stats.timeouts)
    if plain.signature() != traced.signature():
        mismatches.append("tracing changed the simulated run")
    sim_ops = len(traced.history.outcomes)
    sim_quorums = quorum_figures(traced.history.outcomes)
    phases = {}
    for stat in phase_breakdown(list(traced.monitor.recorder.spans.values())):
        phases.setdefault(stat.phase, []).append(stat)

    def phase_mean(name: str) -> float:
        stats = phases.get(name, [])
        count = sum(stat.count for stat in stats)
        return sum(stat.total for stat in stats) / count if count else 0.0

    rounds = s.counts["batch.rounds"]
    lookups = leases.hits + leases.misses if leases is not None else 0
    msgs = network.sent / sim_ops
    metrics.update({
        "sim.coordinator.receive_us": (s.self_us("coordinator.receive"), "us"),
        "sim.coordinator.submit_us": (s.self_us("coordinator.submit"), "us"),
        "sim.coordinator.attempts_per_op": (
            statistics.mean(o.attempts for o in traced.history.outcomes
                            if not o.leased), "count"),
        "sim.locks.waited_share": (
            locks.stats.granted_after_wait / locks.stats.granted, "ratio"),
        "sim.quorums.busiest_site_share": (
            sim_quorums["busiest_site_share"], "ratio"),
        "sim.quorums.load_ratio": (sim_quorums["load_ratio"], "ratio"),
        "site.receive_us": (s.self_us("site.receive"), "us"),
        "events.per_op": (plain.events / sim_ops, "count"),
        "events.per_wall_s": (plain.events / plain.wall_s, "1/s"),
        "network.msgs_per_op": (msgs, "count"),
        "network.msgs_ratio": (
            msgs / (2 * expected_frames_per_op(sim_quorums["read_share"])),
            "ratio"),
        "network.send_us": (
            s.self_us("network.send", per=network.sent), "us"),
        "phase.read_t": (phase_mean("phase/read"), "t"),
        "phase.version_t": (phase_mean("phase/version"), "t"),
        "phase.prepare_t": (phase_mean("phase/prepare"), "t"),
        "phase.commit_t": (phase_mean("phase/commit"), "t"),
        "phase.lock_wait_t": (phase_mean("lock_wait"), "t"),
        "leases.hit_rate": (leases.hits / lookups if lookups else 0.0,
                            "ratio"),
        "batch.ops_per_round": (
            s.counts["batch.ops"] / rounds if rounds else 1.0, "count"),
        "trace.overhead": (traced.wall_s / plain.wall_s, "ratio"),
    })
    out = HERE / "out"
    meta = {"workload": workload.name, "seed": seed}
    kv_tracer.write_spans(out / f"spans-{workload.name}-{seed}-kv.jsonl",
                          dict(meta, backend="tcp"))
    sim_tracer.write_spans(out / f"spans-{workload.name}-{seed}-sim.jsonl",
                           dict(meta, backend="sim"))
    histories = kv.histories + [plain.history, traced.history]
    return metrics, {}, histories, mismatches, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the clusters' finally blocks stop
    # their site processes before this one exits.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    workload = WORKLOADS[args.workload]
    began = time.perf_counter()
    measure = per_layer if args.trace else end_to_end
    metrics, ungated, histories, problems, notes = measure(
        workload, args.seed, args.seconds
    )
    for history in histories:
        problems.extend(history.violations())
    attempted = sum(h.attempted for h in histories)
    failed = sum(h.failed for h in histories)
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    ungated["error_rate"] = (failed / attempted, "ratio")
    for name, (value, unit) in ungated.items():
        print(f"{name:<34} {value:>14.6g} {unit}  (not gated)")
    for problem in problems[:20]:
        print(f"VIOLATION {problem}")
    provenance = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.perf_counter() - began, "notes": notes,
        "host": host_fingerprint(),
    }
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
