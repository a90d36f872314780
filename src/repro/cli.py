"""Command-line interface: regenerate the paper's tables from a terminal.

``python -m repro <command>``:

* ``example``   — Table 1 and the Section 3.4 worked example;
* ``fig2``      — Figure 2 communication-cost series;
* ``fig3``      — Figure 3 read-load series;
* ``fig4``      — Figure 4 write-load series;
* ``survey``    — the Section 1 related-work survey;
* ``analyse``   — analyse an arbitrary tree spec (e.g. ``1-3-5``);
* ``sweep``     — an arbitrary-quantity configuration sweep
  (``--jobs N`` shards size runs across a process pool);
* ``availability`` — exact / Monte-Carlo availability of a spec or protocol
  (``--samples`` / ``--seed`` reach the estimator; ``--jobs N`` shards the
  Monte-Carlo sampling across a process pool);
* ``tune``      — recommend a tree for a given n / p / read fraction;
* ``simulate``  — run the discrete-event simulator and print measurements
  (``--repeats R --jobs N`` fans independently seeded repeats across a
  process pool and reports the merged measurements; ``--retry-policy`` /
  ``--backoff`` select the coordinator's retry-delay schedule and
  ``--detector`` turns on suspicion-aware quorum selection);
* ``shard``     — run a sharded multi-object keyspace: a router
  partitions the keys onto N shards, each shard runs its own replica
  group, and a load balancer spreads traffic over per-shard coordinator
  pools (``--repeats R --jobs N`` fans independently seeded repeats
  across a process pool, merged shard-wise and bit-identical to serial);
* ``chaos``     — run a chaos scenario (flaky links, rolling restarts,
  stragglers, partition flapping, mass crash) with the safety invariant
  checker armed, and report availability, recovery behaviour and
  failure-detector counters;
* ``reconfigure`` — change the tree shape mid-run: epoch-based online
  reconfiguration serves reads and writes on dual quorums throughout the
  transition (``--stop-the-world`` selects the legacy quiescent
  migration), optionally under a chaos scenario, with the invariant
  checker armed across the epoch boundary;
* ``trace``     — run the simulator with tracing on and export the span
  stream (one JSON object per line) plus message counters;
* ``report``    — per-phase latency breakdown + flame summary, either for
  a fresh traced run or from a previously exported JSONL trace;
* ``all``       — everything above with default parameters.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Sequence

from repro.analysis.related_work import survey
from repro.analysis.sweeps import figure2_series, figure3_series, figure4_series
from repro.analysis.tables import format_series, format_table
from repro.core import analyse, from_spec
from repro.core.tuning import recommend


def _print_example() -> None:
    from repro.core.tree import ArbitraryTree

    tree = ArbitraryTree.from_level_counts([0, 3, 5], [1, 0, 4])
    rows = [
        [row.level, row.total, row.physical, row.logical]
        for row in tree.level_table()
    ]
    print(format_table(
        ["level k", "m_k", "m_phy_k", "m_log_k"], rows,
        title="Table 1: the Figure 1 tree",
    ))
    metrics = analyse(tree, p=0.7)
    print()
    print(format_table(
        ["quantity", "value"],
        [
            ["m(R)", 15], ["m(W)", 2],
            ["RD_cost", metrics.read_cost],
            ["RD_availability(0.7)", round(metrics.read_availability, 4)],
            ["L_RD", round(metrics.read_load, 4)],
            ["WR_cost", metrics.write_cost_avg],
            ["WR_availability(0.7)", round(metrics.write_availability, 4)],
            ["L_WR", round(metrics.write_load, 4)],
            ["E[L_RD]", round(metrics.expected_read_load, 4)],
            ["E[L_WR]", round(metrics.expected_write_load, 4)],
        ],
        title="Section 3.4 example (p = 0.7)",
    ))


def _print_figure(which: str, p: float) -> None:
    builders = {
        "fig2": (figure2_series, ("read_cost", "write_cost")),
        "fig3": (figure3_series, ("read_load", "expected_read_load")),
        "fig4": (figure4_series, ("write_load", "expected_write_load")),
    }
    build, quantities = builders[which]
    series = build(p=p)
    for quantity in quantities:
        print(format_series(
            series, quantity,
            title=f"{which.upper()}: {quantity} (p = {p})",
        ))
        print()


def _print_survey(n: int) -> None:
    rows = [
        [e.protocol, e.reference, e.n, e.read_cost_best, e.read_cost_worst,
         round(e.write_cost, 2), round(e.read_load, 4), round(e.write_load, 4)]
        for e in survey(n)
    ]
    print(format_table(
        ["protocol", "ref", "n", "rd min", "rd max", "wr cost",
         "rd load", "wr load"],
        rows,
        title=f"Section 1 related-work survey at n ~ {n}",
    ))


def _print_analysis(spec: str, p: float) -> None:
    tree = from_spec(spec)
    print(tree.describe())
    metrics = analyse(tree, p=p)
    print()
    print(format_table(
        ["quantity", "value"],
        [
            ["read cost", metrics.read_cost],
            ["write cost (min/avg/max)",
             f"{metrics.write_cost_min}/{metrics.write_cost_avg:g}/"
             f"{metrics.write_cost_max}"],
            ["read availability", round(metrics.read_availability, 4)],
            ["write availability", round(metrics.write_availability, 4)],
            ["read load", round(metrics.read_load, 4)],
            ["write load", round(metrics.write_load, 4)],
            ["E[read load]", round(metrics.expected_read_load, 4)],
            ["E[write load]", round(metrics.expected_write_load, 4)],
        ],
        title=f"analysis of {spec} at p = {p}",
    ))


def _print_sweep(quantities: Sequence[str], sizes: Sequence[int], p: float,
                 jobs: int) -> None:
    """``repro sweep``: arbitrary-quantity configuration sweep via the runner."""
    from repro.runner import ProgressPrinter, parallel_sweep

    series = parallel_sweep(
        tuple(quantities), sizes=tuple(sizes), p=p, jobs=jobs,
        progress=ProgressPrinter("sweep") if jobs > 1 else None,
    )
    for quantity in quantities:
        print(format_series(
            series, quantity,
            title=f"sweep: {quantity} (p = {p}, jobs = {jobs})",
        ))
        print()


def _print_availability(spec: str, protocol: str | None, n: int,
                        probabilities: Sequence[float], samples: int,
                        seed: int | None, jobs: int = 1) -> None:
    """Read/write availability of a tree spec or zoo protocol.

    Systems small enough for the exact computation report it; larger ones
    fall back to the Monte-Carlo estimator, parameterised by ``samples`` and
    ``seed`` (both plumbed through the QuorumSystem layer to the packed
    bitset kernel).  With ``jobs > 1`` the estimate always runs the chunked
    Monte-Carlo path, sharded across a process pool — bit-identical to the
    same chunked estimate at ``jobs = 1``.
    """
    from repro.core.protocol import ArbitraryProtocol
    from repro.protocols.zoo import quorum_system
    from repro.quorums.system import CachedQuorumSystem

    if protocol is None or protocol == "arbitrary-spec":
        system = CachedQuorumSystem(ArbitraryProtocol(from_spec(spec)))
        label = f"availability of {spec}"
        ref = ("tree", spec)
    else:
        system = CachedQuorumSystem(quorum_system(protocol, n or 16))
        label = f"availability of {system.name} (n = {system.n})"
        ref = ("protocol", protocol, n or 16)
    if jobs > 1:
        import random as _random

        from repro.runner import parallel_availability

        master = _random.randrange(2**63) if seed is None else seed
        rows = [
            [p,
             round(parallel_availability(
                 ref, p, "read", samples=samples, seed=master, jobs=jobs), 6),
             round(parallel_availability(
                 ref, p, "write", samples=samples, seed=master, jobs=jobs), 6)]
            for p in probabilities
        ]
        title = (f"{label} (Monte-Carlo, samples = {samples}, "
                 f"seed = {master}, jobs = {jobs})")
    else:
        rows = [
            [p,
             round(system.availability(p, "read", samples=samples, seed=seed), 6),
             round(system.availability(p, "write", samples=samples, seed=seed), 6)]
            for p in probabilities
        ]
        title = f"{label} (samples = {samples}, seed = {seed})"
    print(format_table(
        ["p", "read availability", "write availability"], rows, title=title,
    ))


def _print_tuning(n: int, p: float, read_fraction: float) -> None:
    result = recommend(n, p=p, read_fraction=read_fraction)
    print(f"best tree for n={n}, p={p}, read fraction {read_fraction}:")
    print(f"  {result.tree.spec()}  (score {result.best.score:.4f})")
    print()
    rows = [
        [item.tree.spec()[:40], item.tree.num_physical_levels,
         round(item.score, 4), round(item.read_metric, 4),
         round(item.write_metric, 4)]
        for item in result.alternatives[:8]
    ]
    print(format_table(
        ["tree", "|K_phy|", "score", "read metric", "write metric"],
        rows, title="top candidates",
    ))


def _retry_policy_spec(args):
    """Build a :class:`RetryPolicySpec` from --retry-policy / --backoff.

    ``--backoff`` takes ``key=value`` pairs (``base``, ``factor``, ``cap``,
    ``jitter``), comma-separated; giving it without ``--retry-policy``
    implies the exponential policy.
    """
    kind = getattr(args, "retry_policy", None)
    backoff = getattr(args, "backoff", None)
    if kind is None and backoff is None:
        return None
    from repro.fault.retry import RetryPolicySpec

    if kind is None:
        kind = "exponential"
    fields = {
        "base": 1.0 if kind == "exponential" else 0.0,
        "factor": 2.0,
        "cap": 60.0,
        "jitter": 0.0,
    }
    if backoff:
        for part in backoff.split(","):
            name, sep, value = part.partition("=")
            name = name.strip()
            if not sep or name not in fields:
                raise ValueError(
                    f"invalid --backoff component {part!r}: expected "
                    "key=value with key in base/factor/cap/jitter"
                )
            try:
                fields[name] = float(value)
            except ValueError:
                raise ValueError(
                    f"invalid --backoff value {part!r}: {value!r} is not "
                    "a number"
                ) from None
    return RetryPolicySpec(kind=kind, **fields)


def _from_args(cls, args, **overrides):
    """A ``cls`` dataclass built from the parsed options named after its fields.

    Every option whose ``dest`` is a field of ``cls`` fills that field;
    ``overrides`` supply the fields that need translating first.
    """
    names = {field.name for field in dataclasses.fields(cls)}
    values = {name: value for name, value in vars(args).items()
              if name in names}
    return cls(**{**values, **overrides})


def _sim_config(args) -> tuple:
    """``(params, config, label)`` for a simulation subcommand's options.

    The options parse straight into :class:`~repro.runner.SimParams`
    fields; :func:`~repro.runner.tasks.build_sim_config` — the single
    source of the simulation defaults — turns the record into the config
    that CLI runs and parallel-runner workers both simulate.
    """
    from repro.runner.tasks import SimParams, build_sim_config

    params = _from_args(SimParams, args, retry_policy=_retry_policy_spec(args))
    return (params, *build_sim_config(params))


def _print_simulation(args, params, config, label) -> None:
    """``repro simulate``: measured quantities against the closed forms."""
    from repro.sim import simulate

    reconfiguration = None
    if args.repeats > 1:
        from repro.runner import (
            ProgressPrinter,
            merge_monitors,
            parallel_simulations,
        )

        monitors = parallel_simulations(
            params, args.repeats, jobs=args.jobs,
            progress=ProgressPrinter("simulate") if args.jobs > 1 else None,
        )
        summary = merge_monitors(monitors).summary()
        messages: object = "-"
        run_title = (f"{label}: {args.operations} ops x {args.repeats} "
                     f"repeats, p = {args.p}, master seed {args.seed}, "
                     f"jobs {args.jobs}")
    else:
        result = simulate(config)
        summary = result.summary()
        messages = int(summary["messages_sent"])
        run_title = (f"{label}: {args.operations} ops, p = {args.p}, "
                     f"seed {args.seed}")
        if result.reconfiguration is not None:
            availability = result.window_read_availability(
                result.reconfiguration.started_at,
                result.reconfiguration.finished_at,
            )
            reconfiguration = (result.reconfiguration, availability)
    rows: list[list] = []
    if config.system is None:
        metrics = analyse(config.tree, p=args.p)
        rows = [
            ["read cost", round(summary["read_cost"], 3), metrics.read_cost],
            ["write cost", round(summary["write_cost"], 3),
             round(metrics.write_cost_avg, 3)],
            # A write also runs the Section 3.2.2 version round against a
            # read quorum, so the replicas it actually contacts are the
            # write quorum plus a read quorum's worth.
            ["write cost (total)", round(summary["write_cost_total"], 3),
             round(metrics.write_cost_avg + metrics.read_cost, 3)],
            ["read load", round(summary["read_load"], 3),
             round(metrics.read_load, 3)],
            ["write load", round(summary["write_load"], 3),
             round(metrics.write_load, 3)],
            ["read availability", round(summary["read_availability"], 3),
             round(metrics.read_availability, 3)],
            ["write availability", round(summary["write_availability"], 3),
             round(metrics.write_availability, 3)],
            ["messages", messages, "-"],
        ]
    else:
        system = config.system
        rows = [
            ["read cost", round(summary["read_cost"], 3), "-"],
            ["write cost", round(summary["write_cost"], 3), "-"],
            ["write cost (total)", round(summary["write_cost_total"], 3), "-"],
            ["read load", round(summary["read_load"], 3),
             round(system.load("read"), 3)],
            ["write load", round(summary["write_load"], 3),
             round(system.load("write"), 3)],
            ["read availability", round(summary["read_availability"], 3),
             round(system.availability(args.p, "read"), 3)],
            ["write availability", round(summary["write_availability"], 3),
             round(system.availability(args.p, "write"), 3)],
            ["messages", messages, "-"],
        ]
    print(format_table(
        ["quantity", "simulated", "closed form"],
        rows,
        title=run_title,
    ))
    if reconfiguration is not None:
        outcome, availability = reconfiguration
        window = "-" if availability is None else f"{availability:.4f}"
        print()
        print(
            f"reconfiguration ({outcome.mode}) -> "
            f"{outcome.new_tree.spec()}: {outcome.status.value}, "
            f"epoch {outcome.epoch}, "
            f"{outcome.keys_migrated}/{outcome.keys_total} keys in "
            f"{outcome.duration:g} time units, "
            f"window read availability {window}"
        )


def _sharded_config(args):
    """The :class:`~repro.shard.ShardedConfig` a ``shard`` invocation describes.

    ``timeout`` and Poisson arrivals are the ``shard`` subcommand's own
    defaults; they differ from the :class:`ShardedConfig` and
    :class:`~repro.sim.WorkloadSpec` ones.
    """
    from repro.shard import ShardedConfig
    from repro.sim import WorkloadSpec

    if args.protocol is None or args.protocol == "arbitrary-spec":
        ref = ("tree", args.spec)
    else:
        ref = ("protocol", args.protocol, args.n or 16)
    return _from_args(
        ShardedConfig, args,
        workload=_from_args(WorkloadSpec, args, arrival="poisson"),
        systems=(ref,),
        drop_probability=args.drop,
        timeout=8.0,
        retry_policy=_retry_policy_spec(args),
    )


def _print_shard(args, config) -> None:
    """``repro shard``: a sharded keyspace run with per-shard breakdown."""
    names = ", ".join(
        "/".join(str(part) for part in ref[1:]) for ref in config.systems
    )
    label = (f"sharded simulation: {config.shards} shards of {names} "
             f"({config.router} router, {config.workload.keys} keys)")
    if args.repeats > 1:
        from repro.runner import (
            ProgressPrinter,
            merge_monitors,
            parallel_shard_simulations,
        )

        monitor = merge_monitors(parallel_shard_simulations(
            config, args.repeats, jobs=args.jobs,
            progress=ProgressPrinter("shard") if args.jobs > 1 else None,
        ))
        summary = monitor.summary()
        throughput: object = "-"
        title = (f"{label}: {args.operations} ops x {args.repeats} repeats, "
                 f"p = {args.p}, master seed {args.seed}, jobs {args.jobs}")
    else:
        from repro.shard import simulate_sharded

        result = simulate_sharded(config)
        monitor = result.monitor
        summary = result.summary()
        throughput = round(summary["ops_per_sec"], 4)
        title = (f"{label}: {args.operations} ops, p = {args.p}, "
                 f"seed {args.seed}")
    shard_rows = [
        [shard, s["reads"] + s["writes"],
         round(s["read_availability"], 3), round(s["write_availability"], 3),
         round(m.reads.latency_percentile(0.5), 2),
         round(m.reads.latency_percentile(0.99), 2)]
        for shard, (s, m) in enumerate(
            zip(monitor.per_shard_summaries(), monitor.shards)
        )
    ]
    print(format_table(
        ["shard", "ops", "rd avail", "wr avail", "rd p50", "rd p99"],
        shard_rows, title=title,
    ))
    print()
    print(format_table(
        ["quantity", "value"],
        [
            ["operations", int(summary["reads"] + summary["writes"])],
            ["ops/sec (simulated)", throughput],
            ["read availability", round(summary["read_availability"], 4)],
            ["write availability", round(summary["write_availability"], 4)],
            ["read latency p50/p99",
             f"{summary['read_latency_p50']:g}/{summary['read_latency_p99']:g}"],
            ["write latency p50/p99",
             f"{summary['write_latency_p50']:g}/"
             f"{summary['write_latency_p99']:g}"],
        ],
        title="aggregate",
    ))


def _print_chaos(args, params, config, label) -> None:
    """``repro chaos``: a scenario run with the invariant checker armed."""
    from repro.sim import simulate

    if args.repeats > 1:
        from repro.runner import (
            ProgressPrinter,
            merge_monitors,
            parallel_simulations,
        )

        monitors = parallel_simulations(
            params, args.repeats, jobs=args.jobs,
            progress=ProgressPrinter("chaos") if args.jobs > 1 else None,
        )
        summary = merge_monitors(monitors).summary()
        title = (f"{label}: {args.operations} ops x {args.repeats} repeats, "
                 f"master seed {args.seed}, jobs {args.jobs}")
        extra_rows: list[list] = []
    else:
        result = simulate(config)
        summary = result.summary()
        title = f"{label}: {args.operations} ops, seed {args.seed}"
        checker = result.invariants
        assert checker is not None
        extra_rows = [
            ["invariants checked", checker.checked],
            ["invariant violations", len(checker.violations)],
        ]
        if result.suspects is not None:
            counters = result.suspects.counters()
            extra_rows += [
                [f"detector {name}", value]
                for name, value in sorted(counters.items())
            ]
    rows = [
        ["read availability", round(summary["read_availability"], 4)],
        ["write availability", round(summary["write_availability"], 4)],
        ["read latency (mean)", round(summary["read_latency_mean"], 3)],
        ["write latency (mean)", round(summary["write_latency_mean"], 3)],
        ["failure latency (mean)", round(summary["failure_latency_mean"], 3)],
    ] + extra_rows
    print(format_table(["quantity", "value"], rows, title=title))


def _print_reconfigure(args, params, config, label) -> None:
    """``repro reconfigure``: a mid-run tree change with invariants armed."""
    from repro.sim import simulate

    result = simulate(config)
    outcome = result.reconfiguration
    checker = result.invariants
    assert outcome is not None and checker is not None
    summary = result.summary()
    availability = result.window_read_availability(
        outcome.started_at, outcome.finished_at
    )
    rows: list[list] = [
        ["status", outcome.status.value],
        ["mode", outcome.mode],
        ["target tree", outcome.new_tree.spec()],
        ["epoch", outcome.epoch],
        ["rolled back", "yes" if outcome.rolled_back else "no"],
        ["keys migrated", f"{outcome.keys_migrated}/{outcome.keys_total}"],
        ["transition window",
         f"t = {outcome.started_at:g} .. {outcome.finished_at:g}"],
        ["window read availability",
         "-" if availability is None else round(availability, 4)],
        ["read availability (run)", round(summary["read_availability"], 4)],
        ["write availability (run)", round(summary["write_availability"], 4)],
        ["invariants checked", checker.checked],
        ["invariant violations", len(checker.violations)],
    ]
    print(format_table(
        ["quantity", "value"], rows,
        title=f"{label}: reconfigure at t = {args.reshape_at:g}, "
              f"seed {args.seed}",
    ))
    for violation in checker.violations[:5]:
        print(f"  VIOLATION: {violation}")


def _print_trace(args, params, config, label) -> None:
    """``repro trace``: run a traced simulation, export JSON Lines."""
    from repro.obs import export_trace
    from repro.sim import simulate

    result = simulate(config)
    recorder = result.recorder
    path = export_trace(recorder, args.out)
    traces = recorder.traces()
    print(f"{label}: {args.operations} ops, p = {args.p}, seed {args.seed}")
    print(
        f"wrote {path}: {len(traces)} traces, {len(recorder.spans)} spans, "
        f"{sum(len(c) for c in recorder.counters.values())} counter cells"
    )
    open_spans = recorder.open_spans()
    if open_spans:
        print(f"WARNING: {len(open_spans)} spans never finished")


def _print_report(args, params, config, label) -> None:
    """``repro report``: per-phase breakdown + flame summary + counters."""
    from repro.obs import (
        flame_summary,
        load_trace,
        phase_breakdown,
        render_counters,
        render_phase_breakdown,
        summaries_of,
    )
    from repro.sim import simulate

    if args.trace_file is not None:
        recorder = load_trace(args.trace_file)
        print(f"trace report for {args.trace_file}")
    else:
        result = simulate(config)
        recorder = result.recorder
        summary = result.summary()
        print(f"{label}: {args.operations} ops, p = {args.p}, "
              f"seed {args.seed}")
        print(
            f"availability: read {summary['read_availability']:.3f} "
            f"write {summary['write_availability']:.3f}; "
            f"mean latency: ok {summary['read_latency_mean']:.2f}/"
            f"{summary['write_latency_mean']:.2f} "
            f"failed {summary['failure_latency_mean']:.2f}"
        )
    print()
    print("per-phase latency breakdown")
    print(render_phase_breakdown(phase_breakdown(recorder.finished_spans())))
    print()
    print(flame_summary(recorder))
    print()
    print(render_counters(recorder))
    metric_summaries = summaries_of(recorder)
    if metric_summaries:
        print()
        print("metrics")
        for name, stats in sorted(metric_summaries.items()):
            print(
                f"  {name:<18} count {int(stats['count']):>7}  "
                f"mean {stats['mean']:>9.3f}  min {stats['min']:>8.3f}  "
                f"max {stats['max']:>9.3f}"
            )


def _print_profile(args) -> None:
    """``repro profile``: cProfile hotspots + obs phase attribution.

    Profiles a saturated single-group run (the inner-ring acceptance
    workload by default) so the top of the table is the simulator's hot
    path, not warm-up.  See :mod:`repro.sim.profiling` for why the
    phase attribution comes from a second, traced run.
    """
    from repro.core.builder import from_spec
    from repro.sim.engine import SimulationConfig
    from repro.sim.profiling import profile_simulation
    from repro.sim.workload import WorkloadSpec

    config = SimulationConfig(
        tree=from_spec(args.spec),
        workload=WorkloadSpec(
            operations=args.operations,
            read_fraction=args.read_fraction,
            keys=args.keys,
            arrival="poisson",
            rate=args.rate,
            zipf_s=args.zipf,
        ),
        clients=args.clients,
        service_time=args.service_time,
        timeout=args.timeout,
        seed=args.seed,
        batch_window=args.batch_window,
        leases=args.leases,
    )
    report = profile_simulation(
        config, sort=args.sort, limit=args.limit,
        phases=not args.no_phases,
    )
    print(
        f"{args.spec}: {args.operations} ops, seed {args.seed}, "
        f"service time {args.service_time:g}, rate {args.rate:g}"
    )
    print(
        f"wall {report.wall_seconds:.2f}s under cProfile — "
        f"{report.events_per_sec:,.0f} events/sec, "
        f"{report.ops_per_sec:,.0f} ops/sec "
        f"(profiler overhead included; see BENCH_simcore.json for "
        f"uninstrumented rates)"
    )
    print(report.hotspots)
    if report.phase_breakdown is not None:
        print("per-phase latency breakdown (traced re-run, simulated time)")
        print(report.phase_breakdown)


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


#: The fault-layer options every simulation subcommand takes.
_FAULT_OPTIONS = " --retry-policy --backoff --detector --batch-window --leases"

#: The options ``trace`` and ``report`` share.
_TRACE_OPTIONS = (
    "spec --operations --read-fraction --p --drop --max-attempts --seed "
    "--protocol --n"
)


def _simulation_options() -> dict[str, dict]:
    """Every simulation option, declared once: name -> ``add_argument`` kwargs.

    ``simulate``, ``shard``, ``chaos``, ``reconfigure``, ``trace`` and
    ``report`` pick their options from here (see :func:`_add_options`).
    Each option's ``dest`` is the field it sets — of
    :class:`~repro.runner.SimParams`, or for ``shard`` of
    :class:`~repro.shard.ShardedConfig` and its
    :class:`~repro.sim.WorkloadSpec` — so :func:`_from_args` builds those
    records without a per-option mapping.  A subcommand whose default
    differs sets it with ``set_defaults``.
    """
    from repro.fault.scenarios import CHAOS_SCENARIOS
    from repro.protocols.zoo import PROTOCOL_NAMES
    from repro.shard import BALANCER_POLICIES, ROUTER_KINDS

    return {
        "spec": dict(nargs="?", default="1-3-5"),
        "--operations": dict(type=int, default=2000),
        "--read-fraction": dict(type=float, default=0.5),
        "--p": dict(type=float, default=1.0,
                    help="per-replica availability (1.0 = no failures)"),
        "--seed": dict(type=int, default=0),
        "--protocol": dict(
            choices=PROTOCOL_NAMES, default=None,
            help="simulate a zoo protocol instead of an explicit tree spec",
        ),
        "--n": dict(type=int, default=0, help="replica count for --protocol"),
        "--max-attempts": dict(type=int, default=3),
        "--drop": dict(type=float, default=0.0,
                       help="message drop probability in [0, 1]"),
        "--repeats": dict(
            type=_positive_int, default=1,
            help="independently seeded repeats (merged measurements "
                 "reported)",
        ),
        "--jobs": dict(type=_positive_int, default=1,
                       help="worker processes to fan repeats across"),
        "--scenario": dict(
            dest="chaos", choices=CHAOS_SCENARIOS + ("all",), default=None,
            help="which failure scenario to inject",
        ),
        "--horizon": dict(
            dest="chaos_horizon", metavar="HORIZON", type=float,
            default=1000.0,
            help="simulated time the scenario keeps injecting failures for",
        ),
        "--retry-policy": dict(
            choices=("fixed", "exponential"), default=None,
            help="coordinator retry-delay schedule (default: legacy "
                 "immediate retry)",
        ),
        "--backoff": dict(
            default=None, metavar="KEY=VALUE[,...]",
            help="backoff parameters (base/factor/cap/jitter), e.g. "
                 "'base=1,factor=2,cap=30,jitter=0.2'; implies "
                 "--retry-policy exponential",
        ),
        "--detector": dict(
            action="store_true",
            help="attach the suspicion-based failure detector so quorum "
                 "selection avoids suspected sites",
        ),
        "--batch-window": dict(
            type=float, default=0.0, metavar="W",
            help="coordinator batching window in simulated time units: "
                 "operations arriving within W of the first are coalesced "
                 "per key — same-key reads share one quorum read, batched "
                 "writes skip redundant version rounds (0 = off, the "
                 "legacy per-operation path)",
        ),
        "--leases": dict(
            action="store_true",
            help="cache read results per key as leases: repeat reads of a "
                 "hot key are served without quorum traffic until a "
                 "conflicting write or a liveness-epoch change revokes "
                 "the lease",
        ),
        # Mid-run reconfiguration: ``simulate`` spells it --reshape-*,
        # ``reconfigure`` --at/--target/--stop-the-world.
        "--reshape-at": dict(
            type=float, default=0.0, metavar="T",
            help="launch a tree reconfiguration at simulated time T "
                 "(0 = off, the legacy fixed-tree path)",
        ),
        "--reshape-spec": dict(
            default=None, metavar="SPEC",
            help="target tree spec for --reshape-at (default: a "
                 "fault-aware plan from the tuning advisor and detector "
                 "evidence)",
        ),
        "--reshape-stop-the-world": dict(
            action="store_false", dest="reshape_online",
            help="use the quiescent stop-the-world migration instead of "
                 "the epoch-based online transition",
        ),
        "--at": dict(
            dest="reshape_at", type=float, default=200.0, metavar="T",
            help="simulated time at which the reconfiguration launches",
        ),
        "--target": dict(
            dest="reshape_spec", default=None, metavar="SPEC",
            help="target tree spec (default: a fault-aware plan from the "
                 "tuning advisor and detector evidence)",
        ),
        "--stop-the-world": dict(
            action="store_false", dest="reshape_online",
            help="use the legacy quiescent migration (pauses all "
                 "coordinators) instead of the online epoch transition",
        ),
        # The sharded keyspace (``shard`` only).
        "--shards": dict(type=int, default=4),
        "--keys": dict(type=int, default=1024,
                       help="global keyspace size the router partitions"),
        "--zipf": dict(dest="zipf_s", metavar="ZIPF", type=float,
                       default=0.0,
                       help="Zipf skew of key popularity (0 = uniform)"),
        "--rate": dict(
            type=float, default=0.25,
            help="aggregate Poisson arrival rate (ops per time unit)",
        ),
        "--diurnal-period": dict(
            type=float, default=0.0,
            help="diurnal cycle length in simulated time units (0 = "
                 "constant rate)",
        ),
        "--diurnal-amplitude": dict(
            type=float, default=0.0, help="relative diurnal swing in [0, 1]",
        ),
        "--router": dict(choices=ROUTER_KINDS, default="hash",
                         help="keyspace partitioning scheme"),
        "--router-seed": dict(type=int, default=0,
                              help="hash-placement seed"),
        "--balancer": dict(choices=BALANCER_POLICIES, default="round-robin",
                           help="per-shard coordinator-pool policy"),
        "--clients-per-shard": dict(
            dest="clients", metavar="CLIENTS_PER_SHARD", type=int, default=1,
        ),
        "--regions": dict(
            type=int, default=0,
            help="spread each shard's replicas over this many latency "
                 "regions (0 = uniform latency)",
        ),
        "--service-time": dict(
            type=float, default=0.0,
            help="per-message replica processing time (adds queueing)",
        ),
    }


def _add_options(parser, table: dict, options: str, **helps: str) -> None:
    """Declare ``options`` (names in ``table``) on ``parser``, in order.

    ``helps`` replaces an option's help text, keyed by its name without
    the dashes (``p``, ``protocol``, ``read_fraction``).
    """
    for option in options.split():
        kwargs = table[option]
        key = option.lstrip("-").replace("-", "_")
        if key in helps:
            kwargs = {**kwargs, "help": helps[key]}
        parser.add_argument(option, **kwargs)


def _run_cluster(args) -> int:
    """``repro cluster``: real processes, real sockets, optional kill -9."""
    import asyncio
    import json

    from repro.runtime.cluster import KVFrontend, LocalCluster, run_traffic

    async def drive() -> int:
        cluster = LocalCluster(
            spec=args.spec,
            timeout=args.timeout,
            max_attempts=args.max_attempts,
            seed=args.seed,
        )
        await cluster.start()
        print(
            f"cluster up: spec={args.spec} sites={cluster.n} "
            f"ports={[site.port for site in cluster.sites]}",
            flush=True,
        )
        exit_code = 0
        try:
            report = await run_traffic(
                cluster,
                operations=args.operations,
                read_fraction=args.read_fraction,
                keys=args.keys,
                seed=args.seed,
                kill_after_ops=args.kill_after_ops,
                kill_site=args.kill_site,
            )
            summary = report.summary()
            if report.killed_site is not None:
                print(
                    f"SIGKILLed site {report.killed_site} after "
                    f"{report.kill_after_ops} ops; post-kill reads "
                    f"{report.post_kill_reads - report.post_kill_read_failures}"
                    f"/{report.post_kill_reads} succeeded",
                    flush=True,
                )
            print(json.dumps(summary, indent=2))
            # Gate: every read must succeed — including every read issued
            # after the kill (writes may legitimately lose their quorum).
            if report.read_failures or (
                report.killed_site is not None
                and report.post_kill_read_failures
            ):
                exit_code = 1
            if args.serve:
                frontend = KVFrontend(cluster, port=args.serve_port)
                await frontend.start()
                print(f"REPRO-KV port={frontend.port}", flush=True)
                await frontend.stop_requested.wait()
                await frontend.stop()
        finally:
            await cluster.stop()
            orphans = cluster.orphans()
            if orphans:
                print(f"orphaned site processes: {orphans}", flush=True)
                exit_code = 1
            else:
                print("cluster shut down cleanly (no orphans)", flush=True)
        return exit_code

    try:
        return asyncio.run(asyncio.wait_for(drive(), args.deadline))
    except KeyboardInterrupt:
        return 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Arbitrary tree-structured replica control protocol "
                    "(ICDCS 2008) — analysis and simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("example", help="Table 1 + the Section 3.4 example")

    for fig in ("fig2", "fig3", "fig4"):
        fig_parser = sub.add_parser(fig, help=f"regenerate {fig} series")
        fig_parser.add_argument("--p", type=float, default=0.7)

    survey_parser = sub.add_parser("survey", help="related-work survey")
    survey_parser.add_argument("--n", type=int, default=121)

    analyse_parser = sub.add_parser("analyse", help="analyse a tree spec")
    analyse_parser.add_argument("spec", help="tree spec, e.g. 1-3-5")
    analyse_parser.add_argument("--p", type=float, default=0.9)

    sweep_parser = sub.add_parser(
        "sweep", help="configuration sweep over arbitrary quantities"
    )
    sweep_parser.add_argument(
        "--quantities", nargs="+", default=["read_cost", "write_cost"],
        help="ConfigPoint attribute names to sweep",
    )
    sweep_parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="replica counts on the x-axis (default: the figures' range)",
    )
    sweep_parser.add_argument("--p", type=float, default=0.7)
    sweep_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes to shard size runs across",
    )

    avail_parser = sub.add_parser(
        "availability",
        help="read/write availability of a spec or zoo protocol",
    )
    avail_parser.add_argument("spec", nargs="?", default="1-3-5")
    avail_parser.add_argument(
        "--p", type=float, nargs="+", default=[0.5, 0.7, 0.9, 0.95, 0.99],
        help="per-replica availabilities to evaluate",
    )
    avail_parser.add_argument(
        "--samples", type=int, default=100_000,
        help="Monte-Carlo samples (used when the system is too large "
             "for the exact computation)",
    )
    avail_parser.add_argument(
        "--seed", type=int, default=0,
        help="Monte-Carlo seed (pass -1 for fresh randomness)",
    )
    from repro.protocols.zoo import PROTOCOL_NAMES

    avail_parser.add_argument(
        "--protocol", choices=PROTOCOL_NAMES, default=None,
        help="evaluate a zoo protocol instead of a tree spec",
    )
    avail_parser.add_argument(
        "--n", type=int, default=0,
        help="replica count for --protocol (snapped to an admissible size)",
    )
    avail_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; > 1 shards the Monte-Carlo sampling",
    )

    tune_parser = sub.add_parser("tune", help="recommend a tree shape")
    tune_parser.add_argument("--n", type=int, default=48)
    tune_parser.add_argument("--p", type=float, default=0.9)
    tune_parser.add_argument("--read-fraction", type=float, default=0.5)

    options = _simulation_options()
    sim_parser = sub.add_parser("simulate", help="run the simulator")
    _add_options(
        sim_parser, options,
        "spec --operations --read-fraction --p --seed --protocol --n "
        "--repeats --jobs" + _FAULT_OPTIONS
        + " --reshape-at --reshape-spec --reshape-stop-the-world",
        protocol="simulate a zoo protocol instead of an explicit tree spec "
                 "(sized via --n, or to match the spec's replica count)",
        n="replica count for --protocol (snapped to an admissible size)",
    )

    shard_parser = sub.add_parser(
        "shard",
        help="run a sharded multi-object keyspace over per-shard replica "
             "groups",
    )
    _add_options(
        shard_parser, options,
        "spec --shards --protocol --n --operations --read-fraction --keys "
        "--zipf --rate --diurnal-period --diurnal-amplitude --router "
        "--router-seed --balancer --clients-per-shard --p --regions --drop "
        "--service-time --seed --repeats --jobs" + _FAULT_OPTIONS,
        spec="per-shard tree spec (every shard runs one replica group)",
        protocol="run shards on a zoo protocol instead of a tree spec",
        repeats="independently seeded repeats (merged shard-wise)",
    )

    chaos_parser = sub.add_parser(
        "chaos",
        help="run a chaos scenario with the safety invariant checker armed",
    )
    _add_options(
        chaos_parser, options,
        "spec --scenario --operations --read-fraction --p --seed "
        "--max-attempts --horizon --protocol --n --repeats --jobs"
        + _FAULT_OPTIONS,
        p="per-replica Bernoulli availability composed under the chaos",
        protocol="run the chaos against a zoo protocol instead of a tree spec",
    )
    chaos_parser.set_defaults(
        chaos="all", operations=1000, max_attempts=4, check_invariants=True,
    )

    reconf_parser = sub.add_parser(
        "reconfigure",
        help="change the tree shape mid-run (online dual-quorum epoch "
             "transition, or --stop-the-world) with invariants armed",
    )
    _add_options(
        reconf_parser, options,
        "spec --target --at --stop-the-world --operations --read-fraction "
        "--p --seed --max-attempts --scenario --horizon" + _FAULT_OPTIONS,
        spec="initial tree spec",
        scenario="compose a chaos scenario under the reconfiguration",
        horizon="simulated time the chaos scenario keeps injecting for",
    )
    reconf_parser.set_defaults(
        operations=1000, max_attempts=4, check_invariants=True,
    )

    trace_parser = sub.add_parser(
        "trace", help="run a traced simulation and export JSONL spans"
    )
    _add_options(trace_parser, options, _TRACE_OPTIONS)
    trace_parser.add_argument(
        "--out", default="trace.jsonl",
        help="output path for the JSON Lines trace",
    )
    trace_parser.set_defaults(operations=500, trace=True)

    profile_parser = sub.add_parser(
        "profile",
        help="cProfile hotspots + per-phase attribution of a saturated "
             "simulation (the inner-ring tuning loop)",
    )
    profile_parser.add_argument(
        "spec", nargs="?", default="1-3-5",
        help="tree spec to profile against",
    )
    profile_parser.add_argument("--operations", type=int, default=5000)
    profile_parser.add_argument("--read-fraction", type=float, default=0.9)
    profile_parser.add_argument("--keys", type=int, default=128)
    profile_parser.add_argument(
        "--rate", type=float, default=4.0,
        help="aggregate Poisson arrival rate (defaults saturate the group)",
    )
    profile_parser.add_argument("--zipf", type=float, default=1.1)
    profile_parser.add_argument("--clients", type=int, default=4)
    profile_parser.add_argument(
        "--service-time", type=float, default=1.0,
        help="per-message replica processing time (> 0 keeps the group "
             "saturated so the profile shows the steady-state hot path)",
    )
    profile_parser.add_argument("--timeout", type=float, default=800.0)
    profile_parser.add_argument("--seed", type=int, default=2026)
    profile_parser.add_argument("--batch-window", type=float, default=0.0)
    profile_parser.add_argument("--leases", action="store_true")
    profile_parser.add_argument(
        "--sort", choices=("tottime", "cumtime", "ncalls"),
        default="tottime",
        help="pstats sort key (tottime = the inner ring itself)",
    )
    profile_parser.add_argument(
        "--limit", type=int, default=25,
        help="profile rows to print",
    )
    profile_parser.add_argument(
        "--no-phases", action="store_true",
        help="skip the traced re-run and its per-phase attribution",
    )

    report_parser = sub.add_parser(
        "report",
        help="per-phase latency breakdown + flame summary of a traced run",
    )
    _add_options(report_parser, options, _TRACE_OPTIONS)
    report_parser.add_argument(
        "--trace-file", default=None,
        help="report on a previously exported JSONL trace instead of "
             "running a fresh simulation",
    )
    report_parser.set_defaults(operations=500, trace=True)

    # Listed here for ``repro --help`` only: ``main`` hands ``serve`` and
    # everything after it to the site process's own parser.
    sub.add_parser(
        "serve", add_help=False,
        help="run ONE replica site as a real TCP server (the runtime "
             "backend's per-process entry point)",
    )

    cluster_parser = sub.add_parser(
        "cluster",
        help="spawn N local site processes + a coordinator front-end, run "
             "smoke get/put traffic over real TCP, optionally kill -9 a "
             "site mid-run",
    )
    cluster_parser.add_argument(
        "spec", nargs="?", default="1-3",
        help="tree spec for the replica group (e.g. 1-3, 1-3-5)",
    )
    cluster_parser.add_argument("--operations", type=int, default=200)
    cluster_parser.add_argument("--read-fraction", type=float, default=0.8)
    cluster_parser.add_argument("--keys", type=int, default=8)
    cluster_parser.add_argument("--seed", type=int, default=0)
    cluster_parser.add_argument(
        "--timeout", type=float, default=1.0,
        help="coordinator quorum-phase timeout in WALL seconds",
    )
    cluster_parser.add_argument("--max-attempts", type=int, default=4)
    cluster_parser.add_argument(
        "--kill-after-ops", type=int, default=None,
        help="SIGKILL a site after this many measured operations",
    )
    cluster_parser.add_argument(
        "--kill-site", type=int, default=None,
        help="which SID to kill (default: the deepest-level leaf, n-1)",
    )
    cluster_parser.add_argument(
        "--serve", action="store_true",
        help="after the smoke run, keep serving the get/put KV API over "
             "TCP until a client sends a stop frame",
    )
    cluster_parser.add_argument("--serve-port", type=int, default=0)
    cluster_parser.add_argument(
        "--deadline", type=float, default=120.0,
        help="hard wall-clock cap on the whole run (orphan safety net)",
    )

    all_parser = sub.add_parser("all", help="everything, default parameters")
    all_parser.add_argument("--p", type=float, default=0.7)
    return parser


#: Subcommands that run one simulation config built by :func:`_sim_config`.
_SIMULATIONS = {
    "simulate": _print_simulation,
    "chaos": _print_chaos,
    "reconfigure": _print_reconfigure,
    "trace": _print_trace,
    "report": _print_report,
}


def _build(parser, args, builder):
    """``builder(args)``, with a ``ValueError`` reported as a usage error.

    Options that parse but describe no valid run — ``--p 1.5``,
    ``--read-fraction 1.5``, ``--backoff base=abc`` — exit with status 2
    and one line on stderr, like any other argument error.  Only building
    is guarded: an error raised while the simulation runs still surfaces
    with its traceback.
    """
    try:
        return builder(args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["serve"]:
        from repro.runtime.siteserver import main as serve_main

        return serve_main(argv[1:], prog="repro serve")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "example":
        _print_example()
    elif args.command in ("fig2", "fig3", "fig4"):
        _print_figure(args.command, args.p)
    elif args.command == "survey":
        _print_survey(args.n)
    elif args.command == "analyse":
        _print_analysis(args.spec, args.p)
    elif args.command == "sweep":
        from repro.analysis.sweeps import DEFAULT_SIZES

        _print_sweep(
            args.quantities,
            DEFAULT_SIZES if args.sizes is None else args.sizes,
            args.p, args.jobs,
        )
    elif args.command == "availability":
        _print_availability(
            args.spec, args.protocol, args.n, args.p, args.samples,
            seed=None if args.seed < 0 else args.seed, jobs=args.jobs,
        )
    elif args.command == "tune":
        _print_tuning(args.n, args.p, args.read_fraction)
    elif args.command == "shard":
        _print_shard(args, _build(parser, args, _sharded_config))
    elif args.command in _SIMULATIONS:
        _SIMULATIONS[args.command](args, *_build(parser, args, _sim_config))
    elif args.command == "profile":
        _print_profile(args)
    elif args.command == "cluster":
        return _run_cluster(args)
    elif args.command == "all":
        _print_example()
        print()
        for fig in ("fig2", "fig3", "fig4"):
            _print_figure(fig, args.p)
        _print_survey(121)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
