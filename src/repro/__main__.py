"""Command-line figure reproduction.

Usage::

    python -m repro                   # list available figures
    python -m repro fig9              # reproduce one figure
    python -m repro all               # every figure and ablation (~2 min at
                                      # --jobs 2); exit 1 on any MISMATCH
    python -m repro fig9 --quick      # reduced duration (faster, noisier)
    python -m repro fig11 --jobs 4    # fan independent experiments out
    python -m repro fig11 --cache     # memoize results on disk
    python -m repro fig9 --seeds 1,2,3  # repeat-run stability statistics
    python -m repro --trace out.json  # observed canonical run: Fig. 4
                                      # per socket + Perfetto-loadable JSON
    python -m repro --trace out.json --mode prism-sync --bg 300000
    python -m repro --metrics out.prom --folded out.folded \
                    --speedscope out.speedscope.json
                                      # the same one run: OpenMetrics
                                      # exposition + flamegraph inputs
    python -m repro --metrics-diff base.json head.json --diff-threshold 5
    python -m repro --cluster 16 --users 100000 --shards 4
                                      # space-parallel sharded cluster run
    python -m repro --cluster 8 --topology fat-tree --shards 2
                                      # k=4 fat-tree fabric with ECMP +
                                      # flowlet switching
    python -m repro --cluster 8 --topology fat-tree \
                    --flows run.sqlite --flow-sample 64
                                      # sampled flow-record export into a
                                      # queryable SQLite store (.jsonl and
                                      # 'mem' sinks work too)
    python -m repro --flows-query top:10 run.sqlite
    python -m repro --flows-query classes run.sqlite
    python -m repro --flows-query links run.sqlite
    python -m repro --flows-query diff base.sqlite head.jsonl
"""

from __future__ import annotations

import argparse
import sys


def _canonical_scenario(mode: str, bg_rate_pps: float,
                        faults: str = None,
                        irq_moderation: str = "fixed"):
    """The canonical stress scenario (--seeds / --trace runs)."""
    from repro.scenario import Scenario
    from repro.sim.units import MS

    scenario = (Scenario(mode=mode)
                .foreground("pingpong", rate_pps=1_000)
                .background(rate_pps=bg_rate_pps)
                .timing(duration_ns=150 * MS, warmup_ns=40 * MS))
    if irq_moderation != "fixed":
        scenario = scenario.kernel(irq_moderation=irq_moderation)
    if faults:
        scenario = scenario.with_faults(faults)
    return scenario


def _fault_run(args) -> None:
    """Run the canonical scenario under an injected fault plan."""
    scenario = _canonical_scenario(args.mode, args.bg, args.faults,
                                   args.irq_moderation)
    result = scenario.run()
    print(result)
    recovery = result.recovery or {}
    print(f"recovery: retries={recovery.get('retries_total', 0)} "
          f"timeouts={recovery.get('timeouts_total', 0)} "
          f"gave_up={recovery.get('gave_up', 0)}")
    c = result.conservation or {}
    print(f"conservation: injected={c.get('injected', 0)} "
          f"delivered={c.get('delivered', 0)} "
          f"dropped={c.get('dropped', 0)} "
          f"in_flight={c.get('in_processing', 0) + c.get('queued', 0)} "
          f"balanced={c.get('balanced')}")
    summary = result.fault_summary or {}
    forced = summary.get("forced", {})
    if forced:
        print("forced drops by site:")
        for site, count in forced.items():
            print(f"  {site:30s} {count}")


def _seed_stability(seeds, jobs: int, cache: bool, mode: str,
                    bg_rate_pps: float, faults: str = None,
                    irq_moderation: str = "fixed") -> None:
    """Print mean/stdev stability statistics for a canonical scenario."""
    from repro.bench.runner import run_repeated

    config = _canonical_scenario(mode, bg_rate_pps, faults,
                                 irq_moderation).build()
    repeated = run_repeated(config, seeds, jobs=jobs, cache=cache)
    print(f"stability over seeds {seeds} ({config.label()}):")
    for metric, stat in repeated.stability.items():
        print(f"  {metric:18s} {stat} "
              f"(cv {stat.rel_stdev * 100:.1f}%)")


def _observed_run(args) -> None:
    """Run the canonical scenario once with the observability layer
    attached; print the result and its Fig. 4 tables, and write every
    requested output (plus flow records under --flows)."""
    scenario = _canonical_scenario(args.mode, args.bg, args.faults,
                                   args.irq_moderation)
    if args.flows:
        scenario = scenario.with_flows(args.flow_sample)
    traced = scenario.run_traced()
    print(traced.result)
    print("\nPer-stage latency breakdown (paper Fig. 4), "
          "per receiving socket:\n")
    print(traced.render_breakdowns())
    observer = traced.observer
    print(f"\nrecorded {observer.recorder.recorded} events "
          f"({observer.recorder.evicted} evicted); "
          f"{observer.total_ns() / 1e6:.1f} ms simulated CPU attributed "
          f"on {len(observer.tracks())} tracks")
    outputs = (
        (args.trace, traced.write_chrome, "Chrome trace",
         "load at https://ui.perfetto.dev or chrome://tracing"),
        (args.metrics, traced.write_openmetrics, "OpenMetrics exposition",
         None),
        (args.metrics_json, traced.write_metrics_json,
         "metrics snapshot (JSON)", "diff with --metrics-diff"),
        (args.folded, traced.write_folded, "collapsed stacks",
         "render with flamegraph.pl or speedscope"),
        (args.speedscope, traced.write_speedscope, "speedscope profile",
         "load at https://www.speedscope.app"),
    )
    for path, write, what, hint in outputs:
        if path:
            note = f" ({hint})" if hint else ""
            print(f"{what} written to {write(path)}{note}")
    if args.flows:
        _export_flows(traced.result.flows, args.flows, scenario.label())


def _export_flows(flows, out: str, label: str) -> None:
    """Write a result's flow block to the sink *out* and summarize it."""
    from repro.flows import export_flows

    export_flows(flows, out, label=label)
    s, c = flows["sampler"], flows["cache"]
    print(f"flows: records={flows['record_count']} "
          f"sampled={s['sampled']}/{s['seen']} "
          f"(1 in {flows['sample_rate']}) sites={s['sites']} "
          f"evicted={c['evicted']} "
          f"expired={c['expired_idle'] + c['expired_active']}")
    print(f"flow record digest: {flows['record_digest']}")
    print(f"flow records written to {out} "
          f"(query with: python -m repro --flows-query top:10 {out})")


def _flows_query(args, parser) -> int:
    """Run one canned offline query against exported flow stores."""
    from repro.flows.query import QUERIES, run_query

    name, *sources = args.flows_query
    base = name.split(":", 1)[0]
    if base not in QUERIES:
        parser.error(f"--flows-query: unknown query {base!r}; "
                     f"choose from {sorted(QUERIES)} "
                     f"(top takes an optional :k suffix, e.g. top:10)")
    try:
        print(run_query(name, *sources))
    except (ValueError, FileNotFoundError) as exc:
        parser.error(f"--flows-query: {exc}")
    return 0


def _cluster_run(args) -> int:
    """Run an N-host sharded cluster scenario and print the merge."""
    from repro.scenario import Scenario, Topology
    from repro.shard.cluster import cluster_digest
    from repro.sim.units import MS

    scenario = (Scenario.cluster(args.cluster, mode=args.mode)
                .users(args.users)
                .timing(duration_ns=int(args.cluster_ms * MS),
                        warmup_ns=int(args.cluster_ms * MS) // 4)
                .shards(args.shards))
    if args.topology == "fat-tree":
        spec = Topology.fat_tree(
            args.fat_tree_k, hosts=args.cluster,
            flowlet_gap_ns=int(args.flowlet_gap_us * 1_000))
    else:
        spec = Topology.mesh(args.cluster)
    scenario = scenario.topology(spec)
    if args.faults:
        scenario = scenario.with_faults(args.faults)
    if args.flows:
        scenario = scenario.with_flows(args.flow_sample)
    result = scenario.run()
    timing = result.timing
    print(f"cluster: hosts={args.cluster} users={args.users} "
          f"shards={result.shards} mode={args.mode} "
          f"topology={args.topology}")
    print(f"digest:  {cluster_digest(result)}")
    print(f"fg (hi class): {result.fg_latency}")
    for cls in ("hi", "lo"):
        t = result.totals[cls]
        print(f"{cls}: users={t['users']} sent={t['sent']} "
              f"replies={t['replies']} timed_out={t['timed_out']} "
              f"outstanding={t['outstanding']}")
    c = result.conservation
    print(f"conservation: sent={c['cross_sent']} routed={c['cross_routed']} "
          f"in_flight={c['cross_in_flight_fabric']} "
          f"injected={c['cross_injected']} windows={c['windows']} "
          f"exact={c['exact']}")
    f = result.fabric
    print(f"fabric: packets={f['packets']} flows={f['flows']} "
          f"multipath={f['flows_multipath']} "
          f"paths_max={f['paths_used_max']} "
          f"flowlet_rehashes={f['flowlet_rehashes']} "
          f"path_changes={f['flowlet_path_changes']} "
          f"links_used={f['links_used']} "
          f"link_pkts_max={f['link_packets_max']}")
    print(f"wall: build={timing['build_s']:.2f}s run={timing['run_s']:.2f}s "
          f"(processes={timing['processes']})")
    if args.flows:
        _export_flows(result.flows, args.flows,
                      f"cluster{args.cluster}-{args.topology}-{args.mode}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce figures from the PRISM paper (ICDCS 2022).")
    parser.add_argument("figure", nargs="?",
                        help="figure name (e.g. fig9) or 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="run at 40%% duration for a faster look")
    parser.add_argument("--jobs", type=int, default=1,
                        help="run independent experiments over N worker "
                        "processes (0 = one per CPU)")
    parser.add_argument("--cache", action="store_true",
                        help="serve repeated runs from the on-disk result "
                        "cache (keyed by config + code version)")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds: print repeat-run "
                        "stability statistics for a canonical scenario")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="run the canonical scenario once with the "
                        "observability layer attached, print the per-stage "
                        "latency breakdown (paper Fig. 4) per receiving "
                        "socket, and write a Chrome/Perfetto trace to "
                        "OUT.json; --metrics, --metrics-json, --folded and "
                        "--speedscope write from the same run")
    parser.add_argument("--metrics", metavar="OUT.prom", default=None,
                        help="write the observed run's OpenMetrics text "
                        "exposition to OUT.prom")
    parser.add_argument("--metrics-json", metavar="OUT.json", default=None,
                        help="write the observed run's versioned JSON "
                        "metrics snapshot (diffable with --metrics-diff)")
    parser.add_argument("--folded", metavar="OUT.folded", default=None,
                        help="write the observed run's simulated-time span "
                        "profile as collapsed stacks (flamegraph.pl folded "
                        "format)")
    parser.add_argument("--speedscope", metavar="OUT.json", default=None,
                        help="write the same profile as a self-contained "
                        "speedscope document")
    parser.add_argument("--metrics-diff", nargs=2,
                        metavar=("BASELINE", "CURRENT"), default=None,
                        help="diff two metrics/result JSON files; "
                        "exit 1 when a relative delta exceeds the "
                        "threshold, 2 when a file is missing or "
                        "unreadable")
    parser.add_argument("--diff-threshold", type=float, default=10.0,
                        metavar="PCT", help="relative-delta threshold for "
                        "--metrics-diff (default: 10%%)")
    parser.add_argument("--diff-match", default="", metavar="SUBSTR",
                        help="only diff series whose name contains SUBSTR")
    parser.add_argument("--mode", default="vanilla",
                        help="stack mode for --trace/--seeds/--metrics runs "
                        "(vanilla, prism-batch, prism-sync, bypass)")
    parser.add_argument("--irq-moderation",
                        choices=("fixed", "adaptive", "off"),
                        default="fixed",
                        help="physical-NIC rx interrupt moderation for "
                        "--trace/--seeds/--metrics/--faults runs: 'fixed' "
                        "static coalescing window, 'adaptive' DIM-style "
                        "rate-tuned window, 'off' no coalescing "
                        "(default: fixed; ignored by --mode bypass)")
    parser.add_argument("--bg", type=float, default=300_000, metavar="PPS",
                        help="background flood rate for --trace/--seeds/"
                        "--metrics runs (default: 300000 pps)")
    parser.add_argument("--cluster", type=int, default=None, metavar="HOSTS",
                        help="run an N-host space-parallel cluster scenario "
                        "(aggregated closed-loop populations between every "
                        "host pair) instead of a figure")
    parser.add_argument("--shards", type=int, default=1,
                        help="partition the cluster's hosts across N worker "
                        "processes synchronized by conservative-lookahead "
                        "windows (results are digest-identical at any shard "
                        "count; default: 1)")
    parser.add_argument("--users", type=int, default=10_000,
                        help="total aggregated users across the cluster's "
                        "flows (default: 10000)")
    parser.add_argument("--cluster-ms", type=float, default=40.0,
                        metavar="MS", help="cluster measurement window in "
                        "simulated milliseconds (default: 40)")
    parser.add_argument("--topology", choices=("mesh", "fat-tree"),
                        default="mesh",
                        help="cluster fabric: 'mesh' links every host "
                        "pair directly (one hop); 'fat-tree' routes "
                        "cross-host packets hop-by-hop through a k-ary "
                        "fat-tree with ECMP and flowlet switching "
                        "(default: mesh)")
    parser.add_argument("--fat-tree-k", type=int, default=4, metavar="K",
                        help="fat-tree arity (even, >= 2; capacity k^3/4 "
                        "hosts; default: 4)")
    parser.add_argument("--flowlet-gap-us", type=float, default=100.0,
                        metavar="US", help="idle gap after which a flow's "
                        "next flowlet may be rehashed onto a different "
                        "equal-cost path (default: 100)")
    parser.add_argument("--flows", metavar="OUT", default=None,
                        help="enable sampled flow-record export and write "
                        "the record set to OUT — a .sqlite/.db store, a "
                        ".jsonl stream, or 'mem' (summary only).  Applies "
                        "to --cluster runs, to the observed run of --trace "
                        "and its siblings, or, alone, to the canonical "
                        "two-host scenario")
    parser.add_argument("--flow-sample", type=int, default=64, metavar="N",
                        help="flow export sampling rate: 1 in N packets "
                        "per emit site (deterministic per seed; "
                        "default: 64)")
    parser.add_argument("--flows-query", nargs="+", default=None,
                        metavar=("QUERY", "STORE"),
                        help="run a canned offline query against exported "
                        "flow stores (.sqlite or .jsonl): 'top[:k]', "
                        "'classes', 'links' take one store; 'diff' takes "
                        "two")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="inject faults into the canonical scenario and "
                        "enable loss recovery; SPEC is ';'-separated clauses "
                        "like 'burst@80ms x2; loss:eth:0.01; flap@50ms+2ms; "
                        "retries=5; timeout=5ms' (see FaultPlan.parse)")
    args = parser.parse_args(argv)
    # Loaded after parsing, so --help and bad arguments stay cheap.
    from repro.bench.figures import FIGURES, configure, reproduce
    from repro.bench.report import format_experiment_header, format_table

    if args.faults:
        from repro.faults import FaultPlan
        try:
            FaultPlan.parse(args.faults)
        except ValueError as exc:
            parser.error(f"--faults: {exc}")

    if args.flow_sample < 1:
        parser.error(f"--flow-sample must be >= 1, got {args.flow_sample}")

    configure(jobs=args.jobs, cache=args.cache)

    if args.flows_query:
        return _flows_query(args, parser)

    if args.cluster:
        if args.shards < 1:
            parser.error(f"--shards must be >= 1, got {args.shards}")
        if args.shards > args.cluster:
            parser.error(
                f"--shards {args.shards} exceeds --cluster {args.cluster}: "
                f"each shard simulates at least one host, so at most "
                f"{args.cluster} shards can do useful work")
        return _cluster_run(args)

    observed = (args.trace or args.metrics or args.metrics_json
                or args.folded or args.speedscope)
    if args.flows and not observed:
        # Standalone --flows: canonical two-host scenario with export on.
        scenario = (_canonical_scenario(args.mode, args.bg, args.faults,
                                        args.irq_moderation)
                    .with_flows(args.flow_sample))
        result = scenario.run()
        print(result)
        _export_flows(result.flows, args.flows, scenario.label())
        if not (args.figure or args.seeds):
            return 0

    if args.metrics_diff:
        from repro.telemetry.diff import main as diff_main
        diff_argv = [args.metrics_diff[0], args.metrics_diff[1],
                     "--threshold", str(args.diff_threshold)]
        if args.diff_match:
            diff_argv += ["--match", args.diff_match]
        return diff_main(diff_argv)

    if observed:
        _observed_run(args)
        if not (args.figure or args.seeds):
            return 0

    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            parser.error(f"--seeds expects comma-separated integers, "
                         f"got {args.seeds!r}")
        _seed_stability(seeds, args.jobs, args.cache, args.mode, args.bg,
                        args.faults, args.irq_moderation)
        if not args.figure:
            return 0

    if args.faults:
        _fault_run(args)
        if not args.figure:
            return 0

    if not args.figure:
        print("Available reproductions:\n")
        for name, (title, _runner) in FIGURES.items():
            print(f"  {name:20s} {title}")
        print("\nRun: python -m repro <name>   or: python -m repro all")
        return 0

    names = list(FIGURES) if args.figure == "all" else [args.figure]
    scale = 0.4 if args.quick else 1.0
    mismatches = []
    for name in names:
        if name not in FIGURES:
            print(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
            return 2
        title, _runner = FIGURES[name]
        print(format_experiment_header(name, title))
        detail, rows = reproduce(name, scale)
        print(format_table(rows))
        print(detail)
        print()
        mismatches += [f"MISMATCH {name}: {row.quantity} (paper {row.paper}, "
                       f"measured {row.measured})"
                       for row in rows if not row.holds]
    for line in mismatches:
        print(line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Query output piped into `head` and friends: the consumer
        # closing early is normal, not a crash.  Point stdout at
        # /dev/null so the interpreter's shutdown flush stays quiet,
        # and exit with the conventional SIGPIPE status.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(128 + 13)
