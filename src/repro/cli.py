"""Command-line interface: ``python -m repro <command>``.

The paper's measurements (Figures 1-4, sections 5.2-7, the ablations
and the chaos extensions) all run as registered campaigns,
``campaign run <name>``; the other commands gate or inspect behaviour:

===========  ===========================================================
command      what it runs
===========  ===========================================================
campaign     experiment campaigns — ``list|run|resume|report|diff``:
             declarative grid x seed sweeps fanned out over a process
             pool, aggregated (min/median/mean/CI) into schema-versioned
             ``BENCH_<AREA>.json`` artifacts at the repo root, with
             ``diff`` as the exact CI gate against the committed
             baselines (handbook: docs/BENCHMARKS.md)
sram         NIC SRAM accounting of a booted node
chaos        extension — ``--scenario daemon-cold-crash``: exactly-once
             delivery across cold daemon restarts; ``--scenario
             multi-campaign``: concurrent overlapping fault campaigns;
             both gated on delivery (``--report`` for JSON)
dsm-bench    extension — seeded DSM coherence workload (page faults,
             invalidations, fetch latency) under clean/chaos scenarios,
             gated on the sequential-consistency checker and
             byte-identical reruns (``--report`` for JSON)
kv-bench     extension — sharded KV serving tier driven by an open-loop
             Zipf get/put generator (tail latency p50/p99/p999, hot-key
             imbalance) under clean/chaos scenarios, gated on delivery,
             the read-your-writes oracle and byte-identical reruns
             (``--report`` for JSON)
metrics      observability — metrics snapshot of the instrumented
             contract workload (``--json`` for machine consumption)
trace        observability — Perfetto / Chrome trace-event export of the
             contract workload (``--check-docs`` diffs emitted trace
             categories against docs/TRACING.md)
===========  ===========================================================
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.report import format_table
from repro.cluster import Cluster, TestbedConfig


def cmd_sram(args) -> int:
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=16))
    for i in range(args.processes):
        cluster.nodes[0].attach_process(f"proc{i}")
    usage = cluster.nodes[0].nic.sram_usage()
    rows = [[region, size] for region, size in usage.items()]
    rows.append(["TOTAL", sum(usage.values())])
    print(format_table(
        f"NIC SRAM usage, {args.processes} attached process(es) "
        f"(board: 256 KB)", ["region", "bytes"], rows))
    return 0


def cmd_chaos(args) -> int:
    if args.scenario == "daemon-cold-crash":
        return _chaos_cold_crash(args)
    if args.scenario == "multi-campaign" or args.campaign:
        return _chaos_multi(args)
    print("chaos: choose --scenario daemon-cold-crash or multi-campaign "
          "(the lossy-link and error-burst sweeps are `campaign run "
          "lossy|chaos`)")
    return 2


def _chaos_multi(args) -> int:
    """``chaos --scenario multi-campaign`` (or any ``--campaign`` flag):
    drive several seeded fault campaigns **concurrently** against one
    cluster while reliable traffic runs.  Campaigns come from repeatable
    ``--campaign builder[:key=val,...]`` specs
    (:func:`repro.bench.chaos.parse_campaign_spec`) or default to the
    canonical overlapping set.  Gates (any failure exits 1):

    * exactly-once delivery of every payload despite the compound faults;
    * determinism — the whole trial is re-run and the full reports
      (merged + per-campaign FaultStats, conflict decisions, protocol
      counters) must be byte-identical.

    ``--report FILE`` writes the JSON report (the CI artifact)."""
    import json

    from repro.bench.chaos import (default_multi_campaigns,
                                   parse_campaign_spec,
                                   run_multi_campaign_trial)
    from repro.faults import CampaignConflictError

    try:
        campaigns = ([parse_campaign_spec(spec, default_seed=args.seed + i)
                      for i, spec in enumerate(args.campaign)]
                     if args.campaign
                     else default_multi_campaigns(args.seed))
        trial = run_multi_campaign_trial(
            args.seed, messages=args.messages, size=args.size,
            campaigns=campaigns, policy=args.policy)
        rerun = run_multi_campaign_trial(
            args.seed, messages=args.messages, size=args.size,
            campaigns=campaigns, policy=args.policy)
    except CampaignConflictError as exc:
        print(f"CONFLICT (policy={args.policy}): {exc}")
        return 1
    deterministic = (json.dumps(trial, sort_keys=True)
                     == json.dumps(rerun, sort_keys=True))

    merged = trial["merged_fault_stats"]
    rows = []
    for sub in merged["campaigns"]:
        rows.append([sub["campaign"], sub["seed"], sub["faults_raised"],
                     sub["faults_cleared"],
                     sum(sub["fault_ns_by_target"].values())])
    rows.append(["MERGED (overlaps once)", "-", merged["faults_raised"],
                 merged["faults_cleared"],
                 sum(merged["fault_ns_by_target"].values())])
    print(format_table(
        f"Concurrent campaigns ({len(trial['campaigns'])}), "
        f"{args.messages} x {args.size}B reliable messages "
        f"(policy={args.policy})",
        ["campaign", "seed", "raised", "cleared", "fault ns"], rows))
    overlap = sum(merged["overlap_ns_by_target"].values())
    print(f"overlapped fault time deduplicated in merge: {overlap} ns")
    for conflict in trial["conflicts"]:
        print(f"conflict: {conflict['campaign']}/{conflict['kind']}"
              f"@{conflict['at_ns']} on {conflict['target']} "
              f"{conflict['action']}"
              + (f" -> {conflict['resolved_at_ns']}"
                 if conflict["resolved_at_ns"] is not None else ""))
    delivered_ok = (trial["delivered_intact"] == trial["messages"]
                    and trial["send_failures"] == 0)
    print(f"delivered {trial['delivered_intact']}/{trial['messages']} "
          f"intact, {trial['retransmits']} retransmits, "
          f"{trial['goodput_mbps']:.1f} MB/s goodput")
    if not deterministic:
        print("NONDETERMINISM: re-run produced a different report")
    ok = delivered_ok and deterministic
    print("concurrent-campaign chaos (delivery + determinism): "
          + ("PASS" if ok else "FAIL"))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"scenario": "multi-campaign",
                       "deterministic": deterministic,
                       "exactly_once": delivered_ok,
                       "trial": trial}, fh, indent=2, sort_keys=True)
        print(f"report written to {args.report}")
    return 0 if ok else 1


def _chaos_cold_crash(args) -> int:
    """``chaos --scenario daemon-cold-crash``: reliable traffic while both
    daemons cold-crash; prove exactly-once delivery across the recovery
    protocol and (optionally) write a JSON report."""
    import json

    from repro.bench.chaos import run_cold_crash_point

    point, stats, recovery = run_cold_crash_point(
        seed=args.seed, messages=args.messages, size=args.size)
    rows = [["delivered intact", f"{point.delivered_intact}/{point.messages}"],
            ["retransmits", point.retransmits],
            ["duplicates suppressed", point.duplicates_suppressed],
            ["send failures", point.send_failures]]
    rows += [[key.replace("_", " "), value]
             for key, value in recovery.items()]
    print(format_table(
        f"Daemon cold-crash recovery, campaign '{stats.campaign}' "
        f"({stats.faults_raised} faults)", ["counter", "value"], rows))
    ok = (point.delivered_intact == point.messages
          and point.send_failures == 0)
    print("exactly-once delivery across cold restarts: "
          + ("PASS" if ok else "FAIL"))
    if args.report:
        report = {
            "scenario": "daemon-cold-crash",
            "seed": args.seed,
            "messages": point.messages,
            "size": point.size,
            "delivered_intact": point.delivered_intact,
            "retransmits": point.retransmits,
            "duplicates_suppressed": point.duplicates_suppressed,
            "send_failures": point.send_failures,
            "exactly_once": ok,
            "faults": stats.as_dict(),
            "recovery": recovery,
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.report}")
    return 0 if ok else 1


def cmd_dsm_bench(args) -> int:
    """``dsm-bench``: seeded DSM trials, SC-checker and determinism
    gated; ``--report`` writes the raw per-trial sweep.  The committed
    ``BENCH_DSM.json`` baseline is produced by ``campaign run dsm``
    (docs/BENCHMARKS.md), which aggregates the same trials per cell."""
    import json

    from repro.dsm.bench import SCENARIOS, run_dsm_sweep, run_dsm_trial

    scenarios = SCENARIOS if args.scenario == "all" else (args.scenario,)
    seeds = (list(range(args.seeds)) if args.seed is None
             else [args.seed])
    if args.smoke:
        seeds = seeds[:4]
    if not seeds:
        print("dsm-bench: nothing to run (--seeds must be >= 1)")
        return 1
    kwargs = dict(nnodes=args.nodes, npages=args.pages,
                  page_bytes=args.page_bytes, ops_per_node=args.ops)
    sweep = run_dsm_sweep(seeds, scenarios=scenarios, **kwargs)

    rows = []
    for trial in sweep["trials"]:
        counters = trial["counters"]
        rows.append([
            trial["scenario"], trial["seed"], trial["ops_total"],
            counters["read_faults"] + counters["write_faults"],
            counters["invalidations_sent"],
            trial["fetch_ns"]["p50"], trial["fetch_ns"]["p99"],
            f"{trial['pages_per_sec']:g}",
            len(trial["sc_violations"]),
        ])
    print(format_table(
        f"DSM coherence bench: {args.nodes} nodes x {args.pages} pages "
        f"x {args.page_bytes}B, {args.ops} ops/node "
        "(SC checker runs on every trial)",
        ["scenario", "seed", "ops", "faults", "invals", "fetch p50",
         "fetch p99", "pages/s", "SC viol"], rows))

    violations = sweep["summary"]["sc_violations_total"]
    # Determinism gate: the first seed of every scenario, re-run and
    # compared byte for byte.
    deterministic = True
    for scenario in scenarios:
        first = json.dumps(
            run_dsm_trial(seeds[0], scenario=scenario, **kwargs),
            sort_keys=True)
        again = json.dumps(
            run_dsm_trial(seeds[0], scenario=scenario, **kwargs),
            sort_keys=True)
        if first != again:
            deterministic = False
            print(f"DETERMINISM VIOLATION: scenario {scenario!r} "
                  f"seed {seeds[0]} differs across reruns")
    ok = violations == 0 and deterministic
    print(f"\n{len(sweep['trials'])} trials, "
          f"{violations} SC violations, "
          f"reruns {'byte-identical' if deterministic else 'DIVERGED'}"
          + ("" if ok else " — FAILING"))

    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(sweep, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}")
    return 0 if ok else 1


def cmd_kv_bench(args) -> int:
    """``kv-bench``: seeded sharded-KV serving trials; delivery,
    read-your-writes and determinism gated; ``--report`` writes the raw
    per-trial sweep.  The committed ``BENCH_KV.json`` baseline is
    produced by ``campaign run kv`` (docs/BENCHMARKS.md)."""
    import json

    from repro.kv.bench import SCENARIOS, run_kv_sweep, run_kv_trial

    scenarios = SCENARIOS if args.scenario == "all" else (args.scenario,)
    seeds = (list(range(args.seeds)) if args.seed is None
             else [args.seed])
    if args.smoke:
        seeds = seeds[:1]
    if not seeds:
        print("kv-bench: nothing to run (--seeds must be >= 1)")
        return 1
    kwargs = dict(shards=args.shards, requests=args.requests,
                  nkeys=args.nkeys, skew=args.skew,
                  get_fraction=args.get_fraction, load=args.load,
                  base_gap_ns=args.gap)
    sweep = run_kv_sweep(seeds, scenarios=scenarios, **kwargs)

    rows = []
    for trial in sweep["trials"]:
        tail = trial["latency_ns"]
        rows.append([
            trial["scenario"], trial["seed"], trial["completed"],
            trial["failed"],
            f"{tail['p50'] / 1000:.1f}", f"{tail['p99'] / 1000:.1f}",
            f"{tail['p999'] / 1000:.1f}",
            f"{trial['requests_per_sec']:g}", trial["imbalance"],
            trial["transport"]["retransmits"],
            trial["ryw_violations_total"],
        ])
    print(format_table(
        f"KV serving bench: {args.shards} shards, {args.requests} "
        f"requests/trial, zipf skew {args.skew}, {args.load} load "
        "(read-your-writes checked on every trial)",
        ["scenario", "seed", "done", "fail", "p50 us", "p99 us",
         "p999 us", "req/s", "imbal", "retx", "RYW viol"], rows))

    summary = sweep["summary"]
    delivered = (summary["failed_total"] == 0
                 and summary["completed_total"]
                 == len(sweep["trials"]) * args.requests)
    consistent = summary["ryw_violations_total"] == 0
    # Determinism gate: the first seed of every scenario, re-run and
    # compared byte for byte.
    deterministic = True
    for scenario in scenarios:
        first = json.dumps(
            run_kv_trial(seeds[0], scenario=scenario, **kwargs),
            sort_keys=True)
        again = json.dumps(
            run_kv_trial(seeds[0], scenario=scenario, **kwargs),
            sort_keys=True)
        if first != again:
            deterministic = False
            print(f"DETERMINISM VIOLATION: scenario {scenario!r} "
                  f"seed {seeds[0]} differs across reruns")
    ok = delivered and consistent and deterministic
    print(f"\n{len(sweep['trials'])} trials, "
          f"{summary['failed_total']} failed, "
          f"{summary['ryw_violations_total']} RYW violations, "
          f"reruns {'byte-identical' if deterministic else 'DIVERGED'}"
          + ("" if ok else " — FAILING"))

    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(sweep, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}")
    return 0 if ok else 1


# -- campaign orchestration (docs/BENCHMARKS.md) ---------------------------
def _campaign_artifact_path(spec, args) -> str:
    """Where a campaign's artifact goes: --out beats --out-dir beats the
    repo-root default ``BENCH_<AREA>.json``."""
    if getattr(args, "out", None):
        return args.out
    if getattr(args, "out_dir", None):
        import pathlib

        return str(pathlib.Path(args.out_dir) / spec.artifact_name)
    return spec.artifact_name


def _campaign_cell_table(spec, artifact) -> str:
    """Per-cell medians (±95 % CI where seeds > 1) as a text table."""
    metric_names = [m.name for m in spec.metrics]
    columns = ["cell"] + [f"{name} ({spec.metric(name).unit})"
                          for name in metric_names] + ["gates"]
    rows = []
    for cell in artifact["cells"]:
        row: list[object] = [cell["key"]]
        for name in metric_names:
            agg = cell["metrics"][name]
            value = f"{agg['median']:g}"
            if agg["n"] > 1 and agg["ci95"]:
                value += f" ±{agg['ci95']:g}"
            row.append(value)
        row.append("FAIL " + ",".join(cell["gates_failed"])
                   if cell["gates_failed"] else "ok")
        rows.append(row)
    shape = (f"{len(artifact['cells'])} cells x "
             f"{len(artifact['seeds'])} seeds"
             + (" [smoke]" if artifact["smoke"] else ""))
    return format_table(f"campaign {spec.name}: {spec.title} ({shape})",
                        columns, rows)


def _reject_single_out(args) -> bool:
    if getattr(args, "out", None) and len(args.name) > 1:
        print("ERROR: --out names one file; use --out-dir with several "
              "campaigns")
        return True
    return False


def _run_campaigns(args, resume: bool) -> int:
    from repro.campaign import (IncompleteRunError, build_artifact,
                                get_campaign, run_campaign, runner,
                                write_artifact)

    if _reject_single_out(args):
        return 1
    git = runner.git_metadata()     # before this run writes anything
    failures = 0
    for name in args.name:
        spec = get_campaign(name)
        summary = run_campaign(
            spec, smoke=args.smoke, jobs=args.jobs, resume=resume,
            state_root=args.state_root, max_trials=args.max_trials,
            progress=print)
        if not summary["complete"]:
            print(f"campaign {name}: stopped after "
                  f"{summary['trials_executed']} trial(s) (--max-trials); "
                  f"resume with `python -m repro campaign resume {name}"
                  + (" --smoke" if args.smoke else "") + "`")
            failures += 1
            continue
        try:
            artifact = build_artifact(spec, smoke=args.smoke,
                                      state_root=args.state_root, git=git)
        except IncompleteRunError as exc:
            print(f"ERROR: {exc}")
            failures += 1
            continue
        print(_campaign_cell_table(spec, artifact))
        path = _campaign_artifact_path(spec, args)
        write_artifact(artifact, path)
        print(f"artifact written to {path}")
        if artifact["cells_with_failed_gates"]:
            print(f"campaign {name}: "
                  f"{artifact['cells_with_failed_gates']} cell(s) with "
                  "FAILED trial gates")
            failures += 1
    return 1 if failures else 0


def cmd_campaign_list(args) -> int:
    from repro.campaign import all_campaigns

    rows = []
    for spec in all_campaigns():
        grid = spec.resolved_grid(smoke=False)
        rows.append([
            spec.name, spec.artifact_name, spec.paper_ref,
            " x ".join(f"{k}[{len(v)}]" for k, v in grid.items()) or "-",
            len(spec.resolved_seeds(smoke=False)),
            len(spec.cells(smoke=True)) * len(spec.resolved_seeds(True)),
            spec.expected_runtime,
        ])
    print(format_table(
        "Registered campaigns (docs/BENCHMARKS.md is the handbook)",
        ["name", "artifact", "reproduces", "grid", "seeds",
         "smoke trials", "full runtime"], rows))
    return 0


def cmd_campaign_run(args) -> int:
    return _run_campaigns(args, resume=False)


def cmd_campaign_resume(args) -> int:
    return _run_campaigns(args, resume=True)


def cmd_campaign_report(args) -> int:
    from repro.campaign import (IncompleteRunError, build_artifact,
                                get_campaign, runner, write_artifact)

    if _reject_single_out(args):
        return 1
    git = runner.git_metadata()     # before this run writes anything
    failures = 0
    for name in args.name:
        spec = get_campaign(name)
        try:
            artifact = build_artifact(spec, smoke=args.smoke,
                                      state_root=args.state_root, git=git)
        except IncompleteRunError as exc:
            print(f"ERROR: {exc}")
            failures += 1
            continue
        print(_campaign_cell_table(spec, artifact))
        path = _campaign_artifact_path(spec, args)
        write_artifact(artifact, path)
        print(f"artifact written to {path}")
        if artifact["cells_with_failed_gates"]:
            failures += 1
    return 1 if failures else 0


def cmd_campaign_diff(args) -> int:
    import pathlib

    from repro.campaign import (build_artifact, diff_artifacts,
                                get_campaign, load_artifact, run_campaign,
                                write_artifact)

    if _reject_single_out(args):
        return 1
    failures = 0
    for name in args.name:
        spec = get_campaign(name)
        baseline_path = args.baseline or spec.artifact_name
        try:
            baseline = load_artifact(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"ERROR: cannot read baseline {baseline_path}: {exc}")
            failures += 1
            continue
        if args.candidate:
            candidate = load_artifact(args.candidate)
        elif args.candidate_dir:
            candidate = load_artifact(
                pathlib.Path(args.candidate_dir) / spec.artifact_name)
        else:
            # No candidate given: run the campaign fresh, same shape as
            # the baseline artifact records.
            smoke = args.smoke or baseline.get("smoke", False)
            run_campaign(spec, smoke=smoke, jobs=args.jobs, resume=False,
                         state_root=args.state_root, progress=print)
            candidate = build_artifact(spec, smoke=smoke,
                                       state_root=args.state_root)
            if args.out or args.out_dir:
                path = _campaign_artifact_path(spec, args)
                write_artifact(candidate, path)
                print(f"candidate artifact written to {path}")
        result = diff_artifacts(baseline, candidate)
        rows = [[row.cell, row.metric, f"{row.baseline:g}",
                 f"{row.candidate:g}",
                 ("CHANGED " + ",".join(row.changed)) if row.changed
                 else "ok"]
                for row in result.rows]
        print(format_table(
            f"campaign diff {name}: candidate vs baseline "
            f"({baseline_path}), exact match of every cell statistic",
            ["cell", "metric", "baseline median", "candidate median",
             "status"], rows))
        for problem in result.problems:
            print(f"PROBLEM: {problem}")
        for key in result.new_cells:
            print(f"note: cell {key!r} is new in the candidate "
                  "(not gated)")
        for metric in result.new_metrics:
            print(f"note: metric {metric!r} is new in the candidate "
                  "(not gated)")
        print(f"campaign {name} exact gate: "
              + ("PASS" if result.ok else "FAIL"))
        if not result.ok:
            failures += 1
    return 1 if failures else 0


def cmd_topology(args) -> int:
    """Describe generated fabrics: stats table + deadlock proof."""
    from repro.sim import Environment
    from repro.hw.myrinet import topology

    if args.list:
        rows = []
        for kind in sorted(topology.SPEC_KINDS):
            cls = topology.SPEC_KINDS[kind]
            rows.append([kind, ", ".join(cls.EXAMPLES)])
        print(format_table("Registered topology kinds "
                           "(repro.hw.myrinet.topology)",
                           ["kind", "example specs"], rows))
        return 0
    rows = []
    for text in args.spec:
        spec = topology.parse(text)
        net = topology.build(spec, Environment())
        stats = topology.fabric_stats(net)
        report = topology.check_deadlock_free(net)
        rows.append([
            text, stats.nhosts, stats.nswitches, stats.ncables,
            stats.diameter_hops, f"{stats.route_hops_mean:.2f}",
            stats.bisection_links,
            f"cycle-free ({report.channels} ch, "
            f"{report.dependencies} deps)"])
        if args.verbose:
            print(f"{text}: {spec.describe()}")
    print(format_table(
        "Generated fabrics (routes proven deadlock-free at build)",
        ["topology", "hosts", "switches", "cables", "diameter",
         "mean hops", "bisection", "deadlock check"], rows))
    return 0


def cmd_metrics(args) -> int:
    import json

    from repro.obs import run_contract_workload

    _, registry = run_contract_workload()
    if args.json:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(format_table(
            "Metrics of the instrumented contract workload "
            "(docs/TRACING.md 'Metrics reference')",
            ["metric", "value"], registry.rows()))
    return 0


def cmd_trace(args) -> int:
    from repro.obs import (
        export_chrome_trace,
        run_contract_workload,
        undocumented,
    )

    tracer, _ = run_contract_workload()
    document = export_chrome_trace(tracer, path=args.perfetto)
    where = args.perfetto if args.perfetto else "(not written; no --perfetto)"
    print(f"{len(document['traceEvents'])} trace events from "
          f"{document['otherData']['records']} records "
          f"({document['otherData']['dropped']} dropped) -> {where}")
    if args.check_docs:
        stray = undocumented(r.category for r in tracer.records)
        if stray:
            print("undocumented trace categories (document them in "
                  "docs/TRACING.md):", file=sys.stderr)
            for category in stray:
                print(f"  {category}", file=sys.stderr)
            return 1
        print("all emitted trace categories are documented in "
              "docs/TRACING.md")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VMMC-on-Myrinet reproduction: run the paper's "
                    "measurements from the command line.")
    sub = parser.add_subparsers(dest="command", required=True)

    sram = sub.add_parser("sram", help="NIC SRAM accounting")
    sram.add_argument("--processes", type=int, default=2)
    sram.set_defaults(func=cmd_sram)

    chaos = sub.add_parser(
        "chaos", help="fault-recovery gates: daemon cold crash, "
                      "concurrent fault campaigns")
    chaos.add_argument("--messages", type=int, default=60)
    chaos.add_argument("--size", type=int, default=1024)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--scenario",
                       choices=["daemon-cold-crash", "multi-campaign"],
                       help="'daemon-cold-crash' = reliable traffic across "
                            "cold daemon restarts (recovery protocol); "
                            "'multi-campaign' = several seeded campaigns "
                            "driven concurrently on one cluster "
                            "(overlapping faults stack; merged FaultStats "
                            "count overlaps once; delivery + determinism "
                            "gates)")
    chaos.add_argument("--campaign", metavar="SPEC", action="append",
                       default=[],
                       help="repeatable: add a campaign to the "
                            "multi-campaign scenario, as "
                            "builder[:key=val,...] with builder in "
                            "{bursts, flap, stall, crash, cold-crash} "
                            "(e.g. --campaign bursts:seed=3 "
                            "--campaign flap:target=sw0->node1); "
                            "implies --scenario multi-campaign; "
                            "default: the canonical overlapping set")
    chaos.add_argument("--policy", choices=["serialize", "reject"],
                       default="serialize",
                       help="multi-campaign conflict-guard policy for "
                            "semantically incompatible overlapping raises "
                            "(warm vs cold crash on one node): shift the "
                            "loser after the winner's clear, or refuse "
                            "the schedule (default: serialize)")
    chaos.add_argument("--report", metavar="FILE",
                       help="write a JSON report of the scenario run")
    chaos.set_defaults(func=cmd_chaos)

    dsm = sub.add_parser(
        "dsm-bench",
        help="DSM coherence workload under chaos, SC-checker gated")
    dsm.add_argument("--nodes", type=int, default=4)
    dsm.add_argument("--pages", type=int, default=64)
    dsm.add_argument("--page-bytes", type=int, default=256)
    dsm.add_argument("--ops", type=int, default=24,
                     help="mixed-phase ops per node (default 24)")
    dsm.add_argument("--seeds", type=int, default=16, metavar="N",
                     help="sweep seeds 0..N-1 (default 16)")
    dsm.add_argument("--seed", type=int, default=None,
                     help="run a single seed instead of the sweep")
    dsm.add_argument("--scenario",
                     choices=["all", "clean", "error-burst",
                              "daemon-cold-crash"],
                     default="all")
    dsm.add_argument("--smoke", action="store_true",
                     help="CI shape: first 4 seeds only")
    dsm.add_argument("--report", metavar="FILE",
                     help="write the JSON sweep report")
    dsm.set_defaults(func=cmd_dsm_bench)

    kv = sub.add_parser(
        "kv-bench",
        help="sharded KV serving tier under chaos, RYW-oracle gated")
    kv.add_argument("--shards", type=int, default=4)
    kv.add_argument("--requests", type=int, default=400)
    kv.add_argument("--nkeys", type=int, default=512)
    kv.add_argument("--skew", type=float, default=0.9,
                    help="zipf exponent over keys (0 = uniform)")
    kv.add_argument("--get-fraction", type=float, default=0.8)
    kv.add_argument("--load", choices=["steady", "diurnal"],
                    default="steady")
    kv.add_argument("--gap", type=int, default=20_000, metavar="NS",
                    help="base inter-arrival gap in ns (default 20000)")
    kv.add_argument("--seeds", type=int, default=2, metavar="N",
                    help="sweep seeds 0..N-1 (default 2)")
    kv.add_argument("--seed", type=int, default=None,
                    help="run a single seed instead of the sweep")
    kv.add_argument("--scenario",
                    choices=["all", "clean", "error-burst",
                             "daemon-cold-crash"],
                    default="all")
    kv.add_argument("--smoke", action="store_true",
                    help="CI shape: first seed only")
    kv.add_argument("--report", metavar="FILE", nargs="?",
                    const="kv-bench-report.json",
                    help="write the JSON sweep report "
                         "(default FILE: kv-bench-report.json)")
    kv.set_defaults(func=cmd_kv_bench)

    camp = sub.add_parser(
        "campaign",
        help="experiment campaigns: grid x seeds -> BENCH_<AREA>.json "
             "artifacts + exact CI gate (docs/BENCHMARKS.md)")
    csub = camp.add_subparsers(dest="action", required=True)

    def _campaign_common(sp, names: bool = True):
        if names:
            sp.add_argument("name", nargs="+",
                            help="registered campaign name(s); "
                                 "see `campaign list`")
        sp.add_argument("--smoke", action="store_true",
                        help="the reduced CI shape (committed baselines "
                             "are smoke artifacts)")
        sp.add_argument("--state-root", metavar="DIR", default=None,
                        help="root for per-campaign trial state "
                             "(default benchmarks/out/campaigns)")
        sp.add_argument("--out", metavar="FILE", default=None,
                        help="artifact path (single campaign only; "
                             "default ./BENCH_<AREA>.json)")
        sp.add_argument("--out-dir", metavar="DIR", default=None,
                        help="directory for BENCH_<AREA>.json artifacts")

    clist = csub.add_parser("list", help="registered campaigns")
    clist.set_defaults(func=cmd_campaign_list)

    crun = csub.add_parser(
        "run", help="run the grid from scratch and write the artifact")
    _campaign_common(crun)
    crun.add_argument("--jobs", type=int, default=None,
                      help="process-pool width (default: one per core; "
                           "1 = inline)")
    crun.add_argument("--max-trials", type=int, default=None,
                      help="stop after N new trials (leaves a resumable "
                           "state dir; used to exercise `resume`)")
    crun.set_defaults(func=cmd_campaign_run)

    cres = csub.add_parser(
        "resume", help="finish an interrupted run (skips finished trials; "
                       "the artifact is byte-identical to an "
                       "uninterrupted run)")
    _campaign_common(cres)
    cres.add_argument("--jobs", type=int, default=None)
    cres.add_argument("--max-trials", type=int, default=None)
    cres.set_defaults(func=cmd_campaign_resume)

    crep = csub.add_parser(
        "report", help="re-aggregate a finished run without re-running")
    _campaign_common(crep)
    crep.set_defaults(func=cmd_campaign_report)

    cdiff = csub.add_parser(
        "diff", help="exact gate: candidate artifact vs the committed "
                     "baseline (no candidate -> fresh run)")
    _campaign_common(cdiff)
    cdiff.add_argument("--baseline", metavar="FILE", default=None,
                       help="baseline artifact "
                            "(default ./BENCH_<AREA>.json)")
    cdiff.add_argument("--candidate", metavar="FILE", default=None,
                       help="candidate artifact (default: run fresh)")
    cdiff.add_argument("--candidate-dir", metavar="DIR", default=None,
                       help="directory holding candidate "
                            "BENCH_<AREA>.json artifacts")
    cdiff.add_argument("--jobs", type=int, default=None)
    cdiff.set_defaults(func=cmd_campaign_diff)

    topo = sub.add_parser(
        "topology",
        help="describe generated fabrics (stats + deadlock proof)")
    topo.add_argument("spec", nargs="*",
                      default=["single:8", "dual:8", "fattree:4",
                               "fattree:8,h=2", "mesh:4x4", "mesh:8x8",
                               "torus:4x4"],
                      help="topology strings, e.g. fattree:8,h=2 mesh:4x4")
    topo.add_argument("--list", action="store_true",
                      help="list registered topology kinds and exit")
    topo.add_argument("--verbose", action="store_true",
                      help="print each spec's description line")
    topo.set_defaults(func=cmd_topology)

    met = sub.add_parser(
        "metrics", help="metrics snapshot of the instrumented workload")
    met.add_argument("--json", action="store_true",
                     help="JSON snapshot instead of a table")
    met.set_defaults(func=cmd_metrics)

    trace = sub.add_parser(
        "trace", help="Perfetto / Chrome trace-event export")
    trace.add_argument("--perfetto", metavar="OUT",
                       help="write Chrome trace-event JSON to this file")
    trace.add_argument("--check-docs", action="store_true",
                       help="fail if an emitted trace category is missing "
                            "from docs/TRACING.md")
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
