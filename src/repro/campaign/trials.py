"""Trial functions behind the registered campaigns.

Each function is a **top-level, picklable** entry point with the
campaign-trial signature ``trial(params, seed) -> {"metrics": ...,
"gates": ...}``; the runner fans them out across a process pool.  They
are thin adapters over the existing measurement drivers
(:mod:`repro.bench.microbench`, :mod:`repro.bench.chaos`,
:mod:`repro.dsm.bench`, :mod:`repro.obs.breakdown`), so a campaign
measures exactly what the legacy bench scripts and CLI commands measure
— the artifact is a reorganisation, not a re-implementation.

The microbenchmark simulations are deterministic and seed-free; their
campaigns run a single seed 0 and the trial ignores it.  The chaos and
DSM trials are seeded — the seed drives the fault schedule and the
workload stream.
"""

from __future__ import annotations

from repro.cluster import Cluster, TestbedConfig


def _fresh_pair(buffer_bytes: int, memory_mb: int = 32):
    from repro.bench.microbench import VmmcPair

    return VmmcPair(TestbedConfig(nnodes=2, memory_mb=memory_mb),
                    buffer_bytes=buffer_bytes)


def latency_trial(params: dict, seed: int) -> dict:
    """Figure 2: ping-pong one-way latency at one message size."""
    from repro.bench.microbench import vmmc_pingpong_latency

    size, iters = params["size"], params["iters"]
    pair = _fresh_pair(max(size * 4, 4096), memory_mb=16)
    point = vmmc_pingpong_latency(pair, size, iterations=iters)
    return {"metrics": {"one_way_us": point.one_way_us}}


def bandwidth_trial(params: dict, seed: int) -> dict:
    """Figure 3: streaming / bidirectional bandwidth at one size."""
    from repro.bench.microbench import (vmmc_bidirectional_bandwidth,
                                        vmmc_oneway_bandwidth)

    size, iters = params["size"], params["iters"]
    pair = _fresh_pair(max(size, 65536))
    if params["pattern"] == "oneway":
        point = vmmc_oneway_bandwidth(pair, size, iters)
    elif params["pattern"] == "bidir":
        point = vmmc_bidirectional_bandwidth(pair, size, max(3, iters // 2))
    else:
        raise ValueError(f"unknown pattern {params['pattern']!r}")
    return {"metrics": {"mbps": point.mbps}}


def overhead_trial(params: dict, seed: int) -> dict:
    """Figure 4: host CPU cost of the send call itself."""
    from repro.bench.microbench import vmmc_send_overhead

    size, iters = params["size"], params["iters"]
    pair = _fresh_pair(max(size, 16384), memory_mb=16)
    point = vmmc_send_overhead(pair, size,
                               synchronous=params["mode"] == "sync",
                               iterations=iters)
    return {"metrics": {"overhead_us": point.overhead_us}}


def dma_trial(params: dict, seed: int) -> dict:
    """Figure 1: host<->LANai DMA bandwidth at one block size."""
    from repro.hw.bus.pci import PCIParams

    return {"metrics": {
        "mbps": PCIParams().dma_bandwidth_mbps(params["size"])}}


def breakdown_trial(params: dict, seed: int) -> dict:
    """Section 5.2: trace-derived per-stage latency of one short send.

    Gate: the stages must telescope to the end-to-end latency exactly
    (``StageBreakdown.check`` with zero tolerance at the ns level is the
    repo's standing invariant; 1 % is the declared bar)."""
    from repro.obs.breakdown import STAGE_KEYS, measure_stage_breakdown

    report = measure_stage_breakdown(params["size"])
    telescopes = True
    try:
        report.check(tolerance=0.01)
    except ValueError:
        telescopes = False
    metrics = {f"{key}_us": ns / 1000.0
               for key, (_, ns) in zip(STAGE_KEYS, report.stages)}
    metrics["total_us"] = report.total_ns / 1000.0
    return {"metrics": metrics, "gates": {"stages_telescope": telescopes}}


def vrpc_trial(params: dict, seed: int) -> dict:
    """Section 5.4: vRPC null round-trip time."""
    from repro.rpc import RPCProgram, VRPCClient, VRPCServer

    iters = params["iters"]
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    _, client_ep = cluster.nodes[0].attach_process("client")
    _, server_ep = cluster.nodes[1].attach_process("server")
    prog = RPCProgram(0x20000001, 1)
    prog.register(0, lambda dec: b"")
    server = VRPCServer(server_ep, "node1", prog)
    result: dict[str, float] = {}

    def app():
        chan = yield server.accept(client_ep, "node0", "cli")
        client = VRPCClient(chan, prog.number, prog.version)
        yield client.call(0)                    # warm the path
        t0 = env.now
        for _ in range(iters):
            yield client.call(0)
        result["us"] = (env.now - t0) / iters / 1000

    env.run(until=env.process(app()))
    return {"metrics": {"null_rtt_us": result["us"]}}


def chaos_trial(params: dict, seed: int) -> dict:
    """Seeded error-burst run of the reliable sender (static/adaptive).

    Gates: every protocol invariant of
    :func:`repro.bench.chaos.check_trial_invariants` (exactly-once
    delivery, RTO/window bounds, Karn's rule)."""
    from repro.bench.chaos import check_trial_invariants, run_error_burst_trial

    trial = run_error_burst_trial(
        seed, messages=params["messages"], size=params["size"],
        adaptive=params["mode"] == "adaptive")
    violations = check_trial_invariants(trial)
    return {
        "metrics": {
            "goodput_mbps": trial["goodput_mbps"],
            "delivered_intact": trial["delivered_intact"],
            "retransmits": trial["retransmits"],
            "crc_drops": trial["crc_drops"],
            "elapsed_ns": trial["elapsed_ns"],
        },
        "gates": {"protocol_invariants": not violations},
    }


def fabric_trial(params: dict, seed: int) -> dict:
    """Fabric scale-out: seeded random pair traffic on one topology.

    Boots the topology via the declarative spec (the mapping LCP proves
    the routing function deadlock-free at boot), picks ``pairs``
    disjoint sender/receiver pairs from a seeded permutation, streams
    VMMC sends concurrently on all of them, and reports delivered
    aggregate bandwidth plus the fabric's route-length distribution and
    bisection (the README fabric table is generated from these).
    """
    import numpy as np

    from repro.hw.myrinet import topology

    spec = topology.parse(params["topology"])
    cluster = Cluster.build(TestbedConfig(memory_mb=8), topology=spec)
    env = cluster.env
    stats = topology.fabric_stats(cluster.fabric)

    rng = np.random.default_rng(seed)
    perm = [int(i) for i in rng.permutation(spec.nhosts)]
    npairs = min(int(params["pairs"]), spec.nhosts // 2)
    pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(npairs)]
    size, messages = int(params["size"]), int(params["messages"])

    table = cluster.fabric.route_table
    hops = [len(table[(f"node{s}", f"node{d}")]) for s, d in pairs]
    delivered = {"messages": 0}
    span = {"t0": None, "t1": 0}

    def stream(s: int, d: int, tag: str):
        _, ep_rx = cluster.nodes[d].attach_process(f"rx.{tag}")
        _, ep_tx = cluster.nodes[s].attach_process(f"tx.{tag}")
        inbox = ep_rx.alloc_buffer(size)
        yield ep_rx.export(inbox, f"in.{tag}")
        imported = yield ep_tx.import_buffer(f"node{d}", f"in.{tag}")
        src = ep_tx.alloc_buffer(size)
        if span["t0"] is None:
            span["t0"] = env.now
        for _ in range(messages):
            yield ep_tx.send(src, imported.at(0), size)
            delivered["messages"] += 1
        span["t1"] = max(span["t1"], env.now)

    procs = [env.process(stream(s, d, f"p{i}"))
             for i, (s, d) in enumerate(pairs)]

    def wait_all():
        for proc in procs:
            yield proc

    env.run(until=env.process(wait_all()))
    elapsed_ns = max(1, span["t1"] - span["t0"])
    total_bytes = npairs * messages * size
    return {
        "metrics": {
            # bytes/ns == GB/s, so *1000 gives MB/s.
            "delivered_mbps": total_bytes / elapsed_ns * 1000.0,
            "route_hops_mean": stats.route_hops_mean,
            "route_hops_used_mean": sum(hops) / len(hops),
            "diameter_hops": stats.diameter_hops,
            "bisection_links": stats.bisection_links,
            "nswitches": stats.nswitches,
            "mapping_probes": cluster.mapping.probes_sent,
        },
        "gates": {
            "deadlock_free": cluster.mapping.deadlock is not None,
            "all_delivered": delivered["messages"] == npairs * messages,
        },
    }


def dsm_trial(params: dict, seed: int) -> dict:
    """Seeded DSM coherence workload under one chaos scenario.

    Gate: the sequential-consistency checker must report no violation
    (coherence must survive the scenario's faults)."""
    from repro.dsm.bench import run_dsm_trial

    trial = run_dsm_trial(
        seed, nnodes=params["nnodes"], npages=params["npages"],
        page_bytes=params["page_bytes"], ops_per_node=params["ops_per_node"],
        scenario=params["scenario"])
    counters = trial["counters"]
    return {
        "metrics": {
            "pages_per_sec": trial["pages_per_sec"],
            "fetch_p50_ns": trial["fetch_ns"]["p50"],
            "fetch_p99_ns": trial["fetch_ns"]["p99"],
            "invalidations_per_write": trial["invalidations_per_write"],
            "faults": counters["read_faults"] + counters["write_faults"],
            "workload_ns": trial["workload_ns"],
        },
        "gates": {"sequential_consistency": not trial["sc_violations"]},
    }


def kv_trial(params: dict, seed: int) -> dict:
    """Seeded sharded-KV serving trial under one chaos scenario.

    Gates: every request must complete (the reliable layer rides out
    the scenario's faults) and every GET must observe exactly its
    read-your-writes oracle value."""
    from repro.kv.bench import run_kv_trial

    trial = run_kv_trial(
        seed, shards=params["shards"], requests=params["requests"],
        skew=params["skew"], load=params["load"],
        scenario=params["scenario"])
    tail = trial["latency_ns"]
    return {
        "metrics": {
            "p50_us": tail["p50"] / 1000.0,
            "p99_us": tail["p99"] / 1000.0,
            "p999_us": tail["p999"] / 1000.0,
            "requests_per_sec": trial["requests_per_sec"],
            "imbalance": trial["imbalance"],
            "retransmits": trial["transport"]["retransmits"],
        },
        "gates": {
            "delivered": (trial["failed"] == 0
                          and trial["completed"] == trial["requests"]),
            "read_your_writes": trial["ryw_violations_total"] == 0,
        },
    }
