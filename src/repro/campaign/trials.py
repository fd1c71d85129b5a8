"""Trial functions behind the registered campaigns.

Each function is a **top-level, picklable** entry point with the
campaign-trial signature ``trial(params, seed) -> {"metrics": ...,
"gates": ...}``; the runner fans them out across a process pool.  They
are thin adapters over the measurement drivers
(:mod:`repro.bench.microbench`, :mod:`repro.bench.chaos`,
:mod:`repro.dsm.bench`, :mod:`repro.kv.bench`, :mod:`repro.obs.breakdown`,
:mod:`repro.baselines`), and they are the repo's only measurement path:
the campaign artifacts and the paper-shape tests
(``tests/test_paper_shapes.py``) both call them.

The microbenchmark and lossy-link simulations are deterministic and
seed-free (link error draws come from per-link name-derived RNGs); their
campaigns run a single seed 0 and the trial ignores it.  The chaos,
fabric, DSM and KV trials are seeded: the seed drives a fault schedule,
a pair selection or a workload stream.
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
    """Figure 1: host<->LANai DMA bandwidth at one block size, driving
    the NIC's host-DMA engine (not just the PCI cost formula)."""
    from repro.hw.bus.pci import PCIBus
    from repro.hw.lanai.nic import LanaiNIC
    from repro.hw.myrinet import topology
    from repro.mem import PhysicalMemory
    from repro.sim import Environment

    size, repeats = params["size"], 8
    env = Environment()
    net = topology.build(topology.SingleSwitchSpec(nhosts_=2), env)
    memory = PhysicalMemory(4 * 1024 * 1024, scatter=False)
    nic = LanaiNIC(env, net, "node0", PCIBus(env), memory)
    done = {}

    def stream():
        for _ in range(repeats):
            yield nic.host_dma.to_sram(0, 0, size)
        done["t"] = env.now

    env.process(stream())
    env.run()
    return {"metrics": {"mbps": repeats * size / done["t"] * 1000}}


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


#: vRPC bulk-call payload (section 5.4's copy-limited bandwidth).
VRPC_BULK = 128 * 1024
#: SunRPC/UDP bulk argument: one opaque record under the 64 KB datagram.
UDP_BULK = 60_000


def _rpc_program():
    from repro.rpc import RPCProgram, XdrEncoder

    prog = RPCProgram(0x20000001, 1)
    prog.register(0, lambda dec: b"")
    prog.register(1, lambda dec: XdrEncoder().pack_uint(
        dec.unpack_uint()).getvalue())
    return prog


def vrpc_trial(params: dict, seed: int) -> dict:
    """Section 5.4: vRPC null round trip and bulk bandwidth on VMMC,
    against the stock SunRPC/UDP path over Ethernet."""
    from repro.hostos.ethernet import EthernetNetwork
    from repro.hw.bus.membus import MemoryBusParams
    from repro.rpc import (SunRPCServer, UDPRPCClient, VRPCClient,
                           VRPCServer, XdrEncoder)
    from repro.sim import Environment

    iters = params["iters"]
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    _, client_ep = cluster.nodes[0].attach_process("client")
    _, server_ep = cluster.nodes[1].attach_process("server")
    prog = _rpc_program()
    server = VRPCServer(server_ep, "node1", prog)
    result: dict[str, float] = {}

    def app():
        chan = yield server.accept(client_ep, "node0", "cli")
        client = VRPCClient(chan, prog.number, prog.version)
        yield client.call(0)                    # warm the path
        t0 = env.now
        for _ in range(iters):
            yield client.call(0)
        result["null_rtt_us"] = (env.now - t0) / iters / 1000
        bulk = client_ep.alloc_buffer(VRPC_BULK)
        args = XdrEncoder().pack_uint(VRPC_BULK).getvalue()
        yield client.call(1, args=args, bulk=bulk, bulk_nbytes=VRPC_BULK)
        t0 = env.now
        for _ in range(5):
            yield client.call(1, args=args, bulk=bulk,
                              bulk_nbytes=VRPC_BULK)
        result["bulk_mbps"] = 5 * VRPC_BULK / (env.now - t0) * 1000

    env.run(until=env.process(app()))

    # The commodity baseline: the same program over UDP/Ethernet.
    env2 = Environment()
    ether = EthernetNetwork(env2)
    SunRPCServer(env2, ether, "srv", _rpc_program())
    udp = UDPRPCClient(env2, ether, "cli", "srv", prog.number, prog.version)

    def baseline():
        yield udp.call(0)
        t0 = env2.now
        for _ in range(5):
            yield udp.call(0)
        result["udp_null_rtt_us"] = (env2.now - t0) / 5 / 1000
        # proc 1 echoes a uint; carrying the opaque payload in the same
        # record measures the transport cost of bulk arguments.
        args = XdrEncoder().pack_uint(1).pack_opaque(
            b"x" * UDP_BULK).getvalue()
        t0 = env2.now
        for _ in range(3):
            yield udp.call(1, args=args)
        result["udp_bulk_mbps"] = 3 * UDP_BULK / (env2.now - t0) * 1000

    env2.run(until=env2.process(baseline()))
    result["bcopy_mbps"] = MemoryBusParams().bcopy_bandwidth_mbps(VRPC_BULK)
    return {"metrics": result}


def hwlimits_trial(params: dict, seed: int) -> dict:
    """Section 5.2: PCI MMIO costs and the hardware latency floor.

    The LANai stage budget (pickup + packet prep + net DMA + receiving
    LANai) is the paper's ~2.5 us; the floor adds the measured posting
    cost and the receive-side host DMA to it, and the gap to the measured
    one-way latency is the software overhead."""
    from repro.bench.microbench import vmmc_pingpong_latency
    from repro.hw.bus.pci import PCIBus, PCIParams
    from repro.sim import Environment

    out: dict[str, float] = {}
    env = Environment()
    bus = PCIBus(env)

    def probe():
        t0 = env.now
        yield bus.mmio_read(1)
        out["mmio_read_us"] = (env.now - t0) / 1000
        t0 = env.now
        yield bus.mmio_write(1)
        out["mmio_write_us"] = (env.now - t0) / 1000
        # Posting a one-word send request: 4 control + 1 data word.
        t0 = env.now
        yield bus.mmio_write(5)
        out["post_us"] = (env.now - t0) / 1000

    env.process(probe())
    env.run()
    out["recv_dma_us"] = PCIParams().dma_time_ns(4) / 1000
    pair = _fresh_pair(16 * 1024, memory_mb=8)
    out["one_way_us"] = vmmc_pingpong_latency(pair, 4, 10).one_way_us
    out["min_latency_us"] = out["post_us"] + 2.5 + out["recv_dma_us"]
    return {"metrics": out}


#: Section 6's long send: 32 pages.
SHRIMP_LONG_SEND = 128 * 1024


def _shrimp_platform() -> dict:
    from repro.hw.bus.eisa import EISAParams
    from repro.hw.shrimp import ShrimpParams
    from repro.vmmc.shrimp_impl import ShrimpCluster

    out: dict[str, float] = {}
    cluster = ShrimpCluster(nnodes=2, memory_mb=8)
    env = cluster.env
    a, b = cluster.endpoint(0), cluster.endpoint(1)
    size = SHRIMP_LONG_SEND

    def app():
        inbox_b = b.alloc_buffer(size)
        inbox_a = a.alloc_buffer(size)
        yield b.export(inbox_b, "ib")
        yield a.export(inbox_a, "ia")
        to_b = yield a.import_buffer(cluster.nodes[1], "ib")
        to_a = yield b.import_buffer(cluster.nodes[0], "ia")
        src_a = a.alloc_buffer(size)
        src_b = b.alloc_buffer(size)
        t0 = env.now
        for _ in range(10):
            wa = a.watch(inbox_a, 0, 4)
            yield a.send(src_a, to_b, 4)
            wb = b.watch(inbox_b, 0, 4)
            if not wb.triggered:
                yield wb
            yield b.send(src_b, to_a, 4)
            if not wa.triggered:
                yield wa
        out["latency_us"] = (env.now - t0) / 20 / 1000
        t0 = env.now
        for _ in range(5):
            yield a.send(src_a, to_b, size)
        out["bw_mbps"] = 5 * size / (env.now - t0) * 1000
        # Host-side cost of posting one long send (async).
        t0 = env.now
        yield a.send(src_a, to_b, size, synchronous=False)
        out["long_post_us"] = (env.now - t0) / 1000

    env.run(until=env.process(app()))
    out["init_us"] = ShrimpParams().state_machine_ns / 1000
    out["hw_limit_mbps"] = EISAParams().dma_bandwidth_mbps(size)
    # SHRIMP keeps its tables in custom hardware, not in NIC SRAM.
    out["sram_kb"] = 0.0
    out["sram_per_process_kb"] = 0.0
    return out


def _myrinet_platform() -> dict:
    from repro.bench.microbench import (vmmc_oneway_bandwidth,
                                        vmmc_pingpong_latency,
                                        vmmc_send_overhead)

    out: dict[str, float] = {}
    pair = _fresh_pair(SHRIMP_LONG_SEND)
    out["latency_us"] = vmmc_pingpong_latency(pair, 4, 10).one_way_us
    out["bw_mbps"] = vmmc_oneway_bandwidth(pair, SHRIMP_LONG_SEND, 6).mbps
    out["long_post_us"] = vmmc_send_overhead(
        pair, SHRIMP_LONG_SEND, synchronous=False,
        iterations=4).overhead_us
    # LCP request-processing time: scan/detect + pickup + translation +
    # proxy lookup + header build + DMA start + completion writeback +
    # main-loop return -- everything the LANai spends on one request,
    # in 30 ns cycles (vs SHRIMP's hardware state machine).
    c = pair.cluster.config.lcp
    out["init_us"] = (2 * c.main_loop + c.scan_per_queue + c.pickup
                      + c.tlb_lookup + c.proxy_lookup + c.header_build
                      + c.route_fetch + c.start_dma + c.send_epilogue
                      + c.completion_write) * 30 / 1000
    # The 4 KB host-DMA transfer unit's limit (Figure 1).
    out["hw_limit_mbps"] = 100.0
    usage = pair.cluster.nodes[0].nic.sram_usage()
    out["sram_kb"] = sum(usage.values()) / 1024
    out["sram_per_process_kb"] = sum(
        v for k, v in usage.items() if ".pid" in k) / 1024
    return out


def shrimp_trial(params: dict, seed: int) -> dict:
    """Section 6: VMMC on SHRIMP vs VMMC on Myrinet -- latency, send
    initiation, long-send posting cost, bandwidth against each platform's
    hardware limit, and the NIC SRAM bill."""
    platforms = {"shrimp": _shrimp_platform, "myrinet": _myrinet_platform}
    out = platforms[params["platform"]]()
    out["bw_fraction_of_limit"] = out["bw_mbps"] / out["hw_limit_mbps"]
    return {"metrics": out}


def related_trial(params: dict, seed: int) -> dict:
    """Section 7: one messaging layer on the identical simulated testbed.

    ``latency_us`` is the one-way small-message latency (4 B for VMMC
    and the Myrinet API, 8 B for the rest, as the paper reports them),
    ``oneway_mbps`` the pipelined one-way stream (64 KB messages; 256 KB
    for VMMC) and ``pingpong_mbps`` 8 KB ping-pong bandwidth.
    ``pm-4k-units`` caps PM's transfer unit at the page size;
    ``pm-copy`` adds the sender-side copy PM normally excludes."""
    import repro.baselines.pm as pm_mod
    from repro.baselines import (ActiveMessagesPair, FastMessagesPair,
                                 MyrinetAPIPair, PMPair)
    from repro.bench.microbench import (vmmc_oneway_bandwidth,
                                        vmmc_pingpong_bandwidth,
                                        vmmc_pingpong_latency)

    system = params["system"]
    if system == "vmmc":
        pair = _fresh_pair(256 * 1024, memory_mb=16)
        latency = vmmc_pingpong_latency(pair, 4, 10).one_way_us
        oneway = vmmc_oneway_bandwidth(pair, 256 * 1024, 6).mbps
        pingpong = vmmc_pingpong_bandwidth(pair, 8192, 6).mbps
        return {"metrics": {"latency_us": latency, "oneway_mbps": oneway,
                            "pingpong_mbps": pingpong}}
    factories = {
        "api": MyrinetAPIPair,
        "fm": FastMessagesPair,
        "pm": PMPair,
        "pm-4k-units": PMPair,
        "pm-copy": lambda **kw: PMPair(include_copy=True, **kw),
        "am": ActiveMessagesPair,
    }
    saved = pm_mod.TRANSFER_UNIT
    if system == "pm-4k-units":
        pm_mod.TRANSFER_UNIT = 4096
    try:
        make = factories[system]
        proto = make(memory_mb=8)
        return {"metrics": {
            "latency_us": proto.pingpong_latency_us(
                4 if system == "api" else 8, 8),
            "oneway_mbps": proto.oneway_bandwidth_mbps(64 * 1024, 6),
            "pingpong_mbps": make(memory_mb=8).pingpong_bandwidth_mbps(
                8192, 6),
        }}
    finally:
        pm_mod.TRANSFER_UNIT = saved


def ablation_threshold_trial(params: dict, seed: int) -> dict:
    """Section 5.3's short/long threshold argument: sync send overhead
    and latency of a ``probe``-byte message under one threshold, plus the
    per-process send-queue SRAM bill that threshold implies."""
    import repro.vmmc.api as api
    import repro.vmmc.sendqueue as sq
    from repro.bench.microbench import (vmmc_pingpong_latency,
                                        vmmc_send_overhead)

    threshold, probe = params["threshold"], params["probe"]
    saved = (sq.SHORT_SEND_LIMIT, sq.SLOT_BYTES, api.SHORT_SEND_LIMIT)
    sq.SHORT_SEND_LIMIT = api.SHORT_SEND_LIMIT = threshold
    sq.SLOT_BYTES = 16 + threshold
    try:
        pair = _fresh_pair(32 * 1024, memory_mb=16)
        overhead = vmmc_send_overhead(pair, probe, synchronous=True,
                                      iterations=6).overhead_us
        latency = vmmc_pingpong_latency(pair, probe,
                                        iterations=8).one_way_us
    finally:
        sq.SHORT_SEND_LIMIT, sq.SLOT_BYTES, api.SHORT_SEND_LIMIT = saved
    return {"metrics": {
        "overhead_us": overhead,
        "latency_us": latency,
        "sram_per_queue_kb": sq.QUEUE_SLOTS * (16 + threshold) / 1024,
    }}


def ablation_pipeline_trial(params: dict, seed: int) -> dict:
    """Section 4.5's long-send optimisations switched off one by one:
    one-way 256 KB stream bandwidth, and the duration of the very first
    synchronous send (64 pages; a cold TLB pays one host interrupt per
    32-page refill batch)."""
    import dataclasses

    from repro.bench.microbench import VmmcPair, vmmc_oneway_bandwidth
    from repro.vmmc.lcp import LCPCosts

    size = params["size"]
    switches = {"full": {},
                "no-precompute": {"precompute_headers": False},
                "no-pipeline": {"pipeline_dma": False},
                "neither": {"precompute_headers": False,
                            "pipeline_dma": False}}
    costs = dataclasses.replace(LCPCosts(), **switches[params["lcp"]])
    warm = params["tlb"] == "warm"

    def fresh() -> VmmcPair:
        return VmmcPair(TestbedConfig(nnodes=2, memory_mb=32, lcp=costs),
                        buffer_bytes=size, warm_tlb=warm)

    mbps = vmmc_oneway_bandwidth(fresh(), size, iterations=6).mbps
    pair = fresh()
    env = pair.env
    out = {}

    def first_send():
        t0 = env.now
        yield pair.ep_a.send(pair.src_a, pair.to_b, size)
        out["us"] = (env.now - t0) / 1000

    env.run(until=env.process(first_send()))
    return {"metrics": {"mbps": mbps, "first_send_us": out["us"]}}


def ablation_multiprocess_trial(params: dict, seed: int) -> dict:
    """The cost of per-process send queues: one sender's latency while
    ``procs`` processes are attached to its NIC (every queue is scanned),
    the NIC SRAM they consume, and how many processes a 256 KB board
    fits before attach fails."""
    from repro.bench.microbench import vmmc_pingpong_latency
    from repro.hw.lanai.sram import SRAMExhausted

    procs = params["procs"]
    probe = _fresh_pair(16 * 1024, memory_mb=16)
    attached = 1  # the benchmark process itself
    try:
        for i in range(32):
            probe.cluster.nodes[0].attach_process(f"filler{i}")
            attached += 1
    except SRAMExhausted:
        pass
    pair = _fresh_pair(32 * 1024, memory_mb=16)
    # Idle extra processes on the *sender's* NIC: their queues must
    # still be scanned every main-loop iteration.
    for i in range(procs - 1):
        pair.cluster.nodes[0].attach_process(f"idle{i}")
    latency = vmmc_pingpong_latency(pair, 4, iterations=10).one_way_us
    usage = pair.cluster.nodes[0].nic.sram_usage()
    per_process = sum(v for k, v in usage.items() if ".pid" in k)
    return {"metrics": {
        "latency_us": latency,
        "sram_used_kb": sum(usage.values()) / 1024,
        "sram_per_proc_kb": per_process / procs / 1024,
        "max_processes": attached,
    }}


def lossy_trial(params: dict, seed: int) -> dict:
    """Baseline VMMC vs the reliable layer on a link with a per-packet
    error ``rate``: baseline drops CRC-failed packets silently (section
    4.2), the reliable layer retransmits them.

    Gate: the reliable layer delivers every payload intact."""
    from repro.bench.chaos import run_baseline_point, run_reliable_point

    rate, messages, size = params["rate"], params["messages"], params["size"]
    if params["mode"] == "baseline":
        point = run_baseline_point(rate, messages=messages, size=size)
        gates = {}
    else:
        point, _ = run_reliable_point(rate, messages=messages, size=size)
        gates = {"delivered": (point.delivered_intact == point.messages
                               and point.send_failures == 0)}
    return {
        "metrics": {
            "delivered_intact": point.delivered_intact,
            "crc_drops": point.crc_drops,
            "retransmits": point.retransmits,
            "send_failures": point.send_failures,
            "goodput_mbps": point.goodput_mbps,
        },
        "gates": gates,
    }


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
