"""The registered campaigns — the repo's perf-trajectory surface.

Every entry maps a paper figure/section (or an extension experiment) to
a :class:`~repro.campaign.spec.CampaignSpec`; ``python -m repro campaign
list`` prints this table, CI runs every campaign's smoke shape, and the
committed ``BENCH_<AREA>.json`` baselines at the repo root are the smoke
artifacts.  docs/BENCHMARKS.md is the handbook entry per campaign.

Third-party / test campaigns can be added at runtime with
:func:`register`; the fork-based process pool sees them too.
"""

from __future__ import annotations

from repro.campaign import trials
from repro.campaign.spec import CampaignSpec, Metric, SpecError

_REGISTRY: dict[str, CampaignSpec] = {}


def register(spec: CampaignSpec, *, replace: bool = False) -> CampaignSpec:
    """Add a campaign; names and areas must be unique."""
    if not replace:
        if spec.name in _REGISTRY:
            raise SpecError(f"campaign {spec.name!r} already registered")
        taken = {s.area: n for n, s in _REGISTRY.items()}
        if spec.area in taken:
            raise SpecError(
                f"area {spec.area!r} already used by campaign "
                f"{taken[spec.area]!r} (artifacts would collide)")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)


def get_campaign(name: str) -> CampaignSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SpecError(
            f"unknown campaign {name!r}; registered: "
            f"{', '.join(campaign_names())}") from None


def campaign_names() -> list[str]:
    return sorted(_REGISTRY)


def all_campaigns() -> list[CampaignSpec]:
    return [_REGISTRY[name] for name in campaign_names()]


# -- the built-in table ----------------------------------------------------
register(CampaignSpec(
    name="latency", area="LATENCY",
    title="VMMC one-way latency (ping-pong)",
    paper_ref="Figure 2 / section 5.3",
    trial=trials.latency_trial,
    grid={"size": (4, 8, 16, 32, 64, 128, 256, 512)},
    fixed={"iters": 10},
    seeds=(0,),
    metrics=(
        Metric("one_way_us", "us", "lower"),
    ),
    expected_runtime="~1 s",
))

register(CampaignSpec(
    name="bandwidth", area="BANDWIDTH",
    title="VMMC bandwidth (one-way + bidirectional)",
    paper_ref="Figure 3 / section 5.3",
    trial=trials.bandwidth_trial,
    grid={"size": (256, 1024, 4096, 16384, 65536, 262144, 1048576),
          "pattern": ("oneway", "bidir")},
    fixed={"iters": 8},
    seeds=(0,),
    metrics=(
        Metric("mbps", "MB/s", "higher"),
    ),
    smoke_grid={"size": (65536, 1048576)},
    expected_runtime="~10 s",
))

register(CampaignSpec(
    name="overhead", area="OVERHEAD",
    title="send overhead, sync vs async",
    paper_ref="Figure 4 / section 5.3",
    trial=trials.overhead_trial,
    grid={"size": (4, 16, 32, 64, 128, 192, 256, 512, 1024, 4096),
          "mode": ("sync", "async")},
    fixed={"iters": 6},
    seeds=(0,),
    metrics=(
        Metric("overhead_us", "us", "lower"),
    ),
    expected_runtime="~1 s",
))

register(CampaignSpec(
    name="dma", area="DMA",
    title="host<->LANai DMA bandwidth curve",
    paper_ref="Figure 1 / section 5.1",
    trial=trials.dma_trial,
    grid={"size": (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
                   32768, 65536)},
    seeds=(0,),
    metrics=(
        Metric("mbps", "MB/s", "higher"),
    ),
    expected_runtime="<1 s",
))

register(CampaignSpec(
    name="breakdown", area="BREAKDOWN",
    title="trace-derived per-stage latency of one send",
    paper_ref="section 5.2",
    trial=trials.breakdown_trial,
    grid={"size": (4, 128)},
    seeds=(0,),
    metrics=(
        Metric("total_us", "us", "lower"),
        Metric("post_us", "us", "info"),
        Metric("lanai_send_us", "us", "info"),
        Metric("wire_us", "us", "info"),
        Metric("lanai_recv_us", "us", "info"),
        Metric("deliver_us", "us", "info"),
    ),
    expected_runtime="<1 s",
))

register(CampaignSpec(
    name="vrpc", area="VRPC",
    title="vRPC null round trip + bulk bandwidth vs SunRPC/UDP",
    paper_ref="section 5.4",
    trial=trials.vrpc_trial,
    grid={"iters": (10,)},
    seeds=(0,),
    metrics=(
        Metric("null_rtt_us", "us", "lower"),
        Metric("bulk_mbps", "MB/s", "higher"),
        Metric("bcopy_mbps", "MB/s", "info"),
        Metric("udp_null_rtt_us", "us", "info"),
        Metric("udp_bulk_mbps", "MB/s", "info"),
    ),
    expected_runtime="<1 s",
))

register(CampaignSpec(
    name="chaos", area="CHAOS",
    title="reliable sender under seeded error bursts, static vs adaptive",
    paper_ref="extension of section 4.2 (E-chaos / E-congestion)",
    trial=trials.chaos_trial,
    grid={"mode": ("static", "adaptive")},
    fixed={"messages": 60, "size": 1024},
    seeds=tuple(range(10)),
    metrics=(
        Metric("goodput_mbps", "MB/s", "higher"),
        Metric("delivered_intact", "messages", "info"),
        Metric("retransmits", "count", "info"),
        Metric("crc_drops", "count", "info"),
        Metric("elapsed_ns", "ns", "info"),
    ),
    smoke_seeds=tuple(range(4)),
    expected_runtime="~2 min",
))

register(CampaignSpec(
    name="fabric", area="FABRIC",
    title="multi-switch fabric scale-out: bandwidth + route distributions",
    paper_ref="extension of section 4.3 (topology generators, E-fabric)",
    trial=trials.fabric_trial,
    grid={"topology": ("single:8", "dual:8", "fattree:4", "mesh:4x4",
                       "torus:4x4", "fattree:8,h=2", "mesh:8x8")},
    fixed={"pairs": 8, "messages": 12, "size": 4096},
    seeds=(0, 1, 2),
    metrics=(
        Metric("delivered_mbps", "MB/s", "higher"),
        Metric("route_hops_mean", "hops", "info"),
        Metric("route_hops_used_mean", "hops", "info"),
        Metric("diameter_hops", "hops", "info"),
        Metric("bisection_links", "links", "info"),
        Metric("nswitches", "count", "info"),
        Metric("mapping_probes", "count", "info"),
    ),
    smoke_grid={"topology": ("single:4", "dual:8", "fattree:4",
                             "mesh:3x3")},
    smoke_seeds=(0,),
    expected_runtime="~4 min",
))

register(CampaignSpec(
    name="dsm", area="DSM",
    title="DSM coherence workload under chaos scenarios",
    paper_ref="extension of section 1's DSM motivation (E-dsm)",
    trial=trials.dsm_trial,
    grid={"scenario": ("clean", "error-burst", "daemon-cold-crash")},
    fixed={"nnodes": 4, "npages": 64, "page_bytes": 256,
           "ops_per_node": 24},
    seeds=tuple(range(16)),
    metrics=(
        Metric("pages_per_sec", "pages/s", "higher"),
        Metric("fetch_p50_ns", "ns", "lower"),
        Metric("fetch_p99_ns", "ns", "lower"),
        Metric("invalidations_per_write", "ratio", "info"),
        Metric("faults", "count", "info"),
        Metric("workload_ns", "ns", "info"),
    ),
    smoke_seeds=tuple(range(4)),
    expected_runtime="~4 min",
))

register(CampaignSpec(
    name="kv", area="KV",
    title="sharded KV serving tier: open-loop tail latency under chaos",
    paper_ref="extension of section 1's client-server motivation (E-kv)",
    trial=trials.kv_trial,
    grid={"shards": (2, 4, 8), "skew": (0.0, 0.9, 1.2),
          "load": ("steady", "diurnal"),
          "scenario": ("clean", "error-burst", "daemon-cold-crash"),
          "requests": (100_000,)},
    seeds=(0,),
    metrics=(
        Metric("p50_us", "us", "lower"),
        Metric("p99_us", "us", "lower"),
        Metric("p999_us", "us", "info"),
        Metric("requests_per_sec", "req/s", "info"),
        Metric("imbalance", "ratio", "info"),
        Metric("retransmits", "count", "info"),
    ),
    smoke_grid={"shards": (2,), "skew": (0.0, 1.2),
                "load": ("steady", "diurnal"),
                "scenario": ("clean", "error-burst", "daemon-cold-crash"),
                "requests": (400,)},
    smoke_seeds=(0,),
    expected_runtime="~1 min smoke; hours at the full 100k-request grid",
))

register(CampaignSpec(
    name="hwlimits", area="HWLIMITS",
    title="PCI MMIO costs and the hardware latency floor",
    paper_ref="section 5.2",
    trial=trials.hwlimits_trial,
    grid={},
    seeds=(0,),
    metrics=(
        Metric("mmio_read_us", "us", "info"),
        Metric("mmio_write_us", "us", "info"),
        Metric("post_us", "us", "lower"),
        Metric("recv_dma_us", "us", "info"),
        Metric("min_latency_us", "us", "info"),
        Metric("one_way_us", "us", "lower"),
    ),
    expected_runtime="<1 s",
))

register(CampaignSpec(
    name="shrimp", area="SHRIMP",
    title="VMMC on SHRIMP vs VMMC on Myrinet",
    paper_ref="section 6",
    trial=trials.shrimp_trial,
    grid={"platform": ("shrimp", "myrinet")},
    seeds=(0,),
    metrics=(
        Metric("latency_us", "us", "lower"),
        Metric("init_us", "us", "lower"),
        Metric("long_post_us", "us", "lower"),
        Metric("bw_mbps", "MB/s", "higher"),
        Metric("hw_limit_mbps", "MB/s", "info"),
        Metric("bw_fraction_of_limit", "ratio", "higher"),
        Metric("sram_kb", "KB", "info"),
        Metric("sram_per_process_kb", "KB", "info"),
    ),
    expected_runtime="~2 s",
))

register(CampaignSpec(
    name="related", area="RELATED",
    title="messaging layers on the identical simulated testbed",
    paper_ref="section 7",
    trial=trials.related_trial,
    grid={"system": ("api", "fm", "pm", "pm-4k-units", "pm-copy", "am",
                     "vmmc")},
    seeds=(0,),
    metrics=(
        Metric("latency_us", "us", "lower"),
        Metric("oneway_mbps", "MB/s", "higher"),
        Metric("pingpong_mbps", "MB/s", "higher"),
    ),
    expected_runtime="~3 s",
))

register(CampaignSpec(
    name="ablation-threshold", area="ABLATION_THRESHOLD",
    title="short/long protocol threshold: sync overhead vs SRAM",
    paper_ref="section 5.3 (ablation E9)",
    trial=trials.ablation_threshold_trial,
    grid={"threshold": (32, 64, 128, 256, 512)},
    fixed={"probe": 96},
    seeds=(0,),
    metrics=(
        Metric("overhead_us", "us", "lower"),
        Metric("latency_us", "us", "lower"),
        Metric("sram_per_queue_kb", "KB", "lower"),
    ),
    expected_runtime="~1 s",
))

register(CampaignSpec(
    name="ablation-pipeline", area="ABLATION_PIPELINE",
    title="long-send optimisations switched off, warm vs cold TLB",
    paper_ref="sections 4.5 / 5.3 (ablation E10)",
    trial=trials.ablation_pipeline_trial,
    grid={"lcp": ("full", "no-precompute", "no-pipeline", "neither"),
          "tlb": ("warm", "cold")},
    fixed={"size": 262144},
    seeds=(0,),
    metrics=(
        Metric("mbps", "MB/s", "higher"),
        Metric("first_send_us", "us", "lower"),
    ),
    expected_runtime="~5 s",
))

register(CampaignSpec(
    name="ablation-multiprocess", area="ABLATION_MULTIPROCESS",
    title="per-process send queues: scan tax and SRAM bill",
    paper_ref="sections 4.4 / 6 (ablation E11)",
    trial=trials.ablation_multiprocess_trial,
    grid={"procs": (1, 2, 4, 5)},
    seeds=(0,),
    metrics=(
        Metric("latency_us", "us", "lower"),
        Metric("sram_used_kb", "KB", "info"),
        Metric("sram_per_proc_kb", "KB", "lower"),
        Metric("max_processes", "count", "higher"),
    ),
    expected_runtime="~1 s",
))

register(CampaignSpec(
    name="lossy", area="LOSSY",
    title="baseline VMMC vs the reliable layer on lossy links",
    paper_ref="extension of section 4.2 (E-chaos)",
    trial=trials.lossy_trial,
    grid={"rate": (0.0, 1e-6, 1e-4, 1e-3),
          "mode": ("baseline", "reliable")},
    fixed={"messages": 150, "size": 1024},
    seeds=(0,),
    metrics=(
        Metric("delivered_intact", "messages", "higher"),
        Metric("crc_drops", "count", "info"),
        Metric("retransmits", "count", "info"),
        Metric("send_failures", "count", "lower"),
        Metric("goodput_mbps", "MB/s", "higher"),
    ),
    expected_runtime="~5 s",
))
