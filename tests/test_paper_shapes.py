"""The paper's shapes, asserted on the campaign trials that measure them.

Every number here comes from the trial function a registered campaign
runs (``python -m repro campaign run <name>``), called with that
campaign's own fixed parameters, so the committed ``BENCH_<AREA>.json``
cells and these assertions measure the same thing.  Each test pins one
figure or section: who wins, by what factor, where the crossovers fall.
"""

from functools import lru_cache

import pytest

from repro.bench.chaos import (check_trial_invariants, run_campaign_point,
                               run_cold_crash_point, run_error_burst_trial,
                               run_reliable_point)
from repro.campaign import get_campaign
from repro.obs.breakdown import measure_stage_breakdown


@lru_cache(maxsize=None)
def _trial(name: str, **cell) -> dict:
    spec = get_campaign(name)
    return spec.trial(spec.trial_params(cell), 0)


def _m(name: str, **cell) -> dict:
    """Metrics of one cell of campaign ``name`` (seed 0)."""
    return _trial(name, **cell)["metrics"]


def _curve(name: str, metric: str, **fixed) -> dict:
    """``size -> metric`` over the campaign's full size grid."""
    sizes = get_campaign(name).grid["size"]
    return {size: _m(name, size=size, **fixed)[metric] for size in sizes}


# ----------------------------------------------------------------- Figure 1
def test_fig1_dma_bandwidth_shape():
    """Host<->LANai DMA reaches ~100 MB/s at 4 KB transfer units and
    ~128 MB/s (close to the PCI maximum) at 64 KB; virtual memory
    scatters pages, so libraries are stuck with the 4 KB point."""
    curve = _curve("dma", "mbps")
    assert curve[4096] == pytest.approx(100.0, rel=0.03)
    assert curve[65536] == pytest.approx(128.0, rel=0.03)
    # Monotonically rising curve.
    values = [curve[size] for size in sorted(curve)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # Small blocks are far below the peak (the reason short sends use PIO).
    assert curve[64] < 30


# ----------------------------------------------------------------- Figure 2
def test_fig2_latency_shape():
    """One word in 9.8 us; up to 128 B the data is PIO-copied into the
    SRAM send queue, longer sends switch to the host-DMA protocol."""
    curve = _curve("latency", "one_way_us")
    assert curve[4] == pytest.approx(9.8, rel=0.03)
    # Latency grows with PIO word count in the short regime.
    assert curve[4] < curve[64] < curve[128]
    # Everything in the figure stays within the same order of magnitude.
    assert curve[512] < 5 * curve[4]


# ----------------------------------------------------------------- Figure 3
def test_fig3_bandwidth_shape():
    """Ping-pong traffic peaks at 98.4 MB/s, 98 % of the 100 MB/s that
    4 KB host-DMA units allow; simultaneous bidirectional traffic tops
    out at 91 MB/s total (the LCP leaves its tight sending loop)."""
    oneway = _curve("bandwidth", "mbps", pattern="oneway")
    bidir = _curve("bandwidth", "mbps", pattern="bidir")
    peak, bidir_peak = max(oneway.values()), max(bidir.values())
    assert peak == pytest.approx(98.4, rel=0.01)
    assert peak / 100.0 >= 0.97
    # Bidirectional total: ~91 MB/s, below the one-way peak.
    assert bidir_peak == pytest.approx(91.0, rel=0.03)
    assert bidir_peak < peak
    # Bandwidth rises with message size (per-message costs amortise).
    assert oneway[256] < oneway[4096] < oneway[65536]


# ----------------------------------------------------------------- Figure 4
def test_fig4_send_overhead_shape():
    """Sync overhead is a few us and grows slowly to 128 B, then jumps
    on the long protocol; async long overhead is slightly *lower* than
    async short (fixed-size request vs PIO data copy)."""
    sync = _curve("overhead", "overhead_us", mode="sync")
    async_ = _curve("overhead", "overhead_us", mode="async")
    # Short sends: sync == async (identical host code path).
    for size in (4, 64, 128):
        assert sync[size] == pytest.approx(async_[size], rel=0.02)
    assert 2.0 <= sync[4] <= 4.0
    assert sync[128] < 3 * sync[4]
    # The jump past the 128 B short/long protocol boundary (sync only).
    assert sync[192] > 1.5 * sync[128]
    assert async_[256] < async_[128]
    # Sync long overhead grows with size (waits for host DMA); async
    # long does not.
    assert sync[4096] > sync[256]
    assert async_[4096] == pytest.approx(async_[256], rel=0.1)


# -------------------------------------------------------------- section 5.2
def test_sec52_stage_breakdown_shape():
    """The 9.8 us one-way latency decomposed from traces: the stages
    telescope to the end-to-end latency exactly, and software on the two
    LANais dominates while the wire is ~1 us."""
    for size in get_campaign("breakdown").grid["size"]:
        report = measure_stage_breakdown(size)
        assert report.sum_ns == report.total_ns, size
        report.check(tolerance=0.01)
        assert _trial("breakdown", size=size)["gates"] == {
            "stages_telescope": True}
    short = _m("breakdown", size=4)
    assert short["total_us"] == pytest.approx(9.8, abs=0.3)
    assert (short["lanai_send_us"] + short["lanai_recv_us"]
            > short["total_us"] / 2)
    assert short["wire_us"] < 1.5
    # Determinism: a second traced run reproduces the table bit-exactly.
    spec = get_campaign("breakdown")
    assert spec.trial(spec.trial_params({"size": 4}), 0)["metrics"] == short


def test_sec52_hardware_limits():
    """MMIO read 0.422 us / write 0.121 us; posting >= 0.5 us; receive
    DMA ~2 us; a ~5 us hardware floor under the measured 9.8 us."""
    m = _m("hwlimits")
    assert m["mmio_read_us"] == pytest.approx(0.422, abs=0.001)
    assert m["mmio_write_us"] == pytest.approx(0.121, abs=0.001)
    assert m["post_us"] >= 0.5
    assert m["recv_dma_us"] == pytest.approx(2.0, abs=0.15)
    assert m["min_latency_us"] == pytest.approx(5.0, abs=0.3)
    # Software overhead above the floor is what 9.8 - ~5 quantifies.
    assert m["one_way_us"] - m["min_latency_us"] == pytest.approx(4.8,
                                                                  abs=0.5)


# -------------------------------------------------------------- section 5.4
def test_sec54_vrpc():
    """vRPC: 66 us null round trip; bulk bandwidth limited by the one
    receive-side compatibility copy (~33 MB/s), far above SunRPC/UDP."""
    m = _m("vrpc", iters=10)
    assert m["null_rtt_us"] == pytest.approx(66, rel=0.08)
    assert 25 <= m["bulk_mbps"] <= 40
    assert 40 <= m["bcopy_mbps"] <= 60
    # vRPC crushes the commodity stack on both axes.
    assert m["udp_null_rtt_us"] > 5 * m["null_rtt_us"]
    assert m["udp_bulk_mbps"] < m["bulk_mbps"]


# ---------------------------------------------------------------- section 6
def test_sec6_shrimp_vs_myrinet():
    """SHRIMP's hardware send initiation beats the LANai's software on
    latency despite the slower EISA bus; Myrinet posts one request per
    long send where SHRIMP pays per page; both approach their hardware
    limits; Myrinet pays in NIC SRAM per process."""
    shrimp = _m("shrimp", platform="shrimp")
    myrinet = _m("shrimp", platform="myrinet")
    assert shrimp["latency_us"] == pytest.approx(7.0, rel=0.1)
    assert myrinet["latency_us"] == pytest.approx(9.8, rel=0.03)
    assert shrimp["latency_us"] < myrinet["latency_us"]
    # Send initiation: 2-3 us hardware vs >= 2x in LANai software.
    assert 2.0 <= shrimp["init_us"] <= 3.0
    assert myrinet["init_us"] >= 2 * 2.0
    # Host posting cost for a 32-page message: SHRIMP pays per page.
    assert shrimp["long_post_us"] > 3 * myrinet["long_post_us"]
    # Bandwidth vs limit: SHRIMP at its limit, Myrinet at ~98 %.
    assert shrimp["bw_fraction_of_limit"] > 0.95
    assert myrinet["bw_fraction_of_limit"] == pytest.approx(0.98, abs=0.01)
    # Myrinet's resource bill: tens of KB of SRAM per attached process.
    assert myrinet["sram_per_process_kb"] > 20


# ---------------------------------------------------------------- section 7
def test_sec7_related_work():
    """PM < VMMC < FM << Myrinet API on latency; PM's 8 KB units beat
    the page-size limit, VMMC sits at it, FM is PIO-bound; capped at
    page-size units PM converges with VMMC near 100 MB/s."""
    m = {system: _m("related", system=system)
         for system in get_campaign("related").grid["system"]}
    assert m["api"]["latency_us"] == pytest.approx(63, rel=0.05)
    assert m["fm"]["latency_us"] == pytest.approx(11.7, rel=0.1)
    assert m["pm"]["latency_us"] == pytest.approx(7.2, rel=0.1)
    assert m["vmmc"]["latency_us"] == pytest.approx(9.8, rel=0.03)
    assert (m["pm"]["latency_us"] < m["vmmc"]["latency_us"]
            < m["fm"]["latency_us"])
    assert m["api"]["latency_us"] > 4 * m["fm"]["latency_us"]
    assert m["pm"]["oneway_mbps"] > 105 > m["vmmc"]["oneway_mbps"] > 95
    assert 25 <= m["fm"]["oneway_mbps"] <= 34
    assert m["pm-4k-units"]["oneway_mbps"] == pytest.approx(100, rel=0.06)
    # The copy PM excludes costs real bandwidth.
    assert m["pm-copy"]["oneway_mbps"] < m["pm"]["oneway_mbps"]


# ---------------------------------------------------------------- ablations
def test_ablation_short_long_threshold():
    """Threshold 64 would dramatically raise the sync overhead of 64-128
    byte messages while latency barely moves; thresholds above 128 buy
    little and multiply the per-process SRAM bill (section 5.3)."""
    by_thr = {t: _m("ablation-threshold", threshold=t)
              for t in get_campaign("ablation-threshold").grid["threshold"]}
    assert by_thr[64]["overhead_us"] > 1.5 * by_thr[128]["overhead_us"]
    lat_ratio = by_thr[64]["latency_us"] / by_thr[128]["latency_us"]
    ovh_ratio = by_thr[64]["overhead_us"] / by_thr[128]["overhead_us"]
    assert lat_ratio < ovh_ratio
    assert lat_ratio < 1.25
    assert by_thr[512]["overhead_us"] == pytest.approx(
        by_thr[128]["overhead_us"], rel=0.05)
    assert (by_thr[512]["sram_per_queue_kb"]
            > 3 * by_thr[128]["sram_per_queue_kb"])


def test_ablation_long_send_optimisations():
    """98 % of the limit comes from the tight loop, host/net DMA
    pipelining and header precompute; pipelining is the big one.  A cold
    TLB costs an interrupt per 32-page refill batch."""
    def mbps(lcp):
        return _m("ablation-pipeline", lcp=lcp, tlb="warm")["mbps"]

    full = mbps("full")
    assert full == pytest.approx(98.4, rel=0.01)
    assert mbps("no-precompute") < full
    assert mbps("no-precompute") > 0.9 * full
    assert mbps("no-pipeline") < 0.75 * full
    assert mbps("neither") <= mbps("no-pipeline")
    cold = _m("ablation-pipeline", lcp="full", tlb="cold")["first_send_us"]
    warm = _m("ablation-pipeline", lcp="full", tlb="warm")["first_send_us"]
    assert cold > warm + 20


def test_ablation_per_process_queues():
    """Every attached process's queue is scanned (a modest, growing
    latency tax) and costs tens of KB of NIC SRAM, so a 256 KB board
    serves only a handful of processes (sections 4.4 and 6)."""
    by_n = {n: _m("ablation-multiprocess", procs=n)
            for n in get_campaign("ablation-multiprocess").grid["procs"]}
    assert by_n[5]["latency_us"] > by_n[1]["latency_us"]
    assert by_n[5]["latency_us"] - by_n[1]["latency_us"] < 3.0
    assert 25 <= by_n[4]["sram_per_proc_kb"] <= 35
    assert 3 <= by_n[1]["max_processes"] <= 8


# ------------------------------------------------------- lossy links / chaos
def test_lossy_baseline_drops_reliable_delivers():
    """Baseline VMMC counts and drops CRC-failed packets (section 4.2);
    the reliable layer delivers every payload byte-exactly at every
    swept error rate, paying in retransmissions."""
    grid = get_campaign("lossy").grid["rate"]
    cells = {(rate, mode): _trial("lossy", rate=rate, mode=mode)
             for rate in grid for mode in ("baseline", "reliable")}
    messages = get_campaign("lossy").fixed["messages"]
    for rate in grid:
        rel = cells[(rate, "reliable")]
        assert rel["metrics"]["delivered_intact"] == messages, rate
        assert rel["metrics"]["send_failures"] == 0
        assert rel["gates"] == {"delivered": True}
    lossy = [rate for rate in grid if rate >= 1e-4]
    assert sum(cells[(r, "reliable")]["metrics"]["retransmits"]
               for r in lossy) > 0
    assert sum(cells[(r, "baseline")]["metrics"]["crc_drops"]
               for r in lossy) > 0
    assert any(cells[(r, "baseline")]["metrics"]["delivered_intact"]
               < messages for r in lossy)
    # On a clean fabric the layer is pure overhead: no retransmissions.
    assert cells[(0.0, "reliable")]["metrics"]["retransmits"] == 0
    assert cells[(0.0, "baseline")]["metrics"]["delivered_intact"] == \
        messages


def test_fault_campaign_is_deterministic():
    """The same seeded burst campaign twice: same FaultStats, same
    retransmits, every payload intact, and the bursts really hit."""
    point_a, stats_a = run_campaign_point(seed=7)
    point_b, stats_b = run_campaign_point(seed=7)
    assert stats_a.as_dict() == stats_b.as_dict()
    assert stats_a.faults_raised > 0
    assert point_a.retransmits == point_b.retransmits
    assert point_a.delivered_intact == point_a.messages
    assert point_b.delivered_intact == point_b.messages
    # A dropped ACK may be masked by the next cumulative ACK, so the
    # kills are asserted, not the retransmits.
    assert point_a.crc_drops > 0


def test_cold_crash_recovery_exactly_once_and_deterministic():
    cold_a = run_cold_crash_point(seed=7)
    cold_b = run_cold_crash_point(seed=7)
    for point, stats, recovery in (cold_a, cold_b):
        assert point.delivered_intact == point.messages
        assert point.send_failures == 0
        assert stats.by_kind.get("daemon_cold_crash") == 2
        assert recovery["cold_restarts"] == 2
        assert recovery["reimports"] > 0       # the protocol actually ran
        assert recovery["exports_reestablished"] > 0
    assert cold_a[0] == cold_b[0]
    assert cold_a[1].as_dict() == cold_b[1].as_dict()
    assert cold_a[2] == cold_b[2]
    static = run_cold_crash_point(seed=7, adaptive=False)[0]
    assert static.delivered_intact == static.messages
    assert cold_a[0].goodput_mbps >= static.goodput_mbps


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_adaptive_sender_beats_static_under_bursts(seed):
    """Identical seeded error-burst schedules: the adaptive sender's
    goodput is >= the static sender's, both deliver everything, and
    every protocol invariant holds."""
    messages = 75
    static = run_error_burst_trial(seed, messages=messages, size=1024,
                                   adaptive=False)
    adaptive = run_error_burst_trial(seed, messages=messages, size=1024,
                                     adaptive=True)
    assert adaptive["delivered_intact"] == adaptive["messages"]
    assert static["delivered_intact"] == static["messages"]
    assert adaptive["goodput_mbps"] >= static["goodput_mbps"]
    assert check_trial_invariants(adaptive) == []
    assert check_trial_invariants(static) == []
    assert adaptive["fault_stats"] == static["fault_stats"]


def test_adaptation_is_invisible_on_a_clean_fabric():
    """Clean fabric, sequential issue: the two policies produce
    identical measurements (only the label differs)."""
    static = run_reliable_point(0.0, messages=150, size=1024,
                                adaptive=False)[0]
    adaptive = run_reliable_point(0.0, messages=150, size=1024,
                                  adaptive=True, pipelined=False)[0]
    assert adaptive.elapsed_ns == static.elapsed_ns
    assert adaptive.delivered_intact == static.delivered_intact == 150
    assert adaptive.retransmits == static.retransmits == 0
    assert adaptive.goodput_mbps == static.goodput_mbps
