"""Chaos/reliability measurement drivers (extension beyond the paper).

The experiment the paper could not run: sweep the per-packet link error
rate and compare **baseline VMMC** (section 4.2: CRC errors detected,
counted, dropped — never recovered) against the
:mod:`repro.vmmc.reliable` retransmission layer, on identical simulated
hardware.  A second driver runs reliable traffic *under a seeded
fault campaign* (bit-error bursts injected mid-run) to demonstrate that
chaos here is deterministic: same seed, same drops, same retransmit
counts, byte for byte.

Used by ``python -m repro chaos``, the ``chaos``/``lossy`` campaigns and
``tests/test_paper_shapes.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim import Environment
from repro.cluster import Cluster, TestbedConfig
from repro.hw.myrinet.link import LinkParams
from repro.faults import (CampaignSet, DAEMON_COLD_CRASH, DAEMON_CRASH,
                          FaultCampaign, FaultEvent, FaultInjector,
                          FaultStats, LANAI_STALL, LINK_DOWN,
                          LINK_ERROR_BURST)
from repro.vmmc.reliable import HEADER_BYTES, open_channel

#: Settle time after the last send before the delivered count is read:
#: generous enough for any in-flight DMA/ACK to land.
DRAIN_NS = 5_000_000


def _pattern(index: int, size: int) -> bytes:
    """Deterministic, per-message payload (detects corruption *and*
    cross-message misdelivery)."""
    return bytes((index * 7 + j * 13 + 5) % 256 for j in range(size))


@dataclass(frozen=True)
class ChaosPoint:
    """One (error rate, protocol) cell of the chaos sweep."""

    error_rate: float
    mode: str                 # "baseline" or "reliable"
    messages: int
    size: int
    delivered_intact: int
    crc_drops: int
    retransmits: int
    acks_resent: int
    duplicates_suppressed: int
    send_failures: int
    elapsed_ns: int

    @property
    def delivery_ratio(self) -> float:
        return self.delivered_intact / self.messages if self.messages else 0.0

    @property
    def goodput_mbps(self) -> float:
        """Intact payload bytes per second of simulated time, in MB/s."""
        if self.elapsed_ns <= 0:
            return 0.0
        return (self.delivered_intact * self.size) / (self.elapsed_ns / 1e3)


def _two_node_cluster(error_rate: float) -> Cluster:
    return Cluster.build(TestbedConfig(
        nnodes=2, memory_mb=32,
        link=LinkParams(error_rate=error_rate)))


def run_baseline_point(error_rate: float, messages: int = 100,
                       size: int = 1024) -> ChaosPoint:
    """Plain VMMC sends over a lossy fabric: whatever the CRC kills is
    gone; the receiver's buffer simply never changes."""
    cluster = _two_node_cluster(error_rate)
    env = cluster.env
    _, ep_tx = cluster.nodes[0].attach_process("chaos_tx")
    _, ep_rx = cluster.nodes[1].attach_process("chaos_rx")
    inbox = ep_rx.alloc_buffer(messages * size)
    inbox.fill(0)
    src = ep_tx.alloc_buffer(size)
    result: dict[str, int] = {}

    def app():
        yield ep_rx.export(inbox, "chaos_inbox")
        imported = yield ep_tx.import_buffer("node1", "chaos_inbox")
        start = env.now
        for i in range(messages):
            src.write(_pattern(i, size))
            yield ep_tx.send(src, imported, size, dest_offset=i * size)
        result["elapsed"] = env.now - start

    done = env.process(app())
    env.run(until=done)
    # Let in-flight DMAs land before auditing the receive buffer; the
    # drain window is *not* charged to goodput (a real receiver has no
    # way to know when the stream ended — that is the point).
    env.run(until=env.now + DRAIN_NS)

    intact = sum(
        1 for i in range(messages)
        if inbox.read(i * size, size).tobytes() == _pattern(i, size))
    return ChaosPoint(
        error_rate=error_rate, mode="baseline", messages=messages,
        size=size, delivered_intact=intact,
        crc_drops=cluster.nodes[1].lcp.crc_drops,
        retransmits=0, acks_resent=0, duplicates_suppressed=0,
        send_failures=0, elapsed_ns=result["elapsed"])


def _attach_probe(tx, probe: dict) -> None:
    """Wrap the sender's state mutators to record invariant evidence:
    the RTO's observed min/max, the congestion-window peak, and the
    in-flight peak.  Purely observational — the wrapped calls delegate to
    the originals, so the run's behaviour is unchanged."""
    probe.update(rto_min=tx.rto_ns, rto_max=tx.rto_ns,
                 cwnd_peak=tx.cwnd, inflight_peak=tx.inflight,
                 min_rto_ns=tx.min_rto_ns, max_timeout_ns=tx.max_timeout_ns,
                 nslots=tx.nslots, max_window=tx.max_window)
    orig_rto, orig_cwnd = tx._set_rto, tx._set_cwnd
    orig_inflight = tx._set_inflight

    def set_rto(value: int) -> None:
        orig_rto(value)
        probe["rto_min"] = min(probe["rto_min"], tx.rto_ns)
        probe["rto_max"] = max(probe["rto_max"], tx.rto_ns)

    def set_cwnd(value: int, reason: str) -> None:
        orig_cwnd(value, reason=reason)
        probe["cwnd_peak"] = max(probe["cwnd_peak"], tx.cwnd)

    def set_inflight(value: int) -> None:
        orig_inflight(value)
        probe["inflight_peak"] = max(probe["inflight_peak"], tx.inflight)

    tx._set_rto = set_rto
    tx._set_cwnd = set_cwnd
    tx._set_inflight = set_inflight


def run_reliable_point(error_rate: float, messages: int = 100,
                       size: int = 1024,
                       campaign: Optional[FaultCampaign] = None,
                       adaptive: bool = True,
                       pipelined: Optional[bool] = None,
                       probe: Optional[dict] = None,
                       stats_out: Optional[dict] = None
                       ) -> tuple[ChaosPoint, Optional[FaultStats]]:
    """Reliable-VMMC transfer over the same lossy fabric, optionally with
    a fault campaign running concurrently.  Returns the measurement point
    and the campaign's :class:`FaultStats` (None without a campaign).

    ``adaptive`` selects the congestion-controlled sender (default) or
    the static stop-and-wait baseline; ``pipelined`` issues every send up
    front so the AIMD window can keep several slots in flight (defaults
    to ``adaptive`` — the static sender serialises either way).  Pass a
    dict as ``probe`` to collect invariant evidence (RTO min/max, cwnd
    peak) and as ``stats_out`` to receive the raw tx/rx stat dicts."""
    if pipelined is None:
        pipelined = adaptive
    cluster = _two_node_cluster(error_rate)
    env = cluster.env
    _, ep_tx = cluster.nodes[0].attach_process("chaos_tx")
    _, ep_rx = cluster.nodes[1].attach_process("chaos_rx")
    tx, rx = env.run(until=open_channel(
        ep_tx, ep_rx, "chaos", slot_bytes=HEADER_BYTES + size,
        adaptive=adaptive))
    if probe is not None:
        _attach_probe(tx, probe)

    fault_stats: Optional[FaultStats] = None
    if campaign is not None:
        injector = FaultInjector(cluster)
        injector.run(campaign)
        # Per-campaign map, not `injector.stats`: the latter is only the
        # most recently *started* campaign and is clobbered when several
        # campaigns share one injector.
        fault_stats = injector.stats_by_campaign[campaign.name]

    result: dict[str, object] = {}

    def receiver():
        got = []
        for _ in range(messages):
            payload = yield rx.recv()
            got.append(payload)
        result["got"] = got
        result["end"] = env.now
        # Stay posted: if the final ACK is lost, only a live recv() can
        # re-ACK the sender's retransmission of the last message.
        rx.recv()

    def sender():
        if pipelined:
            sends = [tx.send(_pattern(i, size)) for i in range(messages)]
            for proc in sends:
                yield proc
        else:
            for i in range(messages):
                yield tx.send(_pattern(i, size))

    start = env.now
    rx_proc = env.process(receiver())
    env.process(sender())
    env.run(until=rx_proc)
    env.run(until=env.now + DRAIN_NS)

    got = result["got"]
    intact = sum(1 for i, g in enumerate(got) if g == _pattern(i, size))
    elapsed = int(result["end"]) - start
    if stats_out is not None:
        stats_out["tx"] = tx.stats.as_dict()
        stats_out["rx"] = rx.stats.as_dict()
    return ChaosPoint(
        error_rate=error_rate,
        mode="adaptive" if adaptive else "static",
        messages=messages,
        size=size, delivered_intact=intact,
        crc_drops=(cluster.nodes[0].lcp.crc_drops
                   + cluster.nodes[1].lcp.crc_drops),
        retransmits=tx.stats.retransmits,
        acks_resent=rx.stats.acks_resent,
        duplicates_suppressed=rx.stats.duplicates_suppressed,
        send_failures=tx.stats.send_failures,
        elapsed_ns=elapsed), fault_stats


def burst_campaign(cluster_links: list[str], seed: int,
                   nbursts: int = 3, rate: float = 0.4,
                   burst_ns: int = 300_000) -> FaultCampaign:
    """The canonical chaos-bench campaign: clustered error bursts on the
    data path, deterministically placed by ``seed``."""
    return FaultCampaign.random_link_bursts(
        cluster_links, seed=seed, nbursts=nbursts, rate=rate,
        start_ns=20_000, window_ns=3_000_000, burst_ns=burst_ns,
        name=f"bursts.seed{seed}")


def data_path_links() -> list[str]:
    """Link names on the node0→node1 data path of the 2-node testbed
    (data packets and ACKs traverse these)."""
    return ["node0->sw0", "sw0->node1", "node1->sw0", "sw0->node0"]


def run_campaign_point(seed: int, messages: int = 60, size: int = 1024,
                       adaptive: bool = True
                       ) -> tuple[ChaosPoint, FaultStats]:
    """Reliable traffic on a *clean* fabric with seeded error bursts
    injected mid-run — the determinism fixture: two calls with the same
    seed must return identical FaultStats and retransmit counts."""
    campaign = burst_campaign(data_path_links(), seed=seed)
    point, stats = run_reliable_point(0.0, messages=messages, size=size,
                                      campaign=campaign, adaptive=adaptive)
    assert stats is not None
    return point, stats


def run_error_burst_trial(seed: int, messages: int = 60, size: int = 1024,
                          adaptive: bool = True) -> dict:
    """One fully-instrumented error-burst run: seeded bursts on the data
    path, a probe on the sender's adaptive state, and the raw stat dicts.
    Returns a deterministic, JSON-serialisable report — two calls with
    the same arguments must produce *identical* reports (the CI
    seed-sweep gate re-runs every seed and diffs)."""
    probe: dict = {}
    stats_out: dict = {}
    campaign = burst_campaign(data_path_links(), seed=seed)
    point, fault_stats = run_reliable_point(
        0.0, messages=messages, size=size, campaign=campaign,
        adaptive=adaptive, probe=probe, stats_out=stats_out)
    assert fault_stats is not None
    return {
        "seed": seed,
        "mode": point.mode,
        "messages": messages,
        "size": size,
        "delivered_intact": point.delivered_intact,
        "crc_drops": point.crc_drops,
        "retransmits": point.retransmits,
        "send_failures": point.send_failures,
        "elapsed_ns": point.elapsed_ns,
        "goodput_mbps": round(point.goodput_mbps, 6),
        "probe": dict(sorted(probe.items())),
        "tx_stats": stats_out["tx"],
        "rx_stats": stats_out["rx"],
        "fault_stats": fault_stats.as_dict(),
    }


def check_trial_invariants(report: dict) -> list[str]:
    """Protocol invariants a :func:`run_error_burst_trial` report must
    satisfy; returns human-readable violation strings (empty == pass).
    Mirrors the property harness in ``tests/test_reliable_properties.py``
    so the CI seed sweep and the test suite enforce the same contract."""
    violations: list[str] = []
    tx = report["tx_stats"]
    if report["delivered_intact"] != report["messages"]:
        violations.append(
            f"delivery: {report['delivered_intact']}/{report['messages']} "
            f"payloads intact")
    if report["send_failures"]:
        violations.append(
            f"delivery: {report['send_failures']} send failures")
    if report["mode"] == "adaptive":
        probe = report["probe"]
        if probe["rto_min"] < probe["min_rto_ns"]:
            violations.append(
                f"rto: observed min {probe['rto_min']} below floor "
                f"{probe['min_rto_ns']}")
        if probe["rto_max"] > probe["max_timeout_ns"]:
            violations.append(
                f"rto: observed max {probe['rto_max']} above ceiling "
                f"{probe['max_timeout_ns']}")
        if probe["cwnd_peak"] > probe["nslots"]:
            violations.append(
                f"cwnd: peak {probe['cwnd_peak']} exceeds ring of "
                f"{probe['nslots']} slots")
        if probe["inflight_peak"] > probe["nslots"]:
            violations.append(
                f"inflight: peak {probe['inflight_peak']} exceeds ring "
                f"of {probe['nslots']} slots")
        karn = tx["rtt_samples"] + tx["retransmitted_deliveries"]
        if karn != tx["messages_delivered"]:
            violations.append(
                f"karn: rtt_samples {tx['rtt_samples']} + retransmitted "
                f"deliveries {tx['retransmitted_deliveries']} != "
                f"{tx['messages_delivered']} delivered")
    return violations


# -- multi-campaign orchestration ------------------------------------------
def parse_campaign_spec(spec: str, *, default_seed: int = 0
                        ) -> FaultCampaign:
    """Build a :class:`FaultCampaign` from a CLI spec string.

    Format: ``builder[:key=value[,key=value...]]``.  Builders (all
    deterministic — every random choice comes from ``seed``):

    =============  =========================================================
    ``bursts``     clustered link error bursts on the node0↔node1 data path
                   (``seed``, ``nbursts``, ``rate``, ``burst_ns``,
                   ``start_ns``, ``window_ns``)
    ``flap``       link down/up cycles (``target`` link name, ``seed``,
                   ``count``, ``down_ns``, ``gap_ns``, ``start_ns``)
    ``stall``      LANai clock stops (``node``, ``seed``, ``count``,
                   ``stall_ns``, ``gap_ns``, ``start_ns``)
    ``crash``      one daemon crash window (``node``, ``at_ns``,
                   ``dur_ns``, ``cold`` ∈ 0/1)
    ``cold-crash`` the recovery-protocol schedule of
                   :func:`cold_crash_campaign` (``seed``)
    =============  =========================================================

    Every builder accepts ``name=`` to override the derived campaign name
    (names must be unique within one ``--campaign`` set).
    """
    builder, _, rest = spec.partition(":")
    builder = builder.strip()
    kw: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            if not item:
                continue
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(
                    f"bad campaign spec item {item!r} in {spec!r} "
                    "(want key=value)")
            kw[key.strip()] = value.strip()
    seed = int(kw.pop("seed", default_seed))
    name = kw.pop("name", None)

    def leftover():
        if kw:
            raise ValueError(
                f"unknown key(s) {sorted(kw)} for campaign builder "
                f"{builder!r}")

    if builder == "bursts":
        nbursts = int(kw.pop("nbursts", 3))
        rate = float(kw.pop("rate", 0.4))
        burst_ns = int(kw.pop("burst_ns", 300_000))
        start_ns = int(kw.pop("start_ns", 20_000))
        window_ns = int(kw.pop("window_ns", 3_000_000))
        leftover()
        return FaultCampaign.random_link_bursts(
            data_path_links(), seed=seed, nbursts=nbursts, rate=rate,
            start_ns=start_ns, window_ns=window_ns, burst_ns=burst_ns,
            name=name or f"bursts.seed{seed}")
    if builder == "flap":
        target = kw.pop("target", "sw0->node1")
        count = int(kw.pop("count", 2))
        down_ns = int(kw.pop("down_ns", 150_000))
        gap_ns = int(kw.pop("gap_ns", 1_200_000))
        start_ns = int(kw.pop("start_ns", 200_000))
        leftover()
        rng = np.random.default_rng(seed)
        events = [FaultEvent(
            at_ns=start_ns + i * gap_ns + int(rng.integers(0, gap_ns // 4)),
            kind=LINK_DOWN, target=target, duration_ns=down_ns)
            for i in range(count)]
        return FaultCampaign.of(name or f"flap.seed{seed}", events,
                                seed=seed)
    if builder == "stall":
        node = kw.pop("node", "node1")
        count = int(kw.pop("count", 2))
        stall_ns = int(kw.pop("stall_ns", 120_000))
        gap_ns = int(kw.pop("gap_ns", 1_000_000))
        start_ns = int(kw.pop("start_ns", 400_000))
        leftover()
        rng = np.random.default_rng(seed)
        events = [FaultEvent(
            at_ns=start_ns + i * gap_ns + int(rng.integers(0, gap_ns // 4)),
            kind=LANAI_STALL, target=node, duration_ns=stall_ns)
            for i in range(count)]
        return FaultCampaign.of(name or f"stall.seed{seed}", events,
                                seed=seed)
    if builder == "crash":
        node = kw.pop("node", "node1")
        at_ns = int(kw.pop("at_ns", 500_000))
        dur_ns = int(kw.pop("dur_ns", 400_000))
        cold = kw.pop("cold", "0") not in ("0", "false", "no")
        leftover()
        kind = DAEMON_COLD_CRASH if cold else DAEMON_CRASH
        events = [FaultEvent(at_ns=at_ns, kind=kind, target=node,
                             duration_ns=dur_ns)]
        return FaultCampaign.of(
            name or f"{'cold-' if cold else ''}crash.{node}.seed{seed}",
            events, seed=seed)
    if builder == "cold-crash":
        leftover()
        campaign = cold_crash_campaign(seed)
        if name:
            campaign = FaultCampaign(name=name, events=campaign.events,
                                     seed=seed)
        return campaign
    raise ValueError(
        f"unknown campaign builder {builder!r} "
        "(want bursts, flap, stall, crash or cold-crash)")


def default_multi_campaigns(seed: int) -> list[FaultCampaign]:
    """The canonical concurrent-chaos set: two burst campaigns whose
    schedules include *guaranteed-overlapping* bursts on one data-path
    link (exercising the error-rate stack), plus a LANai-stall campaign
    on both nodes.  Deterministic per ``seed``."""
    links = data_path_links()
    a = FaultCampaign.of(
        f"bursts-a.seed{seed}",
        list(burst_campaign(links, seed=seed).events) + [
            FaultEvent(at_ns=100_000, kind=LINK_ERROR_BURST,
                       target="sw0->node1", duration_ns=300_000,
                       params={"rate": 0.5})],
        seed=seed)
    b = FaultCampaign.of(
        f"bursts-b.seed{seed + 1}",
        list(burst_campaign(links, seed=seed + 1).events) + [
            FaultEvent(at_ns=250_000, kind=LINK_ERROR_BURST,
                       target="sw0->node1", duration_ns=300_000,
                       params={"rate": 0.3})],
        seed=seed + 1)
    stalls = FaultCampaign.of(
        f"stalls.seed{seed}",
        [FaultEvent(at_ns=500_000, kind=LANAI_STALL, target="node1",
                    duration_ns=120_000),
         FaultEvent(at_ns=1_500_000, kind=LANAI_STALL, target="node0",
                    duration_ns=120_000)],
        seed=seed)
    return [a, b, stalls]


def run_multi_campaign_trial(seed: int, messages: int = 60,
                             size: int = 1024,
                             campaigns: Optional[list[FaultCampaign]] = None,
                             policy: str = "serialize",
                             adaptive: bool = True) -> dict:
    """Reliable traffic on a clean fabric while a whole
    :class:`CampaignSet` runs **concurrently** — the multi-campaign
    acceptance fixture.  Returns a deterministic, JSON-serialisable
    report: two calls with the same arguments must be byte-identical
    (the CI multi-campaign gate re-runs and diffs).

    The report carries the merged cross-campaign
    :class:`~repro.faults.MergedFaultStats` (overlapped intervals
    counted once per target), every per-campaign sub-stat, and any
    conflict-guard decisions.
    """
    cluster = _two_node_cluster(0.0)
    env = cluster.env
    _, ep_tx = cluster.nodes[0].attach_process("chaos_tx")
    _, ep_rx = cluster.nodes[1].attach_process("chaos_rx")
    tx, rx = env.run(until=open_channel(
        ep_tx, ep_rx, "chaos", slot_bytes=HEADER_BYTES + size,
        adaptive=adaptive))

    # Campaigns are authored relative to t=0; shift them to the workload
    # start so their relative timing (and the overlaps we are testing)
    # survives the channel-setup time.
    cset = CampaignSet.of(
        [c.shifted(env.now)
         for c in (campaigns or default_multi_campaigns(seed))],
        policy=policy)
    _, conflicts = cset.resolve()   # deterministic; re-done by run_all
    injector = FaultInjector(cluster)
    set_done = injector.run_all(cset)

    result: dict[str, object] = {}

    def receiver():
        got = []
        for _ in range(messages):
            payload = yield rx.recv()
            got.append(payload)
        result["got"] = got
        result["end"] = env.now
        # Stay posted: if the final ACK is lost, only a live recv() can
        # re-ACK the sender's retransmission of the last message.
        rx.recv()

    def sender():
        if adaptive:
            sends = [tx.send(_pattern(i, size)) for i in range(messages)]
            for proc in sends:
                yield proc
        else:
            for i in range(messages):
                yield tx.send(_pattern(i, size))

    start = env.now
    rx_proc = env.process(receiver())
    env.process(sender())
    env.run(until=rx_proc)
    merged = env.run(until=set_done)
    env.run(until=env.now + DRAIN_NS)

    got = result["got"]
    intact = sum(1 for i, g in enumerate(got) if g == _pattern(i, size))
    elapsed = int(result["end"]) - start
    goodput = (intact * size) / (elapsed / 1e3) if elapsed > 0 else 0.0
    return {
        "seed": seed,
        "policy": policy,
        "mode": "adaptive" if adaptive else "static",
        "messages": messages,
        "size": size,
        "campaigns": [c.name for c in cset],
        "conflicts": [c.as_dict() for c in conflicts],
        "delivered_intact": intact,
        "crc_drops": (cluster.nodes[0].lcp.crc_drops
                      + cluster.nodes[1].lcp.crc_drops),
        "retransmits": tx.stats.retransmits,
        "duplicates_suppressed": rx.stats.duplicates_suppressed,
        "send_failures": tx.stats.send_failures,
        "elapsed_ns": elapsed,
        "goodput_mbps": round(goodput, 6),
        "merged_fault_stats": merged.as_dict(),
        "per_campaign": {
            name: stats.as_dict()
            for name, stats in sorted(
                injector.stats_by_campaign.items())},
    }


def cold_crash_campaign(seed: int, start_ns: int = 0,
                        gap_ns: int = 4_000_000) -> FaultCampaign:
    """Cold daemon crashes for the recovery protocol: first the
    *receiver's* daemon (node1 — the sender's ring import goes stale),
    then the *sender's* (node0 — the receiver's ACK import goes stale),
    in disjoint windows so the cluster never loses both daemons at once.
    Crash times and dead windows are drawn deterministically from
    ``seed``."""
    rng = np.random.default_rng(seed)
    events = []
    for i, node in enumerate(("node1", "node0")):
        at = start_ns + i * gap_ns + int(rng.integers(100_000, 1_500_000))
        dead_ns = int(rng.integers(300_000, 800_000))
        events.append(FaultEvent(at_ns=at, kind=DAEMON_COLD_CRASH,
                                 target=node, duration_ns=dead_ns))
    return FaultCampaign.of(f"cold_crash.seed{seed}", events, seed=seed)


def run_cold_crash_point(seed: int, messages: int = 200, size: int = 1024,
                         adaptive: bool = True
                         ) -> tuple[ChaosPoint, FaultStats, dict]:
    """Reliable transfer while both daemons cold-crash mid-stream.

    The acceptance experiment for the import-lifecycle redesign: every
    payload must arrive intact exactly once (the reliable layer reimports
    stale destinations transparently), and no write may land through a
    dead mapping (``stale_writes_blocked`` counts the incoming page
    table's refusals).  Returns ``(point, fault_stats, recovery)`` where
    ``recovery`` aggregates the protocol's counters — identical across
    reruns of the same seed."""
    cluster = _two_node_cluster(0.0)
    env = cluster.env
    _, ep_tx = cluster.nodes[0].attach_process("chaos_tx")
    _, ep_rx = cluster.nodes[1].attach_process("chaos_rx")
    tx, rx = env.run(until=open_channel(
        ep_tx, ep_rx, "chaos", slot_bytes=HEADER_BYTES + size,
        adaptive=adaptive))

    campaign = cold_crash_campaign(seed, start_ns=env.now)
    injector = FaultInjector(cluster)
    campaign_done = injector.run(campaign)
    fault_stats = injector.stats_by_campaign[campaign.name]

    result: dict[str, object] = {}

    def receiver():
        got = []
        for _ in range(messages):
            payload = yield rx.recv()
            got.append(payload)
        result["got"] = got
        result["end"] = env.now
        # Stay posted: if the final ACK is lost, only a live recv() can
        # re-ACK the sender's retransmission of the last message.
        rx.recv()

    def sender():
        if adaptive:
            sends = [tx.send(_pattern(i, size)) for i in range(messages)]
            for proc in sends:
                yield proc
        else:
            for i in range(messages):
                yield tx.send(_pattern(i, size))

    start = env.now
    rx_proc = env.process(receiver())
    env.process(sender())
    env.run(until=rx_proc)
    env.run(until=campaign_done)
    env.run(until=env.now + DRAIN_NS)

    got = result["got"]
    intact = sum(1 for i, g in enumerate(got) if g == _pattern(i, size))
    elapsed = int(result["end"]) - start
    point = ChaosPoint(
        error_rate=0.0, mode="adaptive" if adaptive else "static",
        messages=messages, size=size,
        delivered_intact=intact,
        crc_drops=(cluster.nodes[0].lcp.crc_drops
                   + cluster.nodes[1].lcp.crc_drops),
        retransmits=tx.stats.retransmits,
        acks_resent=rx.stats.acks_resent,
        duplicates_suppressed=rx.stats.duplicates_suppressed,
        send_failures=tx.stats.send_failures,
        elapsed_ns=elapsed)
    daemons = [node.daemon for node in cluster.nodes]
    recovery = {
        "cold_restarts": sum(d.cold_restarts for d in daemons),
        "invalidations_rx": sum(d.invalidations_rx for d in daemons),
        "imports_invalidated": sum(d.imports_invalidated for d in daemons),
        "exports_reestablished":
            sum(d.exports_reestablished for d in daemons),
        "reimports": tx.stats.reimports + rx.stats.reimports,
        "stale_transmits":
            tx.stats.stale_transmits + rx.stats.stale_transmits,
        "stale_sends_blocked":
            ep_tx.stale_sends_blocked + ep_rx.stale_sends_blocked,
        "stale_writes_blocked":
            sum(node.lcp.protection_violations for node in cluster.nodes),
    }
    return point, fault_stats, recovery
