"""Golden-fingerprint workload runners.

Each runner here replays one of the repo's standing workloads and
reduces the run to a JSON-serializable report — simulated times,
counters, metrics, trace fingerprints — with **no wall-clock content**,
so two runs are comparable byte for byte.  :func:`run_workload` returns
that report with its sha256 fingerprint; ``tests/golden_fingerprints.json``
commits one fingerprint per workload and ``tests/test_golden_fingerprints.py``
asserts them, so any change to event order, simulated time or a
modelled counter shows up as a changed digest.  The workloads:

* ``chaos``       — seeded error-burst run of the reliable sender;
* ``fig3``        — paper Figure 3 bandwidth points (one-way + bidir);
* ``dsm-smoke``   — DSM coherence workload, error-burst scenario;
* ``fabric-smoke``— multi-switch fabric pair traffic on a fat-tree;
* ``kv-smoke``    — sharded KV tier under error bursts (reliable
  retransmit deadlines end to end);
* ``contract``    — the observability contract workload, fingerprinting
  the full event trace and the metrics snapshot.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.fingerprint import (trace_fingerprint, trace_payload,
                                   value_fingerprint)

__all__ = ["WORKLOADS", "run_workload"]


def _chaos_workload() -> dict[str, Any]:
    from repro.bench.chaos import run_error_burst_trial

    return {f"seed{seed}.{mode}": run_error_burst_trial(
                seed, messages=30, size=1024, adaptive=(mode == "adaptive"))
            for seed in (0, 1) for mode in ("static", "adaptive")}


def _fig3_workload() -> dict[str, Any]:
    from repro.bench.microbench import (VmmcPair, vmmc_bidirectional_bandwidth,
                                        vmmc_oneway_bandwidth)
    from repro.cluster import TestbedConfig

    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                    buffer_bytes=65536)
    oneway = vmmc_oneway_bandwidth(pair, 65536, iterations=4)
    bidir = vmmc_bidirectional_bandwidth(pair, 16384, iterations=3)
    return {
        "oneway": {"size": oneway.size, "mbps": oneway.mbps},
        "bidir": {"size": bidir.size, "mbps": bidir.mbps},
        "events_processed": pair.env.events_processed,
        "final_time_ns": pair.env.now,
    }


def _dsm_workload() -> dict[str, Any]:
    from repro.dsm.bench import run_dsm_trial

    report = run_dsm_trial(0, nnodes=4, npages=16, page_bytes=256,
                           ops_per_node=12, scenario="error-burst")
    report.pop("wall_clock_s", None)
    return report


def _fabric_workload() -> dict[str, Any]:
    from repro.campaign.trials import fabric_trial

    return fabric_trial({"topology": "fattree:4", "pairs": 4,
                         "messages": 6, "size": 2048}, seed=0)


def _kv_workload() -> dict[str, Any]:
    # Chaos scenario on purpose: error bursts drive the reliable
    # sender's retransmit deadlines.
    from repro.kv.bench import run_kv_trial

    return run_kv_trial(0, shards=2, requests=120, nkeys=64, skew=1.1,
                        load="diurnal", scenario="error-burst")


def _contract_workload() -> dict[str, Any]:
    from repro.obs.workload import run_contract_workload

    tracer, metrics = run_contract_workload()
    return {
        "trace_fingerprint": trace_fingerprint(tracer),
        "trace_records": len(tracer.records),
        "trace_dropped": tracer.dropped,
        "metrics_fingerprint": value_fingerprint(metrics.snapshot()),
        "metrics": metrics.snapshot(),
        # Full trace retained so a changed digest can be traced to the
        # first differing record, not just two hashes.
        "trace": trace_payload(tracer),
    }


#: name -> zero-argument runner returning a JSON-serializable report.
WORKLOADS: dict[str, Callable[[], dict[str, Any]]] = {
    "chaos": _chaos_workload,
    "fig3": _fig3_workload,
    "dsm-smoke": _dsm_workload,
    "fabric-smoke": _fabric_workload,
    "kv-smoke": _kv_workload,
    "contract": _contract_workload,
}


def run_workload(name: str) -> dict[str, Any]:
    """Run workload ``name``; returns its report and the report's
    fingerprint."""
    from repro.hostos.process import fresh_pid_namespace

    with fresh_pid_namespace():
        report = WORKLOADS[name]()
    return {"workload": name, "fingerprint": value_fingerprint(report),
            "report": report}
