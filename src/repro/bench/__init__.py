"""Benchmark harness: the section-5 microbenchmarks as reusable drivers.

:mod:`repro.bench.microbench` implements the paper's measurement
methodology (ping-pong, one-way, bidirectional, send-overhead probes) over
a simulated cluster and :mod:`repro.bench.chaos` the fault-injection
drivers; the trials of :mod:`repro.campaign.trials` call them, one
registered campaign per paper artifact.  :mod:`repro.bench.report`
renders the CLI's text tables.
"""

from repro.bench.microbench import (
    BandwidthPoint,
    LatencyPoint,
    OverheadPoint,
    VmmcPair,
    vmmc_bidirectional_bandwidth,
    vmmc_oneway_bandwidth,
    vmmc_pingpong_latency,
    vmmc_send_overhead,
)
from repro.bench.report import format_table

__all__ = [
    "BandwidthPoint",
    "LatencyPoint",
    "OverheadPoint",
    "VmmcPair",
    "format_table",
    "vmmc_bidirectional_bandwidth",
    "vmmc_oneway_bandwidth",
    "vmmc_pingpong_latency",
    "vmmc_send_overhead",
]
