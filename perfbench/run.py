"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kv-zipf --seed 0 --seconds 20 --trace 0

Two clocks are reported.  Host-time metrics say how fast and how lean
the simulator is; simulated-time metrics (units starting ``sim_``) say
what the modelled Myrinet/VMMC system achieves and repeat exactly for a
seed.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
the input sets untraced, then the first again under ``cProfile`` and once
more with work counters, and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.

The program is built from the checkout's ``src/``; without it the run
fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOAD_NAMES = ("pingpong-4b", "stream-64k", "kv-zipf", "kv-burst")

#: Input sets per run.  Each is a fixed-size trial with its own set-up;
#: the simulated metrics pool all of them, so they do not depend on how
#: many trials the host managed in ``--seconds``.  Later trials repeat
#: the input sets and must reproduce them exactly.
INPUT_SETS = 3

#: Standalone cluster boots timed for ``cluster.boot_s``.
BOOTS = 3

#: Host-speed calibration.  The speed of the host this benchmark was
#: defined on (a shared 2-core VM) drifts by 20 % or more within seconds,
#: and process CPU time drifts with it.  So a short pure-Python reference
#: chunk runs between the replay's slices of simulated time (and around
#: each set-up), and host times are reported scaled to a host on which
#: one chunk takes ``CHUNK_S`` (about its median time on the defining
#: host, CPython 3.11).  A change to the simulator moves the replay and
#: not the chunk, so it shows in full.
CHUNK_S = 0.004
#: Reference chunks timed before and after each set-up.
SETUP_CHUNKS = 4

#: Set-ups timed on their own at the start of a run, beside the one in
#: every trial; ``setup_s`` is the median of them all.
EXTRA_SETUPS = 3

#: name -> unit, for ``--trace 0``.
END_TO_END = {
    "host_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_mbps": "sim_MB/s",
}

_SELF = ("sim", "cluster", "mem", "hostos", "hw.bus", "hw.lanai",
         "hw.myrinet", "vmmc", "vmmc.reliable", "rpc", "kv", "obs",
         "faults", "other")

#: name -> unit, for ``--trace 1``.
PER_LAYER = {
    # Simulated latency is reported here, without a bound (README.md):
    # the median is the same on every run of the two VMMC workloads, and
    # p99 swings by 20-40 % from seed to seed on the KV workloads.
    "sim_p50_us": "sim_us",
    "sim_p99_us": "sim_us",
    **{f"{layer}.self_us_per_op": "us/op" for layer in _SELF},
    "sim.events_per_op": "events/op",
    "sim.events_per_host_s": "events/s",
    "cluster.boot_s": "s",
    "cluster.mapping_probes": "count",
    "mem.calls_per_op": "calls/op",
    "mem.bytes_copied_per_op": "B/op",
    "hw.bus.dma_transactions_per_op": "count/op",
    "hw.bus.dma_busy_share": "sim_share",
    "hw.bus.queue_depth_max": "count",
    "hw.lanai.hostdma_bytes_per_op": "B/op",
    "hw.lanai.hostdma_queue_depth_max": "count",
    "hw.myrinet.packets_per_op": "count/op",
    "hw.myrinet.crc_bytes_per_op": "B/op",
    "hw.myrinet.link_busy_share": "sim_share",
    "hw.myrinet.crc_errors": "count",
    "hostos.interrupts_per_op": "count/op",
    "vmmc.sends_per_op": "count/op",
    "vmmc.chunks_per_op": "count/op",
    "vmmc.tlb_refills_per_op": "count/op",
    "vmmc.lcp_service_p50_ns": "sim_ns",
    "vmmc.reliable.retransmits_per_op": "count/op",
    "vmmc.reliable.timeouts": "count",
    "vmmc.reliable.reimports": "count",
    "vmmc.reliable.useful_ratio": "ratio",
    "vmmc.reliable.paced_ns": "sim_ns",
    "rpc.calls_per_op": "calls/op",
    "kv.imbalance": "ratio",
    "kv.hot_key_fraction": "share",
    "obs.calls_per_op": "calls/op",
    "faults.raised": "count",
    "faults.fault_ns": "sim_ns",
    "trace.overhead_pct": "%",
}

#: Reconstructed paper figures (DESIGN.md) beside the simulated metric
#: they check; the KV tier has none, so its model is unvalidated.
PAPER = {
    "pingpong-4b": ("sim_p50_us", 9.8, "Figure 2 one-way latency, 4 B"),
    "stream-64k": ("sim_mbps", 98.4, "section 5.3 peak bandwidth"),
}


def reference_chunk() -> float:
    """Host seconds a fixed interpreter-bound loop takes right now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(20_000):
        table[i & 1023] = i
        total += table.get(i * 7 & 1023, i) % 13
    return time.perf_counter() - start


class Pacer:
    """Runs a reference chunk at each pause between replay slices, with
    the profiler (if any) off."""

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.chunks = 0
        self.chunk_s = 0.0
        self.pause_s = 0.0

    def __call__(self) -> None:
        start = time.perf_counter()
        if self.profiler is not None:
            self.profiler.disable()
        self.chunk_s += reference_chunk()
        self.chunks += 1
        if self.profiler is not None:
            self.profiler.enable()
        self.pause_s += time.perf_counter() - start

    @property
    def slowness(self) -> float:
        """Measured chunk time over ``CHUNK_S`` (above 1: slower host)."""
        return self.chunk_s / self.chunks / CHUNK_S


def _slowness(chunks: int) -> float:
    pacer = Pacer()
    for _ in range(chunks):
        pacer()
    return pacer.slowness


def scaled(fn):
    """``fn()`` and its host seconds, scaled by reference chunks timed
    just before and just after it."""
    before = _slowness(SETUP_CHUNKS)
    start = time.perf_counter()
    value = fn()
    seconds = time.perf_counter() - start
    return value, seconds * 2 / (before + _slowness(SETUP_CHUNKS))


@dataclass
class Trial:
    #: Host seconds, scaled to the reference host speed.
    setup_s: float
    replay_s: float
    events: int
    outcome: object
    #: Host slowness during the replay (see :class:`Pacer`).
    slowness: float
    #: Registry snapshot after the replay, for workloads that run with
    #: one (None otherwise).
    snapshot: dict | None = None
    layer_counts: dict = field(default_factory=dict)

    def fingerprint(self) -> tuple:
        """Everything deterministic the trial produced."""
        out = self.outcome
        return (out.ops, out.failed, out.latencies_ns, out.payload_bytes,
                out.span_ns, out.counts, self.events, self.snapshot)


def run_trial(workload, inputs, *, profiler=None, count=False) -> Trial:
    """Set up, replay and check one input set, timing set-up and replay
    apart.  ``profiler`` wraps the replay; ``count`` adds the work
    counters."""
    from layers import Counting
    from repro.hostos.process import fresh_pid_namespace

    gc.collect()
    pacer = Pacer(profiler)
    with fresh_pid_namespace():
        state, setup_s = scaled(lambda: workload.setup(inputs))
        env = state.env
        events = env.events_processed
        counting = Counting(state.cluster, env) if count else None
        with counting or contextlib.nullcontext():
            start = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                raw = workload.replay(state, inputs, pacer)
            finally:
                if profiler is not None:
                    profiler.disable()
            replay_s = time.perf_counter() - start - pacer.pause_s
        events = env.events_processed - events
        outcome = workload.check(inputs, state, raw)
    return Trial(
        setup_s, replay_s / pacer.slowness, events, outcome, pacer.slowness,
        snapshot=env.metrics.snapshot() if workload.registry else None,
        layer_counts=(counting.counts(outcome.span_ns, outcome.ops)
                      if counting else {}))


def _inputs(workload, seed: int) -> list:
    return [workload.inputs(seed * INPUT_SETS + i)
            for i in range(INPUT_SETS)]


def _latency_us(trials: list[Trial], q: float) -> tuple[float, int]:
    """Quantile ``q`` of the trials' pooled simulated latencies, in us,
    and the number of samples."""
    from repro.obs.metrics import Histogram

    pooled = Histogram()
    for trial in trials:
        for latency in trial.outcome.latencies_ns:
            pooled.observe(latency)
    if not pooled.count:
        return 0.0, 0
    return pooled.quantile(q) / 1000, pooled.count


def _sim_mbps(trials: list[Trial]) -> float:
    """Payload bytes per simulated us (= MB/s) over the trials."""
    span = sum(t.outcome.span_ns for t in trials)
    return (sum(t.outcome.payload_bytes for t in trials) / span * 1000
            if span else 0.0)


def _paper_check(workload, trials: list[Trial]) -> list[str]:
    """Information lines: the simulated figure beside the paper's."""
    if workload.name not in PAPER:
        return ["paper check (info): no reference figure for the KV tier; "
                "the model is unvalidated there"]
    name, figure, what = PAPER[workload.name]
    value = (_latency_us(trials, 0.5)[0] if name == "sim_p50_us"
             else _sim_mbps(trials))
    return [f"paper check (info): {name} {value:.4f} vs {figure} ({what}),"
            f" error {(value / figure - 1) * 100:+.2f} %"]


def untraced(workload, seed: int, seconds: float) -> dict:
    """Trials until ``seconds`` are used (at least one per input set)."""
    from repro.hostos.process import fresh_pid_namespace

    inputs = _inputs(workload, seed)
    trials: list[Trial] = []
    errors: list[str] = []
    start = time.perf_counter()
    setups = []
    for i in range(EXTRA_SETUPS):
        gc.collect()
        with fresh_pid_namespace():
            setups.append(scaled(
                lambda: workload.setup(inputs[i % INPUT_SETS]))[1])
    longest = 0.0
    while True:
        i = len(trials)
        begun = time.perf_counter()
        trial = run_trial(workload, inputs[i % INPUT_SETS])
        longest = max(longest, time.perf_counter() - begun)
        errors += trial.outcome.errors
        if i >= INPUT_SETS and \
                trial.fingerprint() != trials[i % INPUT_SETS].fingerprint():
            trial.outcome.failed = trial.outcome.ops
            errors.append(f"trial {i} did not reproduce input set "
                          f"{i % INPUT_SETS}")
        trials.append(trial)
        # Stop once another trial as long as the longest so far would
        # overrun ``seconds``.
        if len(trials) >= INPUT_SETS and \
                time.perf_counter() - start + longest > seconds:
            break
    distinct = trials[:INPUT_SETS]
    metrics = {
        "host_ops_per_s": statistics.median(
            t.outcome.ops / t.replay_s for t in trials),
        "setup_s": statistics.median(setups + [t.setup_s for t in trials]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_mbps": _sim_mbps(distinct),
    }
    notes = [f"{len(trials)} trials of {trials[0].outcome.ops} ops; host "
             f"slowness {statistics.median(t.slowness for t in trials):.3f}"
             f" x reference"]
    return {"metrics": metrics, "trials": trials, "errors": errors,
            "notes": notes + _paper_check(workload, distinct)}


def traced(workload, seed: int) -> dict:
    """The per-layer run: every input set untraced, then the first one
    profiled and counted, which must reproduce its untraced results."""
    from layers import fold
    from repro.cluster import Cluster

    inputs = _inputs(workload, seed)
    bases = [run_trial(workload, each) for each in inputs]
    base = bases[0]
    profiler = cProfile.Profile()
    profiled = run_trial(workload, inputs[0], profiler=profiler)
    counted = run_trial(workload, inputs[0], count=True)
    trials = bases + [profiled, counted]
    errors = [error for trial in bases for error in trial.outcome.errors]
    for name, trial in (("profiled", profiled), ("counted", counted)):
        if trial.fingerprint() != base.fingerprint():
            trial.outcome.failed = trial.outcome.ops
            errors.append(f"the {name} run did not reproduce the untraced "
                          f"run's simulated results")

    boots = []
    for _ in range(BOOTS):
        cluster, boot_s = scaled(lambda: Cluster.build(workload.config()))
        boots.append(boot_s)

    ops = base.outcome.ops
    layers = fold(profiler, profiled.replay_s * profiled.slowness)
    if layers["other"]["self_s"] < 0:
        errors.append("profiled self times exceed the traced host time")
    rel = base.outcome.counts.get("rel", {})
    attempts = rel.get("messages_sent", 0) + rel.get("retransmits", 0)
    p99, samples = _latency_us(bases, 0.99)
    metrics = {
        "sim_p50_us": _latency_us(bases, 0.5)[0],
        "sim_p99_us": p99,
        **{f"{layer}.self_us_per_op":
           layers[layer]["self_s"] * 1e6 / ops / profiled.slowness
           for layer in _SELF},
        "sim.events_per_op": base.events / ops,
        "sim.events_per_host_s": base.events / base.replay_s,
        "cluster.boot_s": statistics.median(boots),
        "cluster.mapping_probes": cluster.mapping.probes_sent,
        "mem.calls_per_op": layers["mem"]["calls"] / ops,
        **counted.layer_counts,
        "vmmc.reliable.retransmits_per_op": rel.get("retransmits", 0) / ops,
        "vmmc.reliable.timeouts": rel.get("timeouts", 0),
        "vmmc.reliable.reimports": rel.get("reimports", 0),
        "vmmc.reliable.useful_ratio": (rel["messages_delivered"] / attempts
                                       if attempts else 0.0),
        "vmmc.reliable.paced_ns": rel.get("paced_ns", 0),
        "rpc.calls_per_op": layers["rpc"]["calls"] / ops,
        "kv.imbalance": base.outcome.counts.get("kv.imbalance", 0.0),
        "kv.hot_key_fraction":
            base.outcome.counts.get("kv.hot_key_fraction", 0.0),
        "obs.calls_per_op": layers["obs"]["calls"] / ops,
        "faults.raised": base.outcome.counts.get("faults.raised", 0),
        "faults.fault_ns": base.outcome.counts.get("faults.fault_ns", 0),
        "trace.overhead_pct": (profiled.replay_s / base.replay_s - 1) * 100,
    }
    notes = [f"sim_p50_us and sim_p99_us over {samples} samples "
             f"({samples - int(0.99 * samples)} beyond it)",
             f"untraced replay {base.replay_s:.3f} s, profiled "
             f"{profiled.replay_s:.3f} s, {ops} ops each; self times fold "
             f"the profiled replay, other = the rest of its host time"]
    return {"metrics": metrics, "trials": trials, "errors": errors,
            "notes": notes + _paper_check(workload, bases)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # numpy backs large arrays (each node's simulated memory) with huge
    # pages when the kernel has one free, so touching a byte costs 4 KiB
    # or 2 MiB of resident memory by chance, and peak_rss_mb moved by 8 %
    # between runs of one seed.  Must be set before numpy is imported.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        result, units = traced(workload, args.seed), PER_LAYER
    else:
        result, units = untraced(workload, args.seed, args.seconds), \
            END_TO_END
    trials = result["trials"]
    attempted = sum(t.outcome.ops for t in trials)
    failed = sum(t.outcome.failed for t in trials)
    print(f"{workload.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed "
          f"(error_rate {failed / attempted:.6f})")
    for note in result["notes"]:
        print(f"  {note}")
    for error in result["errors"][:10]:
        print(f"  FAILED: {error}")
    for name, unit in units.items():
        print(f"  {name:<36} {result['metrics'][name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not result["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
