"""Per-layer accounting for the traced run.

Two instruments, both installed from outside the program:

* :func:`fold` folds a ``cProfile`` profile of the replay by the package
  that defines each function.  Time spent inside a generator-based
  ``run()`` body is charged to the package that wrote the generator, not
  to the ``sim`` kernel that resumes it.
* :class:`Counting` wraps a booted cluster for one untimed replay: it
  counts the bytes that pass through physical memory and through the
  CRC-8, and reads a :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot before and after the replay.
"""

from __future__ import annotations

import pstats
from pathlib import Path

import repro
from repro.hw.myrinet import packet as packet_module
from repro.obs.metrics import MetricsRegistry

#: The modules host time is split across, in report order.  Anything
#: else (stdlib, builtins, numpy, the benchmark's own workload code and
#: time the profiler saw outside any function) is ``other``.
LAYERS = ("sim", "cluster", "mem", "hostos", "hw.bus", "hw.lanai",
          "hw.myrinet", "vmmc", "vmmc.reliable", "rpc", "kv", "obs",
          "faults")

_REPRO = Path(repro.__file__).resolve().parent


def layer_of(filename: str) -> str:
    """The layer that a source file of the profile belongs to."""
    try:
        parts = Path(filename).resolve().relative_to(_REPRO).with_suffix(
            "").parts
    except ValueError:
        return "other"
    for depth in (2, 1):
        name = ".".join(parts[:depth])
        if len(parts) >= depth and name in LAYERS:
            return name
    return "other"


def fold(profile, wall_s: float) -> dict[str, dict[str, float]]:
    """Self seconds and calls per layer; ``other`` takes the rest of
    ``wall_s``, so the layers add up to the traced host time."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    out["other"] = {"self_s": 0.0, "calls": 0}
    layers: dict[str, str] = {}
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _callers) \
            in pstats.Stats(profile).stats.items():
        if filename not in layers:
            layers[filename] = layer_of(filename)
        entry = out[layers[filename]]
        entry["self_s"] += self_s
        entry["calls"] += calls
    named = sum(out[layer]["self_s"] for layer in LAYERS)
    out["other"]["self_s"] = wall_s - named
    return out


def _amount(value) -> float:
    """A counter's value, or a histogram's sum of samples."""
    return value["sum"] if isinstance(value, dict) else value


def _by_name(snapshot: dict) -> dict[str, list]:
    """Snapshot values grouped by base metric name (labels dropped)."""
    grouped: dict[str, list] = {}
    for key, value in snapshot.items():
        grouped.setdefault(key.split("{", 1)[0], []).append((key, value))
    return grouped


class Counting:
    """Work counters around one replay of a booted cluster; a context
    manager, so the CRC-8 hook is removed however the replay ends."""

    def __init__(self, cluster, env):
        self.registry = getattr(env, "metrics", None)
        if self.registry is None:
            self.registry = MetricsRegistry().install(env)
        self.memory_bytes = 0
        self.crc_bytes = 0
        self._crc8 = packet_module.crc8
        for node in cluster.nodes:
            self._wrap_view(node.memory)
        self.before = self.registry.snapshot()

    def __enter__(self) -> "Counting":
        packet_module.crc8 = self._counted_crc8
        return self

    def __exit__(self, *exc) -> None:
        packet_module.crc8 = self._crc8

    def _wrap_view(self, memory) -> None:
        # Every copy in or out of simulated memory (CPU and DMA) goes
        # through PhysicalMemory.view.
        view = memory.view

        def counted(paddr, nbytes):
            self.memory_bytes += nbytes
            return view(paddr, nbytes)

        memory.view = counted

    def _counted_crc8(self, data, initial=0):
        self.crc_bytes += len(data)
        return self._crc8(data, initial)

    def counts(self, span_ns: int, ops: int) -> dict[str, float]:
        """Per-layer counts of the replay."""
        before = _by_name(self.before)
        after = _by_name(self.registry.snapshot())

        def delta(name: str, keep=lambda key: True) -> dict[str, float]:
            # Per labelled series: its growth over the replay.
            old = dict(before.get(name, []))
            return {key: _amount(v) - (_amount(old[key]) if key in old
                                       else 0)
                    for key, v in after.get(name, []) if keep(key)}

        def total(name: str, keep=lambda key: True) -> float:
            return sum(delta(name, keep).values())

        def busiest_share(name: str) -> float:
            # Busy ns of the busiest resource (the bottleneck) as a share
            # of the replay's simulated span.
            busy = max(delta(name).values(), default=0)
            return busy / span_ns if span_ns else 0.0

        def gauge_max(name: str) -> float:
            return max((v["max"] for _, v in after.get(name, [])),
                       default=0)

        def busiest_p50(name: str) -> float:
            hists = [v for _, v in after.get(name, []) if v.get("count")]
            if not hists:
                return 0.0
            return max(hists, key=lambda v: v["count"])["p50"]

        return {
            "mem.bytes_copied_per_op": self.memory_bytes / ops,
            "hw.bus.dma_transactions_per_op":
                total("bus.dma.transactions") / ops,
            "hw.bus.dma_busy_share": busiest_share("bus.dma.duration_ns"),
            "hw.bus.queue_depth_max": gauge_max("bus.dma.queue_depth"),
            "hw.lanai.hostdma_bytes_per_op": total("hostdma.bytes") / ops,
            "hw.lanai.hostdma_queue_depth_max":
                gauge_max("hostdma.queue_depth"),
            "hw.myrinet.packets_per_op":
                total("net.packets", lambda key: "dir=tx" in key) / ops,
            "hw.myrinet.crc_bytes_per_op": self.crc_bytes / ops,
            "hw.myrinet.link_busy_share": busiest_share("link.busy_ns"),
            "hw.myrinet.crc_errors": total("net.crc_errors"),
            "hostos.interrupts_per_op": total("kernel.interrupts") / ops,
            "vmmc.sends_per_op": total("vmmc.sends_posted") / ops,
            "vmmc.chunks_per_op": total("lcp.chunks") / ops,
            "vmmc.tlb_refills_per_op": total("vmmc.tlb_refills") / ops,
            "vmmc.lcp_service_p50_ns": busiest_p50("lcp.send.service_ns"),
        }
