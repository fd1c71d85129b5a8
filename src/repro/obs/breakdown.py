"""§5.2 latency breakdown regenerated from traces of one instrumented send.

The paper's hardware-limit argument (section 5.2) accounts one short send
stage by stage: post (library + PIO doorbell), sending LANai (pickup,
header build, net DMA), wire (links + switch), receiving LANai + host DMA,
and the spinner's observation.  This module measures those stages from the
trace of an *actual* simulated send — not from the cost constants — so the
report doubles as a consistency proof: the stages are defined as
consecutive intervals between trace timestamps, in integer nanoseconds, so
they sum to the measured end-to-end latency **exactly** (the acceptance
criterion allows 1 %; we deliver 0).

:func:`measure_stage_breakdown` is the programmatic entry point; the
``breakdown`` campaign (``python -m repro campaign run breakdown``) records
its stages per message size in ``BENCH_BREAKDOWN.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.sim import Tracer
from repro.obs.metrics import MetricsRegistry

#: Stage labels, in wire order (the §5.2 row names).
STAGE_LABELS = (
    "post request (library + PIO)",
    "sending LANai (pickup, header, net DMA)",
    "wire (links + switch)",
    "receiving LANai + host DMA into memory",
    "spin observation (cache-line fill)",
)

#: Short machine names for JSON output, index-aligned with STAGE_LABELS.
STAGE_KEYS = ("post", "lanai_send", "wire", "lanai_recv", "deliver")


@dataclass(frozen=True)
class StageBreakdown:
    """Per-stage costs (integer ns) of one short one-way send."""

    size: int
    stages: tuple[tuple[str, int], ...]   # (label, duration_ns)
    total_ns: int

    @property
    def sum_ns(self) -> int:
        return sum(ns for _, ns in self.stages)

    def check(self, tolerance: float = 0.01) -> None:
        """Raise if the stage sum strays from the end-to-end latency."""
        if self.total_ns <= 0:
            raise ValueError(f"non-positive total latency {self.total_ns}")
        drift = abs(self.sum_ns - self.total_ns) / self.total_ns
        if drift > tolerance:
            raise ValueError(
                f"stage sum {self.sum_ns} ns vs total {self.total_ns} ns: "
                f"drift {drift:.2%} exceeds {tolerance:.0%}")

    def rows(self) -> list[tuple[str, float]]:
        """(label, µs) rows, TOTAL last — the paper's table shape."""
        rows = [(label, ns / 1000.0) for label, ns in self.stages]
        rows.append(("TOTAL", self.total_ns / 1000.0))
        return rows

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (stages in ns, totals in ns and µs)."""
        return {
            "size_bytes": self.size,
            "stages_ns": {key: ns for key, (_, ns)
                          in zip(STAGE_KEYS, self.stages)},
            "sum_ns": self.sum_ns,
            "total_ns": self.total_ns,
            "total_us": self.total_ns / 1000.0,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def traced_oneway_send(size: int = 4,
                       keep=None,
                       registry: Optional[MetricsRegistry] = None,
                       ) -> tuple[Tracer, dict[str, int], Any]:
    """Run one fully traced short send on a fresh 2-node pair.

    Returns ``(tracer, marks, pair)`` where ``marks`` carries the
    application-level ``call`` and ``observed`` timestamps.  ``keep=None``
    records *every* category (the Perfetto exporter wants the whole run);
    pass a predicate to filter.  A :class:`MetricsRegistry` is installed
    when given, so the same run yields a metrics snapshot.
    """
    # Imported here: repro.bench imports repro.cluster imports repro.hw,
    # which imports repro.obs.metrics — keep module import acyclic.
    from repro.bench.microbench import VmmcPair, _stamp, spin_until_stamp
    from repro.cluster import TestbedConfig

    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=8),
                    buffer_bytes=16 * 1024)
    env = pair.env
    tracer = Tracer(keep=keep)
    env.tracer = tracer
    if registry is not None:
        registry.install(env)
    marks: dict[str, int] = {}

    def app():
        _stamp(pair.src_a, size, 1)
        marks["call"] = env.now
        yield pair.ep_a.send(pair.src_a, pair.to_b, size)
        yield spin_until_stamp(pair.ep_b, pair.inbox_b, size, 1)
        marks["observed"] = env.now

    env.run(until=env.process(app()))
    return tracer, marks, pair


def breakdown_from_trace(tracer: Tracer, marks: dict[str, int],
                         size: int) -> StageBreakdown:
    """Decompose a traced send into the §5.2 stages.

    The stage boundaries are trace timestamps of the canonical categories
    (`vmmc.send.posted`, `lcp.send.pickup`, `lanai.netsend`,
    `lanai.netrecv`, `hostdma.write_host`); consecutive differences are
    the stages, so their sum telescopes to ``observed - call`` exactly.
    """
    from repro.obs.contract import canonical_category, node_of

    def first(canonical: str, after: int = 0,
              node: Optional[str] = None) -> int:
        for record in tracer:
            if record.time < after:
                continue
            if not canonical_category(record.category).startswith(canonical):
                continue
            if node is not None and node_of(record.category) != node:
                continue
            return record.time
        raise LookupError(f"no trace {canonical!r} after {after} "
                          f"(have {sorted(set(tracer.categories()))})")

    call = marks["call"]
    observed = marks["observed"]
    posted = first("vmmc.send.posted", after=call)
    pickup = first("lcp.send.pickup", after=posted, node="node0")
    injected = first("lanai.netsend", after=pickup)
    arrived = first("lanai.netrecv", after=injected)
    # The receive-side scatter DMA: restrict to node1, because the sender's
    # completion-word writeback is also a `hostdma.write_host`.
    delivered = first("hostdma.write_host", after=arrived, node="node1")
    boundaries = (call, posted, injected, arrived, delivered, observed)
    stages = tuple(
        (label, boundaries[i + 1] - boundaries[i])
        for i, label in enumerate(STAGE_LABELS))
    return StageBreakdown(size=size, stages=stages,
                          total_ns=observed - call)


def measure_stage_breakdown(size: int = 4,
                            registry: Optional[MetricsRegistry] = None,
                            ) -> StageBreakdown:
    """Run one traced short send and decompose it (§5.2 report)."""
    tracer, marks, _pair = traced_oneway_send(size, registry=registry)
    return breakdown_from_trace(tracer, marks, size)
