"""Canonical fingerprints of simulation outputs.

The golden-fingerprint workloads (:mod:`repro.bench.differential`,
``tests/golden_fingerprints.json``) must decide "bit-identical or not"
over three kinds of output: event traces
(:class:`~repro.sim.trace.Tracer`), metrics snapshots, and
JSON-serializable trial reports.  This module gives each a canonical
form:

* :func:`trace_fingerprint` — digest of every trace record (time,
  category, payload) in order, plus the record/drop counts;
* :func:`value_fingerprint` — digest of any JSON-serializable value via
  a sorted-keys, exact-float canonical dump.

Hashes are sha256 over a deterministic byte serialization — no
repr()-of-floats ambiguity: floats are serialized via ``float.hex`` so
equality means bit equality.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.sim.trace import Tracer

__all__ = ["canonical_json", "value_fingerprint", "trace_fingerprint",
           "trace_payload"]


def _canon(value: Any) -> Any:
    """Reduce a value to canonically-serializable primitives.

    Floats become their hex form (exact, so 0.1 + 0.2 != 0.3 survives
    the round trip); ints that numpy handed us become Python ints;
    bytes become hex strings; tuples become lists.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        return {"~f": value.hex()}
    if isinstance(value, int):
        return int(value)
    if isinstance(value, (bytes, bytearray)):
        return {"~b": bytes(value).hex()}
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return _canon(value.item())        # numpy scalar
    if hasattr(value, "tolist"):
        return _canon(value.tolist())      # numpy array
    return {"~r": repr(value)}


def canonical_json(value: Any) -> str:
    """Deterministic JSON text for ``value`` (sorted keys, exact floats)."""
    return json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))


def value_fingerprint(value: Any) -> str:
    """sha256 hex digest of :func:`canonical_json` of ``value``."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def trace_payload(tracer: Tracer) -> dict[str, Any]:
    """A tracer reduced to a JSON-serializable structure (records in
    arrival order, plus the drop accounting)."""
    return {
        "records": [[r.time, r.category, _canon(r.payload)]
                    for r in tracer.records],
        "dropped": tracer.dropped,
    }


def trace_fingerprint(tracer: Tracer) -> str:
    """sha256 hex digest of the full ordered trace."""
    return value_fingerprint(trace_payload(tracer))
