"""The fingerprint helpers and workload runners behind the golden file.

``tests/test_golden_fingerprints.py`` asserts one committed sha256 per
:data:`repro.bench.differential.WORKLOADS` entry.  These tests pin down
what makes that digest trustworthy: the exact-float canonical form, a
trace digest that covers record order and payload, and workload reports
free of wall-clock content.
"""

from repro.bench.differential import WORKLOADS, run_workload
from repro.sim import Tracer
from repro.sim.fingerprint import (canonical_json, trace_fingerprint,
                                   value_fingerprint)


# -- the fingerprint helper ------------------------------------------------
def test_canonical_json_is_exact_about_floats():
    assert canonical_json(0.1 + 0.2) != canonical_json(0.3)
    assert canonical_json(0.5) == canonical_json(0.5)
    # sorted keys: dict order must not matter
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


def test_value_fingerprint_handles_numpy_types():
    import numpy as np

    plain = value_fingerprint({"n": 3, "xs": [1, 2], "f": 1.5})
    numpied = value_fingerprint({"n": np.int64(3),
                                 "xs": np.array([1, 2]),
                                 "f": np.float64(1.5)})
    assert plain == numpied


def test_trace_fingerprint_covers_order_and_payload():
    def traced(records):
        tracer = Tracer()
        for t, cat, payload in records:
            tracer.record(t, cat, **payload)
        return trace_fingerprint(tracer)

    base = [(0, "a", {"x": 1}), (5, "b", {"x": 2})]
    assert traced(base) == traced(list(base))
    assert traced(base) != traced(list(reversed(base)))
    assert traced(base) != traced([(0, "a", {"x": 1}), (5, "b", {"x": 3})])


def test_workload_registry_matches_the_issue_acceptance_list():
    assert {"chaos", "fig3", "dsm-smoke", "fabric-smoke",
            "kv-smoke", "contract"} <= set(WORKLOADS)


def test_run_workload_report_is_wall_clock_free():
    # Run twice: reports must be byte-identical, proving no wall-clock
    # (or other ambient) content leaks into what the golden file pins.
    first = run_workload("fig3")
    again = run_workload("fig3")
    assert first["fingerprint"] == again["fingerprint"]

