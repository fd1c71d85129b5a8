"""Committed golden fingerprints of the differential workloads.

``tests/golden_fingerprints.json`` maps every workload in
:data:`repro.bench.differential.WORKLOADS` to the sha256 of its report
(``run_workload(name, engine)["fingerprint"]``): simulated times,
counters, metrics snapshots and trace digests, no wall-clock content.

The engine differential only compares the two engines with each other,
and both share one event kernel, so a kernel change that drifts both
the same way passes it.  These fingerprints pin the behaviour itself:
any change to event order, simulated time or a modelled counter fails
here, on either engine.

A change that means to alter modelled behaviour regenerates the file
and says why in its description::

    PYTHONPATH=src python -c "import json; \\
        from repro.bench.differential import WORKLOADS, run_workload; \\
        print(json.dumps({n: run_workload(n, 'scalar')['fingerprint'] \\
                          for n in WORKLOADS}, indent=2, sort_keys=True))" \\
        > tests/golden_fingerprints.json
"""

import json
from pathlib import Path

import pytest

from repro.bench.differential import WORKLOADS, run_workload

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_fingerprints.json")).read_text())


def test_golden_file_covers_every_workload():
    assert set(GOLDEN) == set(WORKLOADS)


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_golden_fingerprint(name, engine):
    assert run_workload(name, engine)["fingerprint"] == GOLDEN[name]
