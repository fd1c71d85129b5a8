"""Committed golden fingerprints of the differential workloads.

``tests/golden_fingerprints.json`` maps every workload in
:data:`repro.bench.differential.WORKLOADS` to the sha256 of its report
(``run_workload(name)["fingerprint"]``): simulated times, counters,
metrics snapshots and trace digests, no wall-clock content.  They pin
the behaviour itself: any change to event order, simulated time or a
modelled counter fails here.

A change that means to alter modelled behaviour regenerates the file
and says why in its description::

    PYTHONPATH=src python -c "import json; \\
        from repro.bench.differential import WORKLOADS, run_workload; \\
        print(json.dumps({n: run_workload(n)['fingerprint'] \\
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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_golden_fingerprint(name):
    assert run_workload(name)["fingerprint"] == GOLDEN[name]
