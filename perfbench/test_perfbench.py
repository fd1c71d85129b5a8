"""The benchmark's own tests.

Run from the root of a checkout: ``python -m pytest perfbench``.  Every
workload is shrunk to a few dozen ops, so the file runs in about a
minute.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from repro.hostos.process import fresh_pid_namespace
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture
def small(monkeypatch):
    """Every workload cut down to a trial of well under a second."""
    monkeypatch.setattr(WORKLOADS["pingpong-4b"], "round_trips", 40)
    monkeypatch.setattr(WORKLOADS["stream-64k"], "sends", 6)
    for name in ("kv-zipf", "kv-burst"):
        workload = WORKLOADS[name]
        monkeypatch.setattr(workload, "spec",
                            dataclasses.replace(workload.spec, requests=150))
        monkeypatch.setattr(workload, "burst_ns", 400_000)
    return WORKLOADS


def stages(workload, seed: int):
    """Inputs, state and raw outputs of one unchecked trial."""
    inputs = workload.inputs(seed)
    with fresh_pid_namespace():
        state = workload.setup(inputs)
        raw = workload.replay(state, inputs, lambda: None)
    return inputs, state, raw


def test_metric_names_and_units_match_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] \
        == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    for section, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == table
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)


def test_clean_outputs_pass_and_corrupted_outputs_fail(small):
    workload = small["stream-64k"]
    inputs, state, raw = stages(workload, 1)
    assert workload.check(inputs, state, raw).failed == 0
    inbox = state.inbox_b
    inbox.write(inbox.read(100, 1) ^ 0x01, offset=100)
    outcome = workload.check(inputs, state, raw)
    assert outcome.failed == 1
    assert "final message differs in 1 bytes" in outcome.errors

    workload = small["pingpong-4b"]
    inputs, state, raw = stages(workload, 1)
    assert workload.check(inputs, state, raw).failed == 0
    raw["at_b"][7] ^= 0x100
    assert workload.check(inputs, state, raw).failed == 1

    workload = small["kv-zipf"]
    inputs, state, raw = stages(workload, 1)
    assert workload.check(inputs, state, raw).failed == 0
    index = next(i for i, want in inputs.oracle.items() if want)
    inputs.oracle[index] = b"not what was written"
    outcome = workload.check(inputs, state, raw)
    assert outcome.failed == 1
    assert "read-your-writes violation" in outcome.errors[0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_simulated_results(small, name):
    workload = small[name]
    inputs = workload.inputs(2)
    first = run.run_trial(workload, inputs)
    again = run.run_trial(workload, inputs)
    counted = run.run_trial(workload, inputs, count=True)
    recounted = run.run_trial(workload, inputs, count=True)
    assert first.outcome.failed == 0
    assert first.fingerprint() == again.fingerprint() \
        == counted.fingerprint()
    assert counted.layer_counts == recounted.layer_counts


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric(small, capsys):
    assert run.main(["--workload", "pingpong-4b", "--seed", "0",
                     "--seconds", "0", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.INPUT_SETS * 40
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())
    assert "sim_p50_us 9.8130 vs 9.8 (Figure 2" in out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reproduces_and_accounts_for_host_time(small, capsys,
                                                          name):
    assert run.main(["--workload", name, "--seed", "0",
                     "--seconds", "0", "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    assert result["correct"], out
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.PER_LAYER
    assert "paper check (info)" in out
    assert metrics["other.self_us_per_op"] >= 0
    assert metrics["sim.events_per_op"] > 0
    if name == "kv-burst":
        assert metrics["faults.raised"] > 0
        assert metrics["vmmc.reliable.retransmits_per_op"] > 0


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pingpong-4b",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
