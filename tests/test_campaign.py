"""Tests for the experiment-campaign layer (`repro.campaign`).

Covers spec parsing/validation errors, grid x seed expansion,
resume-after-kill picking up exactly the unfinished cells (byte-identical
aggregate artifact), aggregation math against hand-computed fixtures,
the exact `campaign diff` gate and artifact provenance — plus the CLI
surface CI drives.
"""

import copy
import json
import math
import pathlib

import pytest

from repro.campaign import (
    SCHEMA_VERSION,
    CampaignSpec,
    IncompleteRunError,
    Metric,
    SpecError,
    aggregate_cell,
    aggregate_values,
    build_artifact,
    campaign_names,
    cell_key,
    diff_artifacts,
    get_campaign,
    load_artifact,
    register,
    run_campaign,
    state_dir_for,
    unregister,
    write_artifact,
)
from repro.cli import main

GIT = {"commit": "test", "branch": "main", "dirty": False}
REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def clean_git(monkeypatch):
    """Stub provenance: the CLI records a clean tree whatever the
    checkout's state."""
    monkeypatch.setattr("repro.campaign.runner.git_metadata",
                        lambda repo_dir=None: dict(GIT))


def _trial(params, seed):
    return {"metrics": {"value": params["x"] * 10 + seed},
            "gates": {"ok": True}}


def _spec(**overrides):
    kwargs = dict(
        name="tiny", area="TINY", title="tiny test campaign",
        paper_ref="none", trial=_trial,
        grid={"x": (1, 2), "y": ("a", "b")},
        seeds=(0, 1, 2),
        metrics=(Metric("value", "units", "higher"),),
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


@pytest.fixture
def tiny():
    spec = register(_spec())
    yield spec
    unregister("tiny")


# ------------------------------------------------------------ spec validation
def test_spec_rejects_bad_name_and_area():
    with pytest.raises(SpecError, match="kebab-case"):
        _spec(name="Bad Name")
    with pytest.raises(SpecError, match="UPPER_SNAKE"):
        _spec(area="lower")


def test_spec_rejects_empty_grid_values_and_duplicates():
    with pytest.raises(SpecError, match="has no values"):
        _spec(grid={"x": ()})
    with pytest.raises(SpecError, match="duplicate values"):
        _spec(grid={"x": (1, 1)})


def test_spec_rejects_bad_seeds():
    with pytest.raises(SpecError, match="empty"):
        _spec(seeds=())
    with pytest.raises(SpecError, match="duplicate"):
        _spec(seeds=(1, 1))
    with pytest.raises(SpecError, match="ints"):
        _spec(seeds=(0, "x"))


def test_spec_rejects_metric_problems():
    with pytest.raises(SpecError, match="no metrics"):
        _spec(metrics=())
    with pytest.raises(SpecError, match="duplicate metric"):
        _spec(metrics=(Metric("v", "u"), Metric("v", "u")))
    with pytest.raises(SpecError, match="direction"):
        Metric("v", "u", "sideways")


def test_spec_rejects_smoke_and_fixed_conflicts():
    with pytest.raises(SpecError, match="not in the full grid"):
        _spec(smoke_grid={"z": (1,)})
    with pytest.raises(SpecError, match="both grid and fixed"):
        _spec(fixed={"x": 9})


def test_unknown_campaign_is_a_spec_error():
    with pytest.raises(SpecError, match="unknown campaign"):
        get_campaign("does-not-exist")


def test_register_rejects_name_and_area_collisions(tiny):
    with pytest.raises(SpecError, match="already registered"):
        register(_spec())
    with pytest.raises(SpecError, match="artifacts would collide"):
        register(_spec(name="tiny2"))


# ------------------------------------------------------- grid/seed expansion
def test_cells_are_sorted_params_row_major(tiny):
    assert tiny.cells(smoke=False) == [
        {"x": 1, "y": "a"}, {"x": 1, "y": "b"},
        {"x": 2, "y": "a"}, {"x": 2, "y": "b"},
    ]


def test_trials_cross_cells_with_seeds(tiny):
    trials = tiny.trials(smoke=False)
    assert len(trials) == 4 * 3
    assert trials[0] == (0, {"x": 1, "y": "a"}, 0)
    assert trials[2] == (0, {"x": 1, "y": "a"}, 2)
    assert trials[3] == (1, {"x": 1, "y": "b"}, 0)
    # Every (cell, seed) pair exactly once.
    assert len({(i, s) for i, _, s in trials}) == 12


def test_smoke_shape_overrides_grid_and_seeds():
    spec = _spec(smoke_grid={"x": (1,)}, smoke_seeds=(0,))
    assert spec.cells(smoke=True) == [{"x": 1, "y": "a"},
                                      {"x": 1, "y": "b"}]
    assert spec.resolved_seeds(smoke=True) == [0]
    # Full shape untouched.
    assert len(spec.trials(smoke=False)) == 12


def test_fixed_params_are_merged_into_trial_params():
    spec = _spec(grid={"x": (1,)}, fixed={"k": 7})
    assert spec.trial_params({"x": 1}) == {"k": 7, "x": 1}


def test_cell_key_is_canonical_and_safe():
    assert cell_key({"b": 2, "a": 1}) == "a=1,b=2"
    assert cell_key({}) == "cell"
    assert "/" not in cell_key({"p": "a/b c"})


# ------------------------------------------------------------ aggregation math
def test_aggregate_values_hand_computed_even_n():
    # values 1,2,3,4: mean 2.5, median 2.5, sample stdev sqrt(5/3),
    # ci95 = 1.96 * sqrt(5/3) / sqrt(4) = 1.2651746...
    agg = aggregate_values([1, 2, 3, 4])
    assert agg["n"] == 4
    assert agg["min"] == 1.0 and agg["max"] == 4.0
    assert agg["mean"] == 2.5 and agg["median"] == 2.5
    assert agg["ci95"] == round(1.96 * math.sqrt(5 / 3) / 2, 6)
    assert agg["ci95"] == pytest.approx(1.265175, abs=1e-6)


def test_aggregate_values_odd_n_and_singleton():
    agg = aggregate_values([3, 1, 2])
    assert agg["median"] == 2.0 and agg["mean"] == 2.0
    single = aggregate_values([42])
    assert single["ci95"] == 0.0
    assert single["min"] == single["max"] == single["median"] == 42.0
    with pytest.raises(ValueError):
        aggregate_values([])


def test_aggregate_cell_folds_metrics_and_gates():
    reports = [
        {"seed": 0, "metrics": {"v": 10.0}, "gates": {"g": True}},
        {"seed": 1, "metrics": {"v": 20.0}, "gates": {"g": False,
                                                      "h": False}},
    ]
    cell = aggregate_cell(reports)
    assert cell["seeds"] == [0, 1]
    assert cell["metrics"]["v"]["median"] == 15.0
    assert cell["gates_failed"] == ["g", "h"]
    with pytest.raises(ValueError, match="disagree"):
        aggregate_cell([{"seed": 0, "metrics": {"v": 1}},
                        {"seed": 1, "metrics": {"w": 1}}])


# ----------------------------------------------------------------- the runner
def _counting_spec(tmp_path, name="counting"):
    counter = tmp_path / "calls.log"

    def trial(params, seed):
        with open(counter, "a", encoding="utf-8") as fh:
            fh.write(f"{cell_key(params)},s{seed}\n")
        return {"metrics": {"value": params["x"] * 10 + seed}}

    spec = register(_spec(name=name, area=name.upper().replace("-", "_"),
                          trial=trial,
                          metrics=(Metric("value", "u", "higher"),)))
    return spec, counter


def test_run_executes_full_grid_and_aggregates(tmp_path):
    spec, counter = _counting_spec(tmp_path)
    try:
        summary = run_campaign(spec, jobs=1, state_root=tmp_path / "s")
        assert summary["complete"]
        assert summary["trials_executed"] == 12
        assert len(counter.read_text().splitlines()) == 12
        artifact = build_artifact(spec, state_root=tmp_path / "s", git=GIT)
        assert artifact["schema_version"] == SCHEMA_VERSION == 2
        assert artifact["metrics"] == {
            "value": {"unit": "u", "direction": "higher"}}
        assert artifact["artifact"] == "BENCH_COUNTING.json"
        assert len(artifact["cells"]) == 4
        # x=2 cells: values 20,21,22 across seeds -> median 21.
        x2a = artifact["cells"][2]
        assert x2a["params"] == {"x": 2, "y": "a"}
        assert x2a["metrics"]["value"]["median"] == 21.0
        assert artifact["cells_with_failed_gates"] == 0
    finally:
        unregister(spec.name)


def test_resume_after_kill_runs_only_unfinished_trials(tmp_path):
    """A run stopped mid-grid (``max_trials`` models the kill) is
    completed by ``resume`` without recomputing finished cells, and the
    aggregate artifact is byte-identical to an uninterrupted run."""
    spec, counter = _counting_spec(tmp_path)
    try:
        # Uninterrupted reference run.
        run_campaign(spec, jobs=1, state_root=tmp_path / "ref")
        reference = build_artifact(spec, state_root=tmp_path / "ref",
                                   git=GIT)

        # Killed run: only 5 of 12 trials finish.
        summary = run_campaign(spec, jobs=1, state_root=tmp_path / "s",
                               max_trials=5)
        assert not summary["complete"]
        assert summary["trials_executed"] == 5
        with pytest.raises(IncompleteRunError, match="7 trial"):
            build_artifact(spec, state_root=tmp_path / "s", git=GIT)

        counter.write_text("")          # count only the resume's work
        resumed = run_campaign(spec, jobs=1, state_root=tmp_path / "s",
                               resume=True)
        assert resumed["complete"]
        assert resumed["trials_skipped"] == 5
        assert resumed["trials_executed"] == 7
        assert len(counter.read_text().splitlines()) == 7   # no recompute

        artifact = build_artifact(spec, state_root=tmp_path / "s", git=GIT)
        as_bytes = lambda a: json.dumps(a, indent=2, sort_keys=True)  # noqa: E731
        assert as_bytes(artifact) == as_bytes(reference)
    finally:
        unregister(spec.name)


def test_resume_refuses_a_changed_shape(tmp_path):
    spec, _ = _counting_spec(tmp_path)
    try:
        run_campaign(spec, jobs=1, state_root=tmp_path / "s",
                     max_trials=2)
    finally:
        unregister(spec.name)
    changed = register(_spec(name="counting", area="COUNTING",
                             seeds=(0, 1)))
    try:
        with pytest.raises(SpecError, match="different shape"):
            run_campaign(changed, jobs=1, state_root=tmp_path / "s",
                         resume=True)
    finally:
        unregister("counting")


def test_run_rejects_undeclared_trial_metrics(tmp_path):
    spec = register(_spec(name="broken", area="BROKEN",
                          trial=lambda p, s: {"metrics": {"wrong": 1}}))
    try:
        with pytest.raises(SpecError, match="declared"):
            run_campaign(spec, jobs=1, state_root=tmp_path / "s")
    finally:
        unregister("broken")


def test_pool_run_matches_inline_run(tmp_path):
    """The multiprocess path produces the same artifact as inline (the
    builtin ``dma`` campaign is pure arithmetic — cheap)."""
    spec = get_campaign("dma")
    run_campaign(spec, jobs=1, state_root=tmp_path / "inline")
    run_campaign(spec, jobs=3, state_root=tmp_path / "pool")
    inline = build_artifact(spec, state_root=tmp_path / "inline", git=GIT)
    pooled = build_artifact(spec, state_root=tmp_path / "pool", git=GIT)
    assert inline == pooled


def test_failed_gates_surface_in_artifact(tmp_path):
    spec = register(_spec(
        name="gated", area="GATED",
        grid={"x": (1,)}, seeds=(0, 1),
        trial=lambda p, s: {"metrics": {"value": 1.0},
                            "gates": {"always": s == 0}}))
    try:
        run_campaign(spec, jobs=1, state_root=tmp_path / "s")
        artifact = build_artifact(spec, state_root=tmp_path / "s", git=GIT)
        assert artifact["cells_with_failed_gates"] == 1
        assert artifact["cells"][0]["gates_failed"] == ["always"]
    finally:
        unregister("gated")


# -------------------------------------------------------------- the diff gate
def _artifact(medians, *, direction="higher", gates_failed=(),
              schema=SCHEMA_VERSION, dirty=False):
    return {
        "schema_version": schema,
        "campaign": "tiny",
        "cells_with_failed_gates": 1 if gates_failed else 0,
        "metrics": {"value": {"unit": "u", "direction": direction}},
        "cells": [
            {"key": key, "params": {}, "seeds": [0],
             "gates_failed": list(gates_failed),
             "metrics": {"value": {"n": 1, "min": m, "max": m,
                                   "mean": m, "median": m, "ci95": 0.0}}}
            for key, m in medians.items()
        ],
        "git": dict(GIT, dirty=dirty),
    }


def test_diff_identical_passes():
    base = _artifact({"a": 100.0})
    result = diff_artifacts(base, copy.deepcopy(base))
    assert result.ok
    assert result.rows[0].status == "ok"
    assert result.rows[0].changed == ()


def test_diff_fails_on_any_metric_change():
    result = diff_artifacts(_artifact({"a": 100.0}),
                            _artifact({"a": 99.99}))
    assert not result.ok
    assert result.changes[0].status == "CHANGED"
    assert result.changes[0].changed == ("max", "mean", "median", "min")
    # One ulp in an info metric fails too.
    nudged = _artifact({"a": math.nextafter(100.0, 0.0)}, direction="info")
    assert not diff_artifacts(_artifact({"a": 100.0}, direction="info"),
                              nudged).ok
    # So does a statistic other than the median.
    spread = _artifact({"a": 100.0})
    spread["cells"][0]["metrics"]["value"]["ci95"] = 0.5
    assert diff_artifacts(_artifact({"a": 100.0}), spread).changes


def test_diff_fails_on_moves_in_either_direction():
    base = _artifact({"a": 10.0}, direction="lower")
    assert not diff_artifacts(base, _artifact({"a": 11.5},
                                              direction="lower")).ok
    assert not diff_artifacts(base, _artifact({"a": 8.0},
                                              direction="lower")).ok


def test_diff_fails_on_the_chaos_adaptive_drift():
    """The drift a percentage threshold let through: the chaos
    ``mode=adaptive`` cell's goodput moving -4.86 % (26.73 -> 25.43
    MB/s) against the committed baseline."""
    baseline = load_artifact(REPO / "BENCH_CHAOS.json")
    candidate = copy.deepcopy(baseline)
    cell = next(c for c in candidate["cells"] if c["key"] == "mode=adaptive")
    cell["metrics"]["goodput_mbps"]["median"] *= 25.43 / 26.73
    assert diff_artifacts(baseline, copy.deepcopy(baseline)).ok
    result = diff_artifacts(baseline, candidate)
    assert not result.ok
    assert [(row.cell, row.metric) for row in result.changes] == [
        ("mode=adaptive", "goodput_mbps")]


def test_diff_zero_baseline_is_gated_exactly():
    result = diff_artifacts(_artifact({"a": 0.0}), _artifact({"a": 5.0}))
    assert not result.ok
    assert diff_artifacts(_artifact({"a": 0.0}), _artifact({"a": 0.0})).ok


def test_diff_fails_on_a_dirty_baseline():
    result = diff_artifacts(_artifact({"a": 1.0}, dirty=True),
                            _artifact({"a": 1.0}))
    assert not result.ok
    assert any("dirty tree" in p for p in result.problems)
    # The candidate's provenance is not gated.
    assert diff_artifacts(_artifact({"a": 1.0}),
                          _artifact({"a": 1.0}, dirty=True)).ok


def test_diff_notes_new_metrics_without_gating_them():
    cand = _artifact({"a": 1.0})
    cand["cells"][0]["metrics"]["extra"] = dict(
        cand["cells"][0]["metrics"]["value"])
    result = diff_artifacts(_artifact({"a": 1.0}), cand)
    assert result.ok
    assert result.new_metrics == ["extra"]
    # The reverse -- a baseline metric the candidate lost -- fails.
    lost = diff_artifacts(cand, _artifact({"a": 1.0}))
    assert any("'extra' missing" in p for p in lost.problems)


def test_diff_missing_cell_and_new_cell():
    base = _artifact({"a": 100.0, "b": 50.0})
    cand = _artifact({"a": 100.0, "c": 1.0})
    result = diff_artifacts(base, cand)
    assert not result.ok
    assert any("missing from the candidate" in p for p in result.problems)
    assert result.new_cells == ["c"]


def test_diff_fails_on_candidate_gate_failures():
    result = diff_artifacts(_artifact({"a": 1.0}),
                            _artifact({"a": 1.0}, gates_failed=["sc"]))
    assert not result.ok
    assert any("failed trial gates" in p for p in result.problems)


def test_diff_schema_and_campaign_mismatch():
    base = _artifact({"a": 1.0})
    assert not diff_artifacts(base, _artifact({"a": 1.0}, schema=1)).ok
    other = _artifact({"a": 1.0})
    other["campaign"] = "other"
    assert not diff_artifacts(base, other).ok


# ------------------------------------------------------------------- the CLI
def test_cli_campaign_list(capsys):
    assert main(["campaign", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("latency", "bandwidth", "chaos", "dsm"):
        assert name in out
    assert "BENCH_DSM.json" in out


def test_cli_campaign_run_and_diff_roundtrip(tmp_path, capsys, clean_git):
    out = tmp_path / "BENCH_DMA.json"
    assert main(["campaign", "run", "dma",
                 "--state-root", str(tmp_path / "s"),
                 "--jobs", "1", "--out", str(out)]) == 0
    assert out.exists()
    # A fresh artifact diffs clean against itself as baseline.
    assert main(["campaign", "diff", "dma",
                 "--baseline", str(out), "--candidate", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_campaign_diff_detects_regression(tmp_path, capsys,
                                              clean_git):
    out = tmp_path / "BENCH_DMA.json"
    main(["campaign", "run", "dma", "--state-root", str(tmp_path / "s"),
          "--jobs", "1", "--out", str(out)])
    doctored = load_artifact(out)
    for cell in doctored["cells"]:
        for agg in cell["metrics"].values():
            agg["median"] *= 1.5          # baseline much faster than now
    base = tmp_path / "baseline.json"
    write_artifact(doctored, base)
    capsys.readouterr()
    assert main(["campaign", "diff", "dma", "--baseline", str(base),
                 "--candidate", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_campaign_report_reaggregates_without_running(tmp_path, capsys,
                                                         clean_git):
    main(["campaign", "run", "dma", "--state-root", str(tmp_path / "s"),
          "--jobs", "1", "--out", str(tmp_path / "a.json")])
    capsys.readouterr()
    assert main(["campaign", "report", "dma",
                 "--state-root", str(tmp_path / "s"),
                 "--out", str(tmp_path / "b.json")]) == 0
    assert ((tmp_path / "a.json").read_text()
            == (tmp_path / "b.json").read_text())


def test_cli_campaign_out_requires_single_name(tmp_path, capsys):
    assert main(["campaign", "run", "dma", "latency",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "--out-dir" in capsys.readouterr().out


def test_state_dir_separates_smoke_from_full(tmp_path, tiny):
    assert state_dir_for(tiny, False, tmp_path).name == "tiny"
    assert state_dir_for(tiny, True, tmp_path).name == "tiny-smoke"


def test_cli_run_records_provenance_once_before_writing(tmp_path, capsys,
                                                        monkeypatch):
    """``campaign run a b c``: the tree is dirtied by the first artifact
    written, so provenance asked per artifact would mark every later one
    dirty.  It is captured once, before the first write."""
    out_dir = tmp_path / "out"
    calls = []

    def git_metadata(repo_dir=None):
        calls.append(1)
        return dict(GIT, dirty=any(out_dir.glob("BENCH_*.json")))

    monkeypatch.setattr("repro.campaign.runner.git_metadata", git_metadata)
    names = ["dma", "hwlimits", "ablation-threshold"]
    assert main(["campaign", "run", *names, "--jobs", "1",
                 "--state-root", str(tmp_path / "s"),
                 "--out-dir", str(out_dir)]) == 0
    assert len(calls) == 1
    for name in names:
        artifact = load_artifact(
            out_dir / get_campaign(name).artifact_name)
        assert artifact["git"] == GIT


@pytest.mark.parametrize("name", campaign_names())
def test_every_campaign_has_a_clean_committed_baseline(name):
    """One committed artifact per registered campaign, at the current
    schema, in its smoke shape, recorded from a clean tree."""
    spec = get_campaign(name)
    artifact = load_artifact(REPO / spec.artifact_name)
    assert artifact["schema_version"] == SCHEMA_VERSION
    assert artifact["smoke"] is True
    assert artifact["git"]["dirty"] is False
    assert [cell["key"] for cell in artifact["cells"]] == [
        cell_key(params) for params in spec.cells(smoke=True)]
    assert artifact["cells_with_failed_gates"] == 0
