"""Resumable multiprocess execution of a campaign's trial grid.

The runner owns a *state directory* per ``(campaign, shape)``:

.. code-block:: text

    benchmarks/out/campaigns/<name>[-smoke]/
        state.json              # shape fingerprint (grid, seeds, schema)
        trials/<cell>_s<seed>.json   # one file per finished trial

Each trial file is written atomically (tmp + rename) the moment its
trial finishes, so a killed run loses only in-flight trials; ``resume``
re-derives the work list, skips every finished trial, and runs the rest.
Trials are deterministic in ``(params, seed)``, and aggregation orders
cells and seeds canonically, so a resumed run's artifact is
**byte-identical** to an uninterrupted one — the property the campaign
tests assert.

Fan-out uses a fork-context process pool (``--jobs``); ``jobs <= 1``
runs inline, which keeps trial functions registered at runtime (tests)
usable without pickling and makes single-trial debugging trivial.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import subprocess
from concurrent.futures import ProcessPoolExecutor, as_completed
from numbers import Number
from typing import Callable, Optional

from repro.campaign.aggregate import aggregate_cell
from repro.campaign.spec import (SCHEMA_VERSION, CampaignSpec, SpecError,
                                 cell_key)

#: Default root for campaign state, relative to the invocation directory
#: (the repo root in CI); see docs/BENCHMARKS.md.
DEFAULT_STATE_ROOT = pathlib.Path("benchmarks") / "out" / "campaigns"


class IncompleteRunError(RuntimeError):
    """An artifact was requested from a state dir with unfinished trials."""

    def __init__(self, campaign: str, missing: list[str]):
        self.campaign = campaign
        self.missing = missing
        super().__init__(
            f"campaign {campaign!r}: {len(missing)} trial(s) not finished "
            f"(first missing: {missing[0]}); run "
            f"`python -m repro campaign resume {campaign}` to complete")


def state_dir_for(spec: CampaignSpec, smoke: bool,
                  state_root: Optional[pathlib.Path] = None) -> pathlib.Path:
    root = pathlib.Path(state_root) if state_root else DEFAULT_STATE_ROOT
    return root / (f"{spec.name}-smoke" if smoke else spec.name)


def _fingerprint(spec: CampaignSpec, smoke: bool) -> dict:
    return {
        "campaign": spec.name,
        "schema_version": SCHEMA_VERSION,
        "smoke": smoke,
        "fixed": {k: spec.fixed[k] for k in sorted(spec.fixed)},
        "grid": spec.resolved_grid(smoke),
        "seeds": spec.resolved_seeds(smoke),
        "metrics": sorted(m.name for m in spec.metrics),
    }


def _trial_path(trials_dir: pathlib.Path, index: int, params: dict,
                seed: int) -> pathlib.Path:
    return trials_dir / f"{index:04d}_{cell_key(params)}_s{seed}.json"


def _write_json(path: pathlib.Path, payload: dict) -> None:
    """Atomic write: a kill mid-dump never leaves a torn trial file."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _check_report(spec: CampaignSpec, raw: dict) -> tuple[dict, dict]:
    """Validate a trial function's return value against the spec."""
    if not isinstance(raw, dict) or "metrics" not in raw:
        raise SpecError(f"campaign {spec.name}: trial returned {type(raw)}; "
                        "expected {'metrics': {...}, 'gates': {...}}")
    metrics = raw["metrics"]
    declared = {m.name for m in spec.metrics}
    if set(metrics) != declared:
        raise SpecError(
            f"campaign {spec.name}: trial metrics {sorted(metrics)} != "
            f"declared {sorted(declared)}")
    for name, value in metrics.items():
        if not isinstance(value, Number) or isinstance(value, bool):
            raise SpecError(f"campaign {spec.name}: metric {name!r} is "
                            f"{value!r}, expected a number")
    gates = raw.get("gates", {})
    if any(not isinstance(v, bool) for v in gates.values()):
        raise SpecError(f"campaign {spec.name}: gates must be booleans, "
                        f"got {gates}")
    return dict(metrics), dict(gates)


def run_trial(spec: CampaignSpec, index: int, params: dict,
              seed: int) -> dict:
    """Execute one trial and normalise its report (JSON-ready)."""
    metrics, gates = _check_report(
        spec, spec.trial(spec.trial_params(params), seed))
    return {
        "campaign": spec.name,
        "cell_index": index,
        "cell": cell_key(params),
        "params": params,
        "seed": seed,
        "metrics": metrics,
        "gates": gates,
    }


def _pool_trial(name: str, index: int, params: dict, seed: int) -> dict:
    """Top-level pool entry point (must be picklable).  The fork context
    means campaigns registered at runtime are visible here too."""
    from repro.campaign.registry import get_campaign

    return run_trial(get_campaign(name), index, params, seed)


def run_campaign(spec: CampaignSpec, *, smoke: bool = False,
                 jobs: Optional[int] = None, resume: bool = False,
                 state_root: Optional[pathlib.Path] = None,
                 max_trials: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None) -> dict:
    """Run (or resume) a campaign's grid; returns the run summary.

    ``max_trials`` stops after that many *newly executed* trials (used by
    tests to model a killed run — the state dir is left half-finished).
    """
    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    state_dir = state_dir_for(spec, smoke, state_root)
    trials_dir = state_dir / "trials"
    fingerprint = _fingerprint(spec, smoke)
    state_file = state_dir / "state.json"

    if resume:
        if not state_file.exists():
            say(f"{spec.name}: nothing to resume, starting fresh")
        else:
            recorded = json.loads(state_file.read_text())
            if recorded != fingerprint:
                raise SpecError(
                    f"campaign {spec.name}: state dir {state_dir} was "
                    "written by a different shape (grid/seeds/schema "
                    "changed); re-run `campaign run` to start over")
    else:
        for stale in sorted(trials_dir.glob("*.json")):
            stale.unlink()
    trials_dir.mkdir(parents=True, exist_ok=True)
    _write_json(state_file, fingerprint)

    work = spec.trials(smoke)
    pending = [(index, params, seed) for index, params, seed in work
               if not _trial_path(trials_dir, index, params, seed).exists()]
    skipped = len(work) - len(pending)
    if max_trials is not None:
        pending = pending[:max_trials]
    say(f"{spec.name}{' [smoke]' if smoke else ''}: "
        f"{len(work)} trials ({skipped} already finished, "
        f"{len(pending)} to run)")

    if jobs is None:
        jobs = min(len(pending), os.cpu_count() or 1) or 1
    executed = 0
    if jobs <= 1 or len(pending) <= 1:
        for index, params, seed in pending:
            report = run_trial(spec, index, params, seed)
            _write_json(_trial_path(trials_dir, index, params, seed), report)
            executed += 1
    else:
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=context) as pool:
            futures = {
                pool.submit(_pool_trial, spec.name, index, params, seed):
                (index, params, seed)
                for index, params, seed in pending
            }
            for future in as_completed(futures):
                index, params, seed = futures[future]
                report = future.result()
                _write_json(_trial_path(trials_dir, index, params, seed),
                            report)
                executed += 1

    return {
        "campaign": spec.name,
        "smoke": smoke,
        "state_dir": str(state_dir),
        "trials_total": len(work),
        "trials_skipped": skipped,
        "trials_executed": executed,
        "complete": skipped + executed == len(work),
    }


def load_reports(spec: CampaignSpec, smoke: bool,
                 state_root: Optional[pathlib.Path] = None
                 ) -> list[list[dict]]:
    """All finished trial reports, grouped per cell in canonical order.

    Raises :class:`IncompleteRunError` when any expected trial file is
    missing — the artifact never silently aggregates a partial grid.
    """
    state_dir = state_dir_for(spec, smoke, state_root)
    trials_dir = state_dir / "trials"
    cells = spec.cells(smoke)
    seeds = spec.resolved_seeds(smoke)
    missing: list[str] = []
    grouped: list[list[dict]] = []
    for index, params in enumerate(cells):
        reports = []
        for seed in seeds:
            path = _trial_path(trials_dir, index, params, seed)
            if not path.exists():
                missing.append(path.name)
                continue
            reports.append(json.loads(path.read_text()))
        grouped.append(reports)
    if missing:
        raise IncompleteRunError(spec.name, missing)
    return grouped


def git_metadata(repo_dir: Optional[pathlib.Path] = None) -> dict:
    """Provenance of the artifact: commit, branch, dirty flag (best
    effort — all ``None``/``False`` outside a git checkout).

    Capture it once, before the first artifact of a run is written: an
    artifact written to the repo root dirties the tree, so asking again
    afterwards would mark every later artifact of the run dirty."""
    def ask(*argv: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ["git", *argv], cwd=repo_dir, capture_output=True,
                text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = ask("rev-parse", "HEAD")
    branch = ask("rev-parse", "--abbrev-ref", "HEAD")
    status = ask("status", "--porcelain")
    return {
        "commit": commit,
        "branch": branch,
        "dirty": bool(status) if status is not None else False,
    }


def build_artifact(spec: CampaignSpec, *, smoke: bool = False,
                   state_root: Optional[pathlib.Path] = None,
                   git: Optional[dict] = None) -> dict:
    """Aggregate a finished run into the ``BENCH_<AREA>.json`` payload."""
    grouped = load_reports(spec, smoke, state_root)
    cells = []
    gates_failed_total = 0
    for params, reports in zip(spec.cells(smoke), grouped):
        entry = aggregate_cell(reports)
        entry["params"] = params
        entry["key"] = cell_key(params)
        gates_failed_total += 1 if entry["gates_failed"] else 0
        cells.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": spec.artifact_name,
        "campaign": spec.name,
        "area": spec.area,
        "title": spec.title,
        "paper_ref": spec.paper_ref,
        "smoke": smoke,
        "fixed": {k: spec.fixed[k] for k in sorted(spec.fixed)},
        "grid": spec.resolved_grid(smoke),
        "seeds": spec.resolved_seeds(smoke),
        "metrics": {
            m.name: {"unit": m.unit, "direction": m.direction}
            for m in spec.metrics
        },
        "cells": cells,
        "cells_with_failed_gates": gates_failed_total,
        "git": git if git is not None else git_metadata(),
    }


def write_artifact(artifact: dict, path: pathlib.Path) -> None:
    path = pathlib.Path(path)
    if path.parent != pathlib.Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(path, artifact)


def load_artifact(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
