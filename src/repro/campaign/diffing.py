"""The exact gate: compare two ``BENCH_<AREA>.json`` artifacts.

``campaign diff`` compares a *candidate* artifact (a fresh run) against
the *baseline* committed at the repo root.  Every campaign metric is
deterministic simulated output (integer-ns simulation, seeded RNG), so
the gate is equality: every statistic (n/min/max/mean/median/ci95) of
every metric of every baseline cell must equal the candidate's.  Any
difference fails, in either direction and for ``info`` metrics too; an
intended change is landed by refreshing the baseline (docs/BENCHMARKS.md,
"Refreshing baselines").

Structural problems always fail: schema/campaign mismatch, a baseline
recorded from a dirty tree (its provenance is unknown), a baseline cell
or metric missing from the candidate, or any candidate cell with failed
trial gates (SC violations, lost deliveries, ...).  Cells and metrics
new in the candidate are noted, not gated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Statuses a (cell, metric) comparison can land on.
OK, CHANGED = "ok", "CHANGED"


@dataclass(frozen=True)
class DiffRow:
    cell: str
    metric: str
    baseline: float                # cell median
    candidate: float
    changed: tuple[str, ...]       # statistics that differ

    @property
    def status(self) -> str:
        return CHANGED if self.changed else OK


@dataclass
class DiffResult:
    campaign: str
    rows: list[DiffRow] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    new_cells: list[str] = field(default_factory=list)
    new_metrics: list[str] = field(default_factory=list)

    @property
    def changes(self) -> list[DiffRow]:
        return [row for row in self.rows if row.changed]

    @property
    def ok(self) -> bool:
        return not self.problems and not self.changes


def diff_artifacts(baseline: dict, candidate: dict) -> DiffResult:
    """Gate ``candidate`` against ``baseline``; see the module docstring."""
    result = DiffResult(campaign=str(candidate.get("campaign")))
    if baseline.get("campaign") != candidate.get("campaign"):
        result.problems.append(
            f"campaign mismatch: baseline {baseline.get('campaign')!r} "
            f"vs candidate {candidate.get('campaign')!r}")
        return result
    if baseline.get("schema_version") != candidate.get("schema_version"):
        result.problems.append(
            f"schema_version mismatch: baseline "
            f"{baseline.get('schema_version')} vs candidate "
            f"{candidate.get('schema_version')} — regenerate the baseline")
        return result
    if baseline.get("git", {}).get("dirty"):
        result.problems.append(
            "baseline was recorded from a dirty tree (git.dirty: true); "
            "regenerate it from a clean checkout")
    if candidate.get("cells_with_failed_gates"):
        failed = [f"{cell['key']}: {', '.join(cell['gates_failed'])}"
                  for cell in candidate["cells"] if cell["gates_failed"]]
        result.problems.append(
            "candidate has failed trial gates — " + "; ".join(failed))

    base_cells = {cell["key"]: cell for cell in baseline["cells"]}
    cand_cells = {cell["key"]: cell for cell in candidate["cells"]}
    result.new_cells = [key for key in cand_cells if key not in base_cells]
    new_metrics = set()
    for key, base_cell in sorted(base_cells.items()):
        cand_cell = cand_cells.get(key)
        if cand_cell is None:
            result.problems.append(
                f"cell {key!r} is in the baseline but missing from the "
                "candidate (grid shrank? run the same shape)")
            continue
        new_metrics |= set(cand_cell["metrics"]) - set(base_cell["metrics"])
        for name, base in sorted(base_cell["metrics"].items()):
            cand = cand_cell["metrics"].get(name)
            if cand is None:
                result.problems.append(
                    f"cell {key!r}: metric {name!r} missing from the "
                    "candidate")
                continue
            changed = tuple(stat for stat in sorted(set(base) | set(cand))
                            if base.get(stat) != cand.get(stat))
            result.rows.append(DiffRow(
                cell=key, metric=name, baseline=base["median"],
                candidate=cand["median"], changed=changed))
    result.new_metrics = sorted(new_metrics)
    return result
