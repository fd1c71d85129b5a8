"""Tests for the CLI and the report-rendering helper."""

import json

import pytest

from repro.bench.report import format_table
from repro.cli import build_parser, main


# ------------------------------------------------------------------- report
def test_format_table_alignment_and_floats():
    text = format_table("T", ["a", "bbb"], [[1, 2.345], ["xy", 7]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "2.35" in text          # floats rendered to 2 decimals
    assert "a" in lines[2] and "bbb" in lines[2]
    # All data rows share the header's width.
    widths = {len(line) for line in lines[2:]}
    assert len(widths) == 1


# ----------------------------------------------------------------------- CLI
def test_parser_knows_all_commands():
    parser = build_parser()
    for argv in (["campaign", "list"], ["chaos"], ["dsm-bench"],
                 ["kv-bench"], ["sram"], ["topology"], ["metrics"],
                 ["trace"]):
        args = parser.parse_args(argv)
        assert callable(args.func)
    # The per-figure commands are campaigns now (`campaign run <name>`).
    for gone in ("latency", "bandwidth", "overhead", "dma", "vrpc",
                 "breakdown", "shootout"):
        with pytest.raises(SystemExit):
            parser.parse_args([gone])


def test_cli_chaos_needs_a_scenario(capsys):
    assert main(["chaos"]) == 2
    assert "campaign run lossy|chaos" in capsys.readouterr().out


def _campaign_run(tmp_path, name, *extra):
    """``campaign run <name>`` into a private state dir; returns the
    artifact written to ``tmp_path/<name>.json``."""
    out = tmp_path / f"{name}.json"
    assert main(["campaign", "run", name, "--jobs", "1",
                 "--state-root", str(tmp_path / "state"),
                 "--out", str(out), *extra]) == 0
    return json.loads(out.read_text())


def test_cli_dma_prints_curve(tmp_path, capsys):
    _campaign_run(tmp_path, "dma")
    out = capsys.readouterr().out
    assert "host<->LANai DMA bandwidth curve" in out
    assert "99.9073" in out          # the 4 KB transfer unit
    assert "127.986" in out          # 64 KB, near the PCI maximum


def test_cli_latency_runs_simulation(tmp_path, capsys):
    _campaign_run(tmp_path, "latency")
    out = capsys.readouterr().out
    assert "9.813" in out


def test_cli_sram_accounting(capsys):
    assert main(["sram", "--processes", "1"]) == 0
    out = capsys.readouterr().out
    assert "incoming_page_table" in out
    assert "tlb.pid" in out
    assert "TOTAL" in out


def test_cli_overhead(tmp_path, capsys):
    _campaign_run(tmp_path, "overhead", "--smoke")
    out = capsys.readouterr().out
    assert "mode=sync" in out and "mode=async" in out


# --------------------------------------------------------- observability CLI
def test_cli_metrics_json_is_machine_readable(capsys):
    assert main(["metrics", "--json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert any(key.startswith("link.bytes") for key in snap)
    assert any(key.startswith("rel.retransmits") for key in snap)


def test_cli_metrics_table(capsys):
    assert main(["metrics"]) == 0
    out = capsys.readouterr().out
    assert "Metrics of the instrumented contract workload" in out
    assert "lcp.sends" in out


def test_cli_trace_writes_perfetto_and_checks_docs(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    assert main(["trace", "--perfetto", str(out_file), "--check-docs"]) == 0
    out = capsys.readouterr().out
    assert "trace events" in out
    assert "all emitted trace categories are documented" in out
    document = json.loads(out_file.read_text())
    assert document["traceEvents"]
    assert document["otherData"]["dropped"] == 0


def test_cli_breakdown_json(tmp_path):
    artifact = _campaign_run(tmp_path, "breakdown")
    short = artifact["cells"][0]
    assert short["params"] == {"size": 4}
    assert short["gates_failed"] == []
    stages = sum(short["metrics"][f"{key}_us"]["median"]
                 for key in ("post", "lanai_send", "wire", "lanai_recv",
                             "deliver"))
    assert stages == pytest.approx(short["metrics"]["total_us"]["median"],
                                   abs=1e-5)
    assert short["metrics"]["total_us"]["median"] == pytest.approx(9.8,
                                                                   abs=0.3)
