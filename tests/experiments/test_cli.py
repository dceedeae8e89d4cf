"""CLI surface tests: list/run/report/diff through ``cli.main``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.experiments.report import REPORT_SCHEMA

DATA = Path(__file__).resolve().parent / "data"


def test_list_names_registered_sweeps(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig8", "fig15", "ablation-slice-size", "smoke"):
        assert name in out


def test_run_writes_report_and_caches(tmp_path, capsys):
    cache = tmp_path / "cache"
    reports = tmp_path / "reports"
    assert main(["run", "smoke", "--cache", str(cache),
                 "--report-dir", str(reports), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert "Smoke" in captured.out
    assert "3 scenarios, 0 cached, 3 executed" in captured.err

    report_path = reports / "smoke.json"
    report = json.loads(report_path.read_text())
    assert report["schema"] == REPORT_SCHEMA
    assert len(report["scenarios"]) == 3

    # Second run: fully cached; --expect-cached passes.
    assert main(["run", "smoke", "--cache", str(cache), "--quiet",
                 "--expect-cached"]) == 0
    assert "3 cached, 0 executed" in capsys.readouterr().err


def test_expect_cached_fails_on_cold_cache(tmp_path, capsys):
    assert main(["run", "smoke", "--cache", str(tmp_path / "cold"),
                 "--quiet", "--expect-cached"]) == 1
    assert "expected a fully cached run" in capsys.readouterr().err


def test_report_subcommand_reads_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["run", "smoke", "--cache", str(cache), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["report", "smoke", "--cache", str(cache), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert "3 cached, 0 executed" in captured.err
    assert "Smoke" in captured.out


def test_diff_subcommand(tmp_path, capsys):
    cache = tmp_path / "cache"
    reports = tmp_path / "reports"
    main(["run", "smoke", "--cache", str(cache),
          "--report-dir", str(reports), "--quiet"])
    path = reports / "smoke.json"
    assert main(["diff", str(path), str(path)]) == 0
    assert "reports match" in capsys.readouterr().out

    tweaked = json.loads(path.read_text())
    tweaked["scenarios"][0]["result"]["fused_time"] *= 1.5
    other = tmp_path / "tweaked.json"
    other.write_text(json.dumps(tweaked))
    assert main(["diff", str(path), str(other)]) == 1
    assert "fused_time" in capsys.readouterr().out


def test_no_cache_flag_disables_store(tmp_path, capsys):
    assert main(["run", "smoke", "--no-cache", "--quiet",
                 "--cache", str(tmp_path / "never")]) == 0
    capsys.readouterr()
    assert not (tmp_path / "never").exists()
    # Without a store, a re-run executes everything again.
    assert main(["run", "smoke", "--no-cache", "--quiet"]) == 0
    assert "0 cached, 3 executed" in capsys.readouterr().err


def test_unknown_sweep_errors():
    with pytest.raises(KeyError, match="unknown sweep"):
        main(["run", "definitely-not-a-sweep"])


def test_platforms_subcommand_lists_catalog(capsys):
    assert main(["platforms"]) == 0
    out = capsys.readouterr().out
    for name in ("mi210", "mi250x", "mi300x", "h100"):
        assert name in out
    # The calibrated entry shows the paper's derived footprint.
    assert "64->72" in out
    assert "87.5%" in out


def test_run_xhw_smoke_caches_and_reports_speedups(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["run", "xhw-smoke", "--cache", str(cache), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "speedup_by_platform" in out
    assert "h100" in out
    assert main(["run", "xhw-smoke", "--cache", str(cache), "--quiet",
                 "--expect-cached"]) == 0


def test_list_json_matches_key_golden():
    """``repro list --json`` in a fresh process is byte-identical to the
    committed key golden: every registered sweep's and mega sweep's name,
    title, size, backends and content key (each sweep key hashes all of
    its scenario keys), so any drift in spec canonicalization or hashing
    shows up here."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list", "--json"],
        capture_output=True, env=env, cwd=str(root))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / "golden_list.json").read_bytes()
