"""CLI surface of ``python -m repro lint``: exit codes, JSON schema, golden."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.cli import main
from repro.lint.cli import FINDINGS_SCHEMA

FIXTURE = Path(__file__).parent / "fixtures" / "tree"
GOLDEN = Path(__file__).parent / "data" / "golden_findings.json"


def test_exit_zero_on_clean_real_tree():
    assert main(["lint"]) == 0


def test_exit_one_on_fixture_findings(capsys):
    assert main(["lint", "--root", str(FIXTURE),
                 "--rules", "determinism"]) == 1
    captured = capsys.readouterr()
    assert "src/repro/util.py" in captured.out
    assert "[determinism]" in captured.out
    assert "9 findings" in captured.err


def test_exit_two_on_unknown_rule(capsys):
    assert main(["lint", "--rules", "no-such-rule"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_exit_two_on_missing_tree(tmp_path, capsys):
    assert main(["lint", "--root", str(tmp_path)]) == 2
    assert "no src/repro package" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("determinism", "hot-path-guards", "layering",
                 "param-compat", "registry-integrity"):
        assert rule in out
    assert "mirror-parity" not in out


def test_json_document_schema(capsys):
    assert main(["lint", "--json", "--root", str(FIXTURE),
                 "--rules", "determinism,layering"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == FINDINGS_SCHEMA
    assert doc["rules"] == ["determinism", "layering"]
    assert doc["count"] == len(doc["findings"]) == 14
    for f in doc["findings"]:
        assert set(f) == {"file", "line", "rule", "message"}
        assert not Path(f["file"]).is_absolute()
    assert doc["findings"] == sorted(
        doc["findings"],
        key=lambda f: (f["file"], f["line"], f["rule"], f["message"]))


def test_json_matches_golden(capsys):
    """The committed golden file pins the findings document byte-for-byte
    (minus the machine-specific root path)."""
    assert main(["lint", "--json", "--root", str(FIXTURE),
                 "--rules", "determinism"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert Path(doc.pop("root")) == FIXTURE.resolve()
    assert doc == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_module_entrypoint_subprocess():
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json"],
        capture_output=True, text=True, env=env, cwd=str(root))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["schema"] == FINDINGS_SCHEMA
    assert doc["count"] == 0
