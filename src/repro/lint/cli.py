"""``python -m repro lint`` — the static invariant gate.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage error (unknown rule,
missing tree).  ``--json`` emits the machine-readable findings document
(schema ``repro.lint.findings/v1``)::

    {
      "schema": "repro.lint.findings/v1",
      "root": "<absolute path that was linted>",
      "rules": ["determinism", ...],          // rules that ran, sorted
      "count": 2,
      "findings": [
        {"file": "src/repro/x.py", "line": 10,
         "rule": "determinism", "message": "..."},
        ...
      ],
      "notes": []                              // rule notes, if any
    }

Findings are sorted by (file, line, rule, message) and paths are
repo-relative POSIX, so the document is byte-stable across runs and
machines — CI archives it as an artifact on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .core import RULES, _ensure_rules_loaded, run_lint

FINDINGS_SCHEMA = "repro.lint.findings/v1"


def build_parser(parser: Optional[argparse.ArgumentParser] = None
                 ) -> argparse.ArgumentParser:
    """Populate ``parser`` (or a fresh one) with the lint options."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro lint",
            description="statically enforce the repo's determinism, "
                        "hot-path, parameter and registry contracts")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the repro.lint.findings/v1 JSON document")
    parser.add_argument(
        "--rules", default=None, metavar="a,b",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="lint this tree instead of the installed repo root")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit")
    return parser


def run(args: argparse.Namespace) -> int:
    _ensure_rules_loaded()
    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id:20s} {RULES[rule_id].summary}")
        return 0

    rules = None
    if args.rules is not None:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    root = Path(args.root) if args.root else None

    try:
        findings, ctx = run_lint(root=root, rules=rules)
    except (KeyError, FileNotFoundError, ValueError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"repro lint: {msg}", file=sys.stderr)
        return 2

    if args.as_json:
        doc = {
            "schema": FINDINGS_SCHEMA,
            "root": str(ctx.root),
            "rules": sorted(RULES) if rules is None else sorted(rules),
            "count": len(findings),
            "findings": [f.to_dict() for f in findings],
            "notes": list(ctx.notes),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for note in ctx.notes:
            print(note)
        for f in findings:
            print(f.render())
        if findings:
            n = len(findings)
            print(f"repro lint: {n} finding{'s' if n != 1 else ''}",
                  file=sys.stderr)
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
