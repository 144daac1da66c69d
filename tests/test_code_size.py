"""The package's line budget, counted as the tier-1 workflow's "Code size" step counts it."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_package_within_line_budget():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (budget,) = re.findall(r"^\s*budget=(\d+)$", workflow, re.MULTILINE)
    # `wc -l` counts newline characters.
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "tablesync").rglob("*.py"))
    assert lines <= int(budget), f"src/tablesync: {lines} lines of Python, budget {budget}"
