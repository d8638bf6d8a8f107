"""The programs under checks/ bound memory and bits at the real input
sizes, too slow and large for this suite; CI runs each as a step."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ci_runs_every_check():
    """No check is dropped from CI, and none is written and left unrun."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    run = set(re.findall(r"\bchecks/\w+\.py\b", workflow))
    files = {f"checks/{p.name}" for p in (ROOT / "checks").glob("*.py") if p.name != "_common.py"}
    assert files
    assert run == files
