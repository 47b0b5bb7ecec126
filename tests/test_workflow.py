"""The CI workflow loads as YAML and runs the tier-1 suite as ROADMAP.md
gives it.  Its console-script step is only a smoke test of the installed
entry point: the CLI's contract is the ``_CONSOLE`` table of ``test_cli.py``."""
import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def test_tier1_workflow_loads_and_runs_the_tier1_suite():
    # a step name holding "module: numpy's" in a plain scalar made the file
    # invalid YAML, and CI ran nothing with no test noticing
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    assert set(workflow[True]) == {"push", "pull_request"}    # YAML 1.1 reads the key on as True
    steps = workflow["jobs"]["tests"]["steps"]
    assert all(isinstance(step, dict) and ("uses" in step or "run" in step) for step in steps)
    verify = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    runs = [step.get("run", "").strip() for step in steps]
    assert verify.group(1) in runs
    console = [run for run in runs if "hardy-optim" in run]
    assert len(console) == 1 and len(console[0].splitlines()) <= 4
