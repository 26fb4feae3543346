"""Every walkthrough in demos/, and the README's library example, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    """Run the interpreter on args from the repository root, with src/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs():
    # the python block under README's "## Library" heading, run as written
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Level(2)\nLevel(2)\n"
