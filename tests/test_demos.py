"""Every walkthrough in demos/, and the README's library and file-format
examples, runs to completion."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("heading,flag,level", [("DFA file format", "--dfa", "none"),
                                                ("Monoid file format", "--monoid", "2")])
def test_readme_file_examples_run(tmp_path, heading, flag, level):
    # the first block under each file-format heading, written to a file and analyzed
    text = (ROOT / "README.md").read_text()
    block = text.split(f"\n### {heading}\n", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example"
    path.write_text(block)
    proc = run_python("-m", "fo2level", "analyze", flag, str(path))
    assert proc.returncode == 0, proc.stderr
    assert f"fo2_level: {level}\n" in proc.stdout
