"""Each demo script runs to completion as a separate program, and the
README's Quickstart prints what its comments say."""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_prints_its_comments():
    # the Python block after "## Quickstart": each print line's trailing
    # comment is the line it prints
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quickstart", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.rsplit("# ", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected == ["optimal", "-2.320080", "x1 = 2, x2 = 1.5000"]
    assert out.getvalue().splitlines() == expected
