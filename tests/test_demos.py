"""Every demo script runs to completion against the library in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    """``python *args`` in a fresh interpreter against the library in ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=[script.stem for script in DEMOS])
def test_demo_runs_cleanly(tmp_path, script):
    result = run_python([str(script)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr


README = (ROOT / "README.md").read_text()


def test_readme_quickstart_runs(tmp_path):
    # the README's one Python block, run as a user would: in a fresh
    # interpreter against the library in ``src``
    before, *blocks = README.split("```python\n")
    assert len(blocks) == 1 and "## Quickstart (library)" in before
    result = run_python(["-c", blocks[0].split("```", 1)[0]], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["unsafe", "166", "(1001, 6)"]


def test_readme_lower_level_stages_are_exported():
    import daereach

    sentence = README.split("Lower-level stages", 1)[1].split(".\n", 1)[0]
    names = re.findall(r"`(\w+)`", sentence)
    assert "decouple_system" in names
    assert set(names) <= set(daereach.__all__), set(names) - set(daereach.__all__)
