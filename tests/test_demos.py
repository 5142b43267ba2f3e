"""Every demo script runs to completion against the library in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=[script.stem for script in DEMOS])
def test_demo_runs_cleanly(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr


README = (ROOT / "README.md").read_text()


def test_readme_quickstart_runs(capsys):
    block = README.split("## Quickstart (library)", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["unsafe", "166", "(1001, 6)"]


def test_readme_lower_level_stages_are_exported():
    import daereach

    sentence = README.split("Lower-level stages", 1)[1].split(".\n", 1)[0]
    names = re.findall(r"`(\w+)`", sentence)
    assert "decouple_system" in names
    assert set(names) <= set(daereach.__all__), set(names) - set(daereach.__all__)
