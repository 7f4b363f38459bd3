"""Every demo runs to completion against this checkout's package, and
the README quick start prints the values its comments state.

A demo is the first reader of the public API, so removing or renaming a
call that a demo makes must fail here rather than go unnoticed.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_readme_quick_start_prints_its_comments():
    # Each print of the quick start states its output in a comment on the
    # same line or on the comment line just below; "..." stands for the
    # digits or words left out.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    expected = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.startswith("print("):
            expected.append(comment.strip())
        elif not code.strip() and expected and not expected[-1]:
            expected[-1] = comment.strip()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    printed = done.stdout.splitlines()
    assert len(expected) == len(printed) == 4 and all(expected)
    for value, line in zip(expected, printed):
        pattern = ".*?".join(map(re.escape, value.split("...")))
        assert re.fullmatch(pattern, line), (value, line)
