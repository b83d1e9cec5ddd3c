"""Every script in demos/ and every python block of README.md runs against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import losstree

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (REPO / "demos").glob("*.py"))
DEMO_TIMEOUT_S = 120


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    src = str(Path(losstree.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [src, env.get("PYTHONPATH")] if p)
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        capture_output=True,
        text=True,
        timeout=DEMO_TIMEOUT_S,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (REPO / "README.md").read_text("utf-8"), re.M | re.S
)


def test_readme_blocks_found():
    assert README_BLOCKS, "no python blocks found in README.md"


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"), {})
