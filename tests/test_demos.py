"""Every script in demos/, every python block of README.md and its command block run against src/."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import losstree
from losstree import (
    IntervalObservation, cli, forward, gen_regular_tree, save_intervals, save_observations
)

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


README = (REPO / "README.md").read_text("utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
README_COMMANDS = re.search(r"^## Command line\n\n```sh\n(.*?)^```$", README, re.M | re.S)


def test_readme_blocks_found():
    assert README_BLOCKS, "no python blocks found in README.md"


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    """Each line of the ``## Command line`` block exits 0 in a fresh directory.

    Its ``y.json`` and ``iv.json`` are written first, as ``save_observations``
    and ``save_intervals`` write them, for the tree of its ``gen-tree`` line.
    """
    lines = README_COMMANDS.group(1).splitlines()
    assert lines and all(line.startswith("losstree ") for line in lines)
    monkeypatch.chdir(tmp_path)
    tree = gen_regular_tree(3, 3)
    x = np.zeros(tree.n)
    x[[0, 4, 10]] = [0.02, 0.05, 0.03]
    y = forward(tree, x)
    save_observations(y, "y.json")
    save_intervals(IntervalObservation(lo=np.maximum(y - 0.01, 0.0), hi=y + 0.01), "iv.json")
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
