import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


def run_demo(demo, cwd):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    # from a directory outside the repo: the demos find corpus/ from their
    # own path, not from the working directory
    assert run_demo(demo, tmp_path)


def test_benchmark_demo_reads_the_whole_corpus(tmp_path):
    out = run_demo(ROOT / "demos" / "04_benchmark_harness.py", tmp_path)
    count = len(list((ROOT / "corpus").glob("*.json")))
    assert count > 0
    assert out.startswith(f"{count} corpus entries:")
