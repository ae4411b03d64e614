"""Each narrative script in demos/ runs to completion.

The demos call the library's public API end to end, so an API change that
breaks one shows up here. Each runs in a fresh interpreter at one BLAS
thread, which keeps its output reproducible and its run short.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cellgraph

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(cellgraph.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
