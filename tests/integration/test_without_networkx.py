"""``src/`` runs on the standard library and numpy: networkx is a test-only oracle.

Each check runs in a fresh interpreter, so a module this test process
already imported cannot hide an import.  The CLI run goes through a
``sys.meta_path`` finder that refuses networkx, which stands for an install
without it even where it is present.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

REFUSE_NETWORKX = """
import sys

class RefuseNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "networkx":
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, RefuseNetworkx())
try:
    import networkx
except ImportError:
    pass
else:
    raise SystemExit("the finder let networkx through")
"""


def python(code, cwd):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env.pop("REPRO_BACKEND", None)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_the_cli_runs_with_networkx_refused(tmp_path):
    run = (
        "import runpy\n"
        "sys.argv = ['repro', 'run', 'table1', 'figure3', '--scale', 'smoke', '--no-cache']\n"
        "runpy.run_module('repro', run_name='__main__')\n"
    )
    done = python(REFUSE_NETWORKX + run, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "table1" in done.stdout and "figure3" in done.stdout


def test_importing_the_pipeline_leaves_networkx_unloaded(tmp_path):
    # No finder here: where networkx is installed, a guarded import of it
    # would load it and show.
    done = python(
        "import sys, repro.experiments, repro.pipeline.runner\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
