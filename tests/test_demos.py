"""Every script in demos/ runs to completion against the in-tree package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exit_zero(tmp_path):
    assert DEMOS, "no demo scripts found"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script in DEMOS:
        proc = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, f"{script.name} exited {proc.returncode}:\n{proc.stderr}"
