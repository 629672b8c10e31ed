"""The package stays on its two numeric dependencies, numpy and mpmath."""

import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mrpgen; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "False"


def test_declared_dependencies_are_numpy_and_mpmath():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
             for dep in project["dependencies"]}
    assert names == {"numpy", "mpmath"}
