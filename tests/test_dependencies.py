"""The package stays on its one numeric dependency, numpy, and the test
dependencies run under the repo's pytest settings."""

import importlib.metadata
import os
import re
import shutil
import subprocess
import sys
import textwrap
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_neither_scipy_nor_mpmath():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, mrpgen; print('scipy' in sys.modules, 'mpmath' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "False False"


def test_declared_dependency_is_numpy_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
             for dep in project["dependencies"]}
    assert names == {"numpy"}
    # tomllib, which this test imports, is new in Python 3.11
    assert project["requires-python"] == ">=3.11"


def test_installed_numpy_meets_the_declared_floor():
    # the floor is what the suite runs on; an older numpy is untested
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    (floor,) = [re.fullmatch(r"numpy>=([0-9.]+)", dep).group(1)
                for dep in project["dependencies"]]
    installed = re.match(r"[0-9]+(\.[0-9]+)*", importlib.metadata.version("numpy")).group(0)
    assert ([int(part) for part in installed.split(".")]
            >= [int(part) for part in floor.split(".")])


def test_a_failing_property_is_one_failed_test(tmp_path):
    # A failing @given test makes Hypothesis write a failing-example patch
    # with libcst, whose import warns DeprecationWarning.  Under the repo's
    # filterwarnings that warning must not become an error inside a pytest
    # hook, which ended the session with INTERNALERROR before later tests ran.
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_property.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(n):
            assert n < 10


        def test_passes():
            pass
        """))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in output
