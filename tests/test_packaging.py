import os
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")    # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_version_is_read_from_the_package():
    doc = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in doc["project"]
    assert "version" in doc["project"]["dynamic"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "polymerlab.__version__"}


def test_requires_the_python_that_ci_tests():
    # CI runs 3.11 with numpy 2.4.6 and scipy 1.17.1, which both require Python >= 3.11
    assert tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"] == ">=3.11"


def test_importing_the_cli_loads_no_scipy():
    # scipy stays a declared dependency, but no command's import path needs it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, polymerlab.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]", done.stdout
