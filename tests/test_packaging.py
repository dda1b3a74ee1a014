import ast
import json
import os
import re
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


def test_requires_the_numpy_whose_irfft_takes_out():
    # EnvironmentHandle.synthesize passes out= to np.fft.irfft, new in numpy 2.0
    assert "numpy>=2.0" in tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]


def _modules_loaded_by_importing_the_cli() -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import json, sys, polymerlab.cli; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout)


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test dependency only: no module of the package imports it
    loaded = _modules_loaded_by_importing_the_cli()
    assert [m for m in loaded if m.partition(".")[0] == "scipy"] == []


def test_importing_the_cli_loads_no_process_pool():
    # cmd_verify imports multiprocessing only when it runs suites in worker processes
    loaded = _modules_loaded_by_importing_the_cli()
    assert [m for m in loaded if m.partition(".")[0] == "multiprocessing"
            or m == "concurrent.futures.process"] == []


def _runtime_dependencies():
    """The distribution names of pyproject's runtime dependencies, without version specifiers."""
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in deps}


def test_every_import_of_the_package_is_stdlib_itself_or_a_declared_dependency():
    # function-level imports count too: a module imported lazily must still be declared
    allowed = set(sys.stdlib_module_names) | {"polymerlab"} | _runtime_dependencies()
    seen = set()
    for path in sorted((ROOT / "src" / "polymerlab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["polymerlab" if node.level else node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                seen.add(top)
                assert top in allowed, f"{path.name} imports {name}, which pyproject does not declare"
    assert {"numpy", "polymerlab"} <= seen
