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


def _modules_loaded_after(code: str) -> list[str]:
    """Modules a fresh interpreter holds after running ``code`` (``json`` and ``sys`` imported)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code += "\nprint(json.dumps(sorted(m for m, module in sys.modules.items() if module)))"
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _modules_loaded_by_importing_the_cli(withheld=()) -> list[str]:
    """Modules a fresh interpreter holds after ``import polymerlab.cli``, with ``withheld`` unimportable."""
    return _modules_loaded_after(f"sys.modules.update(dict.fromkeys({list(withheld)!r}))\n"
                                 "import polymerlab.cli")


def _modules_loaded_by_running_the_cli(argv) -> list[str]:
    """Modules a fresh interpreter holds after ``polymerlab.cli.main(argv)`` has returned 0."""
    return _modules_loaded_after("import polymerlab.cli\n"
                                 f"if polymerlab.cli.main({list(argv)!r}):\n"
                                 "    sys.exit('the command failed')")


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test dependency only: no module of the package imports it
    loaded = _modules_loaded_by_importing_the_cli()
    assert [m for m in loaded if m.partition(".")[0] == "scipy"] == []


def test_importing_the_cli_loads_no_process_pool():
    # cmd_verify imports multiprocessing only when it runs suites in worker processes
    loaded = _modules_loaded_by_importing_the_cli()
    assert [m for m in loaded if m.partition(".")[0] == "multiprocessing"
            or m == "concurrent.futures.process"] == []


def test_importing_the_cli_loads_no_ctypes():
    # numpy loads ctypes only where it can, so with ctypes withheld the CLI must
    # still import: the heap policy imports ctypes when main runs, not before
    loaded = _modules_loaded_by_importing_the_cli(withheld=("ctypes",))
    assert "polymerlab.cli" in loaded
    assert [m for m in loaded if m.partition(".")[0] == "ctypes"] == []


def test_writing_a_manifest_loads_no_importlib_metadata(tmp_path):
    # scipy's version comes from a sys.path scan; importlib.metadata would load email and zipfile
    out = tmp_path / "out"
    loaded = _modules_loaded_by_running_the_cli(["env-check", "--out", str(out)])
    assert json.loads((out / "manifest.json").read_text())["numeric_environment"]["scipy"]
    assert [m for m in loaded if m.startswith("importlib.metadata")
            or m.partition(".")[0] == "email"] == []


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
