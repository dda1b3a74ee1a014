from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")    # Python >= 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_is_read_from_the_package():
    doc = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in doc["project"]
    assert "version" in doc["project"]["dynamic"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "polymerlab.__version__"}
