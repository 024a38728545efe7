"""The runtime needs numpy alone; mpmath and scipy are test references."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_test_only_module():
    probe = ("import sys, qentropy, qentropy.cli\n"
             "print(sorted({m.split('.')[0] for m in sys.modules} & {'mpmath', 'scipy'}))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_leaves_out_the_thread_pool():
    # mc imports concurrent.futures only when it runs chunks on several workers
    probe = "import sys, qentropy.cli\nprint('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert "mpmath>=1.3" in project["optional-dependencies"]["test"]
