"""Every ```python block of README.md runs as written, and every constant
it names in a code span exists."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jungckit

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
SPANS = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S))
CONSTANTS = sorted({name for span in SPANS for name in re.findall(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b", span)})


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(code, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_names_constants():
    assert CONSTANTS


@pytest.mark.parametrize("name", CONSTANTS)
def test_constant_is_defined(name):
    modules = [importlib.import_module(f"jungckit.{m.name}") for m in pkgutil.iter_modules(jungckit.__path__)]
    assert any(hasattr(m, name) for m in modules), f"README names {name}, which no jungckit module defines"
