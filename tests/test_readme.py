"""Every ```python block of README.md runs as written, and every constant
and every ``module.name`` it names in a code span exists."""

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
MODULES = {m.name: importlib.import_module(f"jungckit.{m.name}") for m in pkgutil.iter_modules(jungckit.__path__)}
#: ``module.name`` and ``module.Class.name`` of a jungckit module, wherever a span holds one
DOTTED = sorted({name for span in SPANS for name in re.findall(rf"\b(?:{'|'.join(MODULES)})(?:\.\w+)+", span)})


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
    assert any(hasattr(m, name) for m in MODULES.values()), f"README names {name}, which no jungckit module defines"


def test_readme_names_module_attributes():
    assert DOTTED


@pytest.mark.parametrize("dotted", DOTTED)
def test_module_attribute_exists(dotted):
    module, *path = dotted.split(".")
    found = MODULES[module]
    for part in path:
        assert hasattr(found, part), f"README names {dotted}, which jungckit.{module} does not define"
        found = getattr(found, part)
