"""Smoke tests for the demo scripts and the public export lists: each demo
prints exactly its recorded output, and every exported name resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import orbit_entropy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules(orbit_entropy.__path__))


def test_every_demo_has_a_golden_file():
    assert DEMOS == sorted(p.stem[len("demo_"):] for p in GOLDEN.glob("demo_*.txt"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"demo_{name}.txt").read_text()


@pytest.mark.parametrize("module", ("", *MODULES))
def test_exported_names_resolve(module):
    mod = importlib.import_module(f"orbit_entropy.{module}" if module else "orbit_entropy")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{mod.__name__}.{name}"

