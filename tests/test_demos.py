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



# the root's public surface: the names of __all__, and the names a bare
# `import orbit_entropy` binds on the package (its submodules included)
ROOT_ALL = {
    "CoarseMap", "Diagram", "FAMILIES", "FlagType", "IdentityReport",
    "InexactDivisionError", "IntPolynomial", "ProbVec", "chain_rule_check",
    "coarsening_cardinality_check", "coarsening_poincare_check", "conditional",
    "exact_div", "flag_factors", "gl_order", "group_order", "ig_count",
    "isotropic_flag_count", "multinomial", "normalized_log_orbit",
    "normalized_logq_quotient", "orbit_count", "orbit_poincare",
    "parabolic_for_distribution", "poincare_closed", "poincare_parabolic",
    "poincare_quotient", "pushforward", "q_factorial", "q_multinomial",
    "reflective", "reflective_chain_residual", "remove_nodes", "shannon",
    "shannon_chain_residual", "sp_order", "sp_quotient_closed",
    "surviving_components", "symplectic_chain_identity_check",
    "symplectic_chain_residual", "symplectic_entropy", "tsallis2",
    "unipotent_radical_order",
}
ROOT_SUBMODULES = {"dynkin", "entropy", "exact", "reflection", "report", "symplectic", "verify"}


def test_root_public_surface_is_pinned():
    probe = (
        "import orbit_entropy as o\n"
        "print(sorted(o.__all__))\n"
        "print(sorted(n for n in vars(o) if not n.startswith('_')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env
    )
    assert (done.returncode, done.stderr) == (0, "")
    exported, public = done.stdout.splitlines()
    assert exported == repr(sorted(ROOT_ALL))
    assert public == repr(sorted(ROOT_ALL | ROOT_SUBMODULES))
    assert len(orbit_entropy.__all__) == len(ROOT_ALL)
