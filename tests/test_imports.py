"""Importing the CLI must stay cheap: it may load lcpbox and standard
library modules on top of numpy, nothing else (a stray scipy or other
heavy import would show up in every command's start-up time)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _top_level_modules(statement: str) -> set[str]:
    code = (f"{statement}\n"
            "import sys\n"
            "print('\\n'.join(sorted({m.split('.')[0] for m in sys.modules})))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_cli_imports_only_lcpbox_and_stdlib_beyond_numpy():
    added = (_top_level_modules("import lcpbox.cli")
             - _top_level_modules("import numpy"))
    assert "lcpbox" in added
    assert sorted(m for m in added
                  if m != "lcpbox" and m not in sys.stdlib_module_names) == []


def test_lp_systems_are_built_outside_the_strong_module():
    # The strong routes pass the box's bounds to the system builders of
    # lcpbox.pointclasses and lcpbox.lp; they write no LP rows themselves.
    import lcpbox.strong as strong
    assert [name for name in ("LinearSystem", "LE", "GE", "EQ")
            if hasattr(strong, name)] == []


def test_one_determinant_zero_rule():
    # Every determinant is classified by lcpbox.linalg.minor_sign and its
    # batched form; the pivoted determinant, its own threshold and the
    # pivot tolerance live nowhere else.
    import lcpbox
    import lcpbox.cli  # noqa: F401  (loads every module)
    import lcpbox.linalg as linalg
    assert [name for name in ("determinant", "det_sign", "_minor_threshold")
            if hasattr(linalg, name)] == []
    binders = sorted(name for name, module in sys.modules.items()
                     if (name == "lcpbox" or name.startswith("lcpbox."))
                     and hasattr(module, "PIVOT_TOL"))
    assert binders == ["lcpbox.linalg", "lcpbox.tolerances"]
    assert not hasattr(lcpbox, "determinant")


def test_no_power_iteration_or_tolerance_knobs():
    # The Perron root is one eigenvalue solve per strongly connected
    # component, and each tolerance is a constant of lcpbox.tolerances that
    # no caller overrides.
    import inspect

    import lcpbox
    import lcpbox.lcp as lcp
    import lcpbox.linalg as linalg
    import lcpbox.lp as lp
    import lcpbox.tolerances as tolerances
    assert not hasattr(lcpbox, "SpectralResult")
    assert not hasattr(linalg, "_perron_root_irreducible")
    assert [name for name in ("POWER_TOL", "POWER_MAX_ITER")
            if hasattr(tolerances, name)] == []
    functions = (linalg.spectral_radius_nonneg, linalg.is_positive_definite,
                 linalg.is_positive_semidefinite, linalg.inverse_nonnegative,
                 lp.feasible_positive_strict, lp.solve_feasibility,
                 lcp.enumerate_lcp_solutions, lcp.solve_lcp_enumerate)
    knobs = [(f.__name__, p) for f in functions
             for p in inspect.signature(f).parameters
             if p in ("tol", "max_iterations", "max_pivots")]
    assert knobs == []


def test_one_cap_and_one_fast_failure_rule():
    # One cap bounds every enumeration and nothing overrides it; a
    # fast-path failure without a witness of its own takes the general
    # route's inside strong._decide.
    import dataclasses
    import inspect

    import lcpbox.pointclasses as pc
    import lcpbox.strong as strong
    assert tuple(f.name for f in dataclasses.fields(strong.CheckConfig)) == (
        "rho_tol", "fast_paths", "cap")
    assert [name for name in ("_fast_failure_cert", "_unwitnessed", "with_all_caps")
            if hasattr(strong, name)] == []
    assert not hasattr(strong.CheckConfig, "with_all_caps")
    overrides = [name for name, f in inspect.getmembers(pc, inspect.isfunction)
                 if f.__module__ == pc.__name__
                 and "override_cap" in inspect.signature(f).parameters]
    assert overrides == []


def test_one_index_set_route():
    # The point deciders, the strong R0/R route and the falsifier screen
    # share pointclasses._index_witness, its 1x1 rule and R's closed form,
    # and one zero tolerance.
    import lcpbox.oracle as oracle
    import lcpbox.strong as strong
    assert [name for name in ("_index_witness", "_ztol")
            if hasattr(strong, name)] == []
    assert [name for name in ("_r_singletons", "_r_closed_form_maybe")
            if hasattr(oracle, name)] == []
