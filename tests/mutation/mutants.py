"""Planted faults of the package, each with the test that must catch it.

Run by hand from anywhere (not collected by pytest: the file is not test_*):

    python tests/mutation/mutants.py           # every mutant
    python tests/mutation/mutants.py 0 7       # the mutants at these indices

The tree is copied once to a temporary directory and each mutant's tests
first run there unmutated, where they must pass.  Then one mutant at a time
is applied to the copy, its test runs against the copy, the file is
restored, and one line says whether the test killed the mutant (failed on
it) or the mutant survived.  The checkout is only read.  The exit status is
0 when every mutant is killed.

A change that adds a check adds here the mutant it kills.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str   # occurs exactly once in the file
    new: str
    test: str  # pytest node id that must fail on the mutant


MUTANTS = [
    Mutant("relativistic tilt m^(1/alpha)", "src/fracheat/subordinator.py",
           "tilt = m ** (2.0 / alpha)", "tilt = m ** (1.0 / alpha)",
           "tests/test_subordinator.py::test_relativistic_laplace_law_off_unit_mass"),
    Mutant("mixed scale a^(1/beta)", "src/fracheat/subordinator.py",
           "a ** (2.0 / beta) * s_b", "a ** (1.0 / beta) * s_b",
           "tests/test_subordinator.py::test_mixed_laplace_law_off_unit_weight"),
    Mutant("periodization threshold 1e-6", "src/fracheat/trace_oracle.py",
           "outside > 1e-10 * abs(integral) and outside > 1e-10 * V.l1_norm",
           "outside > 1e-6 * abs(integral) and outside > 1e-6 * V.l1_norm",
           "tests/test_trace_oracle.py::test_periodization_warning_threshold"),
    Mutant("periodization bound without its factor d", "src/fracheat/trace_oracle.py",
           "min(1.0, grid.d * worst)", "min(1.0, worst)",
           "tests/test_trace_oracle.py::test_periodization_warning_threshold"),
    Mutant("kernel_value without its out <= p_t(0) guard", "src/fracheat/heat_kernel.py",
           "-1e-12 <= out <= top * (1 + 1e-9)", "-1e-12 <= out",
           "tests/test_heat_kernel.py::test_kernel_value_refuses_a_value_above_the_origin"),
    Mutant("_MERGE_TOL = 0.2", "src/fracheat/trace_oracle.py",
           "_MERGE_TOL = 0.05", "_MERGE_TOL = 0.2",
           "tests/test_trace_oracle.py::test_fit_keeps_exponents_a_tenth_apart"),
    Mutant("domain_convergence doubling the modes", "src/fracheat/trace_oracle.py",
           "grid.doubled_domain(), t_grid)", "grid.doubled_modes(), t_grid)",
           "tests/test_trace_oracle.py::test_domain_gate_sees_a_box_too_small_for_v"),
    Mutant("_mc_estimate stderr doubled", "src/fracheat/coefficients.py",
           "float(scale * means.std(ddof=1)", "float(2.0 * scale * means.std(ddof=1)",
           "tests/test_coefficients.py::test_rqmc_stderr_is_neither_too_wide_nor_too_narrow"),
    Mutant("_mc_estimate stderr halved", "src/fracheat/coefficients.py",
           "float(scale * means.std(ddof=1)", "float(0.5 * scale * means.std(ddof=1)",
           "tests/test_coefficients.py::test_rqmc_stderr_is_neither_too_wide_nor_too_narrow"),
    Mutant("mc_constant_K without its infinite-variance refusal",
           "src/fracheat/coefficients.py",
           "    if _k_variance_infinite(which, d, alpha):", "    if False:",
           "tests/test_coefficients.py::test_mc_K_refuses_infinite_variance"),
    Mutant("infinite-variance bound alpha < 2n - d", "src/fracheat/coefficients.py",
           "return alpha <= 2 *", "return alpha < 2 *",
           "tests/test_coefficients.py::"
           "test_mc_K_refuses_exactly_where_the_second_moment_diverges"),
    Mutant("K2 at d <= 2 refused as well", "src/fracheat/coefficients.py",
           'return which == "K2" and d <= 2', "return False",
           "tests/test_coefficients.py::"
           "test_k2_at_d_le_2_is_sampled_despite_its_infinite_variance"),
    Mutant("_increment_moment without its Gamma overflow refusal",
           "src/fracheat/coefficients.py",
           "except OverflowError:", "except ZeroDivisionError:",
           "tests/test_coefficients.py::test_increment_moment_refuses_a_gamma_overflow"),
    Mutant("a failing criterion without its failing messages", "src/fracheat/acceptance.py",
           'detail = detail + " || " + failed if detail else failed', "pass",
           "tests/test_acceptance.py::test_criterion_reports_its_failing_checks"),
]


def _pytest(tree, tests):
    # the copy's own package and pytest settings, no cache written
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True, text=True)


def main(argv) -> int:
    picks = [MUTANTS[int(a)] for a in argv] if argv else MUTANTS
    counts = {"killed": 0, "survived": 0}
    with tempfile.TemporaryDirectory(prefix="fracheat-mutants-") as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info", "runs", ".bench_out"))
        clean = _pytest(tree, sorted({m.test for m in picks}))
        if clean.returncode != 0:
            print(clean.stdout[-3000:], clean.stderr[-3000:], sep="\n")
            print("the tests fail on the unmutated tree; no mutant was run")
            return 2
        for mutant in picks:
            target = tree / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                print(f"{mutant.name}: its text occurs {text.count(mutant.old)} times "
                      f"in {mutant.path}, not once")
                return 2
            target.write_text(text.replace(mutant.old, mutant.new))
            try:
                run = _pytest(tree, [mutant.test])
            finally:
                target.write_text(text)
            if run.returncode not in (0, 1):
                print(run.stdout[-3000:], run.stderr[-3000:], sep="\n")
                print(f"{mutant.name}: pytest exit {run.returncode}, neither pass nor fail")
                return 2
            outcome = "killed" if run.returncode == 1 else "survived"
            counts[outcome] += 1
            print(f"{outcome:8s} {mutant.name}  [{mutant.test}]", flush=True)
    print(f"{counts['killed']} killed, {counts['survived']} survived of {len(picks)}")
    return 0 if counts["survived"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
