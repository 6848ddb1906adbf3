"""Counts of the package's design that a change has to move on purpose."""

import ast
import os
import pathlib
import subprocess
import sys

from fracheat import cli
from fracheat import coefficients as coeff

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fracheat"

#: function parameters with a default in src/fracheat
SETTABLE_PARAMETERS = 8
#: names in the __all__ lists of the package's modules
EXPORTED_NAMES = 47


def settable_parameters() -> int:
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def test_settable_parameter_count_is_pinned():
    # a new default is a new setting to document, test and keep; raise the
    # pin only together with the option that needs it
    assert settable_parameters() == SETTABLE_PARAMETERS


def exported_names() -> int:
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                count += len(node.value.elts)
    return count


def test_exported_name_count_is_pinned():
    # a new export is public API to document, test and keep; raise the pin
    # only together with the name that needs it
    assert exported_names() == EXPORTED_NAMES


def test_cli_sample_count_defaults_are_whole_sobol_nets():
    # a default of SCRAMBLES * 2^k points gives each randomized quasi-Monte
    # Carlo scramble a whole Sobol net; 10**6 gave each 31,250 points
    defaults = {p.default for _, params in cli.PARAMS.values() for p in params
                if p.help.startswith("Monte Carlo samples")}
    assert defaults
    for n in defaults:
        per_scramble, rest = divmod(n, coeff.SCRAMBLES)
        assert rest == 0 and per_scramble & (per_scramble - 1) == 0, n


def test_import_starts_no_thread_and_idle_workers_let_the_process_exit():
    # the scramble pool is made on first use, not at import; a process whose
    # estimate left its worker threads idle still exits at once
    code = ("import threading\n"
            "before = threading.active_count()\n"
            "import numpy as np, fracheat\n"
            "from fracheat import coefficients\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
            "coefficients._THREADS = 3\n"
            "coefficients.constant_L(1, 1.7, 4096, np.random.default_rng(0))\n"
            "assert threading.active_count() > before, threading.enumerate()\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_a_forked_child_makes_its_own_scramble_pool():
    # a child forked after an estimate has none of its parent's workers; an
    # estimate of its own must not wait on them
    code = ("import os, signal, numpy as np\n"
            "from fracheat import coefficients\n"
            "coefficients._THREADS = 3\n"
            "want = coefficients.constant_L(1, 1.7, 4096, np.random.default_rng(0))\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)  # a child that waits forever ends anyway\n"
            "    got = coefficients.constant_L(1, 1.7, 4096, np.random.default_rng(0))\n"
            "    os._exit(0 if got == want else 3)\n"
            "assert os.waitpid(pid, 0)[1] == 0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
