"""Counts of the package's design that a change has to move on purpose."""

import ast
import pathlib

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
