"""Counts of the package's design that a change has to move on purpose."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fracheat"

#: function parameters with a default in src/fracheat
SETTABLE_PARAMETERS = 18


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
