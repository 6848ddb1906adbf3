"""Every exported name resolves, and every function the benchmark wraps or calls exists."""

import importlib
import importlib.util
import inspect
import pathlib
import sys
import types

import pytest

MODULES = ("subordinator", "heat_kernel", "potential", "coefficients", "trace_oracle",
           "acceptance", "cli")
TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"fracheat.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_benchmark_wrap_targets_exist(monkeypatch):
    # the benchmark looks each target up with vars(owner)[attr]; a deletion
    # or rename that would break its traced runs fails here
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    program = types.SimpleNamespace(
        **{m: importlib.import_module(f"fracheat.{m}") for m in MODULES})
    targets = tracing._module_targets(program)
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert not missing


# keyword arguments the benchmark and the acceptance criteria pass by name
KEYWORDS = [
    ("trace_oracle", "TraceCurve", ("normalization", "meta")),
    ("subordinator", "sample_relativistic", ("size", "return_stats")),
    ("trace_oracle", "fit_expansion", ("anchors",)),
    ("subordinator", "upper_threshold", ("n_samples",)),
]


@pytest.mark.parametrize("module,name,keywords", KEYWORDS, ids=[k[1] for k in KEYWORDS])
def test_benchmark_keywords_bind(module, name, keywords):
    fn = getattr(importlib.import_module(f"fracheat.{module}"), name)
    inspect.signature(fn).bind_partial(**dict.fromkeys(keywords))
