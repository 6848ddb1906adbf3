"""Tests of the benchmark's own machinery (run: python -m pytest benchmarks/tests)."""

import math

import numpy as np
import pytest

import run
import tracing
import workloads
from tracing import Recorder, Span, self_times

PROGRAM = run.load_program()


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    spans = [
        Span("root", "bench", 0.0, 10.0, -1),
        Span("a", "x", 1.0, 4.0, 0),
        Span("a1", "y", 2.0, 3.0, 1),
        Span("b", "x", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_recorder_parents_and_self_times():
    rec = Recorder(clock=_fake_clock([0.0, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 6.0]))
    with rec.span("root", "bench"):
        with rec.span("child", "x"):
            with rec.span("grandchild", "y"):
                pass
        with rec.span("second", "x"):
            pass
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]
    assert self_times(rec.spans) == pytest.approx([3.5, 1.5, 0.5, 0.5])


def test_layer_self_times_sum_to_traced_wall():
    rec = Recorder(clock=_fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0]))
    with rec.span("bench.pass", "bench"):
        with rec.span("coefficients.mc_coefficient_Cnj", "coefficients"):
            with rec.span("subordinator.increments_batch", "subordinator"):
                pass
            with rec.span("potential.fourier", "potential"):
                pass
        with rec.span("trace_oracle.trace_difference_curve", "trace_oracle"):
            pass
    m = tracing.layer_metrics(rec.spans, 1, {})
    assert m["coefficients.self_s"] == pytest.approx(3.0)   # [1,6] minus [2,3] and [4,5]
    assert m["subordinator.self_s"] == pytest.approx(1.0)
    assert m["potential.self_s"] == pytest.approx(1.0)
    assert m["trace_oracle.solve_s"] == pytest.approx(1.0)
    assert m["bench.self_s"] == pytest.approx(4.0)
    layers = [k for k in m if k.endswith(".self_s")]
    assert sum(m[k] for k in layers) == pytest.approx(10.0)
    assert m["bench.layer_self_sum_s"] == pytest.approx(10.0)
    assert m["coefficients.self_frac"] == pytest.approx(0.3)
    shares = [k for k in m if k.endswith(".self_frac")]
    assert sum(m[k] for k in shares) + m["bench.self_s"] / 10.0 == pytest.approx(1.0)


def _wrapped_state():
    p = PROGRAM
    state = {}
    for owner, attr, *_ in tracing._module_targets(p):
        state[(id(owner), attr)] = vars(owner)[attr]
    state[(id(p.subordinator), "sample_relativistic")] = p.subordinator.sample_relativistic
    state["experiments"] = dict(p.cli.EXPERIMENTS)
    return state


def test_wrappers_restored_even_when_a_task_raises():
    before = _wrapped_state()
    rec = Recorder()
    with pytest.raises(RuntimeError, match="task failed"):
        with tracing.traced(rec, PROGRAM):
            assert PROGRAM.subordinator.sample_stable is not before[
                (id(PROGRAM.subordinator), "sample_stable")]
            PROGRAM.subordinator.sample_stable(1.5, 1.0, np.random.default_rng(0), size=10)
            raise RuntimeError("task failed")
    after = _wrapped_state()
    assert after.keys() == before.keys()
    for key, value in before.items():
        if key == "experiments":
            assert after[key].keys() == value.keys()
            assert all(after[key][k] is value[k] for k in value)
        else:
            assert after[key] is value, key
    assert [s.attrs.get("draws") for s in rec.spans] == [10]


def test_wrapped_library_raise_is_recorded_and_restored():
    before = _wrapped_state()
    rec = Recorder()
    with tracing.traced(rec, PROGRAM):
        with pytest.raises(RuntimeError):
            PROGRAM.heat_kernel.kernel_value(3, 0.8, 0.1, 5.0)
    assert rec.spans[-1].name == "heat_kernel.kernel_value"
    assert rec.spans[-1].attrs["raised"] == "RuntimeError"
    assert tracing.layer_metrics(rec.spans, 1, {})["heat_kernel.failures"] == 1
    assert _wrapped_state()[(id(PROGRAM.heat_kernel), "kernel_value")] is before[
        (id(PROGRAM.heat_kernel), "kernel_value")]


def test_relativistic_wrapper_returns_what_the_caller_asked_for():
    sub = PROGRAM.subordinator
    plain = sub.sample_relativistic(1.0, 1.0, 0.5, np.random.default_rng(4), size=100)
    stats = sub.sample_relativistic(1.0, 1.0, 0.5, np.random.default_rng(4), size=100,
                                    return_stats=True)
    rec = Recorder()
    with tracing.traced(rec, PROGRAM):
        got = sub.sample_relativistic(1.0, 1.0, 0.5, np.random.default_rng(4), size=100)
        got_stats = sub.sample_relativistic(1.0, 1.0, 0.5, np.random.default_rng(4), size=100,
                                            return_stats=True)
    assert np.array_equal(got, plain)
    assert np.array_equal(got_stats[0], stats[0]) and got_stats[1:] == stats[1:]
    m = tracing.layer_metrics(rec.spans, 1, {})
    assert m["subordinator.accept_ratio"] == pytest.approx(stats[2] / stats[1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_task_list_is_a_pure_function_of_the_seed(name, tmp_path):
    a = workloads.WORKLOADS[name](PROGRAM, str(tmp_path))
    b = workloads.WORKLOADS[name](PROGRAM, str(tmp_path))
    for seed in (0, 1, 12345):
        for i in range(3):
            assert a.tasks(seed, i) == b.tasks(seed, i)
            assert a.tasks(seed, i) == a.tasks(seed, i)
    assert a.tasks(1, 0) != a.tasks(2, 0)
    assert len({t.label for t in a.tasks(1, 0)}) == len(a.tasks(1, 0))


def test_passes_depend_only_on_run_length(tmp_path):
    for cls in workloads.WORKLOADS.values():
        wl = cls(PROGRAM, str(tmp_path))
        assert wl.passes(30) == wl.passes(30) >= 1
        assert wl.passes(0.1) == 1


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = run.tail(list(range(1, 21)))
    assert (value, pct, n) == (10, 50.0, 20)
    assert sum(1 for x in range(1, 21) if x > value) == 10
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 2)


@pytest.mark.parametrize("d", [1, 2])
def test_fourier_kernel_matches_closed_forms(d):
    for t in (0.1, 0.5):
        for r in (0.0, 0.5, 2.0):
            gauss = (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-r * r / (4.0 * t))
            assert workloads.fourier_kernel(d, 2.0, t, r) == pytest.approx(gauss, rel=1e-11)
            if d == 1:
                cauchy = t / (math.pi * (t * t + r * r))
                assert workloads.fourier_kernel(1, 1.0, t, r) == pytest.approx(cauchy, rel=1e-11)


def test_only_the_documented_failure_is_known():
    detail = ("exit 4: run aborted: kernel quadrature did not converge: value=1.2e-03, "
              "err=1.8e-12, at-zero bound 3.1e+00")
    assert workloads.is_known_failure("kernel d=3", detail)
    assert not workloads.is_known_failure("kernel d=3", "exit 1: Traceback ...")
    assert not workloads.is_known_failure("kernel d=3", "exit 4: run aborted: t must be > 0")
    assert not workloads.is_known_failure("kernel d=2", detail)


def test_spectral_gates_pass_at_the_worst_corner_of_the_well_range(tmp_path):
    # the deepest, narrowest well of the seeded range has the largest grid gate
    wl = workloads.SpectralOracle(PROGRAM, str(tmp_path))
    corner = {"c": -(1.0 + workloads.WELL_SPREAD), "s": 1.0 - workloads.WELL_SPREAD}
    tasks = [workloads.Task(t.kind, t.label, dict(t.params, **corner)) for t in wl.tasks(0, 0)]
    res = wl.run_pass(tasks, run.no_span)
    assert all(c.ok for c in res.calls)
    assert [label for label, ok, _ in res.checks if not ok] == []
    assert len(res.checks) == 10


def test_median_of_call_medians_weights_each_call_once():
    Call = workloads.Call
    calls = [Call("a", 1.0, True), Call("a", 3.0, True), Call("a", 100.0, True),
             Call("b", 5.0, True), Call("c", 7.0, True)]
    assert run.median_of_call_medians(calls) == 5.0


def test_unique_eigensolves_are_counted_per_pass():
    rec = Recorder()
    for _ in range(2):
        with rec.span("bench.pass", "bench"):
            for key in ("a", "a", "b"):
                with rec.span("trace_oracle.build_hamiltonian", "trace_oracle") as s:
                    s.attrs["key"] = key
    m = tracing.layer_metrics(rec.spans, 2, {})
    assert m["trace_oracle.eigensolves"] == 3
    assert m["trace_oracle.eigensolves_unique"] == 2
