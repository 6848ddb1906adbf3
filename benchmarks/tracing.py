"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the calls into each layer of the program by
replacing public functions at the name the caller resolves (a module
attribute, a class attribute or a ``cli.EXPERIMENTS`` entry).  Nothing in
``src/`` is edited; :func:`traced` puts every original back in ``finally``.

A span's self time is its duration minus the part of it covered by its
child spans, so the self times of all spans under one root add up to the
root's duration.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

# layer of each cli.EXPERIMENTS adapter: the _exp_* functions parse their
# parameters, call into the library and build the payload; their own time is
# the "experiments" layer, separate from cli.main's argparse/cache/write time
EXPERIMENT_LAYER = "experiments"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = math.nan
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; a span's parent is the innermost open span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, layer: str) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(name, layer, self.clock(), parent=parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        s = self.begin(name, layer)
        try:
            yield s
        finally:
            self.finish(s)

    def wrap(self, fn, name: str, layer: str, on_result=None):
        """``fn`` inside a span; ``on_result(span, args, kwargs, result)`` sets attrs."""

        def wrapped(*args, **kwargs):
            s = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                s.attrs["raised"] = type(exc).__name__
                raise
            finally:
                self.finish(s)
            if on_result is not None:
                on_result(s, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


# ---------------------------------------------------------------------------
# what gets wrapped


def _draws_stable(span, args, kwargs, result):
    alpha = args[0] if args else kwargs["alpha"]
    span.attrs["draws"] = 0 if alpha == 2.0 else int(np.size(result))


def _draws_increments(span, args, kwargs, result):
    alpha = args[0] if args else kwargs["alpha"]
    heads, incs, _ = result
    span.attrs["draws"] = 0 if alpha == 2.0 else int(np.size(heads) + np.size(incs))


def _wrap_relativistic(rec: Recorder, fn):
    # always ask for the proposal/acceptance counts and hand the caller the
    # form it asked for; the draws themselves are counted by the nested
    # sample_stable spans
    def with_stats(*args, return_stats=False, **kwargs):
        out, proposals, accepted = fn(*args, return_stats=True, **kwargs)
        span = rec.spans[rec._open[-1]]
        span.attrs["proposals"] = proposals
        span.attrs["accepted"] = accepted
        return (out, proposals, accepted) if return_stats else out

    return rec.wrap(with_stats, "subordinator.sample_relativistic", "subordinator")


def _points_in(span, args, kwargs, result):
    self, x = args[0], args[1]
    span.attrs["points"] = int(np.size(x)) // self.d


def _points_out(span, args, kwargs, result):
    span.attrs["points"] = int(np.size(result)) // args[0].d


def _estimate(span, args, kwargs, result):
    span.attrs["estimates"] = 1
    span.attrs["samples"] = int(result.n_samples)


def _hamiltonian(span, args, kwargs, result):
    grid, alpha = args[0], args[1]
    V = args[2] if len(args) > 2 else kwargs.get("V")
    key = (grid.d, grid.L, grid.N, float(alpha))
    if V is not None:
        key += (tuple(V.c), tuple(V.s), tuple(np.ravel(V.x0)))
    span.attrs["key"] = repr(key)
    span.attrs["n"] = int(result.shape[0])
    span.attrs["bytes"] = int(result.nbytes)


def _curve(span, args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    span.attrs["n"] = int(grid.size)
    gate = result.meta.get("grid_doubling_max_rel_change")
    if gate is not None:
        span.attrs["grid_gate"] = float(gate)


def _domain_gate(span, args, kwargs, result):
    span.attrs["domain_gate"] = float(result)


def _fit(span, args, kwargs, result):
    span.attrs["fit_cond"] = float(result.condition_number)


def _cli_main(span, args, kwargs, result):
    span.attrs["rc"] = int(result)


def _criteria(span, args, kwargs, result):
    span.attrs["criteria"] = len(result)


def _module_targets(program):
    """(owner, attribute, span name, layer, on_result) for every wrapped function."""
    sub, coeff, hk = program.subordinator, program.coefficients, program.heat_kernel
    oracle, cli = program.trace_oracle, program.cli
    targets = [
        (coeff, "increments_batch", "subordinator.increments_batch", "subordinator",
         _draws_increments),
        (hk, "sample_stable", "subordinator.sample_stable", "subordinator", _draws_stable),
        (hk, "sample_mixed", "subordinator.sample_mixed", "subordinator", None),
        (sub, "sample_stable", "subordinator.sample_stable", "subordinator", _draws_stable),
        (sub, "sample_increments", "subordinator.sample_increments", "subordinator", None),
        (sub, "sample_mixed", "subordinator.sample_mixed", "subordinator", None),
        (coeff, "mc_coefficient_Cnj", "coefficients.mc_coefficient_Cnj", "coefficients",
         _estimate),
        (coeff, "mc_constant_K", "coefficients.mc_constant_K", "coefficients", _estimate),
        (coeff, "deterministic_constant_K", "coefficients.deterministic_constant_K",
         "coefficients", None),
        (coeff, "constant_L", "coefficients.constant_L", "coefficients", None),
        (coeff, "constant_M", "coefficients.constant_M", "coefficients", None),
        (coeff, "constant_N", "coefficients.constant_N", "coefficients", None),
        (hk, "kernel_value", "heat_kernel.kernel_value", "heat_kernel", None),
        (hk, "relativistic_kernel_at_zero", "heat_kernel.relativistic_kernel_at_zero",
         "heat_kernel", None),
        (hk, "mixed_kernel_at_zero", "heat_kernel.mixed_kernel_at_zero", "heat_kernel", None),
        (oracle, "build_hamiltonian", "trace_oracle.build_hamiltonian", "trace_oracle",
         _hamiltonian),
        (oracle, "trace_difference_curve", "trace_oracle.trace_difference_curve",
         "trace_oracle", _curve),
        (oracle, "extrapolated_trace_curve", "trace_oracle.extrapolated_trace_curve",
         "trace_oracle", _curve),
        (oracle, "domain_convergence", "trace_oracle.domain_convergence", "trace_oracle",
         _domain_gate),
        (oracle, "fit_expansion", "trace_oracle.fit_expansion", "trace_oracle", _fit),
        (cli, "main", "cli.main", "cli", _cli_main),
        (cli, "acceptance_suite", "acceptance.acceptance_suite", "acceptance", _criteria),
    ]
    for cls in (program.potential.GaussianMixturePotential, program.potential.GaussianPotential):
        for attr, value in vars(cls).items():
            if attr.startswith("_") or not callable(value):
                continue
            hook = {"fourier": _points_in, "proposal_density": _points_in,
                    "proposal_sample": _points_out}.get(attr)
            targets.append((cls, attr, f"potential.{attr}", "potential", hook))
    return targets


@contextlib.contextmanager
def traced(rec: Recorder, program):
    """Route every wrapped call of ``program`` through ``rec`` for the duration.

    ``program`` is a namespace with the fracheat submodules as attributes.
    Originals are restored in ``finally``, also when the body raises.
    """
    restore = []
    experiments = program.cli.EXPERIMENTS
    saved_experiments = dict(experiments)
    try:
        for owner, attr, name, layer, hook in _module_targets(program):
            original = vars(owner)[attr]
            restore.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(original, name, layer, hook))
        original = vars(program.subordinator)["sample_relativistic"]
        restore.append((program.subordinator, "sample_relativistic", original))
        program.subordinator.sample_relativistic = _wrap_relativistic(rec, original)
        for key, fn in saved_experiments.items():
            experiments[key] = rec.wrap(fn, f"experiments.{key}", EXPERIMENT_LAYER)
        yield rec
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
        experiments.clear()
        experiments.update(saved_experiments)


# ---------------------------------------------------------------------------
# per-layer metrics


SOLVE_DIMS = (256, 512, 1024, 2048, 2304)


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], n_passes: int, counters: dict) -> dict:
    """Per-layer counts and self times, per traced pass, from recorded spans.

    Extensive figures (counts, seconds, bytes, flops) are averaged over the
    ``n_passes`` traced passes; rates and ratios are formed from the sums;
    diagnostics are maxima.  ``counters`` holds the figures the benchmark
    counts itself: ``cli.replays`` and ``cli.bytes_written``, summed over the
    traced passes.
    """
    selfs = self_times(spans)
    items = list(zip(spans, selfs))
    by_layer: dict[str, float] = {}
    for s, st in items:
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + st

    def pick(prefix):
        return [(s, st) for s, st in items if s.name.startswith(prefix)]

    def attr_sum(chosen, key):
        return sum(s.attrs.get(key, 0) for s, _ in chosen)

    def attr_max(key):
        vals = [s.attrs[key] for s in spans if key in s.attrs]
        return max(vals) if vals else 0.0

    def self_s(layer):
        return by_layer.get(layer, 0.0)

    per = 1.0 / n_passes
    m = {}

    sub_items = pick("subordinator.")
    draws = attr_sum(sub_items, "draws")
    rel = pick("subordinator.sample_relativistic")
    m["subordinator.calls"] = len(sub_items) * per
    m["subordinator.draws"] = draws * per
    m["subordinator.self_s"] = self_s("subordinator") * per
    m["subordinator.draws_per_s"] = _rate(draws, self_s("subordinator"))
    m["subordinator.accept_ratio"] = _rate(attr_sum(rel, "accepted"), attr_sum(rel, "proposals"))

    pot_items = pick("potential.")
    points = attr_sum(pot_items, "points")
    m["potential.calls"] = len(pot_items) * per
    m["potential.points"] = points * per
    m["potential.self_s"] = self_s("potential") * per
    m["potential.points_per_s"] = _rate(points, self_s("potential"))

    est = pick("coefficients.mc_")
    samples = attr_sum(est, "samples")
    m["coefficients.estimates"] = attr_sum(est, "estimates") * per
    m["coefficients.samples"] = samples * per
    m["coefficients.self_s"] = self_s("coefficients") * per
    m["coefficients.samples_per_s"] = _rate(samples, self_s("coefficients"))

    hk_items = pick("heat_kernel.")
    m["heat_kernel.calls"] = len(hk_items) * per
    m["heat_kernel.self_s"] = self_s("heat_kernel") * per
    m["heat_kernel.failures"] = sum(1 for s, _ in hk_items if "raised" in s.attrs) * per

    builds = pick("trace_oracle.build_hamiltonian")
    curves = pick("trace_oracle.trace_difference_curve")
    solve_s = sum(st for _, st in curves)
    gflop = sum(4.0 * s.attrs["n"] ** 3 / 3.0 for s, _ in builds if "n" in s.attrs) / 1e9
    m["trace_oracle.eigensolves"] = len(builds) * per
    # distinct (grid, alpha, V) keys within each traced pass
    keys_by_pass: dict = {}
    for i, s in enumerate(spans):
        if s.name == "trace_oracle.build_hamiltonian":
            root = i
            while spans[root].parent >= 0:
                root = spans[root].parent
            keys_by_pass.setdefault(root, set()).add(s.attrs.get("key"))
    m["trace_oracle.eigensolves_unique"] = sum(map(len, keys_by_pass.values())) * per
    m["trace_oracle.self_s"] = self_s("trace_oracle") * per
    m["trace_oracle.build_s"] = sum(st for _, st in builds) * per
    m["trace_oracle.build_bytes"] = attr_sum(builds, "bytes") * per
    m["trace_oracle.solve_s"] = solve_s * per
    for n in SOLVE_DIMS:
        m[f"trace_oracle.solve_s.n{n}"] = sum(
            st for s, st in curves if s.attrs.get("n") == n) * per
    m["trace_oracle.eigh_gflop"] = gflop * per
    m["trace_oracle.eigh_gflops"] = _rate(gflop, solve_s)
    m["trace_oracle.fit_s"] = sum(st for _, st in pick("trace_oracle.fit_expansion")) * per
    m["trace_oracle.fit_cond_max"] = attr_max("fit_cond")
    m["trace_oracle.grid_gate_max"] = attr_max("grid_gate")
    m["trace_oracle.domain_gate_max"] = attr_max("domain_gate")

    # a cli.main call is a cache hit when it returned 0 without entering an
    # EXPERIMENTS adapter
    computed = {s.parent for s in spans if s.layer == EXPERIMENT_LAYER}
    mains = [(i, s) for i, s in enumerate(spans) if s.name == "cli.main"]
    hits = sum(1 for i, s in mains if s.attrs.get("rc") == 0 and i not in computed)
    m["cli.runs"] = len(mains) * per
    m["cli.cache_hits"] = hits * per
    m["cli.hit_ratio"] = _rate(hits, counters.get("cli.replays", 0))
    m["cli.self_s"] = self_s("cli") * per
    m["cli.bytes_written"] = counters.get("cli.bytes_written", 0) * per
    m["cli.failed_runs"] = sum(1 for _, s in mains if s.attrs.get("rc", 1) != 0) * per
    m["experiments.self_s"] = self_s(EXPERIMENT_LAYER) * per

    m["acceptance.criteria_run"] = attr_sum(pick("acceptance."), "criteria") * per
    m["acceptance.self_s"] = self_s("acceptance") * per

    m["bench.self_s"] = self_s("bench") * per
    m["bench.layer_self_sum_s"] = sum(selfs) * per
    # layer times also as shares of the traced pass: a layer a workload never
    # calls has a time of exactly 0 on every run, a share is not a time
    for key in [k for k in m if _is_layer_time(k)]:
        m[key.replace("_s", "_frac", 1)] = _rate(m[key], m["bench.layer_self_sum_s"])
    return m


def _is_layer_time(key: str) -> bool:
    layer, name = key.split(".", 1)
    return layer != "bench" and (name == "self_s" or name.startswith(("build_s", "solve_s",
                                                                        "fit_s")))
