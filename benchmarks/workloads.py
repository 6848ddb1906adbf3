"""The benchmark's workloads: seeded task lists, their execution and checks.

A workload is a fixed list of tasks issued in a closed loop by one caller:
each task starts after the previous one returns.  The task list of a pass is
a pure function of the workload seed and the pass index; the library sees
only the inputs generated from it.  Each library call (each ``cli.main``
call on cli_turnaround) is one timed operation, and each correctness check
is one more operation; a call that raises or exits nonzero, or a check that
fails, is a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

# Monte Carlo budget per estimate on mc_estimators
MC_SAMPLES = 1 << 20
# replays of the whole config list after the cold runs, per cli pass
CLI_REPLAYS = 6
# relative half-width of the seeded draw of the well's depth and width
WELL_SPREAD = 0.02
# statistical checks are two-sided at this many standard errors
N_SIGMA = 4.0


@dataclass(frozen=True)
class Task:
    kind: str
    label: str
    params: dict = field(default_factory=dict)


@dataclass
class Call:
    """One timed library call (one cli.main call on cli_turnaround)."""

    label: str
    seconds: float
    ok: bool
    computed: bool = True
    detail: str = ""


@dataclass
class PassResult:
    wall_s: float = 0.0
    calls: list = field(default_factory=list)
    checks: list = field(default_factory=list)      # (label, ok, detail)
    estimates: list = field(default_factory=list)   # C_{n,j}: (label, value, stderr, seconds)
    rel_errs: list = field(default_factory=list)    # oracle coefficients vs exact
    counters: dict = field(default_factory=dict)


def _seeds(seed: int, pass_index: int, n: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence([seed, pass_index]).generate_state(n)]


def closed_form_L(d: int, alpha: float) -> float:
    """L_{d,alpha} = alpha^2 Gamma(2 + (d-2)/alpha) / (24 d Gamma(d/alpha))."""
    return alpha**2 * math.gamma(2.0 + (d - 2.0) / alpha) / (24.0 * d * math.gamma(d / alpha))


def radial_kernel_at_zero(d: int, t: float, phi) -> float:
    """(2 pi)^{-d} w_d int_0^inf r^{d-1} exp(-t phi(r^2)) dr by quadrature."""
    w_d = 2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0)
    val, _ = integrate.quad(lambda r: r ** (d - 1) * math.exp(-t * phi(r * r)),
                            0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    return (2.0 * math.pi) ** (-d) * w_d * val


def fourier_kernel(d: int, alpha: float, t: float, r: float) -> float:
    """p_t^{(alpha)}(x) at |x| = r for d in {1, 2}, by composite Gauss-Legendre.

    Integrates the radial Fourier inversion (1/pi) int cos(u r) e^{-t u^alpha} du
    (d=1) or (1/2pi) int J_0(u r) u e^{-t u^alpha} du (d=2) up to where the
    damping is below 1e-18, on panels graded toward u = 0, where e^{-t u^alpha}
    is not smooth.  A fixed rule, independent of the library's adaptive
    QUADPACK route.
    """
    u_max = (42.0 / t) ** (1.0 / alpha)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = u_max * np.linspace(0.0, 1.0, 2001) ** 3
    lo, hi = edges[:-1, None], edges[1:, None]
    u = (0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)).ravel()
    w = (0.5 * (hi - lo) * weights).ravel()
    damp = np.exp(-t * u**alpha)
    if d == 1:
        return float(np.sum(w * np.cos(u * r) * damp)) / math.pi
    if d == 2:
        return float(np.sum(w * special.j0(u * r) * u * damp)) / (2.0 * math.pi)
    raise ValueError(f"d={d} not supported")


def _z_check(label, value, stderr, want):
    z = (value - want) / stderr if stderr > 0 else math.inf
    return (label, abs(z) <= N_SIGMA, f"z={z:+.2f}")


class Workload:
    name = ""
    # wall seconds of one pass on the reference machine; a run of --seconds s
    # makes max(1, seconds // PASS_S) passes, so the pass count (and with it
    # every sample count) depends only on the run length
    PASS_S = 1.0

    def __init__(self, program, out_dir: str):
        self.p = program
        self.out_dir = out_dir
        self._targets: dict = {}

    def passes(self, seconds: float) -> int:
        return max(1, int(seconds // self.PASS_S))

    def tasks(self, seed: int, pass_index: int) -> list[Task]:
        raise NotImplementedError

    def run_task(self, task: Task, res: PassResult):
        """Issue the task's library calls through :meth:`timed`; return its output."""
        raise NotImplementedError

    def check_task(self, task: Task, out, res: PassResult, outputs: dict) -> None:
        """Append the task's correctness checks; ``outputs`` maps labels to outputs."""
        raise NotImplementedError

    def run_pass(self, tasks: list[Task], bench_span) -> PassResult:
        # the checks run after the timed task list, so wall_s holds only the
        # closed loop of library calls
        res = PassResult()
        outputs = {}
        t0 = time.perf_counter()
        for task in tasks:
            with bench_span(task.label):
                outputs[task.label] = self.run_task(task, res)
        res.wall_s = time.perf_counter() - t0
        with bench_span("checks"):
            for task in tasks:
                if outputs[task.label] is not None:
                    self.check_task(task, outputs[task.label], res, outputs)
        return res

    def target(self, key, compute):
        # exact values are computed once per run and reused by every pass
        if key not in self._targets:
            self._targets[key] = compute()
        return self._targets[key]

    def timed(self, res: PassResult, label: str, fn, *args, **kwargs):
        """Call ``fn`` as one timed operation; a raise fails it and returns None."""
        t = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
            res.calls.append(Call(label, time.perf_counter() - t, False,
                                  detail=f"{type(exc).__name__}: {exc}"))
            return None
        res.calls.append(Call(label, time.perf_counter() - t, True))
        return out


# ---------------------------------------------------------------------------
# mc_estimators


def _potential(program, spec):
    if spec[0] == "gaussian":
        return program.potential.GaussianPotential(spec[1], spec[2])
    _, amps, widths, centers = spec
    return program.potential.GaussianMixturePotential(list(amps), list(widths), list(centers))


GAUSS = ("gaussian", 1.0, 1.0)
MIXTURE = ("mixture", (1.0, -0.6), (1.0, 0.5), (0.4, -0.3))


class McEstimators(Workload):
    name = "mc_estimators"
    PASS_S = 10.0

    def tasks(self, seed, pass_index):
        specs = [("constant_L", f"L d=1 alpha={a}", {"d": 1, "alpha": a})
                 for a in (1.6, 1.7, 1.8, 1.9, 1.95)]
        specs += [
            ("constant_M", "M d=1 alpha=1.8", {"d": 1, "alpha": 1.8}),
            ("constant_N", "N d=2 alpha=1.5", {"d": 2, "alpha": 1.5}),
        ]
        cnj = [(GAUSS, 0, 2, 1.0), (GAUSS, 0, 3, 1.0), (GAUSS, 1, 2, 1.6), (GAUSS, 1, 2, 1.8),
               (GAUSS, 1, 3, 1.8), (MIXTURE, 0, 2, 1.8), (MIXTURE, 1, 2, 1.8)]
        specs += [("cnj", f"C_{nn}{j} {V[0]} alpha={a}",
                   {"V": V, "n": nn, "j": j, "d": 1, "alpha": a}) for V, nn, j, a in cnj]
        specs += [
            ("relativistic_kernel", "relativistic p_t(0)",
             {"d": 1, "alpha": 1.0, "m": 1.0, "t": 0.5}),
            ("mixed_kernel", "mixed p_t(0)",
             {"d": 2, "alpha": 0.8, "beta": 1.6, "a": 1.0, "t": 0.1}),
            ("relativistic_sample", "relativistic sample",
             {"alpha": 1.0, "m": 1.0, "t": 0.5}),
        ]
        seeds = _seeds(seed, pass_index, len(specs))
        return [Task(kind, label, dict(params, samples=MC_SAMPLES, rng=s))
                for (kind, label, params), s in zip(specs, seeds)]

    def run_task(self, task, res):
        p, prog = task.params, self.p
        coeff, hk = prog.coefficients, prog.heat_kernel
        rng = np.random.default_rng(p["rng"])
        n, label = p["samples"], task.label
        if task.kind in ("constant_L", "constant_M", "constant_N"):
            fn = getattr(coeff, task.kind)
            return self.timed(res, label, fn, p["d"], p["alpha"], n, rng)
        if task.kind == "cnj":
            V = _potential(prog, p["V"])
            est = self.timed(res, label, coeff.mc_coefficient_Cnj, V, p["n"], p["j"],
                             p["d"], p["alpha"], n, rng)
            if est is not None:
                res.estimates.append((label, est.value, est.stderr, res.calls[-1].seconds))
            return est
        if task.kind == "relativistic_kernel":
            return self.timed(res, label, hk.relativistic_kernel_at_zero, p["d"], p["alpha"],
                              p["m"], p["t"], n, rng)
        if task.kind == "mixed_kernel":
            return self.timed(res, label, hk.mixed_kernel_at_zero, p["d"], p["alpha"],
                              p["beta"], p["a"], p["t"], n, rng)
        if task.kind == "relativistic_sample":
            return self.timed(res, label, prog.subordinator.sample_relativistic, p["alpha"],
                              p["m"], p["t"], rng, size=n, return_stats=True)
        raise ValueError(f"unknown task kind {task.kind!r}")

    def check_task(self, task, out, res, outputs):
        p, label = task.params, task.label
        if task.kind == "constant_L":
            res.checks.append(_z_check(label + " vs closed form", out.value, out.stderr,
                                       closed_form_L(p["d"], p["alpha"])))
        elif task.kind == "constant_N":
            res.checks.append((label + " positive", out.value > 0 and out.stderr > 0,
                               f"value={out.value:.4e} stderr={out.stderr:.1e}"))
        elif task.kind == "cnj":
            self._check_cnj(task, out, res, outputs)
        elif task.kind == "relativistic_kernel":
            a, m = p["alpha"], p["m"]
            want = self.target(label, lambda: radial_kernel_at_zero(
                p["d"], p["t"], lambda lam: (lam + m ** (2.0 / a)) ** (a / 2.0) - m))
            res.checks.append(_z_check(label + " vs radial quadrature", out.value, out.stderr,
                                       want))
        elif task.kind == "mixed_kernel":
            a, b, w = p["alpha"], p["beta"], p["a"]
            want = self.target(label, lambda: radial_kernel_at_zero(
                p["d"], p["t"], lambda lam: lam ** (a / 2.0) + w * lam ** (b / 2.0)))
            res.checks.append(_z_check(label + " vs radial quadrature", out.value, out.stderr,
                                       want))
        elif task.kind == "relativistic_sample":
            self._check_relativistic(task, *out, res)

    def _check_cnj(self, task, est, res, outputs):
        p = task.params
        V = _potential(self.p, p["V"])
        n, j, a = p["n"], p["j"], p["alpha"]
        if n == 0:
            want = self.target((p["V"], "int", j),
                               lambda: V.integral_power(j) / math.factorial(j))
            res.checks.append(_z_check(task.label + " vs int V^j/j!", est.value, est.stderr,
                                       want))
        elif j == 2:
            energy = self.target((p["V"], "dirichlet"), V.dirichlet_energy)
            res.checks.append(_z_check(task.label + " vs L int|grad V|^2", est.value,
                                       est.stderr, closed_form_L(p["d"], a) * energy))
        else:
            label = task.label + " vs M int V|grad V|^2"
            m_est = outputs.get(f"M d=1 alpha={a}")
            if m_est is None:
                res.checks.append((label, False, "no M estimate"))
                return
            wg = self.target((p["V"], "weighted"), V.weighted_gradient)
            sigma = math.hypot(est.stderr, m_est.stderr * wg)
            diff = est.value - m_est.value * wg
            res.checks.append((label, abs(diff) <= N_SIGMA * sigma, f"z={diff / sigma:+.2f}"))

    def _check_relativistic(self, task, s, proposals, accepted, res):
        p = task.params
        spec = self.p.subordinator.SubordinatorSpec.relativistic(p["alpha"], p["m"])
        for lam in (0.5, 1.0, 2.0, 5.0):
            emp = np.exp(-lam * s)
            want = math.exp(-p["t"] * float(spec.laplace_exponent(lam)))
            res.checks.append(_z_check(f"relativistic Laplace law lam={lam}", float(emp.mean()),
                                       float(emp.std(ddof=1) / math.sqrt(s.size)), want))
        want = math.exp(-p["m"] * p["t"])
        sigma = math.sqrt(want * (1.0 - want) / proposals)
        res.checks.append(_z_check("relativistic acceptance rate", accepted / proposals,
                                   sigma, want))


# ---------------------------------------------------------------------------
# spectral_oracle

ANOMALOUS = 2.0 + 2.0 / 1.8


class SpectralOracle(Workload):
    name = "spectral_oracle"
    PASS_S = 10.0

    def tasks(self, seed, pass_index):
        # one well per seed; the passes of a run repeat the same task list
        u = np.random.default_rng(seed).uniform(-WELL_SPREAD, WELL_SPREAD, 2)
        well = {"c": -(1.0 + float(u[0])), "s": 1.0 + float(u[1])}
        return [
            Task("expansion", "criterion-08 fit alpha=1", dict(well, alpha=1.0)),
            Task("anomalous", "criterion-09 fit alpha=1", dict(well, alpha=1.0)),
            Task("anomalous", "criterion-09 fit alpha=1.8", dict(well, alpha=1.8)),
            Task("d2_slope", "d=2 slope N=32", dict(well, N=32)),
            Task("d2_slope", "d=2 slope N=48", dict(well, N=48)),
        ]

    def _exact(self, p):
        # coefficients of t, t^2, t^3: -int V, int V^2/2, -int V^3/6
        V = self.p.potential.GaussianPotential(p["c"], p["s"])
        return {e: (-1) ** e * V.integral_power(e) / math.factorial(e) for e in (1, 2, 3)}

    def run_task(self, task, res):
        p = task.params
        oracle, pot = self.p.trace_oracle, self.p.potential
        n0 = len(res.calls)
        if task.kind == "d2_slope":
            V = pot.GaussianPotential(p["c"], p["s"], center=(0.0, 0.0))
            grid = oracle.SpectralGrid(2, 15.0, p["N"])
            tg = np.geomspace(1e-3, 1e-2, 5)
            curve = self.timed(res, task.label, oracle.trace_difference_curve, V, 1.0, grid, tg)
            return curve and {"curve": curve, "tg": tg, "int_v": V.integral_power(1)}
        V = pot.GaussianPotential(p["c"], p["s"])
        grid = oracle.SpectralGrid(1, 40.0, 1024)
        if task.kind == "expansion":
            # criterion 08: Richardson pair on N=1024/2048, both convergence
            # gates, and an unanchored fit of exponents 1-4
            tg = np.geomspace(1e-3, 1e-1, 40)
            base = self.timed(res, "curve N=1024", oracle.trace_difference_curve, V, 1.0, grid,
                              tg)
            fine = self.timed(res, "curve N=2048", oracle.trace_difference_curve, V, 1.0,
                              grid.doubled_modes(), tg)
            gate_l = self.timed(res, "domain gate", oracle.domain_convergence, V, 1.0, grid, tg)
            if base is None or fine is None or gate_l is None:
                return None
            curve = oracle.TraceCurve(t_grid=tg, values=base.values,
                                      normalized=2.0 * fine.normalized - base.normalized,
                                      normalization="free", meta={"refined": True})
            fit = self.timed(res, "fit 1-4", oracle.fit_expansion, curve, [1.0, 2.0, 3.0, 4.0])
            gate_n = float(np.max(np.abs(fine.normalized / base.normalized - 1.0)))
            seconds = sum(c.seconds for c in res.calls[n0:])
            return fit and {"fit": fit, "gate_n": gate_n, "gate_l": gate_l, "seconds": seconds}
        if task.kind == "anomalous":
            # criterion 09: anchored fit of the t^{2+2/alpha} term
            alpha = p["alpha"]
            tg = np.geomspace(0.05, 0.4, 50)
            curve = self.timed(res, f"extrapolated alpha={alpha}",
                               oracle.extrapolated_trace_curve, V, alpha, grid, tg)
            if curve is None:
                return None
            anchors = {float(e): v for e, v in self.target(("exact", p["c"], p["s"]),
                                                           lambda: self._exact(p)).items()}
            return self.timed(res, f"anchored fit alpha={alpha}", oracle.fit_expansion, curve,
                              [ANOMALOUS, 4.0, 5.0, 6.0], anchors=anchors)
        raise ValueError(f"unknown task kind {task.kind!r}")

    def check_task(self, task, out, res, outputs):
        p = task.params
        if task.kind == "d2_slope":
            slope = out["curve"].normalized / out["tg"]
            want = -out["int_v"]
            rel = float(np.max(np.abs(slope - want) / abs(want)))
            res.checks.append((task.label + " vs -int V", rel < 0.01, f"rel={rel:.2e}"))
        elif task.kind == "expansion":
            exact = self.target(("exact", p["c"], p["s"]), lambda: self._exact(p))
            res.checks.append(("grid gate", out["gate_n"] < 1e-4, f"{out['gate_n']:.2e}"))
            res.checks.append(("domain gate", out["gate_l"] < 1e-4, f"{out['gate_l']:.2e}"))
            for e, tol in ((1, 0.01), (2, 0.05), (3, 0.10)):
                got, se = out["fit"].coefficient_at(float(e))
                rel = abs(got - exact[e]) / abs(exact[e])
                res.rel_errs.append(rel)
                res.checks.append((f"t^{e} coefficient", rel <= tol, f"rel={rel:.2e}"))
                if e > 1:
                    # the t^2 and t^3 coefficients are C_{0,2} and -C_{0,3}
                    res.estimates.append((f"oracle t^{e}", got, se, out["seconds"]))
        else:
            c, s = out.coefficient_at(ANOMALOUS)
            if p["alpha"] == 1.0:
                res.checks.append(("alpha=1 anomalous term absent", abs(c) <= 3.0 * s,
                                   f"{c:+.4f}+-{s:.4f}"))
            else:
                res.checks.append(("alpha=1.8 anomalous term negative", c < 0.0, f"{c:+.5f}"))
                res.checks.append(("alpha=1.8 anomalous term significant", abs(c) > 3.0 * s,
                                   f"{c:+.5f}+-{s:.5f}"))


# ---------------------------------------------------------------------------
# cli_turnaround

# (label, argv) of the distinct configs, covering all ten subcommands
CLI_CONFIGS = [
    ("kernel d=1", ["kernel", "--d", "1", "--alpha", "1.5", "--t", "0.1 0.5",
                    "--x", "0.0 0.5 2.0"]),
    ("kernel d=2", ["kernel", "--d", "2", "--alpha", "1.2", "--t", "0.1 0.5",
                    "--x", "0.0 0.5 2.0"]),
    # kernel_value(3, 0.8, 0.1, 5.0) fails its quadrature error gate: the run
    # exits 4 and, having no manifest, recomputes on every replay
    ("kernel d=3", ["kernel", "--d", "3", "--alpha", "0.8", "--t", "0.1 0.5",
                    "--x", "0.0 1.0 5.0"]),
    ("sample relativistic csv", ["sample", "--family", "relativistic", "--alpha", "1.0",
                                 "--m", "1.0", "--t", "0.5", "--n", "20000", "--format", "csv"]),
    ("sample mixed csv", ["sample", "--family", "mixed", "--alpha", "0.8", "--beta", "1.6",
                          "--a", "1.0", "--n", "20000", "--format", "csv"]),
    ("moments", ["moments", "--alpha", "1.5", "--eta", "-1.0 -0.5 0.3", "--n", "200000"]),
    ("constants L", ["constants", "--which", "L", "--d", "1", "--alpha", "1.8",
                     "--n", "200000"]),
    ("constants K1 analytic", ["constants", "--which", "K1", "--d", "2", "--alpha", "2",
                               "--analytic"]),
    ("coeff C_12", ["coeff", "--n-index", "1", "--j", "2", "--alpha", "1.8",
                    "--potential", "gaussian:c=1,s=1", "--samples", "131072"]),
    ("schedule", ["schedule", "--J", "5", "--alpha", "1.5", "--M", "2"]),
    ("trace fit", ["trace", "--alpha", "1.0", "--potential", "gaussian:c=-1,s=1",
                   "--n-modes", "256", "--fit"]),
    ("relativistic", ["relativistic", "--alpha", "1.0", "--m", "1.0", "--t", "0.5",
                      "--samples", "200000"]),
    ("mixed", ["mixed", "--d", "2", "--alpha", "0.8", "--beta", "1.6", "--a", "1.0",
               "--t", "0.1", "--samples", "200000"]),
    ("acceptance", ["acceptance", "--only", "02 03 04 12"]),
]
# documented defects of the program: config label -> start of the failure's
# detail; the same config failing any other way is an undocumented failure
KNOWN_FAILURES = {
    "kernel d=3": "exit 4: run aborted: kernel quadrature did not converge",
}
# Laplace exponents phi(lam) of the sampled subordinators, E[e^{-lam S_t}] = e^{-t phi(lam)}
SAMPLE_LAWS = {
    "sample relativistic csv": (0.5, lambda lam: (lam + 1.0) ** 0.5 - 1.0),
    "sample mixed csv": (1.0, lambda lam: lam**0.4 + lam**0.8),
}
# kernel tolerance against fourier_kernel: the relative accuracy kernel_value
# asks of its quadrature, with an absolute floor
KERNEL_RTOL, KERNEL_ATOL = 1e-9, 1e-12


def is_known_failure(label: str, detail: str) -> bool:
    return label in KNOWN_FAILURES and detail.startswith(KNOWN_FAILURES[label])


def replay_via_ini(replay: int, index: int) -> bool:
    """Every third call of a replay goes through ``run --config`` with an INI file."""
    return (replay + index) % 3 == 0


class CliTurnaround(Workload):
    name = "cli_turnaround"
    PASS_S = 2.5

    def tasks(self, seed, pass_index):
        seeds = _seeds(seed, pass_index, len(CLI_CONFIGS))
        return [Task("cli", label, {"argv": tuple(argv) + ("--seed", str(s % 100000))})
                for (label, argv), s in zip(CLI_CONFIGS, seeds)]

    def run_pass(self, tasks, bench_span):
        cli = self.p.cli
        res = PassResult()
        root = tempfile.mkdtemp(prefix="cli-", dir=self.out_dir)
        ini_dir = tempfile.mkdtemp(prefix="ini-", dir=self.out_dir)
        try:
            t0 = time.perf_counter()
            outdirs = {}
            for task in tasks:
                with bench_span(task.label):
                    argv = list(task.params["argv"]) + ["--output", root]
                    out = self._call(res, task.label, argv)
                wrote = [ln for ln in out.splitlines() if ln.startswith("wrote ")]
                if wrote:
                    outdirs[task.label] = os.path.dirname(wrote[-1][len("wrote "):])
            cold = {c.label: c for c in res.calls}
            inis = {}
            with bench_span("write ini"):
                for task in tasks:
                    if task.label not in outdirs:
                        continue
                    with open(os.path.join(outdirs[task.label], "manifest.json")) as fh:
                        m = json.load(fh)
                    cfg = cli.RunConfig(experiment=m["experiment"], params=m["params"],
                                        seed=m["seed"], output=root, fmt=m["format"])
                    inis[task.label] = os.path.join(ini_dir, f"{len(inis)}.ini")
                    cli.save_config(cfg, inis[task.label])
            replays = 0
            for r in range(CLI_REPLAYS):
                for i, task in enumerate(tasks):
                    with bench_span(task.label):
                        if replay_via_ini(r, i) and task.label in inis:
                            argv = ["run", "--config", inis[task.label]]
                        else:
                            argv = list(task.params["argv"]) + ["--output", root]
                        self._call(res, task.label, argv)
                    replays += 1
            res.wall_s = time.perf_counter() - t0
            with bench_span("check outputs"):
                self._check_outputs(outdirs, cold, res)
            res.counters["cli.replays"] = replays
            res.counters["cli.bytes_written"] = sum(
                os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(root) for f in files)
        finally:
            shutil.rmtree(root, ignore_errors=True)
            shutil.rmtree(ini_dir, ignore_errors=True)
        return res

    def _call(self, res, label, argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = time.perf_counter()
            rc = self.p.cli.main(argv)
            dt = time.perf_counter() - t
        text = out.getvalue()
        res.calls.append(Call(label, dt, rc == 0, computed=not text.startswith("cached:"),
                              detail="" if rc == 0 else f"exit {rc}: {err.getvalue().strip()}"))
        return text

    def _check_outputs(self, outdirs, cold, res):
        def result(label):
            if label not in outdirs:
                return None
            with open(os.path.join(outdirs[label], "result.json")) as fh:
                return json.load(fh)

        def samples(label):
            if label not in outdirs:
                return None
            return np.loadtxt(os.path.join(outdirs[label], "result.csv"), ndmin=1)

        def add(label, ok, detail=""):
            res.checks.append((label, bool(ok), detail))

        def within(out, value_key, want):
            return out is not None and abs(out[value_key] - want) <= N_SIGMA * out["stderr"]

        pot = self.p.potential
        for label in ("kernel d=1", "kernel d=2"):
            out = result(label)
            if out is None:
                add(label + " vs Gauss-Legendre", False, "no result")
                continue
            worst = 0.0
            for row in out["rows"]:
                want = self.target(("kernel", row["d"], row["alpha"], row["t"], row["x"]),
                                   lambda: fourier_kernel(row["d"], row["alpha"], row["t"],
                                                          abs(row["x"])))
                worst = max(worst, abs(row["value"] - want) / (KERNEL_RTOL * abs(want)
                                                              + KERNEL_ATOL))
            add(label + " vs Gauss-Legendre", worst <= 1.0, f"err/tol={worst:.2f}")
        for label, (t, phi) in SAMPLE_LAWS.items():
            s = samples(label)
            if s is None:
                add(label + " Laplace law", False, "no result")
                continue
            emp = np.exp(-s)
            res.checks.append(_z_check(label + " Laplace law lam=1", float(emp.mean()),
                                       float(emp.std(ddof=1) / math.sqrt(s.size)),
                                       math.exp(-t * phi(1.0))))
        k1 = result("constants K1 analytic")
        add("K1 analytic = 1/12", k1 and abs(k1["value"] - 1.0 / 12.0) <= 1e-10)
        sched = result("schedule")
        add("schedule cutoff", sched and sched["cutoff"] == self.p.coefficients.phi_exponent(
            5, 2, 1.5))
        mom = result("moments")
        add("moments within 4 sigma", mom and max(abs(r["z"]) for r in mom["moments"]) <= N_SIGMA)
        add("L d=1 alpha=1.8 vs closed form",
            within(result("constants L"), "value", closed_form_L(1, 1.8)))
        c12 = result("coeff C_12")
        energy = self.target("dirichlet", pot.GaussianPotential(1.0, 1.0).dirichlet_energy)
        add("coeff C_12 vs L int|grad V|^2",
            within(c12, "value", closed_form_L(1, 1.8) * energy))
        if c12:
            res.estimates.append(("cli C_12", c12["value"], c12["stderr"],
                                  cold["coeff C_12"].seconds))
        want = self.target("rel", lambda: radial_kernel_at_zero(
            1, 0.5, lambda lam: (lam + 1.0) ** 0.5 - 1.0))
        add("relativistic p_t(0) vs radial quadrature",
            within(result("relativistic"), "kernel_at_zero", want))
        want = self.target("mix", lambda: radial_kernel_at_zero(
            2, 0.1, lambda lam: lam**0.4 + lam**0.8))
        add("mixed p_t(0) vs radial quadrature",
            within(result("mixed"), "kernel_at_zero", want))
        tr = result("trace fit")
        if tr is None:
            add("trace fit t coefficient vs -int V", False, "no result")
            return
        V = pot.GaussianPotential(-1.0, 1.0)
        fit = tr["fit"]
        for e, c, s in zip(fit["exponents"], fit["coefficients"], fit["stderr"]):
            if e not in (1.0, 2.0, 3.0):
                continue
            want = (-1) ** int(e) * V.integral_power(int(e)) / math.factorial(int(e))
            res.rel_errs.append(abs(c - want) / abs(want))
            if e == 1.0:
                add("trace fit t coefficient vs -int V", res.rel_errs[-1] <= 0.01,
                    f"rel={res.rel_errs[-1]:.2e}")
            else:
                res.estimates.append((f"cli trace t^{e:g}", c, s, cold["trace fit"].seconds))


WORKLOADS = {w.name: w for w in (McEstimators, SpectralOracle, CliTurnaround)}
