#!/usr/bin/env python3
"""Benchmark of the fracheat package: one workload per run.

    python3 benchmarks/run.py --workload mc_estimators --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  ``--trace 0`` measures the end-to-end metrics; ``--trace
1`` alternates untraced and traced passes and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with provenance, and the recorded spans are
written under ``.bench_out/`` in the checkout.  Metric names, units,
directions and bounds are in ``BENCHMARK.json`` at the checkout's root; what
each metric means, its layer and the layer-to-metric map are in
``benchmarks/metrics.json``.

OpenBLAS runs on one thread: the two-thread ``eigvalsh`` of spectral_oracle
varied by a third between sets of runs of the same code on a shared 2-vCPU
machine, against about 6% on one thread.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MODULES = ("subordinator", "heat_kernel", "potential", "coefficients", "trace_oracle", "cli")
# set-ups measured per run: this process plus SETUP_PROBES fresh processes
SETUP_PROBES = 4
# set before numpy is first imported; probe processes inherit it
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def load_program():
    """Import fracheat from this checkout's src/, never from anywhere else."""
    init = os.path.join(SRC, "fracheat", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"benchmark: no program source at {init}")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("fracheat")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.dirname(init):
        raise SystemExit(f"benchmark: fracheat imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"fracheat.{m}") for m in MODULES})


def warm_up(program) -> None:
    """One small eigvalsh, one small Monte Carlo batch and a fresh output root."""
    import numpy as np

    oracle, pot = program.trace_oracle, program.potential
    grid = oracle.SpectralGrid(1, 10.0, 64)
    np.linalg.eigvalsh(oracle.build_hamiltonian(grid, 1.0, pot.GaussianPotential(-1.0, 1.0)))
    program.coefficients.mc_coefficient_Cnj(pot.GaussianPotential(1.0, 1.0), 1, 2, 1, 1.8,
                                            4096, np.random.default_rng(0))
    os.makedirs(OUT, exist_ok=True)
    shutil.rmtree(tempfile.mkdtemp(prefix="root-", dir=OUT))


def prepare():
    """Everything a run does before its first timed task."""
    warnings.simplefilter("ignore")
    program = load_program()
    sys.path.insert(0, HERE)
    import tracing  # noqa: F401
    import workloads  # noqa: F401

    warm_up(program)
    return program


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(value, percentile, n) at the highest percentile with >= 10 samples beyond it.

    With 10 or fewer samples no such percentile exists and the maximum is
    returned with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def median_of_call_medians(calls):
    """Median over distinct call labels of each label's median latency.

    Call latencies cluster by task type, and the median of all calls of a
    run can sit on a cluster edge, where one slow call moves it into the next
    cluster; the median of per-call medians moves only when calls reorder.
    """
    by_label: dict = {}
    for c in calls:
        by_label.setdefault(c.label, []).append(c.seconds)
    return statistics.median(statistics.median(v) for v in by_label.values())


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def precision_per_s(estimates):
    """Geometric mean of 1/(rel_stderr^2 * seconds) over (label, value, stderr, s)."""
    vals = [1.0 / ((se / abs(v)) ** 2 * s) for _, v, se, s in estimates if se > 0 and v != 0]
    return geomean(vals) if vals else 0.0


# ---------------------------------------------------------------------------
# provenance


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fracheat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _blas():
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(handle, fn):
                    getattr(handle, fn).restype = ctypes.c_int
                    threads = int(getattr(handle, fn)())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args):
    import numpy as np
    import scipy

    return {
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# running


def setup_probe():
    prepare()
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


def probe_setups(n):
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run(args, spec):
    program = prepare()
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](program, OUT)
    n_passes = wl.passes(args.seconds)
    if args.trace:
        n_passes = max(2, n_passes)
    rec = tracing.Recorder()
    untraced, traced = [], []
    counters: dict = {}
    setup_main = time.perf_counter() - _T0

    for i in range(n_passes):
        tasks = wl.tasks(args.seed, i)
        if args.trace and i % 2 == 1:
            with tracing.traced(rec, program):
                with rec.span("bench.pass", "bench"):
                    res = wl.run_pass(tasks, lambda label: rec.span(f"bench.{label}", "bench"))
            traced.append(res)
            for k, v in res.counters.items():
                counters[k] = counters.get(k, 0) + v
        else:
            res = wl.run_pass(tasks, no_span)
            untraced.append(res)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = untraced + traced

    calls = [c for r in passes for c in r.calls]
    checks = [c for r in passes for c in r.checks]
    failures = [f"{c.label}: {c.detail}" for c in calls if not c.ok]
    failures += [f"check {label}: {detail}" for label, ok, detail in checks if not ok]
    known = [f"{c.label}: {c.detail}" for c in calls
             if not c.ok and workloads.is_known_failure(c.label, c.detail)]
    attempted = len(calls) + len(checks)
    failed = len(failures)

    cold_calls = [c for r in untraced for c in r.calls if c.computed]
    hit_calls = [c for r in untraced for c in r.calls if not c.computed]
    cold = [c.seconds for c in cold_calls]
    hits = [c.seconds for c in hit_calls]
    cold_tail = tail(cold)
    # a pass whose estimates all failed has no precision; failures are counted
    precision = [p for p in (precision_per_s(r.estimates) for r in untraced) if p > 0]
    e2e = {
        "wall_s": statistics.median(r.wall_s for r in untraced),
        "peak_rss_mb": peak_rss_mb,
        "cnj_precision_per_s": statistics.median(precision or [0.0]),
        "cold_p50_s": median_of_call_medians(cold_calls),
        "cold_tail_s": cold_tail[0],
    }
    extra = {
        "fail_frac": failed / attempted,
        "cold_tail_percentile": cold_tail[1],
        "cold_samples": cold_tail[2],
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "setup_main_s": setup_main,
    }
    rel_errs = [e for r in untraced for e in r.rel_errs]
    if rel_errs:
        extra["oracle_rel_err_max"] = max(rel_errs)
    if hits:
        hit_tail = tail(hits)
        extra.update(hit_p50_s=median_of_call_medians(hit_calls), hit_tail_s=hit_tail[0],
                     hit_tail_percentile=hit_tail[1], hit_samples=hit_tail[2])

    layers = {}
    if traced:
        layers = tracing.layer_metrics(rec.spans, len(traced), counters)
        untraced_wall = statistics.median(r.wall_s for r in untraced)
        layers["bench.trace_overhead_frac"] = (
            statistics.median(r.wall_s for r in traced) / untraced_wall - 1.0)
        roots = [s for s in rec.spans if s.name == "bench.pass"]
        layers["bench.traced_wall_s"] = statistics.fmean(s.duration for s in roots)

    if not args.trace:
        setups = [setup_main] + probe_setups(SETUP_PROBES)
        e2e["setup_s"] = statistics.median(setups)
        extra["setup_samples_s"] = setups

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    source = layers if args.trace else e2e
    metrics = {name: {"value": float(source[name]), "unit": units[name]} for name in wanted}

    result = {
        "correct": len(failures) == len(known),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"result": result, "provenance": provenance(args), "end_to_end": e2e,
                   "reported": extra, "per_layer": layers, "failures": failures,
                   "known_failures": known,
                   "calls": [vars(c) for r in passes for c in r.calls],
                   "checks": checks}, fh, indent=1, default=float)
    if traced:
        with open(stem + "-spans.json", "w") as fh:
            json.dump([vars(s) for s in rec.spans], fh, default=float)

    print(f"fracheat benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={n_passes} commit={_git_commit()}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {extra['fail_frac']:.6g} ratio ({failed}/{attempted}; "
          f"documented: {len(known)})")
    if not args.trace:
        print(f"  cold_tail_s is p{cold_tail[1]:.1f} of {cold_tail[2]} samples")
        for key, unit in (("oracle_rel_err_max", "ratio"), ("hit_p50_s", "s"),
                          ("hit_tail_s", "s")):
            if key in extra:
                print(f"  {key:34s} {extra[key]:.6g} {unit}")
        if hits:
            print(f"  hit_tail_s is p{extra['hit_tail_percentile']:.1f} of "
                  f"{extra['hit_samples']} samples")
    for f, k in sorted(collections.Counter(failures).items()):
        print(f"  failed x{k}: {f}")
    print(f"  results: {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps(result))
    return 0


def no_span(label):
    return contextlib.nullcontext()


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.update(BLAS_ENV)
    if args.setup_probe:
        return setup_probe()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
