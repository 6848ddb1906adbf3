"""Reproducible experiment driver.

Every subcommand builds a flat RunConfig, hashes it together with a digest
of the package source, and executes through
the same runner: results land in a content-addressed directory under the
output root (flag --output, else $FRACHEAT_OUTPUT, else ./runs) together
with a manifest recording the config hash, every effective parameter, the
seed, package versions and wall time.  Identical config + seed reproduces
bit-identical JSON numeric fields; a repeated run is served from the cache
unless --no-cache is given, and a hash collision with a differing stored
config is a hard error.

Config files are flat INI: one section named after the experiment, plain
key = value pairs, no nesting.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import coefficients as coeff
from . import heat_kernel as hk
from . import potential as pot
from . import subordinator as sub
from . import trace_oracle as oracle
from .acceptance import acceptance_suite

SCHEMA_VERSION = 1


@functools.cache
def _code_digest() -> str:
    """Digest of the package's source files, part of every config hash.

    A change to the code changes every hash, so results computed by other
    code are never served from the cache.
    """
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


@dataclass
class RunConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output: str | None = None
    fmt: str = "json"

    def canonical(self) -> str:
        lines = [f"experiment={self.experiment}", f"code={_code_digest()}",
                 f"seed={self.seed}", f"format={self.fmt}"]
        lines += [f"{k}={self.params[k]}" for k in sorted(self.params)]
        return "\n".join(lines)

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def save_config(cfg: RunConfig, path: str) -> None:
    ini = configparser.ConfigParser()
    section = dict(cfg.params)
    section["seed"] = str(cfg.seed)
    section["format"] = cfg.fmt
    if cfg.output:
        section["output"] = cfg.output
    ini[cfg.experiment] = section
    with open(path, "w") as fh:
        ini.write(fh)


def load_config(path: str) -> RunConfig:
    ini = configparser.ConfigParser()
    with open(path) as fh:
        ini.read_file(fh)
    sections = ini.sections()
    if len(sections) != 1:
        raise ValueError("config file must contain exactly one experiment section")
    name = sections[0]
    params = dict(ini[name])
    seed = int(params.pop("seed", "0"))
    fmt = params.pop("format", "json")
    output = params.pop("output", None)
    return RunConfig(experiment=name, params=params, seed=seed, output=output, fmt=fmt)


def parse_potential(spec: str, d: int = 1):
    """gaussian:c=1,s=1[,x0=0.5]; components separated by ';'.

    Vector centers for d=2 use '|' between coordinates, e.g. x0=0.5|1.
    """
    body = spec.split(":", 1)[1] if ":" in spec else spec
    amps, widths, centers = [], [], []
    for part in body.split(";"):
        kv = dict(item.split("=", 1) for item in part.split(",") if item)
        amps.append(float(kv.get("c", 1.0)))
        widths.append(float(kv.get("s", 1.0)))
        x0 = kv.get("x0", "0")
        vec = [float(u) for u in x0.split("|")]
        centers.append(vec + [0.0] * (d - len(vec)))
    if len(amps) == 1:
        return pot.GaussianPotential(amps[0], widths[0], center=centers[0])
    return pot.GaussianMixturePotential(amps, widths, centers, d=d)


# ---------------------------------------------------------------------------
# experiment implementations: each returns (payload_dict, csv_rows_or_None)


def _exp_sample(cfg, rng):
    p = cfg.params
    family = p.get("family", "stable")
    t = float(p.get("t", 1.0))
    n = int(p.get("n", 1000))
    alpha = float(p["alpha"])
    if family == "stable":
        s = sub.sample_stable(alpha, t, rng, size=n)
    elif family == "relativistic":
        s = sub.sample_relativistic(alpha, float(p["m"]), t, rng, size=n)
    elif family == "mixed":
        s = sub.sample_mixed(alpha, float(p["beta"]), float(p["a"]), t, rng, size=n)
    else:
        raise ValueError(f"unknown family {family!r}")
    rows = [(float(x),) for x in s]
    payload = {"family": family, "alpha": alpha, "t": t, "n": n,
               "mean": float(np.mean(s))}
    payload.update({k: float(p[k]) for k in ("m", "beta", "a") if k in p})
    return payload, rows


def _exp_moments(cfg, rng):
    p = cfg.params
    alpha = float(p["alpha"])
    etas = [float(e) for e in str(p.get("eta", "-0.5")).split()]
    n = int(p.get("n", 10**6))
    s = sub.sample_stable(alpha, 1.0, rng, size=n)
    rows, table = [], []
    for eta in etas:
        x = s**eta
        mean, se = float(x.mean()), float(x.std(ddof=1) / np.sqrt(n))
        exact = sub.stable_moment(alpha, eta)
        z = (mean - exact) / se
        rows.append((alpha, eta, mean, se, exact, z))
        table.append({"eta": eta, "empirical": mean, "stderr": se,
                      "exact": exact, "z": z})
    return {"alpha": alpha, "n": n, "moments": table}, rows


def _exp_kernel(cfg, rng):
    p = cfg.params
    d, alpha = int(p.get("d", 1)), float(p["alpha"])
    ts = [float(u) for u in str(p.get("t", "1.0")).split()]
    xs = [float(u) for u in str(p.get("x", "0.0")).split()]
    rows = []
    for t in ts:
        for x in xs:
            rows.append((d, alpha, t, x, hk.kernel_value(d, alpha, t, x)))
    return {"rows": [dict(zip(("d", "alpha", "t", "x", "value"), r)) for r in rows]}, rows


def _exp_constants(cfg, rng):
    p = cfg.params
    which, d = p["which"].upper(), int(p.get("d", 1))
    alpha = float(p["alpha"])
    n = int(p.get("n", 10**6))
    analytic = str(p.get("analytic", "false")).lower() in ("1", "true", "yes")
    if which in ("K1", "K2", "K3"):
        if analytic or alpha == 2.0:
            if alpha != 2.0:
                raise ValueError("the analytic quadrature path requires alpha = 2")
            val = coeff.deterministic_constant_K(which, d)
            out = {"which": which, "d": d, "alpha": alpha, "value": val,
                   "stderr": 0.0, "path": "quadrature"}
        else:
            est = coeff.mc_constant_K(which, d, alpha, n, rng)
            out = {"which": which, "d": d, "alpha": alpha, "value": est.value,
                   "stderr": est.stderr, "n_samples": n, "path": "mc"}
    else:
        fn = {"L": coeff.constant_L, "M": coeff.constant_M, "N": coeff.constant_N}[which]
        est = fn(d, alpha, n, rng)
        out = {"which": which, "d": d, "alpha": alpha, "value": est.value,
               "stderr": est.stderr, "n_samples": est.n_samples,
               "path": est.params.get("path", "mc")}
    return out, None


def _exp_coeff(cfg, rng):
    p = cfg.params
    d = int(p.get("d", 1))
    v = parse_potential(p["potential"], d=d)
    est = coeff.mc_coefficient_Cnj(
        v, int(p["n_index"]), int(p["j"]), d, float(p["alpha"]),
        int(p.get("samples", 10**6)), rng,
    )
    return {"n": int(p["n_index"]), "j": int(p["j"]), "d": d,
            "alpha": float(p["alpha"]), "value": est.value,
            "stderr": est.stderr, "n_samples": est.n_samples}, None


def _exp_schedule(cfg, rng):
    p = cfg.params
    J, alpha = int(p.get("j", 4)), float(p["alpha"])
    M, d = int(p.get("m", 2)), int(p.get("d", 1))
    a = coeff.matrix_AJ(J, alpha)
    sched = coeff.exponent_schedule(J, M, alpha, d)
    if alpha < 2.0:
        report = coeff.validate_params(d, alpha, M)
        validity = {"basic_ok": report.basic_ok, "improved_ok": report.improved_ok,
                    "max_M": report.max_M}
    else:
        validity = {"basic_ok": True, "improved_ok": True, "max_M": None}
    return {
        "matrix": a.tolist(),
        "cutoff": sched.cutoff,
        "entries": [
            {"exponent": e.exponent, "n": e.n, "j": e.j, "sign": e.sign}
            for e in sched.entries
        ],
        "validity": validity,
    }, [tuple(row) for row in a.tolist()]


def _exp_trace(cfg, rng):
    p = cfg.params
    d = int(p.get("d", 1))
    v = parse_potential(p["potential"], d=d)
    alpha = float(p["alpha"])
    grid = oracle.SpectralGrid(d, float(p.get("l", 40.0)), int(p.get("n_modes", 1024)))
    tg = np.geomspace(float(p.get("tmin", 1e-3)), float(p.get("tmax", 1e-1)),
                      int(p.get("points", 40)))
    refine = str(p.get("refine", "true")).lower() not in ("0", "false", "no")
    if refine:
        curve = oracle.extrapolated_trace_curve(v, alpha, grid, tg)
    else:
        curve = oracle.trace_difference_curve(v, alpha, grid, tg)
    rows = oracle.trace_curve_to_rows(curve)
    payload = {"meta": {k: v2 for k, v2 in curve.meta.items()},
               "t": [r[0] for r in rows],
               "raw": [r[1] for r in rows],
               "normalized": [r[2] for r in rows]}
    if str(p.get("fit", "false")).lower() in ("1", "true", "yes"):
        exps = [float(u) for u in str(p.get("exponents", "1 2 3 4")).split()]
        fit = oracle.fit_expansion(curve, exps)
        payload["fit"] = oracle.expansion_fit_to_dict(fit)
    return payload, rows


def _exp_relativistic(cfg, rng):
    p = cfg.params
    d, alpha, m, t = (int(p.get("d", 1)), float(p["alpha"]),
                      float(p["m"]), float(p.get("t", 0.5)))
    n = int(p.get("samples", 10**6))
    est = hk.relativistic_kernel_at_zero(d, alpha, m, t, n, rng)
    return {"d": d, "alpha": alpha, "m": m, "t": t,
            "kernel_at_zero": est.value, "stderr": est.stderr,
            "n_samples": n}, None


def _exp_mixed(cfg, rng):
    p = cfg.params
    d = int(p.get("d", 1))
    alpha, beta, a = float(p["alpha"]), float(p["beta"]), float(p["a"])
    t = float(p.get("t", 0.5))
    n = int(p.get("samples", 10**6))
    est = hk.mixed_kernel_at_zero(d, alpha, beta, a, t, n, rng)
    return {"d": d, "alpha": alpha, "beta": beta, "a": a, "t": t,
            "kernel_at_zero": est.value, "stderr": est.stderr,
            "n_samples": n}, None


def _exp_acceptance(cfg, rng):
    only = cfg.params.get("only")
    results = acceptance_suite(
        seed=cfg.seed, criteria=only.split() if only else None
    )
    payload = {
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"name": r.name, "passed": r.passed, "seconds": round(r.seconds, 2),
             "detail": r.detail}
            for r in results
        ],
    }
    return payload, None


EXPERIMENTS = {
    "sample": _exp_sample,
    "moments": _exp_moments,
    "kernel": _exp_kernel,
    "constants": _exp_constants,
    "coeff": _exp_coeff,
    "schedule": _exp_schedule,
    "trace": _exp_trace,
    "relativistic": _exp_relativistic,
    "mixed": _exp_mixed,
    "acceptance": _exp_acceptance,
}


def _output_root(cfg: RunConfig) -> str:
    return cfg.output or os.environ.get("FRACHEAT_OUTPUT", "runs")


def run(cfg: RunConfig, no_cache: bool = False) -> int:
    """Execute a config: write result + manifest, honoring the result cache."""
    if cfg.experiment not in EXPERIMENTS:
        print(f"unknown experiment {cfg.experiment!r}", file=sys.stderr)
        return 2
    root = _output_root(cfg)
    outdir = os.path.join(root, f"{cfg.experiment}-{cfg.hash}")
    manifest_path = os.path.join(outdir, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if manifest.get("canonical_config") != cfg.canonical():
            print("cache hash collision with differing config; aborting", file=sys.stderr)
            return 3
        if not no_cache:
            print(f"cached: {outdir}")
            return 0 if manifest.get("exit_status", 0) == 0 else 1
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    t0 = time.time()
    try:
        payload, rows = EXPERIMENTS[cfg.experiment](cfg, rng)
    except (ValueError, RuntimeError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 4
    status = 0
    if cfg.experiment == "acceptance" and not payload.get("all_passed", True):
        status = 1
    result_path = os.path.join(outdir, f"result.{cfg.fmt}")
    if cfg.fmt == "csv" and rows is not None:
        with open(result_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        result_path = os.path.join(outdir, "result.json")
        with open(result_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "config_hash": cfg.hash,
        "canonical_config": cfg.canonical(),
        "seed": cfg.seed,
        "params": dict(cfg.params),
        "format": cfg.fmt,
        "versions": {
            "fracheat": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": round(time.time() - t0, 3),
        "exit_status": status,
    }
    tmp = manifest_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    os.replace(tmp, manifest_path)
    print(f"wrote {result_path}")
    if cfg.experiment == "schedule":
        for row in payload["matrix"]:
            print("  ".join(f"{v:g}" if v else "." for v in row))
    return status


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", default=None, help="output root directory")
    sp.add_argument("--format", default="json", choices=("json", "csv"))
    sp.add_argument("--no-cache", action="store_true")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="fracheat",
        description="Numerical laboratory for fractional heat-trace expansions.",
    )
    sps = ap.add_subparsers(dest="command", required=True)

    specs = {
        "sample": [("--family", str, "stable"), ("--alpha", float, None),
                   ("--m", float, None), ("--beta", float, None), ("--a", float, None),
                   ("--t", float, 1.0), ("--n", int, 1000)],
        "moments": [("--alpha", float, None), ("--eta", str, "-0.5"),
                    ("--n", int, 10**6)],
        "kernel": [("--d", int, 1), ("--alpha", float, None), ("--t", str, "1.0"),
                   ("--x", str, "0.0")],
        "constants": [("--which", str, None), ("--d", int, 1), ("--alpha", float, None),
                      ("--n", int, 10**6), ("--analytic", bool, False)],
        "coeff": [("--n-index", int, None), ("--j", int, None), ("--d", int, 1),
                  ("--alpha", float, None), ("--potential", str, None),
                  ("--samples", int, 10**6)],
        "schedule": [("--J", int, 4), ("--alpha", float, None), ("--M", int, 2),
                     ("--d", int, 1)],
        "trace": [("--d", int, 1), ("--alpha", float, None), ("--potential", str, None),
                  ("--L", float, 40.0), ("--n-modes", int, 1024),
                  ("--tmin", float, 1e-3), ("--tmax", float, 1e-1),
                  ("--points", int, 40), ("--fit", bool, False),
                  ("--exponents", str, "1 2 3 4"), ("--refine", str, "true")],
        "relativistic": [("--d", int, 1), ("--alpha", float, None), ("--m", float, None),
                         ("--t", float, 0.5), ("--samples", int, 10**6)],
        "mixed": [("--d", int, 1), ("--alpha", float, None), ("--beta", float, None),
                  ("--a", float, None), ("--t", float, 0.5), ("--samples", int, 10**6)],
        "acceptance": [("--only", str, None)],
    }
    helps = {
        "sample": "draw subordinator samples; csv output is one sample per line",
        "moments": "empirical vs exact moments of S_1; csv columns: "
                   "alpha, eta, empirical, stderr, exact, z",
        "kernel": "stable heat-kernel values; csv columns: d, alpha, t, x, value",
        "constants": "K1/K2/K3 and the L/M/N prefactors",
        "coeff": "Monte Carlo expansion coefficient C_{n,j}(V)",
        "schedule": "exponent matrix A_J(alpha), schedule entries, validity",
        "trace": "spectral trace-difference curve; csv columns: t, raw, normalized",
        "relativistic": "relativistic kernel at zero by Monte Carlo",
        "mixed": "mixed-stable kernel at zero by Monte Carlo",
        "acceptance": "run the acceptance criteria (nonzero exit on failure)",
    }
    for name, args in specs.items():
        sp = sps.add_parser(name, help=helps[name], description=helps[name])
        for flag, typ, default in args:
            if typ is bool:
                sp.add_argument(flag, action="store_true")
            else:
                sp.add_argument(flag, type=typ, default=default,
                                required=default is None and flag not in ("--m", "--beta", "--a", "--only"))
        _add_common(sp)

    sp = sps.add_parser("run", help="execute a flat INI config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--no-cache", action="store_true")

    ns = ap.parse_args(argv)
    if ns.command == "run":
        cfg = load_config(ns.config)
        return run(cfg, no_cache=ns.no_cache)

    # INI keys come back lower-cased from configparser; argv keys match them
    skip = {"command", "seed", "output", "format", "no_cache"}
    params = {
        k.lower(): str(v) for k, v in vars(ns).items()
        if k not in skip and v is not None and v is not False
    }
    cfg = RunConfig(
        experiment=ns.command, params=params, seed=ns.seed,
        output=ns.output, fmt=ns.format,
    )
    return run(cfg, no_cache=ns.no_cache)


if __name__ == "__main__":
    sys.exit(main())
