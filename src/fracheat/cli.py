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
key = value pairs, no nesting.  Argv and INI parameters are resolved through
one table per subcommand (:data:`PARAMS`): defaults filled in, values typed,
unknown or missing keys refused, so both routes hash alike.
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
from typing import NamedTuple

import numpy as np

from . import __version__
from . import coefficients as coeff
from . import heat_kernel as hk
from . import potential as pot
from . import subordinator as sub
from . import trace_oracle as oracle
from .acceptance import acceptance_suite

SCHEMA_VERSION = 1
#: result fields the manifest repeats: how an estimate was obtained
SAMPLING = ("method", "scrambles", "n_samples")
#: output formats; csv only for the experiments whose results are rows
FORMATS = ("json", "csv")
ROWS = ("sample", "moments", "kernel", "schedule", "trace")


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


# ---------------------------------------------------------------------------
# parameter tables

REQUIRED = object()
_BOOLEAN = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _boolean(value) -> bool:
    return _BOOLEAN[str(value).strip().lower()]


def _floats(value) -> tuple:
    # a space-separated list of numbers, e.g. --t "0.1 0.5"
    return tuple(float(u) for u in (value.split() if isinstance(value, str) else value))


def _text(value) -> str:
    # the string a hash, a manifest and a config file hold for a value
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


class Param(NamedTuple):
    """A parameter: flag, type, default (REQUIRED, None if optional) and help.

    A boolean that defaults to False is a switch (``--fit``); one that
    defaults to True takes a value (``--refine false``).
    """

    flag: str
    type: object
    default: object = REQUIRED
    help: str = ""


def _key(flag: str) -> str:
    # configparser lower-cases INI keys; argv keys are made to match
    return flag[2:].replace("-", "_").lower()


ALPHA = Param("--alpha", float, help="stability index alpha")
D = Param("--d", int, 1, "dimension")
POTENTIAL = Param("--potential", str, help="gaussian:c=1,s=1[,x0=0.5], ';' between bumps")
SAMPLES = Param("--samples", int, 10**6, "Monte Carlo samples")
MC_N = Param("--n", int, 10**6, "Monte Carlo samples")
MASS = Param("--m", float, help="mass (relativistic)")
BETA = Param("--beta", float, help="second index (mixed)")
WEIGHT = Param("--a", float, help="weight of the second index (mixed)")
#: the randomized quasi-Monte Carlo estimators evaluate whole scrambles
ROUNDED = f"; rounded up to a multiple of {coeff.SCRAMBLES} scrambled Sobol points"

#: subcommand -> (help, parameters)
PARAMS = {
    "sample": ("draw subordinator samples; csv output is one sample per line", (
        Param("--family", str, "stable", "stable, relativistic or mixed"), ALPHA,
        *(p._replace(default=None) for p in (MASS, BETA, WEIGHT)),
        Param("--t", float, 1.0, "time"), Param("--n", int, 1000, "number of samples"))),
    "moments": ("empirical vs exact moments of S_1; csv columns: "
                "alpha, eta, empirical, stderr, exact, z", (
        ALPHA, Param("--eta", _floats, "-0.5", "moment orders"), MC_N)),
    "kernel": ("stable heat-kernel values; csv columns: d, alpha, t, x, value", (
        D, ALPHA, Param("--t", _floats, "1.0", "times"),
        Param("--x", _floats, "0.0", "distances from the origin"))),
    "constants": ("K1/K2/K3 and the L/M/N prefactors", (
        Param("--which", str.upper, help="K1, K2, K3, L, M or N"), D, ALPHA,
        MC_N._replace(help=MC_N.help + ROUNDED),
        Param("--analytic", _boolean, False, "closed-form path (alpha = 2 only)"))),
    "coeff": ("Monte Carlo expansion coefficient C_{n,j}(V)", (
        Param("--n-index", int, help="power n of L_j"), Param("--j", int, help="order j"),
        D, ALPHA, POTENTIAL, SAMPLES._replace(help=SAMPLES.help + ROUNDED))),
    "schedule": ("exponent matrix A_J(alpha), schedule entries, validity", (
        Param("--J", int, 4, "largest order J"), ALPHA,
        Param("--M", int, 2, "Taylor order M"), D)),
    "trace": ("spectral trace-difference curve; csv columns: t, raw, normalized", (
        D, ALPHA, POTENTIAL, Param("--L", float, 40.0, "half-width of the box"),
        Param("--n-modes", int, 1024, "modes per axis"),
        Param("--tmin", float, 1e-3, "first time"), Param("--tmax", float, 1e-1, "last time"),
        Param("--points", int, 40, "number of times"),
        Param("--fit", _boolean, False, "fit the expansion"),
        Param("--exponents", _floats, "1 2 3 4", "exponents of the fit"),
        Param("--refine", _boolean, True, "Richardson pair over mode doubling"))),
    "relativistic": ("relativistic kernel at zero by Monte Carlo", (
        D, ALPHA, MASS, Param("--t", float, 0.5, "time"), SAMPLES)),
    "mixed": ("mixed-stable kernel at zero by Monte Carlo", (
        D, ALPHA, BETA, WEIGHT, Param("--t", float, 0.5, "time"), SAMPLES)),
    "acceptance": ("run the acceptance criteria (nonzero exit on failure)", (
        Param("--only", str, None, "criteria to run, e.g. '02 12'"),)),
}


def _resolve(experiment: str, given: dict) -> dict:
    """The parameters of ``experiment`` at their types, defaults filled in.

    Raises ValueError for an unknown experiment, an unknown key, a missing
    required key or a value its type rejects.
    """
    if experiment not in PARAMS:
        raise ValueError(f"unknown experiment {experiment!r}")
    table = {_key(p.flag): p for p in PARAMS[experiment][1]}
    unknown = sorted(set(given) - set(table))
    missing = [k for k, p in table.items() if k not in given and p.default is REQUIRED]
    for what, keys in (("unknown", unknown), ("missing required", missing)):
        if keys:
            raise ValueError(f"{experiment}: {what} parameter(s): {', '.join(keys)}")
    out = {}
    for key, p in table.items():
        value = given.get(key, p.default)
        try:
            if value is not None:
                out[key] = p.type(value)
        except (LookupError, TypeError, ValueError):
            raise ValueError(f"{experiment}: bad value {value!r} for {key}") from None
    return out


@dataclass
class RunConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        self.params = _resolve(self.experiment, self.params)
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}: use {' or '.join(FORMATS)}")
        if self.fmt == "csv" and self.experiment not in ROWS:
            raise ValueError(f"{self.experiment} returns no rows to write as csv; use json")

    def text_params(self) -> dict:
        """The parameters as the strings hashes, manifests and config files hold."""
        return {k: _text(self.params[k]) for k in sorted(self.params)}

    def canonical(self) -> str:
        lines = [f"experiment={self.experiment}", f"code={_code_digest()}",
                 f"seed={self.seed}", f"format={self.fmt}"]
        lines += [f"{k}={v}" for k, v in self.text_params().items()]
        return "\n".join(lines)

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def save_config(cfg: RunConfig, path: str) -> None:
    ini = configparser.ConfigParser()
    section = cfg.text_params()
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

    Vector centers for d=2 use '|' between coordinates, e.g. x0=0.5|1.  A
    prefix other than gaussian or gaussians, an item without '=', a key
    other than c, s and x0, a value that is not a number and a center with
    more than d coordinates are refused, naming the item and its component.
    """
    prefix, body = spec.split(":", 1) if ":" in spec else ("gaussian", spec)
    if prefix not in ("gaussian", "gaussians"):
        raise ValueError(f"unknown potential {prefix!r} in {spec!r}: use gaussian or gaussians")
    amps, widths, centers = [], [], []
    for part in body.split(";"):
        items = [item for item in part.split(",") if item]
        bare = [item for item in items if "=" not in item]
        if bare:
            raise ValueError(f"item {bare[0]!r} in potential {part!r} is not key=value")
        kv = dict(item.split("=", 1) for item in items)
        unknown = sorted(kv.keys() - {"c", "s", "x0"})
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(unknown)} in potential {part!r}")

        def number(key, text):
            try:
                return float(text)
            except ValueError:
                raise ValueError(f"{key}={kv[key]} in potential {part!r} is not a number") from None

        amps.append(number("c", kv.get("c", 1.0)))
        widths.append(number("s", kv.get("s", 1.0)))
        x0 = kv.get("x0", "0")
        vec = [number("x0", u) for u in x0.split("|")]
        if len(vec) > d:
            raise ValueError(f"center x0={x0} has more than d={d} coordinates")
        centers.append(vec + [0.0] * (d - len(vec)))
    if len(amps) == 1:
        return pot.GaussianPotential(amps[0], widths[0], center=centers[0])
    return pot.GaussianMixturePotential(amps, widths, centers, d=d)


# ---------------------------------------------------------------------------
# experiment implementations: each returns (payload_dict, csv_rows_or_None)


def _exp_sample(cfg, rng):
    p = cfg.params
    family = p["family"]
    uses = sub.SubordinatorSpec.PARAMETERS.get(family, ())
    for key in ("m", "beta", "a"):
        if (key in p) != (key in uses):
            verb = "does not use" if key in p else "needs"
            raise ValueError(f"family {family} {verb} --{key}")
    # the spec refuses an unknown family and out-of-range values
    spec = sub.SubordinatorSpec(family, p["alpha"], **{k: p[k] for k in uses})
    s = spec.sample(p["t"], rng, size=p["n"])
    rows = [(float(x),) for x in s]
    payload = {"family": family, "alpha": p["alpha"], "t": p["t"], "n": p["n"],
               "mean": float(np.mean(s))}
    payload.update({k: p[k] for k in uses})
    return payload, rows


def _exp_moments(cfg, rng):
    alpha, n = cfg.params["alpha"], cfg.params["n"]
    s = sub.sample_stable(alpha, 1.0, rng, size=n)
    rows, table = [], []
    for eta in cfg.params["eta"]:
        est = hk.Estimate.of_samples(s**eta, 1.0)
        mean, se = est.value, est.stderr
        exact = sub.stable_moment(alpha, eta)
        z = (mean - exact) / se
        rows.append((alpha, eta, mean, se, exact, z))
        table.append({"eta": eta, "empirical": mean, "stderr": se,
                      "exact": exact, "z": z})
    return {"alpha": alpha, "n": n, "moments": table}, rows


def _exp_kernel(cfg, rng):
    p = cfg.params
    d, alpha = p["d"], p["alpha"]
    rows = []
    for t in p["t"]:
        for x in p["x"]:
            rows.append((d, alpha, t, x, hk.kernel_value(d, alpha, t, x)))
    return {"rows": [dict(zip(("d", "alpha", "t", "x", "value"), r)) for r in rows]}, rows


def _exp_constants(cfg, rng):
    p = cfg.params
    which, d, alpha, n = p["which"], p["d"], p["alpha"], p["n"]
    if p["analytic"] and alpha != 2.0:
        raise ValueError("the closed-form path requires alpha = 2")
    fn = {"L": coeff.constant_L, "M": coeff.constant_M, "N": coeff.constant_N}.get(which)
    est = fn(d, alpha, n, rng) if fn else coeff._scaled_constant(which, d, alpha, n, rng, 1.0)
    return {"which": which, "d": d, "alpha": alpha, "value": est.value,
            "stderr": est.stderr, "n_samples": est.n_samples, **_sampling(est)}, None


def _sampling(est) -> dict:
    # how an estimate was obtained, as its params record it
    return {k: est.params[k] for k in SAMPLING if k in est.params}


def _exp_coeff(cfg, rng):
    p = cfg.params
    v = parse_potential(p["potential"], d=p["d"])
    est = coeff.mc_coefficient_Cnj(v, p["n_index"], p["j"], p["d"], p["alpha"],
                                   p["samples"], rng)
    return {"n": p["n_index"], "j": p["j"], "d": p["d"], "alpha": p["alpha"],
            "value": est.value, "stderr": est.stderr, "n_samples": est.n_samples,
            **_sampling(est)}, None


def _exp_schedule(cfg, rng):
    p = cfg.params
    J, alpha, M, d = p["j"], p["alpha"], p["m"], p["d"]
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
    v = parse_potential(p["potential"], d=p["d"])
    grid = oracle.SpectralGrid(p["d"], p["l"], p["n_modes"])
    tg = np.geomspace(p["tmin"], p["tmax"], p["points"])
    if p["refine"]:
        curve = oracle.extrapolated_trace_curve(v, p["alpha"], grid, tg)
    else:
        curve = oracle.trace_difference_curve(v, p["alpha"], grid, tg)
    rows = oracle.trace_curve_to_rows(curve)
    payload = {"meta": {k: v2 for k, v2 in curve.meta.items()},
               "t": [r[0] for r in rows],
               "raw": [r[1] for r in rows],
               "normalized": [r[2] for r in rows]}
    if p["fit"]:
        fit = oracle.fit_expansion(curve, list(p["exponents"]))
        payload["fit"] = oracle.expansion_fit_to_dict(fit)
    return payload, rows


def _exp_relativistic(cfg, rng):
    p = cfg.params
    d, alpha, m, t, n = p["d"], p["alpha"], p["m"], p["t"], p["samples"]
    est = hk.relativistic_kernel_at_zero(d, alpha, m, t, n, rng)
    return {"d": d, "alpha": alpha, "m": m, "t": t,
            "kernel_at_zero": est.value, "stderr": est.stderr,
            "n_samples": est.n_samples, **_sampling(est)}, None


def _exp_mixed(cfg, rng):
    p = cfg.params
    d, alpha, beta, a, t, n = p["d"], p["alpha"], p["beta"], p["a"], p["t"], p["samples"]
    est = hk.mixed_kernel_at_zero(d, alpha, beta, a, t, n, rng)
    return {"d": d, "alpha": alpha, "beta": beta, "a": a, "t": t,
            "kernel_at_zero": est.value, "stderr": est.stderr,
            "n_samples": est.n_samples, **_sampling(est)}, None


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
    os.makedirs(outdir, exist_ok=True)
    result_path = os.path.join(outdir, f"result.{cfg.fmt}")
    with open(result_path, "w", newline="") as fh:
        if cfg.fmt == "csv":
            csv.writer(fh).writerows(rows)
        else:
            json.dump(payload, fh, indent=2, sort_keys=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "config_hash": cfg.hash,
        "canonical_config": cfg.canonical(),
        "seed": cfg.seed,
        "params": cfg.text_params(),
        "format": cfg.fmt,
        "versions": {
            "fracheat": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": round(time.time() - t0, 3),
        "exit_status": status,
    }
    sampling = {k: payload[k] for k in SAMPLING if k in payload}
    if sampling:
        manifest["sampling"] = sampling
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
    sp.add_argument("--format", default="json", help="json, or csv for row results")
    sp.add_argument("--no-cache", action="store_true")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once from :data:`PARAMS`."""
    ap = argparse.ArgumentParser(
        prog="fracheat",
        description="Numerical laboratory for fractional heat-trace expansions.",
    )
    sps = ap.add_subparsers(dest="command", required=True)
    for name, (text, params) in PARAMS.items():
        sp = sps.add_parser(name, help=text, description=text)
        for p in params:
            note = {REQUIRED: "required", None: "optional"}.get(p.default, f"default {p.default}")
            switch = p.type is _boolean and p.default is False
            # an absent flag stays absent: the table fills in its default
            sp.add_argument(p.flag, dest=_key(p.flag), default=argparse.SUPPRESS,
                            action="store_true" if switch else "store",
                            help=f"{p.help} ({note})")
        _add_common(sp)

    sp = sps.add_parser("run", help="execute a flat INI config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--no-cache", action="store_true")
    return ap


def main(argv=None) -> int:
    ns = vars(_parser().parse_args(argv))
    command, no_cache = ns.pop("command"), ns.pop("no_cache")
    try:
        if command == "run":
            cfg = load_config(ns["config"])
        else:
            cfg = RunConfig(experiment=command, seed=ns.pop("seed"), output=ns.pop("output"),
                            fmt=ns.pop("format"), params=ns)
    except ValueError as exc:
        print(f"fracheat: {exc}", file=sys.stderr)
        return 2
    return run(cfg, no_cache=no_cache)


if __name__ == "__main__":
    sys.exit(main())
