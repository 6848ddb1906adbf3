"""Reproducible experiment driver.

Every subcommand builds a flat RunConfig, hashes it together with a digest
of the package source, and executes through
the same runner: results land in a content-addressed directory under the
output root (flag --output, else $FRACHEAT_OUTPUT, else ./runs) together
with a manifest recording the config hash, every effective parameter, the
seed, library versions, wall time and the warnings the run raised (each
distinct one once, with its count, and re-emitted once).  The hash also
covers the versions of fracheat, numpy, scipy and python (:data:`VERSIONS`),
so no result is served across a library change.  Identical config + seed
reproduces bit-identical JSON numeric fields; a repeated run is served from
the cache (delete its directory to recompute), and a hash collision with a
differing stored config is a hard error.

Config files are flat INI: one section named after the experiment, plain
key = value pairs, no nesting.  Argv and INI parameters are resolved through
one table per subcommand (:data:`PARAMS`): defaults filled in, values typed,
unknown or missing keys refused, so both routes hash alike.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from . import coefficients as coeff
from . import heat_kernel as hk
from . import potential as pot
from . import subordinator as sub
from . import trace_oracle as oracle
from .acceptance import acceptance_suite

SCHEMA_VERSION = 1
#: result fields the manifest repeats: how an estimate was obtained
SAMPLING = ("method", "scrambles", "n_samples", "increments", "terms")
#: output formats; csv only for the experiments whose results are rows
FORMATS = ("json", "csv")
ROWS = ("sample", "moments", "kernel", "schedule", "trace")
#: the versions a result depends on: part of every config hash and manifest
VERSIONS = {"fracheat": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


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

    A boolean is a switch (``--fit``).  A dict default maps each d to the
    default at that d.
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
#: 2^20 = SCRAMBLES * 2^15: each of the estimators' scrambles is a whole Sobol net
SAMPLES = Param("--samples", int, 2**20, "Monte Carlo samples")
MC_N = Param("--n", int, 2**20, "Monte Carlo samples")
MASS = Param("--m", float, help="mass (relativistic)")
BETA = Param("--beta", float, help="second index (mixed)")
WEIGHT = Param("--a", float, help="weight of the second index (mixed)")
#: the randomized quasi-Monte Carlo estimators evaluate whole scrambles
ROUNDED = (f"; rounded up to a multiple of {coeff.SCRAMBLES} scrambled Sobol points, "
           f"whole nets at {coeff.SCRAMBLES}*2^k")

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
    "coeff": ("expansion coefficient C_{n,j}(V): exact increment factors, "
              "randomized quasi-Monte Carlo over theta", (
        Param("--n-index", int, help="power n of L_j"), Param("--j", int, help="order j"),
        D, ALPHA, POTENTIAL, SAMPLES._replace(help=SAMPLES.help + ROUNDED))),
    "schedule": ("exponent matrix A_J(alpha), schedule entries, validity", (
        Param("--J", int, 4, "largest order J"), ALPHA,
        Param("--M", int, 2, "Taylor order M"), D)),
    "trace": ("spectral trace-difference curve; csv columns: t, raw, normalized", (
        D, ALPHA, POTENTIAL, Param("--L", float, 40.0, "half-width of the box"),
        Param("--n-modes", int, {1: 1024, 2: 88}, "modes per axis"),
        Param("--tmin", float, 1e-3, "first time"), Param("--tmax", float, 1e-1, "last time"),
        Param("--points", int, 40, "number of times"),
        Param("--fit", _boolean, False, "fit the expansion"),
        Param("--exponents", _floats, "1 2 3 4", "exponents of the fit"))),
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
        if isinstance(value, dict):
            # d precedes every parameter whose default it chooses
            if out["d"] not in value:
                raise ValueError(f"{experiment}: no default {key} at d={out['d']}")
            value = value[out["d"]]
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
        lines = [f"experiment={self.experiment}", f"code={_code_digest()}"]
        lines += [f"version.{k}={v}" for k, v in VERSIONS.items()]
        lines += [f"seed={self.seed}", f"format={self.fmt}"]
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


def parse_potential(spec: str, d: int):
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
# experiment implementations: each returns its payload and, for the
# experiments in ROWS, its csv columns (else None)


def _columns(records: list) -> list:
    # the columns of a list of dicts with the same keys
    return list(zip(*(r.values() for r in records)))


def _exp_sample(cfg, rng):
    p = cfg.params
    family = p["family"]
    given = {k: p[k] for k in ("m", "beta", "a") if k in p}
    # the spec refuses an unknown family, a parameter the family does not
    # use, a missing one and out-of-range values
    spec = sub.SubordinatorSpec(family, p["alpha"], **given)
    if p["n"] < 1:
        raise ValueError(f"sample: n={p['n']} must be >= 1")
    s = spec.sample(p["t"], rng, size=p["n"])
    payload = {"family": family, "alpha": p["alpha"], "t": p["t"], "n": p["n"],
               "mean": float(np.mean(s)), **given}
    return payload, (s,)


def _exp_moments(cfg, rng):
    alpha, n = cfg.params["alpha"], cfg.params["n"]
    if alpha == 2.0:
        raise ValueError("moments: alpha=2 gives S_1 = 1, with no spread to estimate z from")
    s = sub.sample_stable(alpha, 1.0, rng, size=n)
    table = []
    for eta in cfg.params["eta"]:
        est = hk.Estimate.of_samples(s**eta, 1.0)
        exact = sub.stable_moment(alpha, eta)
        table.append({"eta": eta, "empirical": est.value, "stderr": est.stderr,
                      "exact": exact, "z": (est.value - exact) / est.stderr})
    return {"alpha": alpha, "n": n, "moments": table}, [[alpha] * len(table), *_columns(table)]


def _exp_kernel(cfg, rng):
    p = cfg.params
    d, alpha = p["d"], p["alpha"]
    rows = [{"d": d, "alpha": alpha, "t": t, "x": x, "value": hk.kernel_value(d, alpha, t, x)}
            for t in p["t"] for x in p["x"]]
    return {"rows": rows}, _columns(rows)


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
    }, a.T


def _exp_trace(cfg, rng):
    p = cfg.params
    v = parse_potential(p["potential"], d=p["d"])
    grid = oracle.SpectralGrid(p["d"], p["l"], p["n_modes"])
    tg = np.geomspace(p["tmin"], p["tmax"], p["points"])
    # the Richardson pair over mode doubling holds in d=1 only
    route = oracle.extrapolated_trace_curve if p["d"] == 1 else oracle.trace_difference_curve
    curve = route(v, p["alpha"], grid, tg)
    payload = {"meta": dict(curve.meta), "t": curve.t_grid.tolist(),
               "raw": curve.values.tolist(), "normalized": curve.normalized.tolist()}
    if p["fit"]:
        fit = oracle.fit_expansion(curve, list(p["exponents"]))
        payload["fit"] = {
            "exponents": fit.exponents.tolist(),
            "coefficients": fit.coefficients.tolist(),
            "stderr": fit.stderr.tolist(),
            "groups": [[list(g) if g else None for g in grp] for grp in fit.groups],
            "max_relative_residual": fit.residual,
            "condition_number": fit.condition_number,
            "anchors": {f"{k:.12g}": float(v) for k, v in fit.anchors.items()},
        }
    return payload, (curve.t_grid, curve.values, curve.normalized)


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


def _write_csv(fh, columns) -> None:
    # the bytes csv.writer writes for these rows of numbers: the repr of each
    # value, ',' between values and '\r\n' after each row
    cells = (map(repr, np.asarray(c).tolist()) for c in columns)
    text = "\r\n".join(map(",".join, zip(*cells)))
    fh.write(text + "\r\n" if text else "")


def _reemit(caught) -> list:
    """Each distinct (category, message) of the caught warnings with its count.

    Each is re-emitted once, at its first origin, under the caller's filters,
    so a filter that turns it into an error still does.
    """
    first, counts = {}, {}
    for w in caught:
        key = (w.category.__name__, str(w.message))
        first.setdefault(key, w)
        counts[key] = counts.get(key, 0) + 1
    for w in first.values():
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return [{"category": c, "message": m, "count": counts[c, m]} for c, m in first]


def run(cfg: RunConfig) -> int:
    """Execute a config: write result + manifest, or serve them from the cache."""
    root = _output_root(cfg)
    outdir = os.path.join(root, f"{cfg.experiment}-{cfg.hash}")
    manifest_path = os.path.join(outdir, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if manifest.get("canonical_config") != cfg.canonical():
            print("cache hash collision with differing config; aborting", file=sys.stderr)
            return 3
        print(f"cached: {outdir}")
        return 0 if manifest.get("exit_status", 0) == 0 else 1
    rng = np.random.default_rng(cfg.seed)
    t0 = time.time()
    try:
        with warnings.catch_warnings(record=True) as caught:
            # every warning is counted here and shown (or raised) once below
            warnings.simplefilter("always")
            payload, columns = EXPERIMENTS[cfg.experiment](cfg, rng)
    except (ValueError, RuntimeError) as exc:
        _reemit(caught)
        print(f"run aborted: {exc}", file=sys.stderr)
        return 4
    warned = _reemit(caught)
    status = 0
    if cfg.experiment == "acceptance" and not payload.get("all_passed", True):
        status = 1
    os.makedirs(outdir, exist_ok=True)
    result_path = os.path.join(outdir, f"result.{cfg.fmt}")
    with open(result_path, "w", newline="") as fh:
        if cfg.fmt == "csv":
            _write_csv(fh, columns)
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
        "versions": VERSIONS,
        "wall_time_s": round(time.time() - t0, 3),
        "exit_status": status,
        "warnings": warned,
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
            if isinstance(p.default, dict):
                note = "default " + ", ".join(f"{v} at d={k}" for k, v in p.default.items())
            else:
                note = {REQUIRED: "required", None: "optional"}.get(p.default,
                                                                     f"default {p.default}")
            # an absent flag stays absent: the table fills in its default
            sp.add_argument(p.flag, dest=_key(p.flag), default=argparse.SUPPRESS,
                            action="store_true" if p.type is _boolean else "store",
                            help=f"{p.help} ({note})")
        _add_common(sp)

    sp = sps.add_parser("run", help="execute a flat INI config file")
    sp.add_argument("--config", required=True)
    return ap


def main(argv=None) -> int:
    ns = vars(_parser().parse_args(argv))
    command = ns.pop("command")
    try:
        if command == "run":
            cfg = load_config(ns["config"])
        else:
            cfg = RunConfig(experiment=command, seed=ns.pop("seed"), output=ns.pop("output"),
                            fmt=ns.pop("format"), params=ns)
    except ValueError as exc:
        print(f"fracheat: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
