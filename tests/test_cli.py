import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from fracheat import cli
from fracheat import coefficients as coeff
from fracheat import subordinator as sub
from fracheat.potential import GaussianMixturePotential, GaussianPotential


def test_parse_potential_variants():
    v = cli.parse_potential("gaussian:c=1,s=1", d=1)
    assert isinstance(v, GaussianPotential)
    assert v.c[0] == 1.0 and v.s[0] == 1.0
    v = cli.parse_potential("gaussian:c=-2,s=0.5,x0=0.7", d=1)
    assert v.c[0] == -2.0 and v.s[0] == 0.5 and v.x0[0, 0] == 0.7
    v = cli.parse_potential("gaussians:c=1,s=1;c=-0.5,s=2,x0=1", d=1)
    assert isinstance(v, GaussianMixturePotential) and len(v.c) == 2
    v = cli.parse_potential("gaussian:c=1,s=1,x0=0.5|0.25", d=2)
    assert v.d == 2 and v.x0[0, 1] == 0.25


@pytest.mark.parametrize("spec,token", [
    ("lorentz:c=2", "lorentz"),        # not a Gaussian
    ("gaussian:sigma=2", "sigma"),     # the width is s
    ("gaussian:c=1,x0=1|2", "x0=1|2"),  # two coordinates at d = 1
    ("gaussian:c=1,s", "item 's'"),   # an item without '='
    ("gaussian:c=abc", "c=abc"),       # not a number
])
def test_parse_potential_refuses_what_it_cannot_use(tmp_path, capsys, spec, token):
    with pytest.raises(ValueError, match=re.escape(token)):
        cli.parse_potential(spec, d=1)
    out = tmp_path / "out"
    code = cli.main(["trace", "--d", "1", "--alpha", "1.0", "--potential", spec,
                     "--n-modes", "64", "--points", "4", "--output", str(out)])
    assert code == 4
    assert token in capsys.readouterr().err
    assert not out.exists()


def run_cli(args, tmp_path):
    return cli.main(args + ["--output", str(tmp_path)])


def _read_result(tmp_path, name="result.json"):
    (d,) = [p for p in tmp_path.iterdir() if p.is_dir()]
    with open(d / name) as fh:
        return json.load(fh) if name.endswith("json") else fh.read()


def test_sample_csv_single_column(tmp_path):
    code = run_cli(
        ["sample", "--family", "stable", "--alpha", "1.5", "--t", "1.0",
         "--n", "50", "--seed", "3", "--format", "csv"],
        tmp_path,
    )
    assert code == 0
    text = _read_result(tmp_path, "result.csv")
    rows = [r for r in text.strip().splitlines()]
    assert len(rows) == 50
    assert all("," not in r for r in rows)
    assert all(float(r) > 0 for r in rows)


def test_manifest_contents_and_cache(tmp_path, capsys):
    args = ["kernel", "--d", "1", "--alpha", "1.0", "--t", "0.5", "--x", "0.0 1.0",
            "--seed", "1"]
    assert run_cli(args, tmp_path) == 0
    (d,) = [p for p in tmp_path.iterdir() if p.is_dir()]
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["experiment"] == "kernel"
    assert manifest["params"]["alpha"] == "1.0"
    assert "numpy" in manifest["versions"]
    capsys.readouterr()
    # second identical run is served from the cache
    assert run_cli(args, tmp_path) == 0
    assert "cached" in capsys.readouterr().out


def test_cache_collision_detected(tmp_path):
    args = ["schedule", "--J", "4", "--alpha", "1.0", "--seed", "1"]
    assert run_cli(args, tmp_path) == 0
    (d,) = [p for p in tmp_path.iterdir() if p.is_dir()]
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["canonical_config"] = "experiment=schedule\ntampered"
    (d / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli(args, tmp_path) == 3


def test_determinism_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["moments", "--alpha", "1.0", "--eta", "-0.5 -1.0", "--n", "20000",
            "--seed", "11"]
    assert cli.main(args + ["--output", str(a)]) == 0
    assert cli.main(args + ["--output", str(b)]) == 0
    (da,) = [p for p in a.iterdir() if p.is_dir()]
    (db,) = [p for p in b.iterdir() if p.is_dir()]
    assert (da / "result.json").read_bytes() == (db / "result.json").read_bytes()
    ra = _read_result(a)
    # and a different seed gives different numerics
    c = tmp_path / "c"
    assert cli.main(
        ["moments", "--alpha", "1.0", "--eta", "-0.5 -1.0", "--n", "20000",
         "--seed", "12", "--output", str(c)]
    ) == 0
    assert _read_result(c) != ra


def test_schedule_emits_matrix(tmp_path, capsys):
    assert run_cli(["schedule", "--J", "6", "--alpha", "1.0", "--seed", "0"], tmp_path) == 0
    out = capsys.readouterr().out
    assert "6  7  8  9  10" in out.replace("   ", "  ")
    payload = _read_result(tmp_path)
    assert payload["matrix"][4] == [6.0, 7.0, 8.0, 9.0, 10.0]
    assert payload["validity"]["max_M"] >= 1


def test_schedule_honours_M(tmp_path):
    assert run_cli(["schedule", "--J", "6", "--alpha", "1.0", "--M", "1", "--seed", "0"],
                   tmp_path) == 0
    payload = _read_result(tmp_path)
    assert payload["cutoff"] == coeff.phi_exponent(6, 1, 1.0)
    assert payload["cutoff"] != coeff.phi_exponent(6, 2, 1.0)


def test_trace_honours_L(tmp_path):
    assert run_cli(
        ["trace", "--alpha", "1.0", "--potential", "gaussian:c=-1,s=1", "--L", "10",
         "--n-modes", "128", "--points", "4", "--seed", "0"],
        tmp_path,
    ) == 0
    assert _read_result(tmp_path)["meta"]["L"] == 10.0


def test_trace_d2_records_the_symmetry_blocks(tmp_path):
    # a centred d=2 potential is solved in the square's symmetry blocks, on a
    # single grid: the Richardson pair holds in d=1 only
    blocks = {16: [36, 28, 56, 28, 21], 32: [136, 120, 240, 120, 105]}
    for n, sizes in blocks.items():
        assert run_cli(["trace", "--d", "2", "--alpha", "1.0", "--potential",
                        "gaussian:c=-1,s=1", "--L", "10", "--n-modes", str(n), "--points", "4",
                        "--seed", "0"], tmp_path / str(n)) == 0
        meta = _read_result(tmp_path / str(n))["meta"]
        assert meta["solve"] == "sectors" and meta["refined"] is False
        assert meta["block_sizes"] == sizes
        assert meta["block_multiplicities"] == [1, 1, 2, 1, 1]
        assert not [k for k in meta if k.startswith("fine_")]


def _manifest(root):
    (d,) = [p for p in root.iterdir() if p.is_dir()]
    return json.loads((d / "manifest.json").read_text())


def test_trace_d2_runs_at_its_defaults(tmp_path):
    # d chooses the --n-modes default, resolved before the cache key: 88 at
    # d = 2, whose largest sector block (1892 rows) is within the cap
    assert run_cli(["trace", "--d", "2", "--alpha", "1.0", "--potential", "gaussian:c=-1,s=1"],
                   tmp_path) == 0
    meta = _read_result(tmp_path)["meta"]
    assert meta["N"] == 88 and meta["block_sizes"] == [990, 946, 1892, 946, 903]
    assert _manifest(tmp_path)["params"]["n_modes"] == "88"
    d1 = cli.RunConfig("trace", {"alpha": "1.0", "potential": "gaussian:c=-1,s=1"})
    assert d1.params["n_modes"] == 1024


def test_trace_over_the_cap_refused_by_name(tmp_path, capsys):
    # at d = 2, N = 256 the largest sector block has 127 * 128 rows
    out = tmp_path / "out"
    assert cli.main(["trace", "--d", "2", "--alpha", "1.0", "--potential", "gaussian:c=-1,s=1",
                     "--n-modes", "256", "--output", str(out)]) == 4
    assert "the largest sector block has 16256 rows" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_records_warnings(tmp_path):
    # scipy's QAWF warning in the d=1 kernel at (alpha, t, x) = (1.5, 0.1, 0.5)
    # reaches the manifest once with its count, and is still re-emitted
    from scipy.integrate import IntegrationWarning

    with pytest.warns(IntegrationWarning, match="Bad integrand behavior") as emitted:
        assert run_cli(["kernel", "--d", "1", "--alpha", "1.5", "--t", "0.1", "--x", "0.5"],
                       tmp_path / "kernel") == 0
    (warned,) = _manifest(tmp_path / "kernel")["warnings"]
    assert warned["category"] == "IntegrationWarning" and warned["count"] == 1
    assert [str(w.message) for w in emitted] == [warned["message"]]
    assert warned["message"].startswith("Bad integrand behavior")
    assert run_cli(["constants", "--which", "K1", "--d", "2", "--alpha", "2", "--analytic"],
                   tmp_path / "constants") == 0
    assert _manifest(tmp_path / "constants")["warnings"] == []


def test_warning_filters_still_fire_through_the_runner(tmp_path):
    # a filter that turns the warning into an error aborts the run before
    # anything is written, as it did when the warning was not recorded
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        with pytest.raises(IntegrationWarning):
            run_cli(["kernel", "--d", "1", "--alpha", "1.5", "--t", "0.1", "--x", "0.5"],
                    tmp_path)
    assert not list(tmp_path.iterdir())


def test_argv_and_ini_hash_alike(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["schedule", "--J", "5", "--alpha", "1.5", "--M", "1", "--d", "1",
                     "--seed", "4", "--output", str(a)]) == 0
    ini = tmp_path / "schedule.ini"
    ini.write_text(f"[schedule]\nJ = 5\nalpha = 1.5\nM = 1\nd = 1\nseed = 4\n"
                   f"output = {b}\n")
    assert cli.main(["run", "--config", str(ini)]) == 0
    assert _manifest(a)["config_hash"] == _manifest(b)["config_hash"]


def test_code_change_invalidates_cache(tmp_path, monkeypatch, capsys):
    args = ["schedule", "--J", "4", "--alpha", "1.0", "--seed", "1"]
    assert run_cli(args, tmp_path) == 0
    assert run_cli(args, tmp_path) == 0
    assert "cached" in capsys.readouterr().out
    monkeypatch.setattr(cli, "_code_digest", lambda: "0" * 16)
    assert run_cli(args, tmp_path) == 0
    assert "cached" not in capsys.readouterr().out
    assert len([p for p in tmp_path.iterdir() if p.is_dir()]) == 2


def test_library_version_change_invalidates_cache(tmp_path, monkeypatch, capsys):
    # the hash covers every entry of VERSIONS, and the manifest records them
    args = ["schedule", "--J", "4", "--alpha", "1.0", "--seed", "1"]
    assert run_cli(args, tmp_path) == 0
    assert _manifest(tmp_path)["versions"] == cli.VERSIONS
    assert set(cli.VERSIONS) == {"fracheat", "numpy", "scipy", "python"}
    capsys.readouterr()
    assert run_cli(args, tmp_path) == 0
    assert "cached" in capsys.readouterr().out
    for i, name in enumerate(sorted(cli.VERSIONS)):
        with monkeypatch.context() as m:
            m.setitem(cli.VERSIONS, name, "0.0")
            assert run_cli(args, tmp_path) == 0
        assert "cached" not in capsys.readouterr().out
        assert len([p for p in tmp_path.iterdir() if p.is_dir()]) == i + 2


def test_no_cache_flag_is_gone(capsys):
    # a run is recomputed by deleting its directory; no flag skips the cache,
    # and trace picks its route from --d
    for argv, flag in ((["schedule", "--J", "4", "--alpha", "1.0", "--no-cache"], "--no-cache"),
                       (["trace", "--alpha", "1.0", "--potential", "gaussian:c=-1,s=1",
                         "--refine", "false"], "--refine")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2 and flag in capsys.readouterr().err


def _csv_writer_bytes(rows) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _sample_rows(payload, seed):
    spec = sub.SubordinatorSpec(payload["family"], payload["alpha"])
    s = spec.sample(payload["t"], np.random.default_rng(seed), size=payload["n"])
    return [(float(x),) for x in s]


@pytest.mark.parametrize("args, rows", [
    (["sample", "--alpha", "1.5", "--n", "200"], _sample_rows),
    (["moments", "--alpha", "1.5", "--eta", "-1.0 -0.5 0.3", "--n", "2000"],
     lambda p, _: [(p["alpha"], m["eta"], m["empirical"], m["stderr"], m["exact"], m["z"])
                   for m in p["moments"]]),
    (["kernel", "--d", "1", "--alpha", "1.5", "--t", "0.5 1.0", "--x", "0.0 0.5 2.0"],
     lambda p, _: [(r["d"], r["alpha"], r["t"], r["x"], r["value"]) for r in p["rows"]]),
    (["schedule", "--J", "5", "--alpha", "1.5"], lambda p, _: p["matrix"]),
    (["trace", "--alpha", "1.0", "--potential", "gaussian:c=-1,s=1", "--n-modes", "64",
      "--points", "6"],
     lambda p, _: list(zip(p["t"], p["raw"], p["normalized"]))),
], ids=["sample", "moments", "kernel", "schedule", "trace"])
def test_csv_matches_csv_writer(tmp_path, args, rows):
    # result.csv holds the bytes csv.writer writes for the result's values
    seed = 5
    for fmt in ("json", "csv"):
        assert cli.main(args + ["--seed", str(seed), "--format", fmt,
                                "--output", str(tmp_path / fmt)]) == 0
    payload = _read_result(tmp_path / "json")
    (d,) = (tmp_path / "csv").iterdir()
    assert (d / "result.csv").read_bytes().decode() == _csv_writer_bytes(rows(payload, seed))


def test_constants_analytic_path(tmp_path):
    assert run_cli(
        ["constants", "--which", "K1", "--d", "2", "--alpha", "2", "--analytic",
         "--seed", "0"],
        tmp_path,
    ) == 0
    payload = _read_result(tmp_path)
    assert payload["value"] == pytest.approx(1.0 / 12.0, abs=1e-10)
    assert payload["method"] == "closed_form" and "path" not in payload


#: the RQMC estimators evaluate 1000 points rounded up to whole scrambles;
#: the plain Monte Carlo p_t(0) estimators evaluate exactly 1000 samples
RQMC_1000 = {"method": "rqmc", "scrambles": coeff.SCRAMBLES, "n_samples": 1024}
COEFF_1000 = dict(RQMC_1000, increments="exact")
MC_1000 = {"method": "mc", "n_samples": 1000}


@pytest.mark.parametrize("args, want", [
    (["coeff", "--n-index", "1", "--j", "2", "--alpha", "1.8", "--potential",
      "gaussian:c=1,s=1", "--samples", "1000"], dict(COEFF_1000, terms=1)),
    (["coeff", "--n-index", "1", "--j", "3", "--alpha", "1.8", "--potential",
      "gaussian:c=1,s=1", "--samples", "1000"], dict(COEFF_1000, terms=3)),
    (["coeff", "--n-index", "0", "--j", "2", "--alpha", "1.8", "--potential",
      "gaussian:c=1,s=1", "--samples", "1000"], dict(COEFF_1000, terms=1)),
    (["constants", "--which", "L", "--alpha", "1.8", "--n", "1000"], RQMC_1000),
    (["relativistic", "--alpha", "1.0", "--m", "1.0", "--samples", "1000"], MC_1000),
    (["mixed", "--d", "2", "--alpha", "0.8", "--beta", "1.6", "--a", "1.0",
      "--samples", "1000"], MC_1000),
    # the Monte Carlo K3 has an infinite variance at d = 1, alpha <= 1
    (["constants", "--which", "M", "--alpha", "0.8", "--n", "1000"],
     {"method": "closed_form", "n_samples": 0}),
], ids=["coeff", "coeff j=3", "coeff n=0", "constants", "relativistic", "mixed",
        "constants closed form"])
def test_estimate_records_sampling(tmp_path, args, want):
    # payload and manifest carry the method, the scrambles of an RQMC
    # estimate, the number of points evaluated and a coefficient's terms
    assert run_cli(args + ["--seed", "0"], tmp_path) == 0
    payload = _read_result(tmp_path)
    assert {k: payload[k] for k in want} == want
    (d,) = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert json.loads((d / "manifest.json").read_text())["sampling"] == want


def test_coeff_zero_potential_records_no_sampling(tmp_path):
    # the zero potential's exact 0 runs no sampling, and neither the result
    # nor the manifest may say otherwise
    assert run_cli(["coeff", "--n-index", "0", "--j", "2", "--alpha", "1.0", "--potential",
                    "gaussian:c=0,s=1", "--samples", "1000", "--seed", "0"], tmp_path) == 0
    payload = _read_result(tmp_path)
    assert payload["value"] == 0.0 and payload["n_samples"] == 0
    assert payload["method"] == "zero_potential" and "scrambles" not in payload
    (d,) = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert json.loads((d / "manifest.json").read_text())["sampling"] == {
        "method": "zero_potential", "n_samples": 0}


def test_constants_analytic_requires_alpha2(tmp_path):
    for which in ("K1", "L"):
        code = run_cli(
            ["constants", "--which", which, "--d", "2", "--alpha", "1.5", "--analytic",
             "--seed", "0"],
            tmp_path,
        )
        assert code == 4


def test_coeff_validity_violation_named(tmp_path, capsys):
    code = run_cli(
        ["coeff", "--n-index", "2", "--j", "2", "--d", "1", "--alpha", "1.0",
         "--potential", "gaussian:c=1,s=1", "--samples", "1000", "--seed", "0"],
        tmp_path,
    )
    assert code == 4
    assert "violated" in capsys.readouterr().err


@pytest.mark.parametrize("n,d,alpha", [
    ("2", "1", "1.9"), ("2", "2", "1.5"), ("1", "1", "0.9"), ("1", "1", "1.1"), ("2", "3", "1.5"),
])
def test_coeff_computes_where_a_sampled_increment_factor_has_infinite_variance(
        tmp_path, n, d, alpha):
    # alpha <= 2n - d in the first three cells; every increment factor is
    # exact, so each cell runs and its manifest says so
    assert cli.main(["coeff", "--n-index", n, "--j", "2", "--d", d, "--alpha", alpha,
                     "--potential", "gaussian:c=1,s=1", "--samples", "1024", "--seed", "0",
                     "--output", str(tmp_path)]) == 0
    assert _read_result(tmp_path)["stderr"] > 0.0
    assert _manifest(tmp_path)["sampling"]["increments"] == "exact"


def test_trace_subcommand_with_fit(tmp_path):
    code = run_cli(
        ["trace", "--d", "1", "--alpha", "1.0", "--potential", "gaussian:c=-1,s=1",
         "--n-modes", "256", "--points", "16", "--fit", "--seed", "0"],
        tmp_path,
    )
    assert code == 0
    payload = _read_result(tmp_path)
    assert len(payload["t"]) == 16
    got = payload["fit"]["coefficients"][payload["fit"]["exponents"].index(1.0)]
    assert got == pytest.approx(math.sqrt(math.pi), rel=0.01)


def test_config_roundtrip(tmp_path):
    cfg = cli.RunConfig("kernel", {"alpha": "1.0", "t": "0.5"}, seed=9, fmt="csv")
    path = tmp_path / "roundtrip.ini"
    cli.save_config(cfg, str(path))
    back = cli.load_config(str(path))
    assert back == cfg
    assert back.hash == cfg.hash


def test_run_config_file(tmp_path):
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text(
        "[moments]\nalpha = 1.5\neta = -0.5\nn = 10000\nseed = 5\n"
        f"output = {tmp_path}\n"
    )
    cfg = cli.load_config(str(cfgfile))
    assert cfg.experiment == "moments" and cfg.seed == 5
    assert cli.main(["run", "--config", str(cfgfile)]) == 0
    payload = _read_result(tmp_path)
    assert abs(payload["moments"][0]["z"]) < 5


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACHEAT_OUTPUT", str(tmp_path / "envroot"))
    assert cli.main(["schedule", "--J", "3", "--alpha", "1.0", "--seed", "0"]) == 0
    assert (tmp_path / "envroot").exists()


def test_relativistic_and_mixed_subcommands(tmp_path):
    assert run_cli(
        ["relativistic", "--alpha", "1.0", "--m", "1.0", "--t", "0.5",
         "--samples", "20000", "--seed", "2"],
        tmp_path / "r" if (tmp_path / "r").mkdir() or True else tmp_path,
    ) == 0
    assert cli.main(
        ["mixed", "--alpha", "0.8", "--beta", "1.6", "--a", "1.0", "--t", "0.5",
         "--samples", "20000", "--seed", "2", "--output", str(tmp_path / "m")]
    ) == 0
    payload = _read_result(tmp_path / "m")
    assert payload["kernel_at_zero"] > 0


def _ini(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


@pytest.mark.parametrize("body,key", [
    ("J = 5\nnn = 5\nalpha = 1.5\n", "nn"),     # unknown key
    ("J = 5\n", "alpha"),                        # missing required key
    ("[trace]\nalpha = 1\npotential = gaussian:c=-1\nrefine = false\n", "refine"),  # gone
])
def test_ini_bad_keys_named(tmp_path, capsys, body, key):
    # the section is [schedule] unless the body names one
    section = "" if body.startswith("[") else "[schedule]\n"
    ini = _ini(tmp_path, f"{section}{body}output = {tmp_path / 'o'}\n")
    assert cli.main(["run", "--config", ini]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_ini_defaults_and_spelling_hash_like_argv(tmp_path):
    a = tmp_path / "a"
    assert cli.main(["schedule", "--J", "5", "--alpha", "1.5", "--seed", "4",
                     "--output", str(a)]) == 0
    want = _manifest(a)["config_hash"]
    # d and M omitted (defaulted), alpha written as 1.50
    for i, body in enumerate(["J = 5\nalpha = 1.5\n", "J = 5\nalpha = 1.50\nd = 1\n"]):
        out = tmp_path / f"b{i}"
        ini = _ini(tmp_path, f"[schedule]\n{body}seed = 4\noutput = {out}\n", f"{i}.ini")
        assert cli.main(["run", "--config", ini]) == 0
        assert _manifest(out)["config_hash"] == want


def test_manifest_lists_every_effective_parameter(tmp_path):
    assert run_cli(["trace", "--alpha", "1.0", "--potential", "gaussian:c=-1,s=1",
                    "--n-modes", "64", "--points", "4"], tmp_path) == 0
    params = _manifest(tmp_path)["params"]
    assert params == {"d": "1", "alpha": "1.0", "potential": "gaussian:c=-1,s=1",
                      "l": "40.0", "n_modes": "64", "tmin": "0.001", "tmax": "0.1",
                      "points": "4", "fit": "False", "exponents": "1.0 2.0 3.0 4.0"}
    # a config written from those params resolves to the same run
    cfg = cli.RunConfig("trace", params, output=str(tmp_path))
    assert cfg.hash == _manifest(tmp_path)["config_hash"]


def test_failed_run_leaves_no_directory(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["sample", "--family", "relativistic", "--alpha", "1", "--n", "10",
                     "--output", str(out)])
    assert code == 4
    assert not out.exists()


def test_trace_without_points_refused_by_name(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["trace", "--d", "1", "--alpha", "1.0", "--potential", "gaussian:c=-1,s=1",
                     "--n-modes", "64", "--points", "0", "--output", str(out)]) == 4
    assert "t_grid is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,flag", [
    (["--family", "stable", "--alpha", "1.5", "--m", "3"], "--m"),     # not used
    (["--family", "mixed", "--alpha", "0.8", "--beta", "1.6"], "--a"),  # lacking
])
def test_sample_family_parameters(tmp_path, capsys, args, flag):
    # the refusal is SubordinatorSpec's, naming the parameter without dashes
    assert run_cli(["sample"] + args + ["--n", "10"], tmp_path) == 4
    assert capsys.readouterr().err.rstrip().endswith(" " + flag[2:])


def test_kernel_row_near_the_origin_agrees_with_the_origin(tmp_path):
    # at |x| = 1e-3 the kernel lies within about 1e-6 of its value at 0
    assert run_cli(["kernel", "--d", "1", "--alpha", "1.9", "--t", "0.3",
                    "--x", "0.0 0.001"], tmp_path) == 0
    at_zero, near = (r["value"] for r in _read_result(tmp_path)["rows"])
    assert near == pytest.approx(at_zero, rel=2e-6)


def test_kernel_beyond_quadpack_exits_4_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["kernel", "--d", "2", "--alpha", "0.3", "--t", "0.01", "--x", "1",
                     "--output", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert "subdivisions" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args,named", [
    (["schedule", "--J", "4", "--alpha", "2.5"], "alpha=2.5 outside (0, 2]"),
    (["schedule", "--J", "4", "--alpha", "0"], "alpha=0.0 outside (0, 2]"),
    (["moments", "--alpha", "2"], "alpha=2"),           # S_1 = 1: stderr 0
    (["moments", "--alpha", "1.5", "--n", "1"], "n=1"),  # no standard error
    (["moments", "--alpha", "1.5", "--n", "0"], "n=0"),
    (["sample", "--alpha", "1.5", "--n", "0"], "n=0"),
    (["sample", "--alpha", "1.5", "--n", "-3"], "n=-3"),
    # Gamma(d/alpha) = Gamma(200) of E[S_1^{-d/2}] overflows a float
    (["coeff", "--n-index", "0", "--j", "2", "--d", "1", "--alpha", "0.005", "--potential",
      "gaussian:c=1,s=1", "--samples", "4096"], "Gamma argument 200 overflows"),
    # Gamma(d/alpha) = Gamma(200) of p_1(0) overflows a float: C_{d,alpha} read 0
    # and the constant NaN
    (["constants", "--which", "L", "--d", "4", "--alpha", "0.02", "--n", "4096"],
     "Gamma(d/alpha), Gamma argument 200, overflows"),
])
def test_degenerate_inputs_exit_4_and_write_nothing(tmp_path, capsys, args, named):
    out = tmp_path / "out"
    assert cli.main(args + ["--output", str(out)]) == 4
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("experiment,args,fmt", [
    ("schedule", ["--J", "4", "--alpha", "1.0"], "xml"),
    ("constants", ["--which", "L", "--alpha", "1.8", "--n", "100"], "csv"),
    ("coeff", ["--n-index", "0", "--j", "2", "--alpha", "1.0", "--potential", "gaussian:c=1"],
     "csv"),
    ("relativistic", ["--alpha", "1.0", "--m", "1.0"], "csv"),
    ("mixed", ["--alpha", "0.8", "--beta", "1.6", "--a", "1.0"], "csv"),
    ("acceptance", ["--only", "03"], "csv"),
])
def test_unwritable_format_refused_before_running(tmp_path, capsys, experiment, args, fmt):
    # by argv and by INI: exit 2 with the format named, and nothing written
    out = tmp_path / "out"
    assert cli.main([experiment] + args + ["--format", fmt, "--output", str(out)]) == 2
    assert fmt in capsys.readouterr().err
    keys = [a[2:].replace("-", "_").lower() for a in args[::2]]
    body = "".join(f"{k} = {v}\n" for k, v in zip(keys, args[1::2]))
    ini = _ini(tmp_path, f"[{experiment}]\n{body}format = {fmt}\noutput = {out}\n")
    assert cli.main(["run", "--config", ini]) == 2
    assert fmt in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match=fmt):
        cli.RunConfig(experiment, dict(zip(keys, args[1::2])), fmt=fmt)


def test_every_experiment_has_one_parameter_table():
    assert list(cli.PARAMS) == list(cli.EXPERIMENTS)
