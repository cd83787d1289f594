"""Command-line front end: exit codes, outputs, determinism."""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import lmpspike
from lmpspike import case14_path, pipeline, stochastic
from lmpspike.cli import main

TOY_CASE = {
    "buses": [1, 2],
    "lines": [{"from": 1, "to": 2, "x": 1.0, "fmax": 4.0}],
    "generators": [{"bus": 1, "gmin": 0, "gmax": 20, "c2": 0.5, "c1": 0.0},
                   {"bus": 2, "gmin": 0, "gmax": 20, "c2": 0.5, "c1": 10.0}],
    "loads": {"2": 10.0},
    "renewables": [2],
    "reference": 1,
}


@pytest.fixture()
def toy_config(tmp_path):
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(TOY_CASE))
    config = {
        "case_path": str(case_path),
        "renewable_buses": [2],
        "forecast_fraction": 0.5,
        "sigma_theta": [[1.0]],
        "err_rel": [0.25],
        "mc_n_samples": 20000,
        "mc_seed": 99,
        "mc_bins": 60,
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path, tmp_path


def test_regions_command(toy_config, capsys):
    config_path, tmp = toy_config
    assert main(["regions", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "regions: 2" in out
    assert (tmp / "out" / "decomposition.json").exists()
    assert (tmp / "out" / "resolved_config.json").exists()


def test_rank_command(toy_config, capsys):
    config_path, tmp = toy_config
    assert main(["rank", "--config", str(config_path)]) == 0
    csv_path = tmp / "out" / "err_rel_0.25" / "decay_rates.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 buses
    out = capsys.readouterr().out
    assert "rank" in out


def test_rank_with_node_filter(toy_config):
    config_path, tmp = toy_config
    doc = json.loads(config_path.read_text())
    doc["node_filter"] = [2]
    config_path.write_text(json.dumps(doc))
    assert main(["rank", "--config", str(config_path)]) == 0
    csv_path = tmp / "out" / "err_rel_0.25" / "decay_rates.csv"
    assert len(csv_path.read_text().strip().splitlines()) == 2


def test_rank_with_explicit_bands(toy_config):
    config_path, tmp = toy_config
    doc = json.loads(config_path.read_text())
    doc.pop("err_rel")
    # prices at the mean injection are (4, 11)
    doc["alpha_minus"] = [3.0, 9.0]
    doc["alpha_plus"] = [5.0, 13.0]
    config_path.write_text(json.dumps(doc))
    assert main(["rank", "--config", str(config_path)]) == 0
    csv_path = tmp / "out" / "explicit_band" / "decay_rates.csv"
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 3
    assert rows[2].split(",")[3] != ""  # bus 2 leaves its band: finite rate


def test_err_rel_with_explicit_bands_exits_2(toy_config, capsys):
    config_path, _ = toy_config
    doc = json.loads(config_path.read_text())
    doc["alpha_minus"] = [3.0, 9.0]
    doc["alpha_plus"] = [5.0, 13.0]
    config_path.write_text(json.dumps(doc))
    assert main(["rank", "--config", str(config_path)]) == 2
    assert "not both" in capsys.readouterr().err


def test_mc_command_and_determinism(toy_config):
    config_path, tmp = toy_config
    assert main(["mc", "--config", str(config_path)]) == 0
    outdir = tmp / "out" / "err_rel_0.25"
    first = {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}
    hist_dir = outdir / "histograms"
    first_hist = {p.name: p.read_bytes() for p in sorted(hist_dir.glob("*"))}
    assert first and first_hist
    report = json.loads((outdir / "ranking_comparison.json").read_text())
    assert set(report) >= {"exact_match", "kendall_tau", "mc_order"}

    assert main(["mc", "--config", str(config_path)]) == 0
    again = {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}
    again_hist = {p.name: p.read_bytes() for p in sorted(hist_dir.glob("*"))}
    assert first == again
    assert first_hist == again_hist


def test_rank_sweep_creates_subdirectories(toy_config):
    config_path, tmp = toy_config
    assert main(["rank", "--config", str(config_path),
                 "--err-rel", "0.25,0.5"]) == 0
    assert (tmp / "out" / "err_rel_0.25").is_dir()
    assert (tmp / "out" / "err_rel_0.5").is_dir()


def _band_files(directory):
    """The files under `directory` but resolved_config.json, by path."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*"))
            if p.is_file() and p.name != "resolved_config.json"}


def test_mc_sweep_writes_what_single_band_runs_write(toy_config, capsys):
    """Each band of `mc --err-rel 0.1,0.25` gets the files and stdout lines
    that a one-band `mc --err-rel X` run writes, byte for byte."""
    config_path, tmp = toy_config
    assert main(["mc", "--config", str(config_path),
                 "--err-rel", "0.1,0.25"]) == 0
    swept = capsys.readouterr().out
    single_out = ""
    for value in ("0.1", "0.25"):
        alone = tmp / f"alone_{value}"
        assert main(["mc", "--config", str(config_path), "--err-rel", value,
                     "--out", str(alone)]) == 0
        single_out += capsys.readouterr().out
        band = f"err_rel_{value}"
        want = _band_files(alone / band)
        assert {"mc_probabilities.csv", "ranking_comparison.csv",
                "ranking_comparison.json",
                "histograms/lmp_hist_node2.json"} <= set(want)
        assert _band_files(tmp / "out" / band) == want
    assert swept == single_out


def test_mc_band_sweep_locates_and_prices_once(toy_config, monkeypatch):
    """One `cmd_mc` over three bands locates the samples and prices their
    blocks once, not once per band."""
    config_path, _ = toy_config
    config = replace(pipeline.AnalysisConfig.from_json(config_path),
                     err_rel=[0.1, 0.25, 0.5])
    study = pipeline.build_study(config)
    calls = Counter()

    def counted(name):
        fn = getattr(stochastic, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("locate", "_price_blocks"):
        monkeypatch.setattr(stochastic, name, counted(name))
    assert len(pipeline.cmd_mc(study, echo=lambda line: None)) == 6
    assert calls == {"locate": 1, "_price_blocks": 1}


def test_ptdf_command(toy_config, monkeypatch):
    """The PTDF comes from the case alone: nothing is enumerated or solved."""
    def fail(*args, **kwargs):
        raise AssertionError("ptdf must not enumerate regions or solve")

    monkeypatch.setattr(pipeline, "enumerate_regions", fail)
    monkeypatch.setattr(pipeline, "solve_opf", fail)
    config_path, tmp = toy_config
    assert main(["ptdf", "--config", str(config_path)]) == 0
    text = (tmp / "out" / "ptdf.csv").read_text().strip().splitlines()
    assert text[0] == "line,bus_1,bus_2"
    assert text[1].split(",")[0] == "1-2"


def test_missing_case_file_exits_2(toy_config):
    config_path, tmp = toy_config
    doc = json.loads(config_path.read_text())
    doc["case_path"] = str(tmp / "nope.m")
    config_path.write_text(json.dumps(doc))
    assert main(["regions", "--config", str(config_path)]) == 2


def test_bad_config_key_exits_2(toy_config):
    config_path, _ = toy_config
    doc = json.loads(config_path.read_text())
    doc["frobnicate"] = 1
    config_path.write_text(json.dumps(doc))
    assert main(["regions", "--config", str(config_path)]) == 2


def test_zero_err_rel_exits_2(toy_config):
    config_path, _ = toy_config
    assert main(["rank", "--config", str(config_path),
                 "--err-rel", "0"]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--err-rel", ","], "err_rel list is empty"),
    (["--err-rel", "0.25,x"], "bad --err-rel value"),
    (["--n-samples", "0"], "mc_n_samples must be >= 1"),
], ids=["empty-err-rel", "non-numeric-err-rel", "zero-n-samples"])
def test_bad_override_exits_2(toy_config, capsys, flags, message):
    config_path, _ = toy_config
    assert main(["mc", "--config", str(config_path), *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("err_rel, message", [
    ("0.25", "err_rel must be a number or a list of numbers"),
    ("25", "err_rel must be a number or a list of numbers"),
    (["x"], "err_rel entries must be numbers, not 'x'"),
    (["0.25"], "err_rel entries must be numbers, not '0.25'"),
    ([True], "err_rel entries must be numbers, not True"),
], ids=["string", "digit-string", "non-numeric-entry", "numeric-string-entry",
        "boolean-entry"])
def test_non_numeric_err_rel_exits_2(toy_config, capsys, err_rel, message):
    """A string is not read character by character ("25" as [2.0, 5.0]),
    and neither a string nor a boolean entry is converted to a number."""
    config_path, _ = toy_config
    doc = json.loads(config_path.read_text())
    doc["err_rel"] = err_rel
    config_path.write_text(json.dumps(doc))
    assert main(["rank", "--config", str(config_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("mc_n_samples", 1e5, "mc_n_samples must be an integer, not 100000.0"),
    ("mc_n_samples", True, "mc_n_samples must be an integer, not True"),
    ("mc_bins", 50.0, "mc_bins must be an integer, not 50.0"),
    ("mc_seed", 2.5, "mc_seed must be an integer, not 2.5"),
    ("mc_seed", -3, "mc_seed must be in [0, 2^64), got -3"),
    ("q", "0.018", "q must be a number, not '0.018'"),
    ("forecast_fraction", "0.5",
     "forecast_fraction must be a number, not '0.5'"),
    ("kappa", "2", "kappa must be a number, not '2'"),
    ("epsilon", True, "epsilon must be a number, not True"),
], ids=["float-n-samples", "boolean-n-samples", "float-bins", "float-seed",
        "negative-seed", "string-q", "string-forecast", "string-kappa",
        "boolean-epsilon"])
def test_bad_numeric_key_exits_2_before_any_build(toy_config, capsys,
                                                  monkeypatch, key, value,
                                                  message):
    """Scalar real keys take no bool or str, the Monte Carlo counts and
    seed no float either, and the seed lies in [0, 2^64); the config is
    rejected before a region is enumerated."""
    edits = {key: value}
    if key == "q":
        edits["sigma_theta"] = None
    _assert_mc_exits_2_before_any_build(toy_config, capsys, monkeypatch,
                                        edits, message)


@pytest.mark.parametrize("edits, message", [
    ({"renewable_buses": ["2"]},
     "renewable_buses must be a list of integers, not ['2']"),
    ({"renewable_buses": [2.0]},
     "renewable_buses must be a list of integers, not [2.0]"),
    ({"renewable_buses": 2},
     "renewable_buses must be a list of integers, not 2"),
    ({"node_filter": [True]},
     "node_filter must be a list of integers, not [True]"),
    ({"node_filter": ["2"]},
     "node_filter must be a list of integers, not ['2']"),
    ({"reference_bus": "1"},
     "reference_bus must be an integer or null, not '1'"),
    ({"sigma_theta": [["1"]]},
     "sigma_theta must be a list of lists of numbers, not [['1']]"),
    ({"mu_theta": ["5"], "forecast_fraction": None},
     "mu_theta must be a list of numbers, not ['5']"),
    ({"alpha_minus": ["1"], "alpha_plus": [30.0, 30.0], "err_rel": None},
     "alpha_minus must be a list of numbers, not ['1']"),
], ids=["string-bus", "float-bus", "scalar-buses", "boolean-filter",
        "string-filter", "string-reference", "string-sigma", "string-mu",
        "string-alpha"])
def test_bad_list_key_exits_2_before_any_build(toy_config, capsys,
                                               monkeypatch, edits, message):
    """Bus lists and the reference bus take integers only, and the mean,
    covariance and band lists real numbers only; the config is rejected
    before a region is enumerated."""
    _assert_mc_exits_2_before_any_build(toy_config, capsys, monkeypatch,
                                        edits, message)


@pytest.mark.parametrize("edits, message", [
    ({"alpha_minus": [3.0, 9.0], "err_rel": None},
     "explicit bands need both alpha_minus and alpha_plus"),
    ({"mu_theta": [5.0]}, "give exactly one of forecast_fraction or mu_theta"),
    ({"forecast_fraction": None},
     "give exactly one of forecast_fraction or mu_theta"),
    ({"q": 0.018}, "give exactly one of q or sigma_theta"),
    ({"sigma_theta": None}, "give exactly one of q or sigma_theta"),
    *[({name: value}, f"{name} must be positive")
      for name in ("gamma_line", "lambda_safety", "kappa", "tau_squared",
                   "epsilon") for value in (0.0, -1.0)],
    ({"mc_bins": 1}, "mc_bins must be >= 2"),
    ({"case_path": None}, "missing 1 required positional argument: "
                          "'case_path'"),
    ("{not json", "cannot read config"),
    (None, "cannot read config"),
], ids=["alpha-minus-alone", "forecast-and-mu", "neither-forecast-nor-mu",
        "q-and-sigma", "neither-q-nor-sigma",
        *[f"{sign}-{name}" for name in ("gamma_line", "lambda_safety", "kappa",
                                        "tau_squared", "epsilon")
          for sign in ("zero", "negative")],
        "one-bin", "no-case-path", "malformed-json", "no-config-file"])
def test_inconsistent_config_exits_2_before_any_build(toy_config, capsys,
                                                      monkeypatch, edits,
                                                      message):
    """Bands, mean and covariance are each given one way, the model
    parameters are positive, a histogram has two bins or more and the case
    is named; a config that breaks a rule, or a config file that cannot be
    read or parsed, is rejected before a region is enumerated."""
    _assert_mc_exits_2_before_any_build(toy_config, capsys, monkeypatch,
                                        edits, message)


def _assert_mc_exits_2_before_any_build(toy_config, capsys, monkeypatch,
                                        edits, message):
    """`mc` on the toy config with `edits` applied (None drops a key)
    exits 2 with `message` and enumerates no region and solves no dispatch.
    A string in place of `edits` is the config file's whole text, and None
    removes the file."""
    def fail(*args, **kwargs):
        raise AssertionError("a bad config must not reach the enumeration")

    monkeypatch.setattr(pipeline, "enumerate_regions", fail)
    monkeypatch.setattr(pipeline, "solve_opf", fail)
    config_path, _ = toy_config
    if edits is None:
        config_path.unlink()
    elif isinstance(edits, str):
        config_path.write_text(edits)
    else:
        doc = json.loads(config_path.read_text())
        for key, value in edits.items():
            if value is None:
                doc.pop(key)
            else:
                doc[key] = value
        config_path.write_text(json.dumps(doc))
    assert main(["mc", "--config", str(config_path)]) == 2
    assert message in capsys.readouterr().err


def test_scalar_err_rel_writes_what_a_one_entry_list_writes(toy_config):
    """`"err_rel": 0.25` runs as `[0.25]`: the same files, byte for byte,
    and the same resolved list."""
    config_path, tmp = toy_config
    trees = []
    for k, err_rel in enumerate(([0.25], 0.25)):
        doc = json.loads(config_path.read_text())
        doc["err_rel"] = err_rel
        config_path.write_text(json.dumps(doc))
        out = tmp / f"out_{k}"
        assert main(["mc", "--config", str(config_path), "--out",
                     str(out)]) == 0
        trees.append(_band_files(out))
        snap = json.loads((out / "err_rel_0.25" /
                           "resolved_config.json").read_text())
        assert snap["err_rel"] == [0.25]
    assert "err_rel_0.25/mc_probabilities.csv" in trees[0]
    assert trees[1] == trees[0]


def test_node_filter_with_unknown_bus_exits_2(toy_config, capsys):
    config_path, _ = toy_config
    doc = json.loads(config_path.read_text())
    doc["node_filter"] = [2, 7]
    config_path.write_text(json.dumps(doc))
    assert main(["rank", "--config", str(config_path)]) == 2
    assert "unknown bus 7" in capsys.readouterr().err


def test_no_renewable_buses_exits_2(tmp_path, capsys):
    """case14 with the default empty renewable_buses has no injection."""
    config = {"case_path": str(case14_path()), "forecast_fraction": 0.5,
              "q": 0.018, "output_dir": str(tmp_path / "out")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["regions", "--config", str(config_path)]) == 2
    assert "no renewable buses" in capsys.readouterr().err


def test_price_range_too_narrow_to_bin_exits_4(tmp_path):
    """At epsilon 1e-24 a node's sampled prices in the case14 study span
    fewer doubles than the 200 bins: one line of numerical failure and exit
    4, not numpy's ValueError traceback."""
    config = {"case_path": str(case14_path()), "renewable_buses": [4, 5],
              "forecast_fraction": 0.5, "q": 0.018, "epsilon": 1e-24,
              "mc_n_samples": 2000, "output_dir": str(tmp_path / "out")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    src = str(Path(lmpspike.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "lmpspike.cli", "mc",
                          "--config", str(config_path)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 4, run.stderr
    assert run.stderr.startswith("numerical failure: node index ")
    assert run.stderr.endswith("too narrow for 200 bins\n")
    assert run.stderr.count("\n") == 1


def test_infeasible_forecast_exits_3(toy_config):
    config_path, _ = toy_config
    doc = json.loads(config_path.read_text())
    doc.pop("forecast_fraction")
    doc["mu_theta"] = [15.0]  # beyond total demand: dispatch infeasible
    config_path.write_text(json.dumps(doc))
    assert main(["rank", "--config", str(config_path)]) == 3


def test_lower_dimensional_parameter_set_exits_3(toy_config):
    config_path, tmp = toy_config
    # the bus-2 unit must run at 10 or more, which pins the injection to 0
    case = json.loads((tmp / "case.json").read_text())
    case["generators"][1]["gmin"] = 10
    (tmp / "case.json").write_text(json.dumps(case))
    assert main(["rank", "--config", str(config_path)]) == 3


def test_fixed_output_unit_exits_2(toy_config, capsys):
    config_path, tmp = toy_config
    case = json.loads((tmp / "case.json").read_text())
    case["generators"][1]["gmin"] = case["generators"][1]["gmax"] = 5
    (tmp / "case.json").write_text(json.dumps(case))
    assert main(["rank", "--config", str(config_path)]) == 2
    assert "fold it into the bus load" in capsys.readouterr().err


def test_seed_and_out_overrides(toy_config):
    config_path, tmp = toy_config
    alt = tmp / "alt"
    assert main(["mc", "--config", str(config_path), "--seed", "123",
                 "--out", str(alt), "--n-samples", "5000"]) == 0
    snap = json.loads((alt / "err_rel_0.25" /
                       "resolved_config.json").read_text())
    assert snap["mc_seed"] == 123
    assert snap["mc_n_samples"] == 5000


def test_negative_seed_exits_2(toy_config, capsys):
    """From `--seed` and from the config alike."""
    config_path, _ = toy_config
    assert main(["mc", "--config", str(config_path), "--seed", "-1"]) == 2
    doc = json.loads(config_path.read_text())
    doc["mc_seed"] = -1
    config_path.write_text(json.dumps(doc))
    assert main(["mc", "--config", str(config_path)]) == 2
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err


def test_seven_renewables_regions_command(tmp_path, capsys):
    """case14 with renewables at buses 4, 5, 9, 10, 13, 14 and 12: the
    parameter set is read off 137 regions that cover it."""
    config = {"case_path": str(case14_path()),
              "renewable_buses": [4, 5, 9, 10, 13, 14, 12],
              "forecast_fraction": 0.3, "q": 0.018,
              "output_dir": str(tmp_path / "out")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["regions", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "regions: 137" in out
    assert "coverage_ratio: 1.000000" in out
