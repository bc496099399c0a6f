"""Command line interface: exit codes, report shapes, formats, config."""

import json
import math
from importlib import resources

import jsonschema
import pytest

from obmstop.cli import main

SCHEMA = json.loads(
    resources.files("obmstop").joinpath("report_schema.json").read_text())

R0_12 = 2.2170934247154497  # oracle_tools.critical_rate(1.0, 2.0, 2.1, 2.5)
SBM_BOUNDS_R1 = (-0.29289321881345248, -0.26572042175724098, 0.22505753155675878)


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_json(capsys, argv):
    rc, out, _err = run(capsys, argv + ["--format", "json"])
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return rc, report


def test_version(capsys):
    rc, out, _ = run(capsys, ["--version"])
    assert rc == 0
    assert out.startswith("obmstop ")


def test_usage_errors_exit_1(capsys):
    assert run(capsys, [])[0] == 1                      # no subcommand
    assert run(capsys, ["nope"])[0] == 1                # unknown subcommand
    assert run(capsys, ["solve", "--sigma1", "1", "--sigma2", "2"])[0] == 1  # no --r
    rc, _, err = run(capsys, ["solve", "--sigma1", "1", "--r", "1"])
    assert rc == 1 and "sigma" in err


def test_solve_one_sided_json(capsys):
    rc, rep = run_json(capsys, ["solve", "--sigma1", "1", "--sigma2", "2",
                                "--r", "4.5"])
    assert rc == 0
    assert rep["command"] == "solve"
    assert rep["params"] == {"sigma1": 1.0, "sigma2": 2.0, "r": 4.5,
                             "reward": "quad", "beta": None}
    res = rep["result"]
    assert res["regime"] == "OneSidedNegativeC"
    assert res["thresholds"]["c"] == pytest.approx(2.0 / 3.0 - 1.0, abs=1e-14)
    assert res["k"] == pytest.approx(4.0 * math.e / 9.0, rel=1e-12)
    assert res["verification"]["ok"] is True
    assert res["verification"]["failures"] == []
    comps = res["region"]["components"]
    assert len(comps) == 1
    assert comps[0]["lo"] == res["thresholds"]["c"] and comps[0]["hi"] is None
    assert "bubble" not in res


def test_solve_csv_roundtrips_json(capsys):
    argv = ["solve", "--sigma1", "1", "--sigma2", "2", "--r", "4.5"]
    _, rep = run_json(capsys, argv)
    rc, out, _ = run(capsys, argv + ["--format", "csv"])
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header == "regime,c,c1,c2,c3,k,a,b"
    fields = row.split(",")
    assert fields[0] == "OneSidedNegativeC"
    # %.17g round-trips doubles exactly
    assert float(fields[1]) == rep["result"]["thresholds"]["c"]
    assert float(fields[5]) == rep["result"]["k"]
    assert fields[2] == fields[3] == fields[4] == fields[6] == fields[7] == ""


def test_solve_bubble_json(capsys):
    rc, rep = run_json(capsys, ["solve", "--sigma1", "1", "--sigma2", "2",
                                "--r", "3.9"])
    assert rc == 0
    res = rep["result"]
    assert res["regime"] == "Bubble"
    th = res["thresholds"]
    assert th["c1"] == pytest.approx(-0.28388512596056714, rel=1e-9)
    assert th["c2"] == pytest.approx(-4.120484932962982e-05, rel=1e-6, abs=1e-12)
    assert th["c3"] == pytest.approx(0.019104054391641666, rel=1e-9)
    assert res["bubble"]["a"] == pytest.approx(0.81080029549031885, rel=1e-9)
    assert res["bubble"]["b"] == pytest.approx(0.1891997094330522, rel=1e-9)
    assert res["bubble"]["max_residual"] < 1e-10
    comps = res["region"]["components"]
    assert len(comps) == 2
    assert res["verification"]["ok"] is True


def test_solve_skew_mode(capsys):
    rc, rep = run_json(capsys, ["solve", "--beta", "0.75", "--r", "1"])
    assert rc == 0
    assert rep["params"]["sigma1"] == 2.0
    assert rep["params"]["sigma2"] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert rep["params"]["beta"] == 0.75
    assert rep["params"]["reward"] == "linear-skew"
    sbm = rep["result"]["sbm"]
    assert sbm["beta"] == 0.75
    assert sbm["zero_in_stopping_region"] is False
    assert len(sbm["boundaries"]) == 3
    for got, want in zip(sbm["boundaries"], SBM_BOUNDS_R1):
        assert got == pytest.approx(want, abs=1e-9)


def test_solve_skew_mode_concave_kink(capsys):
    # beta < 1/2: the reward kinks down at 0 and the region is [0, inf)
    rc, rep = run_json(capsys, ["solve", "--beta", "0.2873", "--r", "0.18"])
    assert rc == 0
    assert rep["result"]["regime"] == "OneSidedZeroC"
    assert rep["result"]["sbm"]["zero_in_stopping_region"] is True
    assert rep["result"]["verification"]["ok"] is True


def test_skew_mode_rejects_other_reward(capsys):
    rc, _, err = run(capsys, ["solve", "--beta", "0.75", "--reward", "quad",
                              "--r", "1"])
    assert rc == 1
    assert "skew-BM mode" in err


def test_classify(capsys):
    rc, rep = run_json(capsys, ["classify", "--sigma1", "1", "--sigma2", "2",
                                "--r", "1.0"])
    assert rc == 0
    assert rep["result"]["regime"] == "OneSidedPositiveC"
    assert rep["result"]["thresholds"]["c"] > 0
    rc, out, _ = run(capsys, ["classify", "--sigma1", "1", "--sigma2", "2",
                              "--r", "1.0"])
    assert rc == 0
    assert out.splitlines()[0] == "regime: OneSidedPositiveC"


def test_sweep_inserts_critical_rate_row(capsys):
    rc, rep = run_json(capsys, ["sweep", "--sigma1", "1", "--sigma2", "2",
                                "--r-min", "1.5", "--r-max", "4.5", "--n", "7"])
    assert rc == 0
    rows = rep["result"]["rows"]
    assert len(rows) == 8  # 7 grid rates plus the disconnection rate
    rates = [row["r"] for row in rows]
    assert rates == sorted(rates)
    marked = [row for row in rows if row["note"] == "r0"]
    assert len(marked) == 1
    assert marked[0]["r"] == pytest.approx(R0_12, abs=1e-10)
    by_r = {row["r"]: row for row in rows}
    assert by_r[1.5]["regime"] == "OneSidedPositiveC"
    assert by_r[3.0]["regime"] == "Bubble"
    assert by_r[4.5]["regime"] == "OneSidedNegativeC"
    assert by_r[3.0]["c"] is None and by_r[3.0]["c1"] < by_r[3.0]["c2"] < by_r[3.0]["c3"]


def test_sweep_without_disconnection_window(capsys):
    rc, rep = run_json(capsys, ["sweep", "--sigma1", "1", "--sigma2", "1.2",
                                "--r-min", "1.0", "--r-max", "3.0", "--n", "5"])
    assert rc == 0
    rows = rep["result"]["rows"]
    assert len(rows) == 5
    assert all(row["note"] is None for row in rows)
    cs = [row["c"] for row in rows]
    assert all(a > b for a, b in zip(cs, cs[1:]))  # threshold falls with the rate
    assert cs[0] > 0 and abs(cs[2]) <= 1e-12 and cs[-1] < 0  # crosses 0 at r = 2


def test_sweep_validates_range(capsys):
    rc, _, _ = run(capsys, ["sweep", "--sigma1", "1", "--sigma2", "2",
                            "--r-min", "3", "--r-max", "2"])
    assert rc == 1


def test_bubble_find_r0(capsys):
    rc, rep = run_json(capsys, ["bubble", "--sigma1", "1", "--sigma2", "2",
                                "--find-r0"])
    assert rc == 0
    assert rep["result"]["r0"] == pytest.approx(R0_12, abs=1e-10)
    assert rep["result"]["window"] == [2.0, 4.0]


def test_bubble_find_r0_linear_is_domain_error(capsys):
    # the linear reward has no disconnection window: a domain question
    rc, _, err = run(capsys, ["bubble", "--sigma1", "1", "--sigma2", "2",
                              "--find-r0", "--reward", "linear"])
    assert rc == 1
    assert "never disconnects" in err


def test_bubble_at_rate(capsys):
    rc, rep = run_json(capsys, ["bubble", "--sigma1", "1", "--sigma2", "2",
                                "--r", "2.1"])
    assert rc == 0
    assert rep["result"] == {"exists": False}
    rc, rep = run_json(capsys, ["bubble", "--sigma1", "1", "--sigma2", "2",
                                "--r", "3.9"])
    assert rc == 0
    assert rep["result"]["exists"] is True
    assert rep["result"]["c1"] < rep["result"]["c2"] < 0 < rep["result"]["c3"]
    # outside the window entirely: a domain error, not an empty answer
    rc, _, err = run(capsys, ["bubble", "--sigma1", "1", "--sigma2", "2",
                              "--r", "5"])
    assert rc == 1 and "error" in err


def test_oracle_compare(capsys):
    rc, rep = run_json(capsys, ["oracle", "--sigma1", "1", "--sigma2", "1",
                                "--r", "2", "--xmin", "-2", "--xmax", "2",
                                "--h", "0.05", "--compare"])
    assert rc == 0
    res = rep["result"]
    assert res["h"] == 0.05
    assert res["iterations"] >= 1
    assert res["bellman_residual"] < 1e-8
    assert len(res["region"]["components"]) == 1
    assert res["boundary_errors"] is not None
    assert len(res["boundary_errors"]) == 1
    assert res["boundary_errors"][0] <= 0.05  # within one cell of c = 0


def test_oracle_csv_is_full_grid(capsys):
    rc, out, _ = run(capsys, ["oracle", "--sigma1", "1", "--sigma2", "1",
                              "--r", "2", "--xmin", "-1", "--xmax", "1",
                              "--h", "0.5", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,g,V,stop"
    assert len(lines) == 1 + 5  # five grid nodes
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0 and last[3] == "1"


def test_oracle_iteration_cap_exit_3(capsys):
    rc, _, err = run(capsys, ["oracle", "--sigma1", "1", "--sigma2", "2",
                              "--r", "3.9", "--xmin", "-2", "--xmax", "4",
                              "--h", "0.001", "--max-iter", "5"])
    assert rc == 3
    assert "convergence" in err


def test_simulate_start_inside_region(capsys):
    rc, rep = run_json(capsys, ["simulate", "--sigma1", "1", "--sigma2", "2",
                                "--r", "4.5", "--x0", "0.5", "--paths", "50",
                                "--compare"])
    assert rc == 0
    res = rep["result"]
    assert res["value"] == 1.5**2  # g at the start point, no simulation noise
    assert res["stderr"] == 0.0
    assert res["censored_frac"] == 0.0
    assert res["n_paths"] == 50
    assert res["analytic_value"] == 1.5**2
    assert res["abs_error"] == 0.0
    rc, out, _ = run(capsys, ["simulate", "--sigma1", "1", "--sigma2", "2",
                              "--r", "4.5", "--x0", "0.5", "--paths", "50",
                              "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,stderr,n_paths,censored_frac"
    assert lines[1].split(",")[2] == "50"


def test_verify_solution(capsys):
    rc, rep = run_json(capsys, ["verify", "--sigma1", "1", "--sigma2", "2",
                                "--r", "3.9"])
    assert rc == 0
    res = rep["result"]
    assert res["regime"] == "Bubble"
    assert res["ok"] is True
    assert all(res["checks"].values())
    assert res["failures"] == []
    rc, out, _ = run(capsys, ["verify", "--sigma1", "1", "--sigma2", "2",
                              "--r", "3.9", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "check,ok,worst"
    assert len(lines) == 5
    assert all(line.split(",")[1] == "True" for line in lines[1:])


def test_verify_interface_fit_fails(capsys):
    rc, rep = run_json(capsys, ["verify", "--sigma1", "1", "--sigma2", "2",
                                "--r", "3", "--candidate", "interface-fit"])
    assert rc == 2
    res = rep["result"]
    assert res["candidate"] == "interface-fit"
    assert res["excessive"] is False
    assert res["representing_derivative_right_of_zero"] < 0
    # quadratic reward only
    rc, _, _ = run(capsys, ["verify", "--sigma1", "1", "--sigma2", "2",
                            "--r", "3", "--candidate", "interface-fit",
                            "--reward", "linear"])
    assert rc == 1


def test_figure_data_stopping_rate(capsys):
    rc, rep = run_json(capsys, ["figure-data", "--which", "stopping-rate",
                                "--n", "5"])
    assert rc == 0
    assert "params" not in rep
    res = rep["result"]
    assert res["which"] == "stopping-rate"
    assert res["columns"] == ["x", "q"]
    # defaults sigma1=1, sigma2=2, r=1.5; raw r(1+x)^2 - sigma(x)^2
    assert res["rows"] == [[-2.0, 0.5], [-1.0, -1.0], [0.0, -2.5],
                           [1.0, 2.0], [2.0, 9.5]]
    _, alias = run_json(capsys, ["figure-data", "--which", "fig1", "--n", "5"])
    assert alias["result"] == res


def test_figure_data_skew_reward(capsys):
    rc, rep = run_json(capsys, ["figure-data", "--which", "skew-reward",
                                "--n", "7"])
    assert rc == 0
    res = rep["result"]
    assert res["columns"] == ["x", "g"]
    assert res["rows"] == [[-3.0, 0.0], [-2.0, 0.0], [-1.0, 0.5], [0.0, 1.0],
                           [1.0, 2.5], [2.0, 4.0], [3.0, 5.5]]
    _, alias = run_json(capsys, ["figure-data", "--which", "fig3", "--n", "7"])
    assert alias["result"] == res
    _, other = run_json(capsys, ["figure-data", "--which", "skew-reward",
                                 "--beta", "0.6", "--n", "7"])
    ys = [row[1] for row in other["result"]["rows"]]
    assert ys == [0.0, 0.0, pytest.approx(0.2), 1.0,
                  pytest.approx(2.2), pytest.approx(3.4), pytest.approx(4.6)]


def test_figure_data_needs_which(capsys):
    rc, _, _ = run(capsys, ["figure-data"])
    assert rc == 1


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "obm.cfg"
    cfg.write_text("# model\nsigma1 = 1.0\nsigma2 = 2.0\nr = 1.0\n")
    rc, rep = run_json(capsys, ["classify", "--config", str(cfg)])
    assert rc == 0
    assert rep["result"]["regime"] == "OneSidedPositiveC"
    # explicit flags beat the config file
    rc, rep = run_json(capsys, ["classify", "--config", str(cfg), "--r", "4.5"])
    assert rc == 0
    assert rep["result"]["regime"] == "OneSidedNegativeC"


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    rc, _, err = run(capsys, ["classify", "--config", str(cfg), "--sigma1", "1",
                              "--sigma2", "2", "--r", "1"])
    assert rc == 1
    assert "unknown config key" in err


def test_output_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OBMSTOP_OUTPUT_DIR", str(tmp_path))
    rc, out, _ = run(capsys, ["classify", "--sigma1", "1", "--sigma2", "2",
                              "--r", "4.5", "--format", "json",
                              "--output", "rep.json"])
    assert rc == 0
    assert out == ""
    report = json.loads((tmp_path / "rep.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["result"]["regime"] == "OneSidedNegativeC"
    # absolute paths ignore the env dir
    target = tmp_path / "sub.json"
    monkeypatch.setenv("OBMSTOP_OUTPUT_DIR", str(tmp_path / "nowhere"))
    rc, _, _ = run(capsys, ["classify", "--sigma1", "1", "--sigma2", "2",
                            "--r", "4.5", "--format", "json",
                            "--output", str(target)])
    assert rc == 0
    assert target.exists()
