import dataclasses
import hashlib
from pathlib import Path

import pytest

from cogrelay import AccessPolicy, SystemConfig, experiments_cli
from cogrelay.experiments_cli import (apply_sweep_value, load_spec, main,
                                      run_single, run_sweep, validate_config)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DEFAULTS_CFG = str(CONFIGS / "defaults.cfg")


# -- config files -----------------------------------------------------------

def test_bundled_config_matches_package_defaults():
    cfg, errors = validate_config(DEFAULTS_CFG)
    assert errors == []
    assert cfg == SystemConfig()


def test_bundled_sweep_specs_all_load():
    paths = sorted(CONFIGS.glob("sweep_*.spec"))
    assert len(paths) >= 6
    for path in paths:
        spec, errors = load_spec(str(path))
        assert errors == [], path.name
        assert spec.sweep_values == tuple(sorted(spec.sweep_values))


def test_override_beats_file_value():
    cfg, errors = validate_config(DEFAULTS_CFG, {"pu_arrival_rate": "0.7"})
    assert errors == []
    assert cfg.pu_arrival_rate == 0.7


def test_gain_db_keys_are_linearized():
    cfg, errors = validate_config(DEFAULTS_CFG, {"gain_pd_db": "-20"})
    assert errors == []
    assert cfg.gain_pd == pytest.approx(0.01)


def test_field_violations_name_the_field():
    cfg, errors = validate_config(DEFAULTS_CFG, {"beta": "1.5",
                                                 "noise_power": "-1"})
    assert cfg is None
    assert any(e.startswith("beta:") for e in errors)
    assert any(e.startswith("noise_power:") for e in errors)


def test_parse_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("pu_arrival_rate = 0.4\n"
                   "pu_arrival_rate = 0.5\n"
                   "no equals sign here\n"
                   "mystery_knob = 3\n")
    cfg, errors = validate_config(str(bad))
    assert cfg is None
    assert any("line 2" in e and "duplicate" in e for e in errors)
    assert any("line 3" in e for e in errors)
    assert any(e.startswith("mystery_knob:") for e in errors)


def test_missing_config_file_is_one_error(tmp_path):
    cfg, errors = validate_config(str(tmp_path / "nope.cfg"))
    assert cfg is None and len(errors) == 1


# -- sweep specs ------------------------------------------------------------

def _write_spec(tmp_path, body):
    p = tmp_path / "sweep.spec"
    p.write_text(body)
    return str(p)


def test_spec_missing_required_keys(tmp_path):
    spec, errors = load_spec(_write_spec(tmp_path, "methods = lp\n"))
    assert spec is None
    joined = "\n".join(errors)
    assert "sweep_variable: missing" in joined
    assert "sweep_values: missing" in joined
    assert "output_path: missing" in joined


def test_spec_rejects_bad_method_and_domain(tmp_path):
    spec, errors = load_spec(_write_spec(
        tmp_path,
        "sweep_variable = lambda_p\n"
        "sweep_values = 0.2 1.4\n"
        "methods = lp greedy\n"
        "output_path = out.csv\n"))
    assert spec is None
    joined = "\n".join(errors)
    assert "unknown method 'greedy'" in joined
    assert "1.4 out of domain for lambda_p" in joined


@pytest.mark.parametrize("variable, value", [
    ("lambda_p", "1.4"), ("beta", "-0.1"), ("alpha", "1.2"), ("n_p", "0"),
    ("n_p", "2.5"), ("n_s", "2.5"), ("r_ps", "0"), ("r_ps", "200"),
    ("sigma_pd", "0"),
])
def test_spec_rejects_values_outside_the_config_domain(tmp_path, variable,
                                                       value):
    # r_ps = 200 is distance_pd, which leaves no distance to the far end
    spec, errors = load_spec(_write_spec(
        tmp_path,
        f"sweep_variable = {variable}\n"
        f"sweep_values = {value}\n"
        "output_path = out.csv\n"))
    assert spec is None
    assert len(errors) == 1
    assert errors[0].startswith(
        f"sweep_values: {value} out of domain for {variable} (")


def test_spec_normalizes_order(tmp_path):
    spec, errors = load_spec(_write_spec(
        tmp_path,
        "sweep_variable = lambda_p\n"
        "sweep_values = 0.5, 0.1 0.3\n"
        "methods = st lp\n"
        "output_path = out.csv\n"))
    assert errors == []
    assert spec.sweep_values == (0.1, 0.3, 0.5)
    assert spec.methods == ("lp", "st")  # canonical order, not file order


def test_spec_config_keys_reach_base(tmp_path):
    spec, errors = load_spec(_write_spec(
        tmp_path,
        "relay_queue_capacity = 4\n"
        "gain_pd_db = -20\n"
        "sweep_variable = n_p\n"
        "sweep_values = 5 50\n"
        "output_path = out.csv\n"))
    assert errors == []
    assert spec.base.relay_queue_capacity == 4
    assert spec.base.gain_pd == pytest.approx(0.01)
    assert spec.methods == ("lp",)  # default


def test_position_sweep_slides_both_distances():
    cfg = apply_sweep_value(SystemConfig(), "r_ps", 30.0)
    assert cfg.distance_ps == 30.0
    assert cfg.distance_sd == 170.0
    assert cfg.distance_sr == 170.0
    assert cfg.distance_pd == 200.0


def test_buffer_sweep_refuses_a_fractional_size():
    with pytest.raises(ValueError, match="pu_queue_capacity"):
        apply_sweep_value(SystemConfig(), "n_p", 2.5)
    assert apply_sweep_value(SystemConfig(), "n_p", 3.0).pu_queue_capacity == 3


# -- CSV output -------------------------------------------------------------

def _idle_spec(tmp_path, name="one.csv"):
    return _write_spec(tmp_path,
                       "sweep_variable = lambda_p\n"
                       "sweep_values = 0.0\n"
                       "methods = lp\n"
                       f"output_path = {tmp_path / name}\n")


def test_single_point_sweep_csv(tmp_path):
    spec, errors = load_spec(_idle_spec(tmp_path))
    assert errors == []
    text = Path(run_sweep(spec)).read_text()
    header, columns, row = text.splitlines()
    assert header.startswith("# config_hash=")
    assert "grid=200" in header and "version=" in header
    assert columns == "lambda_p,method,mu_s,mu_p,mu_p_bar,feasible"
    cells = row.split(",")
    assert cells[0] == "0"
    assert cells[1] == "lp"
    assert cells[2] == "0.653993669"  # nine significant digits
    assert cells[4] == "0"
    assert cells[5] == "true"


def test_sweep_output_is_byte_stable(tmp_path):
    spec, _ = load_spec(_write_spec(
        tmp_path,
        "relay_queue_capacity = 3\n"
        "sweep_variable = lambda_p\n"
        "sweep_values = 0.1 0.4 0.8\n"
        "methods = lp st\n"
        f"output_path = {tmp_path / 'a.csv'}\n"))
    first = Path(run_sweep(spec)).read_bytes()
    again = dataclasses.replace(spec, output_path=str(tmp_path / "b.csv"))
    second = Path(run_sweep(again)).read_bytes()
    assert first == second


def test_infeasible_point_zeroes_the_row(tmp_path):
    spec, _ = load_spec(_write_spec(
        tmp_path,
        "relay_queue_capacity = 3\n"
        "sweep_variable = lambda_p\n"
        "sweep_values = 0.9\n"
        f"output_path = {tmp_path / 'c.csv'}\n"))
    row = Path(run_sweep(spec)).read_text().splitlines()[2].split(",")
    assert row[2] == "0"        # no secondary throughput claimed
    assert row[3] == "nan"      # no operating point exists
    assert row[5] == "false"


# sha256 of the CSV each bundled spec writes (the digests that
# scripts/run_experiments.py prints)
SWEEP_DIGESTS = {
    "sweep_arrival_rate.spec":
        "9eea79d3a5fd3ba6d2fcab66f03cd5475930db5f1fbd444a4c18fe813cc3d751",
    "sweep_pu_buffer.spec":
        "1c58b7195b527c2e2748a80fce199326f8039f64c4ef6d010bd779e34e8898f8",
    "sweep_receive_fraction.spec":
        "9e25416489505269cdd9e9d24541d2d19876a025f4255c9ac0d8fceeaed94378",
    "sweep_relay_buffer.spec":
        "e61b375bd62fa5e4e20e46a2f184522cd1b409a3645277367608066cf98e2707",
    "sweep_relay_position.spec":
        "cea6b1367380be66d5826f97fac1b48ebf926ac1a0058226d4c4a98db126df73",
    "sweep_time_share.spec":
        "f5548a11a60cc477959ec948c57113976515fffce23784ae53ec4fb8b623675b",
}


def test_bundled_sweeps_write_their_pinned_csvs(tmp_path):
    moved = []
    paths = sorted(CONFIGS.glob("sweep_*.spec"))
    assert [p.name for p in paths] == sorted(SWEEP_DIGESTS)
    for path in paths:
        spec, errors = load_spec(str(path), {
            "output_path": str(tmp_path / f"{path.stem}.csv")})
        assert errors == []
        text = Path(run_sweep(spec)).read_bytes()
        if hashlib.sha256(text).hexdigest() != SWEEP_DIGESTS[path.name]:
            moved.append(path.name)
    assert moved == [], (
        f"the CSV of {', '.join(moved)} changed: rerun "
        "scripts/run_experiments.py, record the moved rows in CHANGES.md "
        "and pin the new digests here")


# -- single-run reports -----------------------------------------------------

def test_explicit_policy_report(defaults):
    cfg = dataclasses.replace(defaults, relay_queue_capacity=2)
    text = run_single(cfg, policy=AccessPolicy((1.0, 0.5, 0.25)))
    assert "policy = 1,0.5,0.25\n" in text
    assert "feasible = true\n" in text
    occ_line = next(l for l in text.splitlines()
                    if l.startswith("relay_occupancy = "))
    assert len(occ_line.split("=", 1)[1].split(",")) == 3


def test_search_reports_show_their_knob(defaults):
    st_text = run_single(defaults, method="st")
    assert "method = st\n" in st_text
    assert any(l.startswith("threshold = ") for l in st_text.splitlines())
    lp_text = run_single(defaults, method="lp")
    assert any(l.startswith("swept_mu_p = ") for l in lp_text.splitlines())
    assert any(l.startswith("lp_objective = ") for l in lp_text.splitlines())


def test_overloaded_report_is_short(defaults):
    cfg = dataclasses.replace(defaults, pu_arrival_rate=0.9)
    text = run_single(cfg, method="lp")
    assert "status = pu_infeasible\n" in text
    assert "mu_s = 0\n" in text
    assert "relay_occupancy" not in text


@pytest.mark.parametrize("method", ["lp", "cpt", "st"])
def test_search_report_reuses_the_search_evaluation(defaults, monkeypatch,
                                                    method):
    # the search result already holds the evaluation of its policy
    def evaluate(config, policy):
        raise AssertionError("the searched policy was evaluated again")

    monkeypatch.setattr(experiments_cli, "evaluate_policy", evaluate)
    text = run_single(defaults, method=method)
    assert "feasible = true\n" in text


def test_exactly_one_input_mode(defaults):
    with pytest.raises(ValueError, match="method"):
        run_single(defaults)
    with pytest.raises(ValueError, match="method"):
        run_single(defaults, method="st", policy=AccessPolicy((1.0,) * 11))


# -- command line -----------------------------------------------------------

def test_cli_evaluate_round_trip(capsys):
    rc = main(["evaluate", "--config", DEFAULTS_CFG,
               "--policy", "1,1,1,1,1,0,0,0,0,0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("policy = 1,1,1,1,1,1,0,0,0,0,0\n")
    assert "mu_s = " in out


def test_cli_rejects_bad_override(capsys):
    rc = main(["evaluate", "--config", DEFAULTS_CFG, "--set", "beta=1.5"])
    assert rc == 2
    assert "beta" in capsys.readouterr().err


def test_cli_rejects_missing_spec(capsys):
    rc = main(["sweep", "--spec", "/nonexistent/path.spec"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_writes_file(tmp_path, capsys):
    rc = main(["sweep", "--spec", _idle_spec(tmp_path, "cli.csv")])
    assert rc == 0
    assert f"wrote {tmp_path / 'cli.csv'}" in capsys.readouterr().out
    assert (tmp_path / "cli.csv").exists()


def test_cli_optimize_without_capture(capsys):
    # a zero-length packet leaves no relay path: the exact search
    # reports the never-share policy instead of failing to build its LP
    rc = main(["optimize", "--config", DEFAULTS_CFG,
               "--set", "bits_per_bandwidth=0", "--method", "lp"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Traceback" not in captured.err
    assert "mu_s = 1\n" in captured.out
    assert "feasible = true" in captured.out


def test_cli_optimize_and_simulate(capsys):
    rc = main(["optimize", "--config", DEFAULTS_CFG, "--method", "st"])
    assert rc == 0
    assert "threshold = " in capsys.readouterr().out
    rc = main(["simulate", "--config", DEFAULTS_CFG,
               "--policy", "1,1,1,1,1,1,1,1,1,1",
               "--slots", "20000", "--seed", "3", "--warmup", "1000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sim seed=3:" in out
    assert "tv_relay=" in out


@pytest.mark.parametrize("flags, message", [
    (["--slots", "0"], "error: slots: must be >= 1, got 0"),
    (["--slots", "100", "--warmup", "-1"],
     "error: warmup: must be >= 0, got -1"),
    (["--slots", "100", "--seed", "-3"],
     "error: seed: must be a non-negative integer, got -3"),
    (["--slots", "100", "--seeds", "1,-2"],
     "error: seed: must be a non-negative integer, got -2"),
])
def test_cli_simulate_rejects_bad_numbers_before_searching(
        capsys, monkeypatch, flags, message):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking the arguments")

    monkeypatch.setattr(experiments_cli, "run_single", no_search)
    rc = main(["simulate", "--config", DEFAULTS_CFG] + flags)
    captured = capsys.readouterr()
    assert rc == 2
    assert "Traceback" not in captured.err
    assert message in captured.err.splitlines()


@pytest.mark.parametrize("flags, clash", [
    (["--policy", "1,1,1,1,1,1,1,1,1,1", "--method", "st"],
     "argument --method: not allowed with argument --policy"),
    (["--seed", "3", "--seeds", "1,2"],
     "argument --seeds: not allowed with argument --seed"),
], ids=["policy-method", "seed-seeds"])
def test_cli_simulate_refuses_both_flags_of_a_pair(capsys, monkeypatch,
                                                   flags, clash):
    # the two flags of each pair contradict each other, so the command
    # refuses the pair before any search
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking the arguments")

    monkeypatch.setattr(experiments_cli, "run_single", no_search)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", DEFAULTS_CFG, "--slots", "100"]
             + flags)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert clash in captured.err


RELAY_BUFFER_SPEC = str(CONFIGS / "sweep_relay_buffer.spec")


@pytest.mark.parametrize("key, value, message", [
    ("n_slots", "0", "n_slots: must be >= 1, got 0"),
    ("warmup_slots", "-5", "warmup_slots: must be >= 0, got -5"),
    ("seeds", "-1", "seed: must be a non-negative integer, got -1"),
])
def test_spec_rejects_run_settings_out_of_range(key, value, message):
    spec, errors = load_spec(RELAY_BUFFER_SPEC, {key: value})
    assert spec is None
    assert errors == [message]


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_cli_optimize_rejects_grid_below_two(capsys, monkeypatch, grid):
    # --grid is gone, so argparse refuses every value before any search
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking the arguments")

    monkeypatch.setattr(experiments_cli, "run_single", no_search)
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--config", DEFAULTS_CFG, "--method", "lp",
              "--grid", grid])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "Traceback" not in captured.err
    assert f"unrecognized arguments: --grid {grid}" in captured.err


def test_cli_optimize_has_no_grid_option(capsys, monkeypatch):
    # the exact search always solves 200 target rates
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking the arguments")

    monkeypatch.setattr(experiments_cli, "run_single", no_search)
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--config", DEFAULTS_CFG, "--method", "lp",
              "--grid", "60"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 60" in capsys.readouterr().err


@pytest.mark.parametrize("command, source", [
    (["sweep", "--spec"], RELAY_BUFFER_SPEC),
    (["optimize", "--method", "lp", "--config"], DEFAULTS_CFG),
], ids=["spec", "config"])
def test_grid_points_is_an_unknown_field(tmp_path, capsys, monkeypatch,
                                         command, source):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking the arguments")

    monkeypatch.setattr(experiments_cli, "run_single", no_search)
    monkeypatch.setattr(experiments_cli, "run_sweep", no_search)
    path = tmp_path / Path(source).name
    path.write_text(Path(source).read_text() + "grid_points = 60\n")
    rc = main(command + [str(path)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: grid_points: unknown field"]
