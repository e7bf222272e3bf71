import json
import os

import pytest

from randcube import cli, limits
from randcube.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_DATA_VIOLATION,
    EXIT_OK,
    ConfigError,
    main,
    parse_config,
    run_estimate,
)

BASE_CONFIG = {
    "schema_version": 1,
    "model": {
        "kind": "lower",
        "d": 2,
        "mark": {"family": "uniform", "params": [0.0, 1.0]},
    },
    "q": 0,
    "n": 2,
    "trials": 2,
    "seed": 5,
    "pairs": [[0.5, 0.5]],
    "fineness": 2,
    "lambda_grid": {"min": -10.0, "max": 10.0, "points": 21},
    "x_grid": {"min": 0.0, "max": 0.6, "points": 31},
}


def write_config(tmp_path, overrides=None, **model_overrides):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["model"].update(model_overrides)
    raw.update(overrides or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path, raw


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "randcube" in out and "schema 1" in out


def test_parse_config_validates_everything():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config({"schema_version": 99})
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"schema_version": 1, "model": {}})
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["q"] = 5
    with pytest.raises(ConfigError, match="out of range"):
        parse_config(raw)
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["lambda_grid"] = {"min": 0.5, "max": 1.0, "points": 5}
    with pytest.raises(ConfigError, match="contain 0"):
        parse_config(raw)


def test_sample_counts_and_determinism(tmp_path, capsys):
    cfg, _ = write_config(
        tmp_path,
        overrides={"n": 1, "trials": 1},
        mark={"family": "point_mass", "params": [0.5]},
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["sample", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["sample", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "q0=9 q1=12 q2=4" in stdout
    f1 = (out1 / "filtration_trial0000.txt").read_bytes()
    f2 = (out2 / "filtration_trial0000.txt").read_bytes()
    assert f1 == f2


def test_unknown_model_exits_2(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, overrides={"model": {"kind": "nope", "d": 2}})
    assert main(["sample", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


def test_diagram_from_fixture_and_round_trip(tmp_path, capsys):
    # hollow square born at 1, filled at 2
    lines = ["# 2 2 - -"]
    lines += [
        "2;0,0;00 1.0", "2;0,1;00 1.0", "2;1,0;00 1.0", "2;1,1;00 1.0",
        "2;0,0;10 1.0", "2;0,0;01 1.0", "2;0,1;10 1.0", "2;1,0;01 1.0",
        "2;0,0;11 2.0",
    ]
    filt_path = tmp_path / "hollow.txt"
    filt_path.write_text("\n".join(lines) + "\n")
    assert main(["diagram", "--filtration", str(filt_path),
                 "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    diagram_path = tmp_path / "hollow.diagram.txt"
    content = diagram_path.read_text().splitlines()
    assert "1 1.0 2.0" in content
    assert "0 1.0 inf" in content
    # idempotent: run again, byte-identical
    before = diagram_path.read_bytes()
    assert main(["diagram", "--filtration", str(filt_path),
                 "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert diagram_path.read_bytes() == before


def test_diagram_empty_filtration(tmp_path, capsys):
    filt_path = tmp_path / "empty.txt"
    filt_path.write_text("# 2 1 - -\n")
    assert main(["diagram", "--filtration", str(filt_path),
                 "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "empty.diagram.txt").read_text() == "# 2 1 1 -\n"


def test_diagram_violation_exits_3(tmp_path, capsys):
    filt_path = tmp_path / "broken.txt"
    filt_path.write_text("# 2 1 - -\n2;0,0;10 0.5\n2;0,0;00 1.0\n")
    assert main(["diagram", "--filtration", str(filt_path),
                 "--out", str(tmp_path)]) == EXIT_DATA_VIOLATION
    err = capsys.readouterr().err
    assert "monotone face condition" in err and "2;0,0;10" in err


@pytest.mark.parametrize("fault", ["nan_birth", "duplicate_line"])
def test_diagram_rejects_faulty_dump_exits_3(tmp_path, capsys, fault):
    lines = ["# 2 1 - -", "2;0,0;00 0.5", "2;0,0;10 0.7", "2;1,0;00 0.6"]
    if fault == "nan_birth":
        lines[2] = "2;0,0;10 nan"
    else:
        lines.insert(2, lines[1])
    filt_path = tmp_path / "faulty.txt"
    filt_path.write_text("\n".join(lines) + "\n")
    assert main(["diagram", "--filtration", str(filt_path),
                 "--out", str(tmp_path)]) == EXIT_DATA_VIOLATION
    assert "cannot read filtration" in capsys.readouterr().err
    assert not (tmp_path / "faulty.diagram.txt").exists()


@pytest.mark.parametrize("line", ["2;0,0;10", "2;0,0;10 0.7 0.8", "2;0,0;10 abc",
                                  "2;0,x;10 0.7"])
def test_diagram_names_malformed_dump_line_exits_3(tmp_path, capsys, line):
    filt_path = tmp_path / "faulty.txt"
    filt_path.write_text(f"# 2 1 - -\n2;0,0;00 0.5\n\n{line}\n")
    assert main(["diagram", "--filtration", str(filt_path),
                 "--out", str(tmp_path)]) == EXIT_DATA_VIOLATION
    assert f"malformed filtration line 4: '{line}'" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["# 2 x - -", "# - 1 - -", "# 2 1 x lower",
                                    "# 0 1 - -", "# 2 -1 - -"])
def test_diagram_names_malformed_dump_header_exits_3(tmp_path, capsys, header):
    filt_path = tmp_path / "faulty.txt"
    filt_path.write_text(f"{header}\n2;0,0;00 0.5\n")
    assert main(["diagram", "--filtration", str(filt_path),
                 "--out", str(tmp_path)]) == EXIT_DATA_VIOLATION
    err = capsys.readouterr().err
    assert f"cannot read filtration: malformed filtration header: '{header}'" in err
    assert not (tmp_path / "faulty.diagram.txt").exists()


def test_nonfinite_mark_parameter_exits_2(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, mark={"family": "uniform",
                                          "params": [float("nan"), 1.0]})
    assert main(["sample", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, model", [
    ({"trials": "many"}, {}),
    ({}, {"d": "two"}),
    ({"pairs": [[0.3]]}, {}),
    ({"lambda_grid": {"axis": ["x"]}}, {}),
])
def test_estimate_malformed_value_exits_2(tmp_path, capsys, overrides, model):
    cfg, _ = write_config(tmp_path, overrides=overrides, **model)
    assert main(["estimate", "--which", "mgf", "--config", str(cfg),
                 "--out", str(tmp_path / "est")]) == EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["mgf", "rate"])
def test_estimate_ldp_rejects_several_q(tmp_path, capsys, which):
    cfg, _ = write_config(tmp_path, overrides={"q": [0, 1]})
    assert main(["estimate", "--which", which, "--config", str(cfg),
                 "--out", str(tmp_path / "est")]) == EXIT_CONFIG_ERROR
    assert "single q" in capsys.readouterr().err


def test_estimate_pb_rejects_infinite_pair(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, overrides={"pairs": [[0.3, float("inf")]]})
    assert main(["estimate", "--which", "pb", "--config", str(cfg),
                 "--out", str(tmp_path / "est")]) == EXIT_CONFIG_ERROR
    assert "t < inf" in capsys.readouterr().err


@pytest.mark.parametrize("grid, which", [("lambda_grid", "mgf"), ("x_grid", "rate")])
def test_estimate_rejects_nan_grid_axis(tmp_path, capsys, grid, which):
    cfg, _ = write_config(tmp_path, overrides={grid: {"axis": [float("nan"), 0.0, 1.0]}})
    out = tmp_path / "est"
    assert main(["estimate", "--which", which, "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "finite" in capsys.readouterr().err
    assert not (out / f"{which}.csv").exists()


def test_estimate_mgf_has_zero_row(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    out = tmp_path / "est"
    assert main(["estimate", "--which", "mgf", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = (out / "mgf.csv").read_text().splitlines()
    zero_rows = [r for r in rows if r.startswith("0.0,")]
    assert zero_rows and zero_rows[0].split(",")[1] == "0.0"


def test_estimate_rate_nonnegative(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    out = tmp_path / "est"
    assert main(["estimate", "--which", "rate", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = (out / "rate.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) >= 0.0 for r in rows)


def test_estimate_pb_deterministic_model_zero_std(tmp_path, capsys):
    cfg, _ = write_config(
        tmp_path,
        overrides={"pairs": [[0.3, 0.3]], "trials": 3},
        mark={"family": "point_mass", "params": [0.2]},
    )
    out = tmp_path / "est"
    assert main(["estimate", "--which", "pb", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = (out / "pb.csv").read_text().splitlines()[1:]
    values = [float(r.split(",")[-1]) for r in rows]
    assert len(set(values)) == 1  # zero spread across trials


def test_estimate_diagram_bins_times_beyond_the_float_range(tmp_path, capsys):
    """Marks up to 1e308 give finite pairs whose scaled times overflow the
    float range; they lie beyond every rectangle and count as overflow."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "model": {"kind": "lower", "d": 2,
                  "mark": {"family": "uniform", "params": [0.0, 1e308]}},
        "q": 0, "n": 2, "trials": 2, "seed": 1, "fineness": 2}))
    out = tmp_path / "est"
    assert main(["estimate", "--which", "diagram", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert (out / "histogram_q0.csv").read_text().splitlines()[0] == \
        "l,i,j,count,normalized"


def test_run_estimate_matches_across_jobs(tmp_path):
    config = parse_config(json.loads(json.dumps(BASE_CONFIG)))
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    for which in ("pb", "mgf"):
        run_estimate(config, which, out1, jobs=1)
        run_estimate(config, which, out2, jobs=2)
    for f in out1.iterdir():
        assert (out2 / f.name).read_bytes() == f.read_bytes()


def test_smoke_verify_report_has_no_negative_zero(tmp_path, capsys):
    assert main(["verify", "--scale", "smoke", "--jobs", "1",
                 "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert "-0.0" not in (tmp_path / "verify_report.json").read_text()


def test_verify_durations_come_from_run_suite(tmp_path, capsys, monkeypatch):
    from types import SimpleNamespace

    from randcube import verify

    assert verify.check_cube_counting(verify.SCALES["smoke"]).seconds == 0.0
    clock = iter(range(0, 1000, 2))  # each check spans one 2 s step of this clock
    monkeypatch.setattr(verify, "time", SimpleNamespace(time=lambda: float(next(clock))))
    assert main(["verify", "--scale", "smoke", "--jobs", "1",
                 "--out", str(tmp_path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert len(lines) == len(report["checks"]) == len(verify.ALL_CHECKS)
    assert all(", 2.0s (" in line for line in lines)
    assert [c["seconds"] for c in report["checks"]] == [2.0] * len(verify.ALL_CHECKS)


@pytest.mark.parametrize("which, overrides, drop, message", [
    ("mgf", {"trials": 1}, None, "needs trials >= 2"),
    ("rate", {"trials": 1}, None, "needs trials >= 2"),
    ("rate", {}, "x_grid", "needs 'x_grid'"),
])
def test_estimate_ldp_config_faults_exit_2_before_sampling(
        tmp_path, capsys, monkeypatch, which, overrides, drop, message):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(limits, "sample", refuse)
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw.update(overrides)
    raw.pop(drop, None)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "est"
    assert main(["estimate", "--which", which, "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (out / f"{which}.csv").exists()


@pytest.mark.parametrize("field, overrides, model", [
    ("n", {"n": 2.7}, {}),
    ("n", {"n": True}, {}),
    ("n_list entry", {"n_list": [1, 2.0]}, {}),
    ("trials", {"trials": 3.9}, {}),
    ("q", {"q": 0.9}, {}),
    ("q", {"q": [0, 1.0]}, {}),
    ("seed", {"seed": 1.5}, {}),
    ("fineness", {"fineness": 2.5}, {}),
    ("model d", {}, {"d": 2.5}),
    ("model m_grid", {}, {"m_grid": 4.0}),
    ("lambda_grid points", {"lambda_grid": {"min": -1.0, "max": 1.0,
                                            "points": 3.0}}, {}),
    ("x_grid points", {"x_grid": {"min": 0.0, "max": 1.0, "points": True}}, {}),
], ids=["n", "n-bool", "n_list", "trials", "q", "q-list", "seed", "fineness",
        "d", "m_grid", "lambda-points", "x-points-bool"])
def test_non_integer_config_field_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, field, overrides, model):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(limits, "sample", refuse)
    cfg, _ = write_config(tmp_path, overrides=overrides, **model)
    out = tmp_path / "est"
    assert main(["estimate", "--which", "pb", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f"{field} must be an integer" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("message, overrides, model", [
    ("distribution params entry must be a number", {},
     {"mark": {"family": "uniform", "params": ["0.0", 1.0]}}),
    ("distribution params entry must be a number", {},
     {"mark": {"family": "uniform", "params": [0.0, True]}}),
    ("distribution p_inf must be a number", {},
     {"mark": {"family": "uniform", "params": [0.0, 1.0], "p_inf": "0.3"}}),
    ("distribution p_inf must be a number", {},
     {"mark": {"family": "uniform", "params": [0.0, 1.0], "p_inf": False}}),
    ("pairs entry must be a number", {"pairs": [["0.3", 0.5]]}, {}),
    ("pairs entry must be a number", {"pairs": [[0.3, True]]}, {}),
    ("pairs entry must be a list [s, t]", {"pairs": [[0.3, 0.5, 0.7]]}, {}),
    ("pairs entry must be a list [s, t]", {"pairs": [[0.3]]}, {}),
    ("pairs entry must be a list [s, t]", {"pairs": [0.3]}, {}),
    ("lambda_grid axis entry must be a number",
     {"lambda_grid": {"axis": [-1.0, "0", 1.0]}}, {}),
    ("lambda_grid min must be a number",
     {"lambda_grid": {"min": "-1", "max": 1.0, "points": 3}}, {}),
    ("x_grid max must be a number",
     {"x_grid": {"min": 0.0, "max": True, "points": 3}}, {}),
], ids=["params-string", "params-bool", "p_inf-string", "p_inf-bool", "pair-string",
        "pair-bool", "pair-three", "pair-one", "pair-scalar", "axis-string",
        "min-string", "max-bool"])
def test_non_number_config_field_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, message, overrides, model):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(limits, "sample", refuse)
    cfg, _ = write_config(tmp_path, overrides=overrides, **model)
    out = tmp_path / "est"
    assert main(["estimate", "--which", "pb", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, overrides", [
    (["estimate", "--which", "diagram"], {"n": 0, "n_list": [1, 2]}),
    (["sample"], {"n": -3, "n_list": [1, 2]}),
], ids=["estimate-n-zero", "sample-n-negative"])
def test_window_radius_n_below_1_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, command, overrides):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(limits, "sample", refuse)
    monkeypatch.setattr(cli, "sample", refuse)
    cfg, _ = write_config(tmp_path, overrides=overrides)
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert ("config error: bad config value: window radius must be >= 1 "
            "(volume normalization)") in err and "Traceback" not in err
    assert not out.exists()


def test_non_string_out_dir_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(cli, "sample", refuse)
    monkeypatch.chdir(tmp_path)
    cfg, _ = write_config(tmp_path, overrides={"out_dir": 5})
    assert main(["sample", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error: out_dir must be a string, got 5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["sample"], ["diagram"], ["estimate", "--which", "pb"], ["verify", "--scale", "smoke"],
], ids=["sample", "diagram", "estimate", "verify"])
def test_out_naming_a_file_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("ran past the output directory")

    monkeypatch.setattr(limits, "sample", refuse)
    monkeypatch.setattr(cli, "sample", refuse)
    monkeypatch.setattr("randcube.verify.run_suite", refuse)
    cfg, _ = write_config(tmp_path)
    if command[0] != "verify":
        command = [*command, "--config", str(cfg)]
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main([*command, "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"cannot create output directory {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("which, overrides, message", [
    # a grid axis is checked by the library's own axis check
    ("rate", {"x_grid": {"min": 0.0, "max": 0.6, "points": 0}},
     "bad config value: x_grid must be nonempty"),
    ("rate", {"x_grid": {"axis": []}}, "bad config value: x_grid must be nonempty"),
    ("mgf", {"lambda_grid": {"axis": []}},
     "bad config value: lambda_grid must be nonempty"),
    ("pb", {"n_list": []}, "n_list must be nonempty"),
    ("pb", {"n": 2, "n_list": []}, "n_list must be nonempty"),
    ("pb", {"q": []}, "q must be nonempty"),
], ids=["x-points-zero", "x-axis-empty", "lambda-axis-empty", "n_list-alone",
        "n_list-beside-n", "q-list"])
def test_empty_config_field_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, which, overrides, message):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(limits, "sample", refuse)
    raw = json.loads(json.dumps(BASE_CONFIG))
    if "n_list" in overrides and "n" not in overrides:
        del raw["n"]
    raw.update(overrides)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "est"
    assert main(["estimate", "--which", which, "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("field, overrides, model", [
    ("distribution params entry", {},
     {"mark": {"family": "uniform", "params": [0, 10**400]}}),
    ("pairs entry", {"pairs": [[0.5, 10**400]]}, {}),
    ("x_grid axis entry", {"x_grid": {"axis": [0, -10**400]}}, {}),
], ids=["distribution-param", "pairs-entry", "axis-entry"])
def test_float_field_beyond_float_range_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, field, overrides, model):
    """A JSON integer too large for a float, in a float field, is named."""
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(cli, "sample", refuse)
    cfg, _ = write_config(tmp_path, overrides=overrides, **model)
    out = tmp_path / "dumps"
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {field} lies beyond the float range\n"
    assert not out.exists()


def test_integer_too_long_to_read_exits_2(tmp_path, capsys):
    """json refuses an integer of more than 4300 digits with a plain
    ValueError, which is a config error too."""
    cfg, _ = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace('"seed": 5', '"seed": 5' + "0" * 5000))
    out = tmp_path / "dumps"
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {cfg} is not valid JSON: Exceeds the limit")
    assert not out.exists()


def test_config_seed_must_fit_in_64_bits(tmp_path, capsys):
    for seed, code in ((2**64, EXIT_CONFIG_ERROR), (-1, EXIT_CONFIG_ERROR),
                       (2**64 - 1, EXIT_OK)):
        cfg, _ = write_config(tmp_path, overrides={"seed": seed, "n": 1, "trials": 1})
        out = tmp_path / f"dumps{seed}"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert f"# 2 1 {seed} lower" in (out / "filtration_trial0000.txt").read_text()
        else:
            assert f"seed must lie in [0, 2**64), got {seed}" in err
            assert not out.exists()


@pytest.mark.parametrize("command, zero_means", [
    (["estimate", "--which", "pb"], 0),  # ordered_map runs jobs <= 1 in this process
    (["verify", "--scale", "smoke"], min(4, os.cpu_count() or 1)),  # up to 4 cores
], ids=["estimate", "verify"])
def test_jobs_rejects_negatives_and_keeps_zero(tmp_path, capsys, monkeypatch,
                                               command, zero_means):
    seen = []
    monkeypatch.setattr(limits, "ordered_map",
                        lambda fn, tasks, jobs: seen.append(jobs) or [fn(t) for t in tasks])
    monkeypatch.setattr("randcube.verify.run_suite",
                        lambda scale, jobs, report_fp: seen.append(jobs) or [])
    cfg, _ = write_config(tmp_path)
    if command[0] == "estimate":
        command = [*command, "--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main([*command, "--jobs", "-3", "--out", str(tmp_path / "negative")])
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert "argument --jobs: must be >= 0, got -3" in capsys.readouterr().err
    assert seen == [] and not (tmp_path / "negative").exists()
    assert main([*command, "--jobs", "0", "--out", str(tmp_path / "zero")]) == EXIT_OK
    assert seen == [zero_means]


@pytest.mark.parametrize("message, overrides", [
    ("bad config value: corner (s, t) = (0.6, 0.4) violates 0 <= s <= t < inf",
     {"pairs": [[0.3, 0.5], [0.6, 0.4], [0.9, 0.1]]}),
    ("bad config value: q=2 out of range for d=2", {"q": [0, 2]}),
    ("bad config value: trials must be >= 1", {"trials": 0}),
    ("bad config value: window radius must be >= 1 (volume normalization)",
     {"n_list": [0, 2]}),
    ("bad config value: fineness l must be >= 1", {"fineness": 0}),
    ("n_list must be strictly increasing", {"n_list": [4, 4]}),
], ids=["corner", "degree", "trials", "radius", "fineness", "n_list-increasing"])
def test_config_value_fault_exits_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                     message, overrides):
    """The library's own checks (every case but the n_list rule, which is
    the config's alone) reject a config value before any sampling."""
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(limits, "sample", refuse)
    cfg, _ = write_config(tmp_path, overrides=overrides)
    out = tmp_path / "est"
    assert main(["estimate", "--which", "pb", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


PERTURBATION = {"family": "uniform", "params": [-0.25, 0.25]}


@pytest.mark.parametrize("message, overrides, model", [
    ("config does not read 'trails'", {"trails": 7}, {}),
    ("lower model does not read 'colour'", {}, {"colour": "red"}),
    ("lower model does not read 'perturbation'", {}, {"perturbation": PERTURBATION}),
    ("lower model does not read 'm_grid'", {}, {"m_grid": 1}),
    ("perturbed_lattice model does not read 'mark'", {},
     {"kind": "perturbed_lattice", "perturbation": PERTURBATION}),
    ("ball_cover model does not read 'marks'", {},
     {"kind": "ball_cover", "perturbation": PERTURBATION, "mark": None,
      "marks": [BASE_CONFIG["model"]["mark"]] * 3}),
    ("model takes 'mark' or 'marks', not both", {},
     {"marks": [BASE_CONFIG["model"]["mark"]] * 3}),
    ("distribution does not read 'parms'", {},
     {"mark": {"family": "uniform", "params": [0.0, 1.0], "parms": [0.0, 2.0]}}),
    ("lambda_grid does not read 'step'",
     {"lambda_grid": {"min": -1.0, "max": 1.0, "points": 3, "step": 1.0}}, {}),
    ("x_grid takes 'axis' or min/max/points, not both",
     {"x_grid": {"axis": [0.0, 0.5], "min": 0.0, "max": 0.6, "points": 31}}, {}),
], ids=["top-level", "model-unknown", "lower-perturbation", "lower-m_grid",
        "lattice-mark", "ball_cover-marks", "mark-and-marks", "distribution",
        "grid", "axis-and-points"])
def test_unread_config_key_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, message, overrides, model):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(limits, "sample", refuse)
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["model"].update(model)
    raw["model"] = {key: v for key, v in raw["model"].items() if v is not None}
    raw.update(overrides)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "est"
    assert main(["estimate", "--which", "rate", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_readme_config_example_parses():
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Config schema.*?```jsonc\n(.*?)```", readme, re.S).group(1)
    config = parse_config(json.loads(re.sub(r"//.*", "", block)))
    assert config.model.kind == "lower" and config.trials == 100
