import json

import pytest

from randcube import limits
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
