"""Command-line front end: config parsing, experiment orchestration, and
deterministic file outputs.

Exit codes are a stable contract: 0 success, 1 property-suite failure,
2 config error or unwritable output, 3 input-data violation.  All
randomness flows from the config's master seed; outputs are byte-identical
across runs and across --jobs values.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cubes import cell_dims
from .limits import (
    _check_axis,
    _check_estimator_args,
    _check_fineness,
    estimate_log_mgf,
    estimate_mean_diagram,
    estimate_pb_density,
    legendre_transform,
    write_histogram_csv,
    write_mgf_csv,
    write_pb_csv,
    write_rate_csv,
)
from .models import (
    DistributionSpec,
    ModelSpec,
    format_filtration,
    parse_filtration,
    sample,
)
from .persistence import _pb_corners, compute_diagram, format_diagram

CONFIG_SCHEMA_VERSION = 1
FILTRATION_FORMAT_VERSION = 1
DIAGRAM_FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_DATA_VIOLATION = 3

CONFIG_KEYS = ("schema_version", "model", "q", "n", "n_list", "trials", "seed",
               "pairs", "fineness", "lambda_grid", "x_grid", "out_dir")
# the model fields each kind reads, beside its kind and d
MODEL_FIELDS = {"upper": ("mark", "marks"), "lower": ("mark", "marks"),
                "perturbed_lattice": ("perturbation",),
                "ball_cover": ("perturbation", "m_grid")}


class ConfigError(Exception):
    pass


class OutputError(Exception):
    """An output directory or file that cannot be written (exit 2)."""


@contextmanager
def _output(path: Path):
    """``path`` open for writing; an OSError raised in the block (opening,
    writing or closing the file) becomes an OutputError naming it, so the
    block should do nothing but write."""
    try:
        with open(path, "w") as fp:
            yield fp
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from None


def _integer(value, name: str) -> int:
    """A JSON integer; a float or a bool is rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A JSON number as a float; a string, a bool or an integer beyond the
    float range is rejected, never coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} lies beyond the float range") from None


def _check_keys(spec: dict, reads, where: str) -> None:
    """Reject a key of a parsed config object that nothing reads, so that a
    misspelt or misplaced key is never silently ignored."""
    for key in spec:
        if key not in reads:
            raise ConfigError(f"{where} does not read {key!r}")


def _parse_distribution(spec: dict) -> DistributionSpec:
    try:
        law = DistributionSpec(
            spec["family"],
            tuple(_number(p, "distribution params entry")
                  for p in spec.get("params", ())),
            _number(spec.get("p_inf", 0.0), "distribution p_inf"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad distribution spec {spec!r}: {exc}") from exc
    _check_keys(spec, ("family", "params", "p_inf"), "distribution")
    return law


def _parse_model(spec: dict) -> ModelSpec:
    """Every present field is parsed, and so type-checked, before the check
    that the model's kind reads it."""
    if not isinstance(spec, dict) or "kind" not in spec or "d" not in spec:
        raise ConfigError("model must be an object with 'kind' and 'd'")
    kind, d = spec["kind"], _integer(spec["d"], "model d")
    if kind in ("upper", "lower") and "marks" not in spec and "mark" not in spec:
        raise ConfigError(f"{kind} model needs 'marks' (per dimension) or "
                          "'mark' (broadcast)")
    marks = tuple(_parse_distribution(m) for m in spec.get("marks", ()))
    if "mark" in spec:
        marks = (_parse_distribution(spec["mark"]),) * (d + 1)
    perturbation = (_parse_distribution(spec["perturbation"])
                    if "perturbation" in spec else None)
    model = ModelSpec(kind, d, marks=marks, perturbation=perturbation,
                      m_grid=_integer(spec.get("m_grid", 4), "model m_grid"))
    if "mark" in spec and "marks" in spec:
        raise ConfigError("model takes 'mark' or 'marks', not both")
    _check_keys(spec, ("kind", "d", *MODEL_FIELDS[kind]), f"{kind} model")
    return model


def _parse_axis(grid: dict, name: str) -> np.ndarray:
    if "axis" in grid:
        axis = [_number(v, f"{name} axis entry") for v in grid["axis"]]
    else:
        try:
            axis = np.linspace(_number(grid["min"], f"{name} min"),
                               _number(grid["max"], f"{name} max"),
                               _integer(grid["points"], f"{name} points"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{name} needs 'axis' or min/max/points") from exc
    if "axis" in grid and grid.keys() & {"min", "max", "points"}:
        raise ConfigError(f"{name} takes 'axis' or min/max/points, not both")
    _check_keys(grid, ("axis", "min", "max", "points"), name)
    return _check_axis(axis, name)


@dataclass
class ExperimentConfig:
    model: ModelSpec
    q_list: list[int]
    n: int
    n_list: list[int]
    trials: int
    seed: int
    pairs: tuple[tuple[float, float], ...]
    fineness: int
    lambda_axis: np.ndarray | None
    x_axis: np.ndarray | None
    out_dir: str | None


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate the whole config up front so nothing fails mid-sampling; a
    value of the wrong type or shape is a ConfigError too, not a traceback."""
    try:
        return _parse_config(raw)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {CONFIG_SCHEMA_VERSION}, "
            f"got {raw.get('schema_version')!r}"
        )
    _check_keys(raw, CONFIG_KEYS, "config")
    model = _parse_model(raw.get("model", {}))

    q_raw = raw.get("q", 0)
    q_list = [_integer(q, "q")
              for q in (q_raw if isinstance(q_raw, list) else [q_raw])]
    if not q_list:
        raise ConfigError("q must be nonempty")

    if "n" not in raw and "n_list" not in raw:
        raise ConfigError("config needs 'n' (window radius) or 'n_list'")
    if raw.get("n_list") == []:
        raise ConfigError("n_list must be nonempty")
    n_list = ([_integer(v, "n_list entry") for v in raw.get("n_list", [])]
              or [_integer(raw["n"], "n")])
    n = _integer(raw.get("n", n_list[-1]), "n")
    trials = _integer(raw.get("trials", 1), "trials")
    for q in q_list:  # the estimators' own checks, before any sampling
        for radius in (n, *n_list):
            _check_estimator_args(model, q, radius, trials)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly increasing")
    seed = _integer(raw.get("seed", 0), "seed")
    if not 0 <= seed < 2**64:  # the streams read a seed's low 64 bits
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")

    pairs = []
    for p in raw.get("pairs", []):
        if not isinstance(p, list) or len(p) != 2:
            raise ConfigError(f"pairs entry must be a list [s, t], got {p!r}")
        pairs.append((_number(p[0], "pairs entry"), _number(p[1], "pairs entry")))
    _pb_corners(*np.reshape(pairs, (-1, 2)).T)

    fineness = _integer(raw.get("fineness", 2), "fineness")
    _check_fineness(fineness)

    lambda_axis = x_axis = None
    if "lambda_grid" in raw:
        lambda_axis = _parse_axis(raw["lambda_grid"], "lambda_grid")
        if not np.any(lambda_axis == 0.0):
            raise ConfigError("lambda_grid must contain 0 so the conjugate "
                              "is nonnegative by construction")
    if "x_grid" in raw:
        x_axis = _parse_axis(raw["x_grid"], "x_grid")

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")

    return ExperimentConfig(model, q_list, n, n_list, trials, seed, tuple(pairs),
                            fineness, lambda_axis, x_axis, out_dir)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fp:
            raw = json.load(fp)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to read
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_sample(config: ExperimentConfig, out_dir: Path) -> int:
    for trial in range(config.trials):
        filt = sample(config.model, config.n, config.seed, trial)
        path = out_dir / f"filtration_trial{trial:04d}.txt"
        with _output(path) as fp:
            fp.write(format_filtration(filt))
        dims = cell_dims(filt.region, np.flatnonzero(filt.grid < np.inf))
        counts = np.bincount(dims, minlength=filt.d + 1)
        summary = " ".join(f"q{q}={c}" for q, c in enumerate(counts.tolist()))
        print(f"trial {trial}: {summary} -> {path}")
    return EXIT_OK


def cmd_diagram(config: ExperimentConfig | None, filtration_path: str | None,
                out_dir: Path) -> int:
    if filtration_path is not None:
        try:  # a face-condition violation is a ValueError of compute_diagram
            diagram = compute_diagram(parse_filtration(Path(filtration_path).read_text()))
        except (OSError, ValueError) as exc:
            print(f"cannot read filtration: {exc}", file=sys.stderr)
            return EXIT_DATA_VIOLATION
        path = out_dir / (Path(filtration_path).stem + ".diagram.txt")
        with _output(path) as fp:
            fp.write(format_diagram(diagram))
        print(path)
        return EXIT_OK
    for trial in range(config.trials):
        filt = sample(config.model, config.n, config.seed, trial)
        diagram = compute_diagram(filt)
        path = out_dir / f"diagram_trial{trial:04d}.txt"
        with _output(path) as fp:
            fp.write(format_diagram(diagram))
        print(path)
    return EXIT_OK


def run_estimate(config: ExperimentConfig, which: str, out_dir: Path,
                 jobs: int) -> None:
    """Write the ``which`` estimate's CSVs for a parsed config to out_dir."""
    model, seed, trials = config.model, config.seed, config.trials
    out_dir.mkdir(parents=True, exist_ok=True)
    if which == "pb":
        if not config.pairs:
            raise ConfigError("estimate pb needs 'pairs'")
        estimates = [
            estimate_pb_density(model, q, config.pairs, n, trials, seed, jobs)
            for q in config.q_list
            for n in config.n_list
        ]
        with _output(out_dir / "pb.csv") as fp:
            write_pb_csv(fp, *estimates)
    elif which == "diagram":
        for q in config.q_list:
            result = estimate_mean_diagram(model, q, config.n, trials,
                                           config.fineness, seed, jobs)
            with _output(out_dir / f"histogram_q{q}.csv") as fp:
                write_histogram_csv(fp, result)
    elif which in ("mgf", "rate"):
        if not config.pairs:
            raise ConfigError(f"estimate {which} needs 'pairs'")
        if config.lambda_axis is None:
            raise ConfigError(f"estimate {which} needs 'lambda_grid'")
        if len(config.q_list) != 1:
            raise ConfigError(f"estimate {which} takes a single q, got "
                              f"{config.q_list}")
        if trials < 2:
            raise ConfigError(f"estimate {which} needs trials >= 2")
        if which == "rate" and config.x_axis is None:
            raise ConfigError("estimate rate needs 'x_grid'")
        axes = [config.lambda_axis] * len(config.pairs)
        phi = estimate_log_mgf(model, config.q_list[0], config.pairs, axes,
                               config.n, trials, seed, jobs)
        if which == "mgf":
            with _output(out_dir / "mgf.csv") as fp:
                write_mgf_csv(fp, phi)
        else:
            rate = legendre_transform(phi, [config.x_axis] * len(config.pairs))
            with _output(out_dir / "rate.csv") as fp:
                write_rate_csv(fp, rate)
    else:
        raise ConfigError(f"unknown estimate target {which!r}")


def cmd_verify(scale: str, jobs: int, out_dir: Path) -> int:
    import io
    import os

    from .verify import run_suite

    if jobs < 1:
        jobs = min(4, os.cpu_count() or 1)
    report = io.StringIO()  # written after the suite, so only writing is guarded
    results = run_suite(scale, jobs, report_fp=report)
    with _output(out_dir / "verify_report.json") as fp:
        fp.write(report.getvalue())
    return EXIT_OK if all(r.passed for r in results) else EXIT_SUITE_FAILURE


def _version_string() -> str:
    return (f"randcube {__version__} (config schema {CONFIG_SCHEMA_VERSION}, "
            f"filtration format {FILTRATION_FORMAT_VERSION}, "
            f"diagram format {DIAGRAM_FORMAT_VERSION})")


def nonnegative_int(text: str) -> int:
    """A --jobs value: an integer >= 0 (argparse exits 2 on anything else)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randcube",
        description="Cubical persistent homology of random filtration models: "
                    "sampling, diagrams, limit estimation, verification.",
    )
    parser.add_argument("--version", action="version",
                        version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="dump sampled filtrations")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--out", default=None)

    p_diag = sub.add_parser("diagram", help="compute persistence diagrams")
    group = p_diag.add_mutually_exclusive_group(required=True)
    group.add_argument("--config")
    group.add_argument("--filtration", help="filtration dump file")
    p_diag.add_argument("--out", default=None)

    p_est = sub.add_parser("estimate", help="run a limit estimator")
    p_est.add_argument("--which", required=True,
                       choices=["pb", "diagram", "mgf", "rate"])
    p_est.add_argument("--config", required=True)
    p_est.add_argument("--jobs", type=nonnegative_int, default=1)
    p_est.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run the exact-property suite")
    p_ver.add_argument("--scale", default="default",
                       choices=["smoke", "default", "deep"])
    p_ver.add_argument("--jobs", type=nonnegative_int, default=0,
                       help="worker count; 0 = up to 4 cores (the budgeted "
                            "configuration)")
    p_ver.add_argument("--out", default=".")
    return parser


def _resolve_out(arg_out: str | None, config: ExperimentConfig | None) -> Path:
    if arg_out is not None:
        return Path(arg_out)
    if config is not None and config.out_dir:
        return Path(config.out_dir)
    return Path(".")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # diagram --filtration and verify read no config
        config = load_config(args.config) if getattr(args, "config", None) else None
        out_dir = _resolve_out(args.out, config)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot create output directory {out_dir}: {exc}") from None
        if args.command == "sample":
            return cmd_sample(config, out_dir)
        if args.command == "diagram":
            return cmd_diagram(config, args.filtration, out_dir)
        if args.command == "estimate":
            run_estimate(config, args.which, out_dir, args.jobs)
            print(f"wrote {args.which} estimate to {out_dir}")
            return EXIT_OK
        if args.command == "verify":
            return cmd_verify(args.scale, args.jobs, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OutputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
