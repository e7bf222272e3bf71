"""The benchmark's three workloads.

Each workload runs whole rounds of the same operations.  An operation is
timed alone (through ``speed.SpeedSampler.timed``), with the ``cubes``
lru_caches cleared first, as a CLI user's fresh process would find them; its
outputs are checked afterwards, outside the timed region.  Library calls go
through module attributes so that the traced run's wrappers see them.

* window_d3: one large d=3 window per sampler, pushed through sample ->
  validate -> compute_diagram -> dump/parse round trip -> format_diagram,
  plus two untimed probes of known input faults.
* estimate_d2: ``randcube estimate --which pb|diagram|mgf|rate --jobs 1``
  through ``cli.main`` on the lower model at d=2.
* verify_smoke: every check of ``verify.ALL_CHECKS`` at the smoke scale with
  jobs=1, except ``check_determinism``.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from randcube import cli, cubes, models, persistence, verify

import checks
from spans import LRU_FUNCTIONS

# untraced originals for the checks; the traced run rebinds the module names
_format_filtration = models.format_filtration
_sample = models.sample
_persistent_betti_direct = persistence.persistent_betti_direct

UNIFORM = {"family": "uniform", "params": [0.0, 1.0]}
EPS = 0.25  # perturbation half-width of perturbed_lattice and ball_cover
PERTURBATION = {"family": "uniform", "params": [-EPS, EPS]}

# (label, model config, window radius): tie-free windows of 9,261 cubes
# (n=5) and 4,913 cubes (ball_cover at n=4, which costs one KD-tree query
# per cube)
WINDOW_MODELS = (
    ("lower", {"kind": "lower", "d": 3, "mark": UNIFORM}, 5),
    ("upper", {"kind": "upper", "d": 3, "mark": UNIFORM}, 5),
    ("plattice", {"kind": "perturbed_lattice", "d": 3,
                  "perturbation": PERTURBATION}, 5),
    ("ballcover", {"kind": "ball_cover", "d": 3, "perturbation": PERTURBATION,
                   "m_grid": 4}, 4),
)

# estimate_d2 inputs: lower model at d=2 on [-8, 8]^2 (volume 256, so every
# volume-scaled mass is exact in binary), 16 trials, fineness 3 (1,225
# dyadic grid pairs), two (s, t) pairs and a 21 x 21 lambda grid
ESTIMATE_N = 8
ESTIMATE_TRIALS = 16
ESTIMATE_PAIRS = ((0.3, 0.5), (0.5, 0.5))
ESTIMATE_FINENESS = 3
ESTIMATE_TARGETS = (("pb", "pb"), ("mean_diagram", "diagram"), ("mgf", "mgf"),
                    ("rate", "rate"))
RANK_CHECKED_TRIALS = 2  # trials re-derived by the rank route each round

# a d=2, n=1 lower window whose dump the fault probes corrupt; fixed, so the
# probes do not depend on the workload seed
PROBE_SEED = 0


def _clear_caches() -> None:
    for fn in LRU_FUNCTIONS:
        getattr(cubes, fn).cache_clear()


def _add_cache_counts(acc: dict) -> None:
    for fn in LRU_FUNCTIONS:
        info = getattr(cubes, fn).cache_info()
        acc[f"{fn}.hits"] = acc.get(f"{fn}.hits", 0) + info.hits
        acc[f"{fn}.misses"] = acc.get(f"{fn}.misses", 0) + info.misses


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@dataclass
class Round:
    """What one round did: the scaled and unscaled time of each operation,
    the units of work carried through them, operations attempted and failed,
    check errors and lru_cache counts."""

    op_s: dict[str, float] = field(default_factory=dict)
    raw_s: dict[str, float] = field(default_factory=dict)
    work: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    lru: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.op_s.values())

    def record(self, label: str, timing) -> object:
        """Store one operation's times from SpeedSampler.timed; return its
        result."""
        result, self.raw_s[label], self.op_s[label] = timing
        return result


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def config_paths(self) -> list[Path]:
        """Config files a set-up parses (written before set-up is timed)."""
        return []

    def run_round(self, index: int, sampler, recorder=None) -> Round:
        raise NotImplementedError

    @staticmethod
    def _span(recorder, name):
        return recorder.span(name) if recorder else contextlib.nullcontext()

    @staticmethod
    def _untraced(recorder):
        return recorder.discard() if recorder else contextlib.nullcontext()

    def details(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        """Workload-specific figures, named as in the README."""
        return {}


def _median_op(rounds, key):
    return statistics.median(r.op_s[key] for r in rounds)


def _median_rate(rounds):
    return statistics.median(r.work / r.seconds for r in rounds)


class WindowD3(Workload):
    name = "window_d3"
    work_unit = "finite-birth cubes"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.models = []
        for label, model, n in WINDOW_MODELS:
            path = work_dir / f"window_{label}.json"
            path.write_text(json.dumps({"schema_version": 1, "model": model,
                                        "n": n, "seed": seed}))
            self.models.append((label, path, cli.load_config(str(path))))
        self.probes = self._write_probes()

    def config_paths(self):
        return [path for _, path, _ in self.models]

    def _write_probes(self) -> list[Path]:
        """Two dumps that the CLI should reject with exit code 3: the top
        cube's birth is nan, and one cube line is duplicated."""
        spec = models.ModelSpec("lower", 2, marks=(models.DistributionSpec(
            "uniform", (0.0, 1.0)),) * 3)
        lines = _format_filtration(_sample(spec, 1, PROBE_SEED)).splitlines()
        top = next(i for i, ln in enumerate(lines) if ln.split()[0].endswith(";11"))
        nan_lines = list(lines)
        nan_lines[top] = nan_lines[top].split()[0] + " nan"
        dup_lines = lines[:2] + [lines[1]] + lines[2:]
        paths = []
        for name, body in (("probe_nan_birth", nan_lines),
                           ("probe_duplicate_line", dup_lines)):
            path = self.work_dir / f"{name}.txt"
            path.write_text("\n".join(body) + "\n")
            paths.append(path)
        return paths

    @staticmethod
    def _pipeline(config, trial):
        filt = models.sample(config.model, config.n, config.seed, trial)
        violation = persistence.validate(filt)
        diagram = persistence.compute_diagram(filt)
        dump = models.format_filtration(filt)
        back = models.parse_filtration(dump)
        text = persistence.format_diagram(diagram)
        return filt, violation, diagram, dump, back, text

    def run_round(self, index, sampler, recorder=None):
        out = Round()
        for label, _, config in self.models:
            kind, d, n = config.model.kind, config.model.d, config.n
            _clear_caches()
            with self._span(recorder, f"{self.name}.{label}"):
                filt, violation, diagram, dump, back, text = out.record(
                    label, sampler.timed(self._pipeline, config, index))
            _add_cache_counts(out.lru)
            out.attempted += 1
            out.work += len(filt.births)
            with self._untraced(recorder):
                if violation is not None:
                    out.errors.append(f"{kind}: validate reports {violation}")
                out.errors += checks.window_errors(
                    kind, d, n, EPS, filt.births, diagram.pairs, dump,
                    _format_filtration(back), back.births, text)
        for path in self.probes:
            with self._untraced(recorder):
                code = _quiet_main(["diagram", "--filtration", str(path),
                                    "--out", str(self.work_dir / "probe_out")])
            out.attempted += 1
            out.failed += code != cli.EXIT_DATA_VIOLATION
        return out

    def details(self, rounds):
        figures = {f"{label}_window_s": (_median_op(rounds, label), "s")
                   for label, _, _ in self.models}
        figures["window_cubes_per_s"] = (_median_rate(rounds), "1/s")
        return figures


class EstimateD2(Workload):
    name = "estimate_d2"
    work_unit = "trials"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.config_path = work_dir / "estimate.json"
        self.out_dir = work_dir / "estimate_out"
        self._write_config(0)

    def config_paths(self):
        return [self.config_path]

    def _round_seed(self, index: int) -> int:
        return (self.seed * 1_000_003 + index) % 2**62

    def _write_config(self, index: int) -> dict:
        raw = {
            "schema_version": 1,
            "model": {"kind": "lower", "d": 2, "mark": UNIFORM},
            "q": 0,
            "n": ESTIMATE_N,
            "trials": ESTIMATE_TRIALS,
            "seed": self._round_seed(index),
            "pairs": [list(p) for p in ESTIMATE_PAIRS],
            "fineness": ESTIMATE_FINENESS,
            "lambda_grid": {"min": -10.0, "max": 10.0, "points": 21},
            "x_grid": {"min": 0.0, "max": 0.6, "points": 31},
        }
        self.config_path.write_text(json.dumps(raw))
        return raw

    def run_round(self, index, sampler, recorder=None):
        out = Round()
        raw = self._write_config(index)
        for label, which in ESTIMATE_TARGETS:
            argv = ["estimate", "--which", which, "--config",
                    str(self.config_path), "--jobs", "1", "--out",
                    str(self.out_dir)]
            _clear_caches()
            with self._span(recorder, f"{self.name}.{label}"):
                code = out.record(label, sampler.timed(_quiet_main, argv))
            _add_cache_counts(out.lru)
            out.attempted += 1
            out.work += ESTIMATE_TRIALS
            if code != cli.EXIT_OK:
                out.errors.append(f"estimate {which} exited {code}")
        if not out.errors:
            with self._untraced(recorder):
                out.errors += self._check_outputs(raw)
        return out

    def _check_outputs(self, raw: dict) -> list[str]:
        config = cli.parse_config(raw)
        volume = float(2 * config.n) ** config.model.d
        pairs = config.pairs
        masses, errors = checks.pb_masses(
            checks.read_csv(self.out_dir / "pb.csv"), volume)
        direct = {}
        for trial in range(RANK_CHECKED_TRIALS):
            filt = _sample(config.model, config.n, config.seed, trial)
            for s, t in pairs:
                direct[(s, t, trial)] = _persistent_betti_direct(
                    filt, config.q_list[0], s, t)
        errors += checks.pb_errors(masses, pairs, config.trials, direct)
        errors += checks.histogram_errors(
            checks.read_csv(self.out_dir / "histogram_q0.csv"), config.trials,
            volume, config.fineness)
        axes, phi = checks.mgf_grid(checks.read_csv(self.out_dir / "mgf.csv"),
                                    len(pairs))
        mean = checks.mean_density(masses, pairs, config.trials, volume)
        errors += checks.mgf_errors(axes, phi, mean)
        errors += checks.rate_errors(checks.read_csv(self.out_dir / "rate.csv"),
                                     axes, phi)
        return errors

    def details(self, rounds):
        figures = {f"{label}_s": (_median_op(rounds, label), "s")
                   for label, _ in ESTIMATE_TARGETS}
        figures["estimate_trials_per_s"] = (_median_rate(rounds), "1/s")
        return figures


class VerifySmoke(Workload):
    """The suite's corpora are fixed by verify's documented seeds, so this
    workload does not use the workload seed."""

    name = "verify_smoke"
    work_unit = "comparisons"
    # starts 4 worker processes whatever jobs says; tier-1 tests still run it
    EXCLUDED = ("check_determinism",)

    def run_round(self, index, sampler, recorder=None):
        out = Round()
        scale = verify.SCALES["smoke"]
        _clear_caches()
        for check in verify.ALL_CHECKS:
            if check.__name__ in self.EXCLUDED:
                continue
            with self._span(recorder, f"{self.name}.{check.__name__}"):
                result = out.record(check.__name__,
                                    sampler.timed(check, scale, 1))
            out.attempted += 1
            out.work += result.checks
            if not result.passed:
                out.errors.append(f"verify: {result.line()}")
        _add_cache_counts(out.lru)
        return out

    def details(self, rounds):
        figures = {"verify_s": (statistics.median(r.seconds for r in rounds), "s"),
                   "verify_comparisons_per_s": (_median_rate(rounds), "1/s")}
        for name in rounds[0].op_s:
            figures[f"{name}_s"] = (_median_op(rounds, name), "s")
        return figures


WORKLOADS = {w.name: w for w in (WindowD3, EstimateD2, VerifySmoke)}
