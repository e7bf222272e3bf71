"""One fresh-interpreter set-up of a workload: import randcube and parse the
workload's configs, as a CLI user's process does before any work.  Prints
the set-up's scaled and unscaled seconds (see speed.py).

Usage: python3 benchmarks/setup_probe.py WORKLOAD [CONFIG.json ...]
(run from the repository root).
"""

import sys

from speed import SpeedSampler


def setup(workload: str, configs: list[str]) -> None:
    sys.path.insert(0, "src")
    from randcube import cli

    if workload == "verify_smoke":
        import randcube.verify  # noqa: F401  (the suite reads no config)
    for path in configs:
        cli.load_config(path)


def main() -> None:
    with SpeedSampler() as sampler:
        _, raw, scaled = sampler.timed(setup, sys.argv[1], sys.argv[2:])
    print(repr(scaled), repr(raw))


if __name__ == "__main__":
    main()
