#!/usr/bin/env python3
"""Run the bundled experiment configs and print where the CSVs landed.

Desk-scale configs finish in seconds; --full switches to the full-size
protocols (n=30, ten trials), which take about a minute on 2 cores because
the optimal baselines are exhaustive searches.
"""

import argparse
import sys
import time
from pathlib import Path

from leadersel.experiments import ExperimentConfig, run_experiment

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

DESK = ("fig1_desk.json", "fig2_desk.json", "fig3.json")
FULL = ("fig1_full_slow.json", "fig2_full_slow.json", "fig3.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run the full-size (slow) protocols")
    parser.add_argument("--out", default=None, help="override every output directory")
    args = parser.parse_args()

    for name in FULL if args.full else DESK:
        config = ExperimentConfig.from_file(CONFIG_DIR / name)
        out = Path(args.out) / config.experiment if args.out else None
        start = time.time()
        result = run_experiment(config, out)
        print(f"{name}: wrote {result} in {time.time() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
