#!/usr/bin/env python3
"""Emit the per-feature weight table for a benchmark-trained ensemble.

Each row is the mean absolute input-to-hidden weight mass of one input block
(one HMM's prediction, or the time-step count feature) with its standard
deviation over seeded fusion retrainings.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fhmm.benchmark import standard_benchmark, standard_config
from fhmm.ensemble import feature_importance_report, train_ensemble
from fhmm.fusion import format_importance_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--retrain", type=int, default=5)
    parser.add_argument("--out", help="write the table here as well as stdout")
    args = parser.parse_args()
    if args.retrain < 1:
        parser.error("--retrain must be at least 1")

    bench = standard_benchmark(n_train=args.train, n_test=0, seed=args.seed)
    config = standard_config(base_seed=args.seed)
    model = train_ensemble(bench.train, config)
    rows = feature_importance_report(
        model, bench.train, config, n_retrain=args.retrain
    )
    table = format_importance_report(rows)
    print(table, end="")
    if args.out:
        Path(args.out).write_text(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
