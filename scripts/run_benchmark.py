#!/usr/bin/env python3
"""Train and score every model family on the standard synthetic benchmark.

Prints an accuracy/training-time comparison table, then the ensemble's
training time by stage, and optionally writes the full evaluation reports
(JSON summary + CSVs) to a directory.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fhmm.benchmark import standard_benchmark, standard_config
from fhmm.ensemble import evaluate, train_ensemble, write_evaluation_reports
from fhmm.hmm import baum_welch_fit
from fhmm.markov import fit_markov


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", type=int, default=10_000)
    parser.add_argument("--test", type=int, default=2_000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--k", type=int, default=None,
                        help="ensemble size (default: standard config)")
    parser.add_argument("--workers", type=int, default=1,
                        help="training processes (0 = every usable CPU)")
    parser.add_argument("--out", help="directory for full reports")
    args = parser.parse_args()

    bench = standard_benchmark(n_train=args.train, n_test=args.test,
                               seed=args.seed)
    overrides = {"base_seed": args.seed, "workers": args.workers}
    if args.k is not None:
        overrides["k"] = args.k
    config = standard_config(**overrides)

    rows = []

    t0 = time.perf_counter()
    markov = fit_markov(bench.train, n_obs=config.n_obs,
                        smoothing=config.smoothing)
    t_markov = time.perf_counter() - t0
    rows.append(("markov", evaluate(markov, bench.test, config.stride), t_markov))

    t0 = time.perf_counter()
    single, _ = baum_welch_fit(
        bench.train, n_hidden=config.n_hidden, n_obs=config.n_obs,
        seed=config.base_seed, tol=config.tol, max_iters=config.max_iters,
    )
    t_single = time.perf_counter() - t0
    rows.append(("hmm", evaluate(single, bench.test, config.stride), t_single))

    model = train_ensemble(bench.train, config)
    rows.append((
        f"fhmm (k={config.k}, workers={config.workers})",
        evaluate(model, bench.test, config.stride),
        model.timings["total"],
    ))

    print(f"{'model':<28}{'accuracy':>10}{'train time':>12}")
    for name, report, seconds in rows:
        print(f"{name:<28}{report.overall_accuracy:>10.4f}{seconds:>11.1f}s")
    # the fhmm row's train time by stage; its total is the row above
    print("fhmm stages: " + ", ".join(
        f"{stage} {seconds:.2f}s"
        for stage, seconds in model.timings.items() if stage != "total"
    ))

    if args.out:
        # each report under its first word: markov, hmm, fhmm
        write_evaluation_reports(
            {name.split()[0]: report for name, report, _ in rows},
            args.out, config.stride, model.alphabet,
        )
        print(f"reports written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
