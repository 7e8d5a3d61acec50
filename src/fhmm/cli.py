"""Command-line pipeline: ingest, synth, partition, train, predict, evaluate,
sweep.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmark as bench_mod
from .config import RunConfig, load_config
from .ensemble import (
    evaluate,
    feature_importance_report,
    load_ensemble,
    predict,
    prediction_correlation,
    save_ensemble,
    split_sessions,
    sweep_k,
    train_ensemble,
    write_correlation_csv,
    write_evaluation_reports,
    write_sweep_csv,
)
from .errors import ConfigError, DomainError, FhmmError
from .fusion import format_importance_report
from .hmm import baum_welch_fit
from .ingest import (
    default_mapping,
    load_mapping,
    parse_log_files,
    read_sessions,
    render_cowrie_lines,
    synth_corpus,
    write_alphabet,
    write_sessions,
    SynthSpec,
)
from .markov import fit_markov
from .partition import build_plan, write_plan_report
from .sequences import StateSequence
from . import serialize


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run-configuration file (key = value lines)")
    parser.add_argument("--k", type=int, help="override: ensemble size")
    parser.add_argument("--seed", type=int, help="override: base seed")
    parser.add_argument("--stride", type=int, help="override: prediction stride")
    parser.add_argument("--workers", type=int,
                        help="override: training processes (1 = in-process, "
                        "0 = every usable CPU)")


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {
        "k": args.k,
        "base_seed": args.seed,
        "stride": args.stride,
        "workers": args.workers,
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    config.validate()
    return config


def cmd_ingest(args) -> int:
    mapping = load_mapping(args.mapping) if args.mapping else default_mapping()
    sessions, report = parse_log_files(args.logs, mapping)
    write_sessions(args.out, sessions)
    if args.alphabet_out:
        write_alphabet(args.alphabet_out, mapping.alphabet)
    skip_path = args.skip_report or (str(args.out) + ".skip.json")
    Path(skip_path).write_text(json.dumps(report.to_doc(), indent=2) + "\n")
    print(
        f"parsed {report.total_lines} lines -> {len(sessions)} sessions "
        f"({report.unmapped_events} unmapped, "
        f"{len(report.malformed_lines)} malformed, "
        f"{report.short_sessions_dropped} short sessions dropped)",
        file=sys.stderr,
    )
    print(f"skip report: {skip_path}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(
        generators=bench_mod.standard_generators(),
        n_sessions=args.n,
        seed=args.seed,
    )
    corpus = synth_corpus(spec)
    write_sessions(args.out, corpus.sessions)
    if args.labels_out:
        with open(args.labels_out, "w") as fh:
            for session, label in zip(corpus.sessions, corpus.labels):
                fh.write(f"{session.session_id}\t{label}\n")
    if args.logs_out:
        lines = render_cowrie_lines(corpus.sessions)
        Path(args.logs_out).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(corpus.sessions)} sessions to {args.out}", file=sys.stderr)
    return 0


def cmd_partition(args) -> int:
    config = _resolve_config(args)
    sessions = read_sessions(args.sessions)
    plan = build_plan(sessions, config.n_obs, config.k, config.min_support)
    write_plan_report(plan, args.out)
    print(
        f"selected {len(plan.selected_lengths)} lengths, "
        f"coverage {plan.coverage:.3f}",
        file=sys.stderr,
    )
    return 0


def cmd_train(args) -> int:
    config = _resolve_config(args)
    sessions = read_sessions(args.sessions)
    model = train_ensemble(sessions, config)
    save_ensemble(model, args.out)
    for stage, seconds in model.timings.items():
        print(f"{stage}: {seconds:.2f}s", file=sys.stderr)
    for warning in model.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.importance_out:
        rows = feature_importance_report(model, sessions, config)
        Path(args.importance_out).write_text(format_importance_report(rows))
    print(f"model written to {args.out}", file=sys.stderr)
    return 0


def _parse_prefix(text: str) -> StateSequence:
    try:
        symbols = np.array([int(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise DomainError(f"malformed prefix {text!r}") from exc
    return StateSequence(symbols, session_id="cli-prefix")


def cmd_predict(args) -> int:
    model = load_ensemble(args.model)
    text = args.prefix if args.prefix is not None else sys.stdin.read().strip()
    prefix = _parse_prefix(text)
    out = predict(model, prefix)
    doc = {
        "prediction": out.symbol,
        "state_name": model.alphabet[out.symbol],
        "per_model": {
            f"hmm_{length}": symbol for length, symbol in sorted(out.per_model.items())
        },
        "scores": [serialize.fmt_float(v) for v in out.scores],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    config = _resolve_config(args)
    model = load_ensemble(args.model)
    test_sessions = read_sessions(args.sessions)
    reports = {"fhmm": evaluate(model, test_sessions, stride=config.stride)}
    baselines = [b.strip() for b in (args.baselines or "").split(",") if b.strip()]
    if baselines:
        if not args.train_sessions:
            raise ConfigError("--baselines requires --train-sessions")
        train = read_sessions(args.train_sessions)
        for name in baselines:
            if name == "markov":
                baseline = fit_markov(train, config.n_obs, config.smoothing)
            elif name == "hmm":
                baseline, _ = baum_welch_fit(
                    train, n_hidden=config.n_hidden, n_obs=config.n_obs,
                    seed=config.base_seed, tol=config.tol,
                    max_iters=config.max_iters,
                )
            else:
                raise ConfigError(f"unknown baseline {name!r}")
            reports[name] = evaluate(baseline, test_sessions, stride=config.stride)
    if args.external:
        try:
            preds = np.loadtxt(args.external, dtype=np.int64, ndmin=1)
        except ValueError as exc:
            raise DomainError(
                f"malformed external predictions in {args.external}: {exc}"
            ) from exc
        name = args.external_name or "external"
        reports[name] = evaluate(
            preds, test_sessions, stride=config.stride, n_obs=config.n_obs
        )

    write_evaluation_reports(reports, args.out, config.stride, model.alphabet)
    if args.correlation_out:
        model_list = [model.models[length] for length in model.selected_lengths]
        corr = prediction_correlation(model_list, test_sessions, stride=config.stride)
        write_correlation_csv(corr, model.selected_lengths, args.correlation_out)
    for name, report in sorted(reports.items()):
        print(f"{name}: accuracy {report.overall_accuracy:.4f} "
              f"({report.n_points} points)", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    sessions = read_sessions(args.sessions)
    try:
        ks = [int(tok) for tok in args.ks.split(",")]
    except ValueError as exc:
        raise ConfigError(f"malformed k list {args.ks!r}") from exc
    curve = sweep_k(sessions, ks, config)
    write_sweep_csv(curve, args.out)
    for k, error in curve:
        print(f"k={k}: error {error:.4f}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhmm",
        description="Fusion hidden Markov models for next-action prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse honeypot JSON logs into sessions")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--mapping", help="event-mapping JSON (defaults to built-in)")
    p.add_argument("--out", required=True)
    p.add_argument("--alphabet-out")
    p.add_argument("--skip-report")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels-out")
    p.add_argument("--logs-out", help="also render Cowrie-style JSON lines")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("partition", help="emit the partition plan report")
    p.add_argument("--sessions", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("train", help="train the full ensemble")
    p.add_argument("--sessions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--importance-out",
                   help="also emit the feature-importance table")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="predict the next state for a prefix")
    p.add_argument("--model", required=True)
    p.add_argument("--prefix", help="comma-separated states (stdin if omitted)")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="score a model (and baselines) on test sessions")
    p.add_argument("--model", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--baselines", help="comma list: markov,hmm")
    p.add_argument("--train-sessions", help="training sessions for baselines")
    p.add_argument("--external", help="file of external predictions, one per line")
    p.add_argument("--external-name")
    p.add_argument("--correlation-out",
                   help="also emit the per-model prediction-agreement matrix")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("sweep", help="error rate vs ensemble size")
    p.add_argument("--sessions", required=True)
    p.add_argument("--ks", required=True, help="ascending comma list, e.g. 1,2,4,8")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FhmmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
