"""The benchmark's three workloads: train, baseline and replay.

Each workload calls the fhmm library the way ``fhmm train``, ``fhmm
evaluate`` and ``fhmm predict`` do, checks the outputs, and returns its
metrics.  Every workload reports every end-to-end metric (each one serves a
model online); its traced run reports the per-layer metrics of the layers it
calls.
"""

from __future__ import annotations

import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fhmm import serialize
from fhmm.benchmark import (
    standard_benchmark,
    standard_config,
    standard_generators,
)
from fhmm.ensemble import (
    EnsembleModel,
    _hyper,
    default_alphabet,
    evaluate,
    load_ensemble,
    predict,
    save_ensemble,
    stage2_arrays,
    train_ensemble,
)
from fhmm.fusion import (
    FusionInput,
    encode,
    encode_batch,
    forward,
    forward_batch,
    train_fusion_arrays,
)
from fhmm.hmm import (
    baum_welch_fit,
    fit_converged,
    load_model,
    predict_next,
    save_model,
)
from fhmm.ingest import read_sessions, write_sessions
from fhmm.markov import fit_markov
from fhmm.partition import build_plan
from fhmm.sequences import StateSequence

from speed import Speed
from checks import (
    Ledger,
    bigram_accuracy,
    confusion,
    forward_log_likelihood,
    non_decreasing,
    point_count,
    relative_gap,
)
from tracing import Tracer

# Every model is trained on a corpus of the ROADMAP's standard seed, the same
# in every run; --seed draws the held-out sessions that are evaluated and
# served.  Accuracy and model size then measure the program, not the draw of
# its training corpus.
TRAINING_SEED = 11
# Short evaluate calls (0.4 s in baseline, 0.3 s in replay) vary by about 8%
# one call to the next even at reference speed; their metric is the median
# of this many.
BASELINE_EVALUATIONS = 5
REPLAY_EVALUATIONS = 9


@dataclass(frozen=True)
class Scale:
    name: str
    n_train: int                 # training sessions of train and baseline
    n_test: int                  # held-out sessions: evaluated, and served
    k: int
    baseline_iters: int          # EM budget of the single-HMM baseline
    replay_train: int            # sessions behind replay's served model
    served: int                  # held-out sessions replayed online
    setups: int                  # set-ups per run; setup_s is their median


FULL = Scale(
    name="full", n_train=10_000, n_test=2_000, k=16, baseline_iters=10,
    replay_train=1_000, served=20, setups=3,
)
TINY = Scale(
    name="tiny", n_train=600, n_test=200, k=4, baseline_iters=10,
    replay_train=600, served=6, setups=2,
)
SCALES = {scale.name: scale for scale in (FULL, TINY)}


@dataclass
class Context:
    scale: Scale
    seed: int
    seconds: float
    work: Path                   # working directory, removed by the caller
    run_py: Path                 # this benchmark's entry point, for children
    ledger: Ledger
    speed: Speed
    tracer: Tracer | None = None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def median_setup(ctx: Context, setup):
    """Run `setup` `setups` times, each an operation; its last output and
    the median time at reference speed."""
    def one():
        with ctx.ledger.op("setup"):
            return setup()

    out, setup_s = ctx.speed.timed(one, ctx.scale.setups)
    # keep the collector from sweeping the benchmark's own inputs during
    # timed calls, so its pauses depend on what the program allocates
    gc.collect()
    gc.freeze()
    return out, setup_s


def standard_train(ctx: Context):
    """The training sessions of the standard corpus; at full scale, those of
    the ROADMAP's standard benchmark."""
    return standard_benchmark(
        ctx.scale.n_train, ctx.scale.n_test, TRAINING_SEED
    ).train


def held_out(ctx: Context):
    """The held-out sessions of the seed's corpus, which are evaluated, and
    those of them served online; at seed 11, the test set of the ROADMAP's
    standard benchmark."""
    corpus = standard_benchmark(ctx.scale.n_train, ctx.scale.n_test, ctx.seed)
    return corpus.test, draw_served(corpus, ctx.scale.served, ctx.seed)


def draw_served(corpus, n: int, seed: int):
    """`n` held-out sessions of `corpus` in a seeded order, following the
    generator mixture and, within each generator, the session-length
    histogram.

    Each generator of the standard mixture gets a share of `n` by its
    mixture weight (largest remainders), the same for every seed: which
    generators the sessions come from sets most of the replay's accuracy.
    A generator's held-out sessions, ordered by length, are cut into that
    many strata of equal size and the session in the middle of each is
    taken.  Sessions of equal length are ordered by a seeded key, so the
    seed picks which of them is taken.
    """
    rng = np.random.default_rng((seed, 7))
    weights = {g.name: g.weight for g in standard_generators()}
    counts = {name: int(n * w) for name, w in weights.items()}
    by_remainder = sorted(weights, key=lambda name: counts[name] - n * weights[name])
    for name in by_remainder[: n - sum(counts.values())]:
        counts[name] += 1
    chosen = []
    for name, count in counts.items():
        pool = [s for s, g in zip(corpus.test, corpus.test_labels) if g == name]
        key = rng.random(len(pool))
        order = sorted(range(len(pool)), key=lambda i: (len(pool[i]), key[i]))
        chosen += [
            pool[order[(2 * i + 1) * len(pool) // (2 * count)]] for i in range(count)
        ]
    return [chosen[i] for i in rng.permutation(len(chosen))]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def same_tree(a: Path, b: Path) -> bool:
    names = sorted(f.name for f in a.iterdir())
    return names == sorted(f.name for f in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(ctx: Context, *args: str) -> dict:
    """Run this benchmark's entry point with `args`; its last JSON line."""
    with ctx.speed.paused():
        proc = subprocess.run(
            [sys.executable, str(ctx.run_py), *args],
            capture_output=True, text=True, timeout=150,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def batched_predictions(model, sessions) -> list[np.ndarray]:
    """Per session, the batched path's prediction after every event: the
    stage-2 matrix that `evaluate` builds, fused the way it fuses it."""
    ensemble = isinstance(model, EnsembleModel)
    hmms = [model.models[n] for n in model.selected_lengths] if ensemble else [model]
    max_len = model.max_len if ensemble else max(len(s) for s in sessions)
    preds, counts, _ = stage2_arrays(hmms, sessions, 1, max_len)
    symbols = preds[:, 0]
    if ensemble:
        X = encode_batch(preds, counts, model.n_obs)
        symbols = np.argmax(forward_batch(model.fusion, X), axis=1)
    return np.split(symbols, np.cumsum([len(s) - 1 for s in sessions])[:-1])


def serve(ledger: Ledger, speed: Speed, seconds: float, sessions, model,
          evaluations: int = 1):
    """Replay each session event by event, one caller in a closed loop.

    After every event the prefix so far is sent to `predict` (or, for a
    single HMM, `predict_next`).  Whole passes over the sessions repeat while
    the next one, at the mean pass time so far, would end within `seconds`;
    at least one.  Whole passes keep the mix of prefix lengths, and so the
    latency percentiles, independent of how many passes fit.  Each session
    of a pass is one operation, and each of its predictions must equal the
    batched path's at the same event; the batched path must agree with
    `evaluate(model, sessions, stride=1)`.  Returns the per-call latencies,
    the first pass's predictions and the median time of `evaluations` such
    evaluate calls, all at reference speed.
    """
    if isinstance(model, EnsembleModel):
        def online(prefix):
            return predict(model, prefix).symbol
    else:
        def online(prefix):
            return predict_next(model, prefix)[0]
    with ledger.op("evaluate served sessions"):
        report, evaluate_s = speed.timed(
            lambda: evaluate(model, sessions, stride=1), evaluations
        )
        expected = batched_predictions(model, sessions)
        targets = np.concatenate([s.symbols[1:] for s in sessions])
        ledger.check(
            np.array_equal(
                confusion(targets, np.concatenate(expected), report.confusion.shape[0]),
                report.confusion,
            ),
            "the batched predictions disagree with evaluate",
        )
    calls, first = [], []
    gc.collect()
    start = time.perf_counter()
    for passes in itertools.count(1):
        for s, want in zip(sessions, expected):
            with ledger.op(f"serve {s.session_id}"):
                got = np.empty(len(s) - 1, dtype=np.int64)
                for t in range(1, len(s)):
                    prefix = StateSequence(s.symbols[:t], session_id=s.session_id)
                    t0 = speed.clock()
                    got[t - 1] = online(prefix)
                    calls.append((t0, speed.clock()))
                differ = np.nonzero(got != want)[0] + 1
                ledger.check(
                    differ.size == 0,
                    f"online predictions differ from evaluate at stride 1 "
                    f"after prefixes of length {differ.tolist()}",
                )
            if passes == 1:
                first.append(got)
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    speed.sample()             # so the last calls have samples after them
    latencies = [speed.at_reference(*call) for call in calls]
    return latencies, first, evaluate_s


def serve_in_child(ctx: Context, kind: str, path: Path, served) -> list[float]:
    """Serve the saved model in a fresh process, as a deployment would, so
    the latencies do not depend on the state this process's training left;
    its operations count in this run."""
    served_path = ctx.work / "served-sessions.tsv"
    write_sessions(served_path, served)
    out = child(ctx, "--serve", kind, str(path), str(served_path),
                "--seconds", str(ctx.seconds))
    ctx.ledger.merge(out["attempted"], out["failed"], out["problems"])
    return out["latencies"]


def serve_saved(kind: str, path: str, sessions_path: str,
                seconds: float) -> dict:
    """Child-process side of serve_in_child."""
    ledger = Ledger()
    model = load_ensemble(path) if kind == "ensemble" else load_model(path)
    with Speed() as speed:
        latencies, _, _ = serve(
            ledger, speed, seconds, read_sessions(sessions_path), model
        )
    return {"latencies": latencies, "attempted": ledger.attempted,
            "failed": ledger.failed, "problems": ledger.problems}


def latency_metrics(latencies) -> dict:
    """Nearest-rank percentiles over every call, and the calls per second of
    the one caller's busy time."""
    ordered = sorted(latencies)
    n = len(ordered)
    return {
        "predict_p50_ms": ordered[-(-n * 50 // 100) - 1] * 1e3,
        "predict_p99_ms": ordered[-(-n * 99 // 100) - 1] * 1e3,
        "predict_per_s": n / sum(ordered),
        "predict_calls": n,
    }


def hit_share(predictions, sessions) -> float:
    """Share of replayed events predicted correctly."""
    hits = sum(
        int((got == s.symbols[1:]).sum()) for got, s in zip(predictions, sessions)
    )
    return hits / sum(len(s) - 1 for s in sessions)


def reload_and_serve(ctx: Context, kind: str, path: Path, reload,
                     evaluate_once, report, served):
    """After the job: evaluate the reloaded model, which must repeat
    `report`, then serve it online from a fresh process.  Returns the
    evaluate's time and the served latencies."""
    with ctx.ledger.op("reload"):
        again, reloaded_s = evaluate_once(reload(path))
        ctx.ledger.check(
            again.overall_accuracy == report.overall_accuracy
            and np.array_equal(again.confusion, report.confusion),
            "the reloaded model evaluates differently",
        )
    return reloaded_s, serve_in_child(ctx, kind, path, served)


def no_span(name: str):
    return nullcontext()




# ---------------------------------------------------------------------------
# train: ingest -> partition -> K per-length HMMs -> stage 2 -> fusion -> save
# ---------------------------------------------------------------------------

def train_workload(ctx: Context) -> dict:
    config, ledger = standard_config(k=ctx.scale.k), ctx.ledger
    def setup():
        write_sessions(ctx.work / "train.tsv", standard_train(ctx))
        return held_out(ctx)

    (test, served), setup_s = median_setup(ctx, setup)

    def evaluate_once(model):
        return ctx.speed.timed(lambda: evaluate(model, test, stride=config.stride))

    def job(model_dir: Path):
        """read -> train_ensemble -> save_ensemble, then evaluate."""
        def fit():
            sessions = read_sessions(ctx.work / "train.tsv")
            model = train_ensemble(sessions, config)
            save_ensemble(model, model_dir)
            return sessions, model

        with ledger.op("train"):
            (sessions, model), train_s = ctx.speed.timed(fit)
        with ledger.op("evaluate"):
            report, evaluate_s = evaluate_once(model)
            expected = point_count(test, config.stride)
            ledger.check(
                report.n_points == expected,
                f"{report.n_points} evaluation points, expected {expected}",
            )
            bigram = bigram_accuracy(sessions, test, config.stride, config.n_obs)
            ledger.check(
                report.overall_accuracy >= bigram + 0.05,
                f"fused accuracy {report.overall_accuracy:.4f} is not 5 points "
                f"above the bigram's {bigram:.4f}",
            )
        return model, report, train_s, evaluate_s

    if ctx.tracer is not None:
        return _train_traced(ctx, config, test, job)

    model_dir = ctx.work / "model"
    _, report, train_s, evaluate_s = job(model_dir)
    reloaded_s, latencies = reload_and_serve(
        ctx, "ensemble", model_dir, load_ensemble, evaluate_once, report, served,
    )
    return {
        "setup_s": setup_s,
        "train_s": train_s,
        "evaluate_s": statistics.mean([evaluate_s, reloaded_s]),
        "accuracy": report.overall_accuracy,
        "model_bytes": dir_bytes(model_dir),
        "peak_rss_mb": peak_rss_mib(),
        **latency_metrics(latencies),
    }


def _train_traced(ctx: Context, config, test, job) -> dict:
    """The train job untraced, then replayed through the layers' public
    calls with a span around each; the two saved directories must be equal."""
    tr, ledger = ctx.tracer, ctx.ledger
    untraced_dir, traced_dir = ctx.work / "model", ctx.work / "model-traced"
    _, report, train_s, evaluate_s = job(untraced_dir)

    with ledger.op("traced train"):
        with tr.span("bench.train") as train_span:
            with tr.span("ingest.read_sessions"):
                sessions = read_sessions(ctx.work / "train.tsv")
            with tr.span("partition.build_plan"):
                plan = build_plan(
                    sessions, config.n_obs, config.k, config.min_support
                )
            groups: dict[int, list] = {}
            for s in sessions:
                groups.setdefault(len(s), []).append(s)
            models, warnings, iterations = {}, [], 0
            for length in plan.selected_lengths:
                with tr.span("hmm.baum_welch_fit"):
                    models[length], trace = baum_welch_fit(
                        groups[length], n_hidden=config.n_hidden,
                        n_obs=config.n_obs, seed=config.base_seed ^ length,
                        tol=config.tol, max_iters=config.max_iters,
                    )
                iterations += len(trace)
                if not fit_converged(trace, config.tol):
                    warnings.append(
                        f"hmm_{length} stopped at the iteration cap "
                        f"({len(trace)} iterations)"
                    )
            model_list = [models[length] for length in plan.selected_lengths]
            max_len = max(len(s) for s in sessions)
            with tr.span("ensemble.stage2_arrays"):
                preds, counts, targets = stage2_arrays(
                    model_list, sessions, config.stride, max_len
                )
            with tr.span("fusion.encode_batch"):
                X = encode_batch(preds, counts, config.n_obs)
            encode_mb = X.nbytes / 2**20
            with tr.span("fusion.train_fusion_arrays"):
                fusion, _ = train_fusion_arrays(
                    X, targets, config.n_obs, _hyper(config)
                )
            del X
            model = EnsembleModel(
                plan=plan, models=models, fusion=fusion, n_obs=config.n_obs,
                alphabet=default_alphabet(config.n_obs),
                base_seed=config.base_seed, max_len=max_len, warnings=warnings,
            )
            with tr.span("serialize.save_ensemble"):
                save_ensemble(model, traced_dir)
        ledger.check(
            same_tree(traced_dir, untraced_dir),
            "the traced pipeline saved a different model directory",
        )

    with ledger.op("traced evaluate"):
        with tr.span("bench.evaluate") as eval_span:
            with tr.span("ensemble.stage2_arrays"):
                tp, tc, tt = stage2_arrays(
                    model_list, test, config.stride, max_len
                )
            fused = np.empty(tt.size, dtype=np.int64)
            for start in range(0, tt.size, 8192):
                chunk = slice(start, start + 8192)
                with tr.span("fusion.encode_batch"):
                    Xc = encode_batch(tp[chunk], tc[chunk], config.n_obs)
                with tr.span("fusion.forward_batch"):
                    fused[chunk] = np.argmax(forward_batch(fusion, Xc), axis=1)
        ledger.check(
            float((fused == tt).mean()) == report.overall_accuracy,
            "the traced evaluate scores differently",
        )
    ctx.speed.sample()

    fit_s = tr.total("hmm.baum_welch_fit")
    fusion_train_s = tr.total("fusion.train_fusion_arrays")
    return {
        "ingest.read_sessions_s": tr.total("ingest.read_sessions"),
        "partition.build_plan_s": tr.total("partition.build_plan"),
        "hmm.fit_s": fit_s,
        "hmm.em_iterations": iterations,
        "hmm.em_iter_s": fit_s / iterations,
        "hmm.fits_capped": len(warnings),
        "hmm.length_buckets": len(plan.selected_lengths),
        "ensemble.stage2_s": tr.total("ensemble.stage2_arrays", under="bench.train"),
        "ensemble.stage2_points": targets.size,
        "ensemble.eval_stage2_s": tr.total(
            "ensemble.stage2_arrays", under="bench.evaluate"
        ),
        "fusion.encode_s": tr.total("fusion.encode_batch", under="bench.train"),
        "fusion.encode_mb": encode_mb,
        "fusion.train_s": fusion_train_s,
        "fusion.epoch_s": fusion_train_s / config.epochs,
        "fusion.forward_s": tr.total("fusion.forward_batch"),
        "serialize.save_s": tr.total("serialize.save_ensemble"),
        "serialize.plan_bytes": (traced_dir / "plan.json").stat().st_size,
        "trace.overhead_s": tr.duration(train_span) + tr.duration(eval_span)
        - (train_s + evaluate_s),
    }


# ---------------------------------------------------------------------------
# baseline: a Markov chain and one HMM over the whole corpus
# ---------------------------------------------------------------------------

def baseline_workload(ctx: Context) -> dict:
    config, ledger = standard_config(k=ctx.scale.k), ctx.ledger
    (train, (test, served)), setup_s = median_setup(
        ctx, lambda: (standard_train(ctx), held_out(ctx))
    )

    def fit(span=no_span):
        """fit_markov, then baum_welch_fit ending on its iteration budget."""
        with span("markov.fit_markov"):
            markov = fit_markov(train, config.n_obs, config.smoothing)
        with span("hmm.baum_welch_fit"):
            hmm, trace = baum_welch_fit(
                train, n_hidden=config.n_hidden, n_obs=config.n_obs,
                seed=config.base_seed, tol=config.tol,
                max_iters=ctx.scale.baseline_iters,
            )
        return markov, hmm, trace

    def evaluate_both(markov, hmm, span=no_span):
        with span("ensemble.evaluate_hmm"):
            hmm_report = evaluate(hmm, test, stride=config.stride)
        with span("ensemble.evaluate_markov"):
            markov_report = evaluate(markov, test, stride=config.stride)
        return hmm_report, markov_report

    with ledger.op("fit"):
        (markov, hmm, trace), train_s = ctx.speed.timed(fit)
        ledger.check(
            len(trace) == ctx.scale.baseline_iters,
            f"EM stopped after {len(trace)} of "
            f"{ctx.scale.baseline_iters} iterations",
        )
        ledger.check(non_decreasing(trace), "the EM trace decreases")
        reference = forward_log_likelihood(hmm.A, hmm.B, hmm.pi, train)
        ledger.check(
            relative_gap(trace[-1], reference) <= 1e-9,
            f"final log-likelihood {trace[-1]!r} differs from the "
            f"reference forward pass {reference!r}",
        )
        path = ctx.work / "hmm.json"
        save_model(hmm, path)
    with ledger.op("evaluate"):
        (hmm_report, markov_report), evaluate_s = ctx.speed.timed(
            lambda: evaluate_both(markov, hmm), BASELINE_EVALUATIONS
        )
        ledger.check(
            hmm_report.overall_accuracy > markov_report.overall_accuracy,
            f"HMM accuracy {hmm_report.overall_accuracy:.4f} does not "
            f"exceed Markov's {markov_report.overall_accuracy:.4f}",
        )

    if ctx.tracer is not None:
        tr = ctx.tracer
        with ledger.op("traced fit"):
            with tr.span("bench.train") as train_span:
                markov, hmm, traced_trace = fit(tr.span)
            ledger.check(traced_trace == trace, "the traced fit differs")
        with ledger.op("traced evaluate"):
            with tr.span("bench.evaluate") as eval_span:
                traced_report, _ = evaluate_both(markov, hmm, tr.span)
            ledger.check(
                traced_report.overall_accuracy == hmm_report.overall_accuracy,
                "the traced evaluate scores differently",
            )
        ctx.speed.sample()
        fit_s = tr.total("hmm.baum_welch_fit")
        return {
            "markov.fit_s": tr.total("markov.fit_markov"),
            "hmm.fit_s": fit_s,
            "hmm.em_iterations": len(trace),
            "hmm.em_iter_s": fit_s / len(trace),
            "hmm.fits_capped": int(not fit_converged(trace, config.tol)),
            "hmm.length_buckets": len({len(s) for s in train}),
            "ensemble.evaluate_hmm_s": tr.total("ensemble.evaluate_hmm"),
            "ensemble.evaluate_markov_s": tr.total("ensemble.evaluate_markov"),
            "trace.overhead_s": tr.duration(train_span)
            + tr.duration(eval_span) - (train_s + evaluate_s),
        }

    def evaluate_once(model):
        (report, _), seconds = ctx.speed.timed(
            lambda: evaluate_both(markov, model), BASELINE_EVALUATIONS
        )
        return report, seconds

    reloaded_s, latencies = reload_and_serve(
        ctx, "hmm", path, load_model, evaluate_once, hmm_report, served,
    )
    return {
        "setup_s": setup_s,
        "train_s": train_s,
        "evaluate_s": statistics.mean([evaluate_s, reloaded_s]),
        "accuracy": hmm_report.overall_accuracy,
        "model_bytes": path.stat().st_size,
        "peak_rss_mb": peak_rss_mib(),
        **latency_metrics(latencies),
    }


# ---------------------------------------------------------------------------
# replay: load a model directory, then predict after every event
# ---------------------------------------------------------------------------

def make_model(sessions_path: str, model_dir: str, k: int) -> dict:
    """Child-process side of the replay's served model: read, train, save;
    the time at reference speed."""
    def job():
        sessions = read_sessions(sessions_path)
        save_ensemble(train_ensemble(sessions, standard_config(k=k)), model_dir)

    with Speed() as speed:
        return {"train_s": speed.timed(job)[1]}


def replay_workload(ctx: Context) -> dict:
    ledger, model_dir = ctx.ledger, ctx.work / "served-model"

    def setup():
        served = standard_benchmark(ctx.scale.replay_train, 0, TRAINING_SEED)
        write_sessions(ctx.work / "served.tsv", served.train)
        return held_out(ctx)[1]

    sessions, setup_s = median_setup(ctx, setup)
    with ledger.op("train the served model"):
        # in a child process, so this process's peak RSS is that of serving
        train_s = child(
            ctx, "--make-model", str(ctx.work / "served.tsv"), str(model_dir),
            str(ctx.scale.k),
        )["train_s"]
    with ledger.op("load"):
        model = load_ensemble(model_dir)

    if ctx.tracer is not None:
        return _replay_traced(ctx, model, model_dir, sessions)

    latencies, predictions, evaluate_s = serve(
        ledger, ctx.speed, ctx.seconds, sessions, model, REPLAY_EVALUATIONS
    )
    return {
        "setup_s": setup_s,
        "train_s": train_s,
        "evaluate_s": evaluate_s,
        "accuracy": hit_share(predictions, sessions),
        "model_bytes": dir_bytes(model_dir),
        "peak_rss_mb": peak_rss_mib(),
        **latency_metrics(latencies),
    }


def _replay_traced(ctx: Context, model, model_dir: Path, sessions) -> dict:
    """One replay untraced, then the same replay with each predict spelled
    out call by call; both must give the same predictions."""
    tr, ledger = ctx.tracer, ctx.ledger
    with ledger.op("replay"):
        t0 = ctx.speed.clock()
        expected = [
            [predict(model, StateSequence(s.symbols[:t])).symbol
             for t in range(1, len(s))]
            for s in sessions
        ]
        untraced = (t0, ctx.speed.clock())
    with ledger.op("traced load"):
        with tr.span("bench.load"):
            with tr.span("ensemble.load_ensemble"):
                load_ensemble(model_dir)
            for path in sorted(model_dir.iterdir()):
                with tr.span("serialize.read_doc"):
                    serialize.read_doc(path)
    with ledger.op("traced replay"):
        with tr.span("bench.replay") as replay_span:
            got = [
                [_traced_predict(tr, model, StateSequence(s.symbols[:t]))
                 for t in range(1, len(s))]
                for s in sessions
            ]
        ledger.check(got == expected, "traced predictions differ from predict")
    ctx.speed.sample()
    return {
        "ensemble.load_s": tr.total("ensemble.load_ensemble"),
        "serialize.read_s": tr.total("serialize.read_doc"),
        "hmm.predict_next_s": tr.total("hmm.predict_next"),
        "fusion.forward_s": tr.total("fusion.forward"),
        "trace.overhead_s": tr.duration(replay_span)
        - ctx.speed.at_reference(*untraced),
    }


def _traced_predict(tr: Tracer, model: EnsembleModel, prefix) -> int:
    """ensemble.predict spelled out call by call, one request span each."""
    with tr.span("bench.request"):
        preds = np.empty(model.k, dtype=np.int64)
        for i, length in enumerate(model.selected_lengths):
            with tr.span("hmm.predict_next"):
                preds[i] = predict_next(model.models[length], prefix)[0]
        count = min(len(prefix) / model.max_len, 1.0)
        with tr.span("fusion.encode"):
            x = encode(FusionInput(hmm_preds=preds, count=count),
                       model.k, model.n_obs)
        with tr.span("fusion.forward"):
            return forward(model.fusion, x)[1]
