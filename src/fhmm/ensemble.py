"""End-to-end fusion-ensemble orchestration.

Pipeline: partition sessions by length and select K diverse groups, train one
HMM per group (sequentially or in a process pool, with identical results),
collect the second-stage dataset of per-model predictions, train the fusion
network, and evaluate next-state accuracy against baselines.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import DomainError
from .fusion import (
    FusionHyper,
    FusionInput,
    FusionNetwork,
    encode,
    encode_batch,
    feature_importance,
    forward,
    forward_batch,
    fusion_from_doc,
    fusion_to_doc,
    train_fusion_arrays,
)
from .hmm import (
    HmmModel,
    baum_welch_fit,
    fit_converged,
    model_from_doc,
    model_to_doc,
    point_offsets,
    predict_next_all,
    predict_points,
)
from .ingest import default_mapping
from .markov import MarkovChainModel
from .partition import (
    FrequencyArray,
    PartitionPlan,
    dissimilarity_matrix,
    frequency_array,
    group_by_length,
    plan_to_doc,
    select_k,
)
from .sequences import StateSequence
from . import serialize

ENSEMBLE_SCHEMA = "fhmm-ensemble/1"


@dataclass
class EnsembleModel:
    """The deployable artifact: plan + K HMMs + fusion net + metadata."""

    plan: PartitionPlan
    models: dict[int, HmmModel]          # keyed by session length
    fusion: FusionNetwork
    n_obs: int
    alphabet: list[str]
    base_seed: int
    max_len: int                         # count-feature normalizer
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] | None = field(default=None, repr=False)

    @property
    def selected_lengths(self) -> list[int]:
        return self.plan.selected_lengths

    @property
    def k(self) -> int:
        return len(self.plan.selected_lengths)


@dataclass
class EnsemblePrediction:
    symbol: int
    per_model: dict[int, int]            # length -> predicted symbol
    scores: np.ndarray


@dataclass
class EvaluationReport:
    overall_accuracy: float
    per_state_accuracy: np.ndarray       # recall per true state, NaN if absent
    per_model_accuracy: dict[int, float] | None
    confusion: np.ndarray                # true state x predicted state counts
    wall_time: dict[str, float]
    n_points: int


def default_alphabet(n_obs: int) -> list[str]:
    if n_obs == 19:
        return list(default_mapping().alphabet)
    return [f"state_{i}" for i in range(n_obs)]


# ---------------------------------------------------------------------------
# Internal helpers: the canonical point order and process-pool tasks
# ---------------------------------------------------------------------------

def _stage2_meta(sessions, stride, max_len):
    """offsets, counts and targets arrays for the canonical point order."""
    offsets = point_offsets([len(s) for s in sessions], stride)
    counts = np.empty(offsets[-1])
    targets = np.empty(offsets[-1], dtype=np.int64)
    for i, s in enumerate(sessions):
        pos = np.arange(1, len(s), stride)
        counts[offsets[i]: offsets[i + 1]] = np.minimum(pos / max_len, 1.0)
        targets[offsets[i]: offsets[i + 1]] = s.symbols[pos]
    return offsets, counts, targets


def _pool_size(workers: int) -> int:
    return workers if workers > 0 else (os.cpu_count() or 1)


def _run_tasks(fn, payloads, parallel: bool, workers: int):
    """fn over payloads, in order; in a process pool when parallel.  Every
    payload carries all its task needs, so any start method works."""
    if not parallel or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=_pool_size(workers)) as pool:
        return list(pool.map(fn, payloads))


def _fit_task(payload):
    length, seqs, config = payload
    model, trace = baum_welch_fit(
        seqs,
        n_hidden=config.n_hidden,
        n_obs=config.n_obs,
        seed=config.base_seed ^ length,
        tol=config.tol,
        max_iters=config.max_iters,
    )
    return length, model, fit_converged(trace, config.tol), len(trace)


def _fit_selected(groups, lengths: list[int], config: RunConfig):
    """One HMM per selected length: (length, model, converged, iterations)
    in selection order."""
    group_map = dict(groups)
    payloads = [(length, group_map[length], config) for length in lengths]
    return _run_tasks(_fit_task, payloads, config.parallel, config.workers)


def _points_task(payload):
    models, seqs, stride = payload
    return predict_points(models, seqs, stride)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_ensemble(
    sessions: list[StateSequence], config: RunConfig
) -> EnsembleModel:
    """Run the full training pipeline.

    Parallel and sequential modes produce bit-identical models: each HMM's
    seed is base_seed XOR its length key, so results do not depend on
    scheduling.  HMMs that stop at the iteration cap are recorded as warnings
    on the model, not failures.
    """
    if not sessions:
        raise DomainError("need at least one training session")
    config.validate()
    timings: dict[str, float] = {}
    total_start = time.perf_counter()

    t0 = time.perf_counter()
    groups = group_by_length(sessions)
    freq_arrays = [frequency_array(seqs, config.n_obs) for _, seqs in groups]
    distances = dissimilarity_matrix(freq_arrays)
    plan = select_k(groups, freq_arrays, distances, config.k, config.min_support)
    timings["partition"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    results = _fit_selected(groups, plan.selected_lengths, config)
    models = {length: model for length, model, _, _ in results}
    warnings_list = [
        f"hmm_{length} stopped at the iteration cap ({iters} iterations)"
        for length, _, converged, iters in results
        if not converged
    ]
    timings["hmm_training"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    max_len = max(len(s) for s in sessions)
    model_list = [models[length] for length in plan.selected_lengths]
    preds, counts, targets = stage2_arrays(
        model_list, sessions, config.stride, max_len,
        parallel=config.parallel, workers=config.workers,
    )
    timings["stage2"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    X = encode_batch(preds, counts, config.n_obs)
    fusion, _ = train_fusion_arrays(X, targets, config.n_obs, _hyper(config))
    timings["fusion"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - total_start

    return EnsembleModel(
        plan=plan,
        models=models,
        fusion=fusion,
        n_obs=config.n_obs,
        alphabet=default_alphabet(config.n_obs),
        base_seed=config.base_seed,
        max_len=max_len,
        warnings=warnings_list,
        timings=timings,
    )


def _hyper(config: RunConfig) -> FusionHyper:
    return FusionHyper(
        hidden_width=config.hidden_width,
        lr=config.lr,
        l2=config.l2,
        epochs=config.epochs,
        batch=config.batch,
        seed=config.base_seed,
        loss=config.loss,
    )


def stage2_arrays(
    models: list[HmmModel],
    sessions: list[StateSequence],
    stride: int,
    max_len: int,
    parallel: bool = False,
    workers: int = 0,
):
    """(P, K) prediction matrix plus counts and targets, canonical order.

    In parallel, the sessions are dealt by length, round-robin, into one
    chunk per worker; each chunk runs the stacked kernel and its rows are
    scattered back into the canonical order.
    """
    if stride < 1:
        raise DomainError("stride must be at least 1")
    if any(len(s) < 2 for s in sessions):
        raise DomainError("stage-2 sessions need length of at least 2")
    offsets, counts, targets = _stage2_meta(sessions, stride, max_len)
    seqs = [s.symbols for s in sessions]
    if not parallel:
        return predict_points(models, seqs, stride), counts, targets
    n_chunks = min(_pool_size(workers), len(seqs))
    by_length = np.argsort([-len(s) for s in seqs], kind="stable")
    chunks = [by_length[c::n_chunks] for c in range(n_chunks)]
    parts = _run_tasks(
        _points_task,
        [(models, [seqs[i] for i in idx], stride) for idx in chunks],
        parallel, workers,
    )
    preds = np.empty((targets.size, len(models)), dtype=np.int64)
    for idx, part in zip(chunks, parts):
        rows = [np.arange(offsets[i], offsets[i + 1]) for i in idx]
        preds[np.concatenate(rows)] = part
    return preds, counts, targets


def collect_stage2(
    models: list[HmmModel],
    sessions: list[StateSequence],
    stride: int = 1,
    max_len: int | None = None,
) -> list[tuple[FusionInput, int]]:
    """Second-stage dataset: every model's prediction at every stride point,
    paired with the actual next symbol."""
    if max_len is None:
        max_len = max(len(s) for s in sessions)
    preds, counts, targets = stage2_arrays(models, sessions, stride, max_len)
    return [
        (FusionInput(hmm_preds=preds[i], count=float(counts[i])), int(targets[i]))
        for i in range(targets.size)
    ]


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict(model: EnsembleModel, prefix: StateSequence) -> EnsemblePrediction:
    """Fused next-state prediction with per-model diagnostics."""
    preds = predict_next_all(
        [model.models[length] for length in model.selected_lengths], prefix
    )
    per_model = {
        length: int(symbol)
        for length, symbol in zip(model.selected_lengths, preds)
    }
    count = min(len(prefix) / model.max_len, 1.0)
    x = encode(FusionInput(hmm_preds=preds, count=count), model.k, model.n_obs)
    scores, symbol = forward(model.fusion, x)
    return EnsemblePrediction(symbol=symbol, per_model=per_model, scores=scores)


def _fused_point_predictions(model: EnsembleModel, sessions, stride):
    """Fused predictions at every canonical point plus the per-model matrix."""
    model_list = [model.models[length] for length in model.selected_lengths]
    preds, counts, targets = stage2_arrays(
        model_list, sessions, stride, model.max_len
    )
    fused = np.empty(targets.size, dtype=np.int64)
    chunk = 8192
    for start in range(0, targets.size, chunk):
        X = encode_batch(
            preds[start : start + chunk], counts[start : start + chunk],
            model.n_obs,
        )
        fused[start : start + chunk] = np.argmax(
            forward_batch(model.fusion, X), axis=1
        )
    return fused, preds, targets


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _markov_point_predictions(model: MarkovChainModel, sessions, stride,
                              offsets, total):
    row_argmax = np.argmax(model.T1, axis=1)
    out = np.empty(total, dtype=np.int64)
    for i, s in enumerate(sessions):
        pos = np.arange(1, len(s), stride)
        out[offsets[i]: offsets[i + 1]] = row_argmax[s.symbols[pos - 1]]
    return out


def _generic_point_predictions(predict_fn, sessions, stride, offsets, total):
    out = np.empty(total, dtype=np.int64)
    for i, s in enumerate(sessions):
        pos = np.arange(1, len(s), stride)
        for j, t in enumerate(pos):
            out[offsets[i] + j] = predict_fn(StateSequence(
                s.symbols[:t], session_id=s.session_id
            ))
    return out


def evaluate(
    predictor,
    sessions: list[StateSequence],
    stride: int = 1,
    n_obs: int | None = None,
) -> EvaluationReport:
    """Next-state accuracy of any supported predictor over the test sessions.

    `predictor` may be an EnsembleModel, HmmModel, MarkovChainModel, an array
    of externally produced predictions aligned to the canonical point order,
    or a callable mapping a prefix StateSequence to a symbol.
    """
    if not sessions:
        raise DomainError("need at least one test session")
    offsets, _, targets = _stage2_meta(
        sessions, stride, max(len(s) for s in sessions)
    )
    total = targets.size
    per_model_accuracy = None

    t0 = time.perf_counter()
    if isinstance(predictor, EnsembleModel):
        fused, model_preds, _ = _fused_point_predictions(
            predictor, sessions, stride
        )
        predictions = fused
        per_model_accuracy = {
            length: float((model_preds[:, i] == targets).mean())
            for i, length in enumerate(predictor.selected_lengths)
        }
        n_obs = predictor.n_obs
    elif isinstance(predictor, HmmModel):
        predictions = predict_points(
            [predictor], [s.symbols for s in sessions], stride
        )[:, 0]
        n_obs = predictor.n_obs
    elif isinstance(predictor, MarkovChainModel):
        predictions = _markov_point_predictions(
            predictor, sessions, stride, offsets, total
        )
        n_obs = predictor.n_obs
    elif isinstance(predictor, np.ndarray):
        if predictor.size != total:
            raise DomainError(
                f"external predictions have {predictor.size} entries, "
                f"expected {total}"
            )
        predictions = predictor.astype(np.int64)
        if n_obs is None:
            n_obs = int(max(predictions.max(), targets.max())) + 1
    elif callable(predictor):
        predictions = _generic_point_predictions(
            predictor, sessions, stride, offsets, total
        )
        if n_obs is None:
            n_obs = int(max(predictions.max(), targets.max())) + 1
    else:
        raise DomainError(f"unsupported predictor type {type(predictor)!r}")
    predict_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    confusion = np.zeros((n_obs, n_obs), dtype=np.int64)
    np.add.at(confusion, (targets, predictions), 1)
    support = confusion.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_state = np.where(
            support > 0, np.diag(confusion) / np.maximum(support, 1), np.nan
        )
    overall = float((predictions == targets).mean())
    scoring_time = time.perf_counter() - t0

    return EvaluationReport(
        overall_accuracy=overall,
        per_state_accuracy=per_state,
        per_model_accuracy=per_model_accuracy,
        confusion=confusion,
        wall_time={"prediction": predict_time, "scoring": scoring_time},
        n_points=total,
    )


def prediction_correlation(
    models: list[HmmModel],
    sessions: list[StateSequence],
    stride: int = 1,
) -> np.ndarray:
    """Pairwise agreement rate between model predictions; unit diagonal."""
    if len(models) < 2:
        raise DomainError("need at least two models")
    preds = predict_points(models, [s.symbols for s in sessions], stride)
    k = len(models)
    out = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            rate = float((preds[:, i] == preds[:, j]).mean())
            out[i, j] = rate
            out[j, i] = rate
    return out


# ---------------------------------------------------------------------------
# Train/test protocol and the K sweep
# ---------------------------------------------------------------------------

def split_sessions(
    sessions: list[StateSequence], train_frac: float, seed: int
) -> tuple[list[StateSequence], list[StateSequence]]:
    """Session-level split; no session straddles the boundary."""
    if not 0.0 < train_frac < 1.0:
        raise DomainError("train_frac must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(sessions))
    n_train = int(round(train_frac * len(sessions)))
    train_idx = np.sort(order[:n_train])
    test_idx = np.sort(order[n_train:])
    return (
        [sessions[i] for i in train_idx],
        [sessions[i] for i in test_idx],
    )


def sweep_k(
    sessions: list[StateSequence],
    ks: list[int],
    config: RunConfig,
) -> list[tuple[int, float]]:
    """Error rate per ensemble size on a fixed seeded train/test split.

    Greedy selection is nested, so the K_max models are trained once and each
    smaller ensemble reuses its prefix; results are identical to training
    each size independently.
    """
    if not ks:
        raise DomainError("need at least one k value")
    if sorted(set(ks)) != list(ks):
        raise DomainError("k values must be ascending and distinct")
    train, test = split_sessions(sessions, config.train_frac, config.base_seed)
    k_max = ks[-1]

    groups = group_by_length(train)
    freq_arrays = [frequency_array(seqs, config.n_obs) for _, seqs in groups]
    distances = dissimilarity_matrix(freq_arrays)
    plan = select_k(groups, freq_arrays, distances, k_max, config.min_support)

    results = _fit_selected(groups, plan.selected_lengths, config)
    models = {length: model for length, model, _, _ in results}
    model_list = [models[length] for length in plan.selected_lengths]

    max_len = max(len(s) for s in train)
    train_preds, train_counts, train_targets = stage2_arrays(
        model_list, train, config.stride, max_len,
        parallel=config.parallel, workers=config.workers,
    )
    test_preds, test_counts, test_targets = stage2_arrays(
        model_list, test, config.stride, max_len,
        parallel=config.parallel, workers=config.workers,
    )

    curve = []
    for k in ks:
        X = encode_batch(train_preds[:, :k], train_counts, config.n_obs)
        fusion, _ = train_fusion_arrays(
            X, train_targets, config.n_obs, _hyper(config)
        )
        Xt = encode_batch(test_preds[:, :k], test_counts, config.n_obs)
        got = np.argmax(forward_batch(fusion, Xt), axis=1)
        error = 1.0 - float((got == test_targets).mean())
        curve.append((k, error))
    return curve


# ---------------------------------------------------------------------------
# Serialization and reports
# ---------------------------------------------------------------------------

def save_ensemble(model: EnsembleModel, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_doc(out / "ensemble.json", {
        "schema": ENSEMBLE_SCHEMA,
        "n_obs": model.n_obs,
        "base_seed": model.base_seed,
        "max_len": model.max_len,
        "selected_lengths": model.selected_lengths,
        "alphabet": model.alphabet,
        "warnings": model.warnings,
    })
    serialize.write_doc(out / "plan.json", plan_to_doc(model.plan))
    for length in model.selected_lengths:
        serialize.write_doc(
            out / f"hmm_{length}.json", model_to_doc(model.models[length])
        )
    serialize.write_doc(out / "fusion.json", fusion_to_doc(model.fusion))


def load_ensemble(model_dir: str | Path) -> EnsembleModel:
    root = Path(model_dir)
    meta = serialize.read_doc(root / "ensemble.json")
    if meta.get("schema") != ENSEMBLE_SCHEMA:
        raise DomainError(f"unexpected ensemble schema {meta.get('schema')!r}")
    selected = [int(v) for v in meta["selected_lengths"]]
    models = {
        length: model_from_doc(serialize.read_doc(root / f"hmm_{length}.json"))
        for length in selected
    }
    plan_doc = serialize.read_doc(root / "plan.json")
    supports = plan_doc["group_supports"]
    freq_arrays = [
        FrequencyArray(
            length_key=int(key),
            probs=serialize.array_from_doc(plan_doc["frequency_arrays"][key]),
            support=int(supports[key]),
        )
        for key in sorted(plan_doc["frequency_arrays"], key=int)
    ]
    plan = PartitionPlan(
        groups=[],
        freq_arrays=freq_arrays,
        distances=serialize.array_from_doc(plan_doc["distance_matrix"]),
        ranks={int(k): v for k, v in plan_doc["ranks"].items()},
        selected_lengths=selected,
        coverage=float(plan_doc["coverage"]),
        total_sessions=int(plan_doc["total_sessions"]),
        min_support=int(plan_doc["min_support"]),
    )
    return EnsembleModel(
        plan=plan,
        models=models,
        fusion=fusion_from_doc(serialize.read_doc(root / "fusion.json")),
        n_obs=int(meta["n_obs"]),
        alphabet=list(meta["alphabet"]),
        base_seed=int(meta["base_seed"]),
        max_len=int(meta["max_len"]),
        warnings=list(meta["warnings"]),
    )


def feature_importance_report(
    model: EnsembleModel,
    sessions: list[StateSequence],
    config: RunConfig,
    n_retrain: int = 5,
):
    """Table of per-feature weight mass over seeded fusion retrainings."""
    model_list = [model.models[length] for length in model.selected_lengths]
    preds, counts, targets = stage2_arrays(
        model_list, sessions, config.stride, model.max_len,
        parallel=config.parallel, workers=config.workers,
    )
    X = encode_batch(preds, counts, model.n_obs)
    names = [f"hmm_{length}" for length in model.selected_lengths]
    return feature_importance(
        X, targets, model.k, model.n_obs, _hyper(config), names,
        n_retrain=n_retrain,
    )


REPORT_SCHEMA = "fhmm-eval/1"


def report_to_doc(report: EvaluationReport, name: str) -> dict:
    per_state = [
        None if np.isnan(v) else serialize.fmt_float(v)
        for v in report.per_state_accuracy
    ]
    return {
        "schema": REPORT_SCHEMA,
        "model": name,
        "overall_accuracy": serialize.fmt_float(report.overall_accuracy),
        "n_points": report.n_points,
        "per_state_accuracy": per_state,
        "per_model_accuracy": None if report.per_model_accuracy is None else {
            str(length): serialize.fmt_float(acc)
            for length, acc in sorted(report.per_model_accuracy.items())
        },
        "wall_time": {
            stage: serialize.fmt_float(seconds)
            for stage, seconds in report.wall_time.items()
        },
    }


def write_confusion_csv(report: EvaluationReport, path: str | Path) -> None:
    m = report.confusion.shape[0]
    lines = ["# fhmm-confusion/1"]
    lines.append("true_state," + ",".join(f"pred_{j}" for j in range(m)))
    for i in range(m):
        lines.append(
            str(i) + "," + ",".join(str(int(v)) for v in report.confusion[i])
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_per_state_csv(
    report: EvaluationReport, path: str | Path, alphabet=None
) -> None:
    lines = ["# fhmm-per-state/1", "state,name,support,accuracy"]
    support = report.confusion.sum(axis=1)
    for i, acc in enumerate(report.per_state_accuracy):
        name = alphabet[i] if alphabet else f"state_{i}"
        shown = "-" if np.isnan(acc) else f"{acc:.4f}"
        lines.append(f"{i},{name},{int(support[i])},{shown}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep_csv(curve: list[tuple[int, float]], path: str | Path) -> None:
    lines = ["# fhmm-sweep/1", "k,error_rate"]
    for k, error in curve:
        lines.append(f"{k},{error:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_correlation_csv(
    corr: np.ndarray, lengths: list[int], path: str | Path
) -> None:
    names = [f"hmm_{length}" for length in lengths]
    lines = ["# fhmm-correlation/1", "model," + ",".join(names)]
    for i, name in enumerate(names):
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in corr[i]))
    Path(path).write_text("\n".join(lines) + "\n")
