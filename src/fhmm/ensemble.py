"""End-to-end fusion-ensemble orchestration.

Pipeline: partition sessions by length and select K diverse groups, train one
HMM per group in one stacked EM pass (or shares of them in a process pool,
with identical results), collect the second-stage dataset of per-model
predictions, train the fusion network, and evaluate next-state accuracy
against baselines.
"""

from __future__ import annotations

import os
import time
from functools import cached_property
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
    feature_importance,
    forward,
    fused_predictions,
    fusion_from_doc,
    fusion_to_doc,
    train_fusion_points,
)
from .hmm import (
    HmmModel,
    ModelStack,
    fit_converged,
    fit_groups,
    model_from_doc,
    model_to_doc,
    point_offsets,
    predict_next_all,
    predict_points,
    prediction_dtype,
    stack_models,
)
from .ingest import default_mapping
from .markov import MarkovChainModel
from .partition import FrequencyArray, PartitionPlan, build_plan, plan_to_doc
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

    @cached_property
    def stacks(self) -> list[ModelStack]:
        """The selected models, stacked once for `predict`."""
        return stack_models(
            [self.models[length] for length in self.selected_lengths]
        )


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
    """offsets, counts and targets arrays for the canonical point order.

    Per session only a slice is taken: the targets are the sessions'
    strided symbols, joined, and each point's position comes from the
    offsets.
    """
    if stride < 1:
        raise DomainError("stride must be at least 1")
    offsets = point_offsets([len(s) for s in sessions], stride)
    # the empty leading part makes no sessions give an empty int64 array
    targets = np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [s.symbols[1::stride] for s in sessions]
    )
    # each point's position in its session, 1, 1 + stride, ...; computed
    # in place, because a fresh (P,) temporary per operation left peak RSS
    # about 0.5 MiB higher after the benchmark's 10k-session EM fit
    pos = np.arange(offsets[-1])
    pos -= np.repeat(offsets[:-1], np.diff(offsets))
    pos *= stride
    pos += 1
    counts = pos / max_len
    np.minimum(counts, 1.0, out=counts)
    return offsets, counts, targets


def _check_stage2(sessions, stride):
    if stride < 1:
        raise DomainError("stride must be at least 1")
    if any(len(s) < 2 for s in sessions):
        raise DomainError("stage-2 sessions need length of at least 2")


def _packed(sessions):
    """The sessions' symbols as one array and each session's end in it: a
    payload that pickles as two arrays, not one object per session."""
    return (
        np.concatenate([s.symbols for s in sessions]),
        np.cumsum([len(s) for s in sessions]),
    )


def _unpacked(packed) -> list[np.ndarray]:
    symbols, ends = packed
    return np.split(symbols, ends[:-1])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(workers: int) -> int:
    """Worker processes for `workers` (0 = all usable CPUs): never more than
    the usable CPUs, since more processes would only time-share them."""
    cpus = _usable_cpus()
    return min(workers, cpus) if workers > 0 else cpus


def _run_tasks(fn, payloads, parallel: bool, workers: int):
    """fn over payloads, in order; in a process pool when parallel.  Every
    payload carries all its task needs, so any start method works."""
    if not parallel or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    size = min(_pool_size(workers), len(payloads))
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, payloads))


def _fit_task(payload):
    """Fit one share of the groups in one stacked pass; given packed
    sequences, also predict with the fitted models at their points."""
    groups, seeds, config, packed = payload
    fits = fit_groups(
        groups, seeds, n_hidden=config.n_hidden, n_obs=config.n_obs,
        tol=config.tol, max_iters=config.max_iters,
    )
    if packed is None:
        return fits, None
    models = [model for model, _ in fits]
    return fits, predict_points(models, _unpacked(packed), config.stride)


def _deal(costs: list[int], n_shares: int) -> list[list[int]]:
    """Indices of `costs` dealt round-robin, largest first, into at most
    `n_shares` shares: the shares hold equal numbers of items, within one,
    and the costliest items go to different shares."""
    order = sorted(range(len(costs)), key=lambda i: -costs[i])
    return [order[i::n_shares] for i in range(min(n_shares, len(costs)))]


def _fit_selected(sessions, lengths: list[int], config: RunConfig,
                  stage2_sessions=None):
    """One HMM per selected length, fitted from the sessions of that length:
    (length, model, converged, iterations) in selection order; and, given
    `stage2_sessions`, every model's predictions at their canonical
    points, as `stage2_arrays` returns them (else None).

    One stacked EM pass fits them all.  In parallel, the groups are dealt
    to the workers, and each worker runs the pass over its share and then
    predicts with the models it fitted, so that no worker waits for another
    worker's fits.  A fit's iteration count is not known before it runs,
    but each model's predictions cost about the same, so the deal gives the
    workers equal numbers of models and spreads the costliest fits
    (length x sessions) over different workers.  A group's arithmetic does
    not depend on the other groups in its pass, nor a model's predictions
    on the other models in its stack, so the deal changes no result.
    """
    by_length: dict[int, list] = {length: [] for length in lengths}
    for s in sessions:
        if len(s) in by_length:
            by_length[len(s)].append(s)
    groups = [by_length[length] for length in lengths]
    seeds = [config.base_seed ^ length for length in lengths]
    if config.parallel:
        shares = _deal(
            [length * len(g) for length, g in zip(lengths, groups)],
            _pool_size(config.workers),
        )
    else:
        shares = [list(range(len(lengths)))]
    packed = None if stage2_sessions is None else _packed(stage2_sessions)
    parts = _run_tasks(
        _fit_task,
        [([groups[i] for i in share], [seeds[i] for i in share], config,
          packed) for share in shares],
        config.parallel, config.workers,
    )
    fits: list = [None] * len(lengths)
    for share, (share_fits, _) in zip(shares, parts):
        for i, fit in zip(share, share_fits):
            fits[i] = fit
    preds = None
    if stage2_sessions is not None:
        offsets = point_offsets(
            [len(s) for s in stage2_sessions], config.stride
        )
        preds = np.empty(
            (offsets[-1], len(lengths)),
            dtype=prediction_dtype([model for model, _ in fits]),
        )
        for share, (_, share_preds) in zip(shares, parts):
            preds[:, share] = share_preds
    results = [
        (length, model, fit_converged(trace, config.tol), len(trace))
        for length, (model, trace) in zip(lengths, fits)
    ]
    return results, preds


def _points_task(payload):
    models, packed, stride = payload
    return predict_points(models, _unpacked(packed), stride)


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
    on the model, not failures.  In parallel, the workers that fit the HMMs
    also run stage 2 with them, so `timings["hmm_training"]` covers both.
    """
    if not sessions:
        raise DomainError("need at least one training session")
    config.validate()
    timings: dict[str, float] = {}
    total_start = time.perf_counter()

    t0 = time.perf_counter()
    plan = build_plan(sessions, config.n_obs, config.k, config.min_support)
    timings["partition"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    _check_stage2(sessions, config.stride)
    results, preds = _fit_selected(
        sessions, plan.selected_lengths, config,
        stage2_sessions=sessions if config.parallel else None,
    )
    models = {length: model for length, model, _, _ in results}
    warnings_list = [
        f"hmm_{length} stopped at the iteration cap ({iters} iterations)"
        for length, _, converged, iters in results
        if not converged
    ]
    timings["hmm_training"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    max_len = max(len(s) for s in sessions)
    _, counts, targets = _stage2_meta(sessions, config.stride, max_len)
    if preds is None:
        preds = predict_points(
            [models[length] for length in plan.selected_lengths],
            [s.symbols for s in sessions], config.stride,
        )
    timings["stage2"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fusion, _ = train_fusion_points(
        preds, counts, targets, config.n_obs, _hyper(config)
    )
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

    The matrix has the dtype `predict_points` returns in either mode,
    `prediction_dtype(models)`: uint8 for up to 256 symbols, one byte per
    point and model.  In parallel, the sessions are dealt by length,
    round-robin, into one chunk per worker; each chunk runs the stacked
    kernel and its rows are scattered back into the canonical order.
    """
    _check_stage2(sessions, stride)
    offsets, counts, targets = _stage2_meta(sessions, stride, max_len)
    seqs = [s.symbols for s in sessions]
    if not parallel:
        return predict_points(models, seqs, stride), counts, targets
    n_chunks = min(_pool_size(workers), len(seqs))
    by_length = np.argsort([-len(s) for s in seqs], kind="stable")
    chunks = [by_length[c::n_chunks] for c in range(n_chunks)]
    parts = _run_tasks(
        _points_task,
        [(models, _packed([sessions[i] for i in idx]), stride)
         for idx in chunks],
        parallel, workers,
    )
    preds = np.empty(
        (targets.size, len(models)), dtype=prediction_dtype(models)
    )
    for idx, part in zip(chunks, parts):
        rows = [np.arange(offsets[i], offsets[i + 1]) for i in idx]
        preds[np.concatenate(rows)] = part
    return preds, counts, targets


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict(model: EnsembleModel, prefix: StateSequence) -> EnsemblePrediction:
    """Fused next-state prediction with per-model diagnostics."""
    preds = predict_next_all(model.stacks, prefix)
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
    fused = fused_predictions(model.fusion, preds, counts, model.n_obs)
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


def evaluate(
    predictor,
    sessions: list[StateSequence],
    stride: int = 1,
    n_obs: int | None = None,
) -> EvaluationReport:
    """Next-state accuracy of any supported predictor over the test sessions.

    `predictor` may be an EnsembleModel, HmmModel, MarkovChainModel or an
    array of externally produced predictions aligned to the canonical point
    order; any other type raises DomainError.
    """
    if not sessions:
        raise DomainError("need at least one test session")
    per_model_accuracy = None

    t0 = time.perf_counter()
    if isinstance(predictor, EnsembleModel):
        predictions, model_preds, targets = _fused_point_predictions(
            predictor, sessions, stride
        )
        per_model_accuracy = {
            length: float((model_preds[:, i] == targets).mean())
            for i, length in enumerate(predictor.selected_lengths)
        }
        n_obs = predictor.n_obs
    else:
        offsets, _, targets = _stage2_meta(
            sessions, stride, max(len(s) for s in sessions)
        )
        if isinstance(predictor, HmmModel):
            predictions = predict_points(
                [predictor], [s.symbols for s in sessions], stride
            )[:, 0]
            n_obs = predictor.n_obs
        elif isinstance(predictor, MarkovChainModel):
            predictions = _markov_point_predictions(
                predictor, sessions, stride, offsets, targets.size
            )
            n_obs = predictor.n_obs
        elif isinstance(predictor, np.ndarray):
            if predictor.size != targets.size:
                raise DomainError(
                    f"external predictions have {predictor.size} entries, "
                    f"expected {targets.size}"
                )
            predictions = predictor.astype(np.int64)
            if n_obs is None:
                n_obs = int(max(predictions.max(), targets.max())) + 1
        else:
            raise DomainError(
                f"unsupported predictor type {type(predictor)!r}"
            )
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
        n_points=targets.size,
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

    plan = build_plan(train, config.n_obs, k_max, config.min_support)
    results, _ = _fit_selected(train, plan.selected_lengths, config)
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
        fusion, _ = train_fusion_points(
            train_preds[:, :k], train_counts, train_targets, config.n_obs,
            _hyper(config),
        )
        got = fused_predictions(
            fusion, test_preds[:, :k], test_counts, config.n_obs
        )
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


def _read_checked(path: Path, convert):
    """convert(the document at `path`); a missing field or a failed check
    raises DomainError naming the file."""
    doc = serialize.read_doc(path)
    try:
        return convert(doc)
    except KeyError as exc:
        raise DomainError(f"{path}: missing field {exc.args[0]!r}") from None
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


def _meta_from_doc(doc: dict) -> dict:
    if doc.get("schema") != ENSEMBLE_SCHEMA:
        raise DomainError(f"unexpected ensemble schema {doc.get('schema')!r}")
    return {
        "n_obs": int(doc["n_obs"]),
        "base_seed": int(doc["base_seed"]),
        "max_len": int(doc["max_len"]),
        "selected_lengths": [int(v) for v in doc["selected_lengths"]],
        "alphabet": list(doc["alphabet"]),
        "warnings": list(doc["warnings"]),
    }


def _plan_from_doc(doc: dict, selected: list[int]) -> PartitionPlan:
    supports = doc["group_supports"]
    freq_arrays = [
        FrequencyArray(
            length_key=int(key),
            probs=serialize.array_from_doc(doc["frequency_arrays"][key]),
            support=int(supports[key]),
        )
        for key in sorted(doc["frequency_arrays"], key=int)
    ]
    return PartitionPlan(
        groups=[],
        freq_arrays=freq_arrays,
        distances=serialize.array_from_doc(doc["distance_matrix"]),
        ranks={int(k): v for k, v in doc["ranks"].items()},
        selected_lengths=selected,
        coverage=float(doc["coverage"]),
        total_sessions=int(doc["total_sessions"]),
        min_support=int(doc["min_support"]),
    )


def _check_fusion_shapes(fusion: FusionNetwork, k: int, n_obs: int) -> None:
    """The fusion network must read k*n_obs+1 inputs and score n_obs
    symbols."""
    H = fusion.W.shape[1] if fusion.W.ndim == 2 else -1
    expected = {
        "W": (k * n_obs + 1, H), "c": (H,), "w": (H, n_obs), "b": (n_obs,),
    }
    for name, shape in expected.items():
        got = getattr(fusion, name).shape
        if got != shape:
            raise DomainError(
                f"field {name!r} has shape {got}, expected {shape} "
                f"for k={k} and n_obs={n_obs}"
            )


def load_ensemble(model_dir: str | Path) -> EnsembleModel:
    """The model saved in `model_dir`.  A missing field, or a file that
    disagrees with ensemble.json's k and n_obs, raises DomainError naming
    the file."""
    root = Path(model_dir)
    meta = _read_checked(root / "ensemble.json", _meta_from_doc)
    selected, n_obs = meta["selected_lengths"], meta["n_obs"]

    def hmm_from_doc(doc):
        model = model_from_doc(doc)
        if model.n_obs != n_obs:
            raise DomainError(
                f"field 'n_obs' is {model.n_obs}, the ensemble's is {n_obs}"
            )
        return model

    def checked_fusion(doc):
        fusion = fusion_from_doc(doc)
        _check_fusion_shapes(fusion, len(selected), n_obs)
        return fusion

    models = {
        length: _read_checked(root / f"hmm_{length}.json", hmm_from_doc)
        for length in selected
    }
    return EnsembleModel(
        plan=_read_checked(
            root / "plan.json", lambda doc: _plan_from_doc(doc, selected)
        ),
        models=models,
        fusion=_read_checked(root / "fusion.json", checked_fusion),
        alphabet=meta["alphabet"],
        n_obs=n_obs,
        base_seed=meta["base_seed"],
        max_len=meta["max_len"],
        warnings=meta["warnings"],
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
    names = [f"hmm_{length}" for length in model.selected_lengths]
    return feature_importance(
        preds, counts, targets, model.n_obs, _hyper(config), names,
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
