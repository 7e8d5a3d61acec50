"""Single-hidden-layer network fusing per-model predictions into one.

Inputs are the K individual next-state predictions (one-hot encoded) plus a
normalized time-step feature.  The hidden layer is ReLU and the output
linear, trained under the quadratic cost with L2 regularization on the two
weight matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TrainingDivergedError
from . import serialize


@dataclass
class FusionInput:
    """K predicted symbols plus the normalized position of the prediction."""

    hmm_preds: np.ndarray
    count: float

    def __post_init__(self):
        self.hmm_preds = np.asarray(self.hmm_preds, dtype=np.int64)


@dataclass
class FusionHyper:
    hidden_width: int = 60
    lr: float = 0.01
    l2: float = 1e-4
    epochs: int = 50
    batch: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.hidden_width < 1:
            raise DomainError("hidden_width must be at least 1")
        if self.lr <= 0:
            raise DomainError("lr must be positive")
        if self.l2 < 0:
            raise DomainError("l2 must be non-negative")
        if self.epochs < 1 or self.batch < 1:
            raise DomainError("epochs and batch must be at least 1")


@dataclass
class FusionNetwork:
    W: np.ndarray         # input -> hidden, (K*M+1, H)
    c: np.ndarray         # hidden bias, (H,)
    w: np.ndarray         # hidden -> output, (H, M)
    b: np.ndarray         # output bias, (M,)
    l2: float
    lr: float

    @property
    def n_inputs(self) -> int:
        return self.W.shape[0]


def encode(inp: FusionInput, k: int, n_obs: int) -> np.ndarray:
    """K one-hot blocks of width M followed by the scalar count feature."""
    preds = inp.hmm_preds
    if preds.size != k:
        raise DomainError(f"expected {k} predictions, got {preds.size}")
    return encode_batch(preds.reshape(1, k), [inp.count], n_obs)[0]


def encode_batch(preds: np.ndarray, counts: np.ndarray, n_obs: int) -> np.ndarray:
    """Vectorized encode for a (P, K) prediction matrix and (P,) counts."""
    return _encode_rows(*_checked_points(preds, counts, n_obs), n_obs)


def _checked_points(preds, counts, n_obs: int):
    """encode's checks, once over a whole (P, K) matrix and its counts."""
    preds = np.asarray(preds)
    counts = np.asarray(counts, dtype=np.float64)
    if preds.ndim != 2:
        raise DomainError(
            f"predictions must be a (P, K) matrix, got shape {preds.shape}"
        )
    if counts.shape != (preds.shape[0],):
        raise DomainError(
            f"{counts.size} counts for {preds.shape[0]} prediction rows"
        )
    if preds.size and (preds.min() < 0 or preds.max() >= n_obs):
        raise DomainError("prediction symbol out of range")
    # min and max, unlike a comparison per count, allocate nothing; NaN
    # propagates through them and fails the test
    if counts.size and not (counts.min() >= 0.0 and counts.max() <= 1.0):
        raise DomainError("count must lie in [0, 1]")
    return preds, counts


def _checked_targets(targets, n_obs: int, n: int) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise DomainError(f"{targets.size} targets for {n} points")
    if (targets < 0).any() or (targets >= n_obs).any():
        raise DomainError("target symbol out of range")
    return targets


def _set_columns(preds: np.ndarray, counts: np.ndarray, n_obs: int) -> np.ndarray:
    """The input columns that some row of a checked (P, K) matrix and its
    counts sets, ascending: the symbols each model predicts, then the count
    column if any count is nonzero.  The rows are scanned in
    fused_predictions' chunks, so no temporary grows with P."""
    k = preds.shape[1]
    step = _chunk_rows(k * n_obs + 1)
    seen = np.zeros(k * n_obs + 1, dtype=bool)
    base = np.arange(k) * n_obs
    for start in range(0, preds.shape[0], step):
        seen[base + preds[start : start + step]] = True
    seen[-1] = counts.any()
    return np.flatnonzero(seen)


def _encode_rows(preds: np.ndarray, counts: np.ndarray, n_obs: int,
                 cols: np.ndarray | None = None,
                 dtype=np.float64) -> np.ndarray:
    """The one-hot rows of a checked (P, K) matrix and its counts, in the
    ascending input columns `cols` (all K*M+1 by default), as a `dtype`
    array.

    `cols` must hold every column some row sets, so the rows are the
    full-width rows with their never-set columns left out.
    """
    n, k = preds.shape
    width = k * n_obs + 1
    ones = np.arange(k) * n_obs + preds
    if cols is None:
        cols = np.arange(width)
    else:
        at = np.zeros(width, dtype=np.intp)      # column -> place in cols
        at[cols] = np.arange(cols.size)
        ones = at[ones]
    X = np.zeros((n, cols.size), dtype=dtype)
    X[np.arange(n)[:, None], ones] = 1.0
    if cols.size and cols[-1] == width - 1:
        X[:, -1] = counts
    return X


def init_network(
    n_inputs: int, n_obs: int, hyper: FusionHyper
) -> FusionNetwork:
    """Symmetric uniform weights scaled by 1/sqrt(fan-in); zero biases."""
    hyper.validate()
    rng = np.random.default_rng(hyper.seed)
    h = hyper.hidden_width
    win = 1.0 / np.sqrt(n_inputs)
    wout = 1.0 / np.sqrt(h)
    return FusionNetwork(
        W=rng.uniform(-win, win, size=(n_inputs, h)),
        c=np.zeros(h),
        w=rng.uniform(-wout, wout, size=(h, n_obs)),
        b=np.zeros(n_obs),
        l2=hyper.l2,
        lr=hyper.lr,
    )


def forward(net: FusionNetwork, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Scores for one encoded input and the argmax prediction."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.n_inputs,):
        raise DomainError(
            f"input has dimension {x.shape}, network expects ({net.n_inputs},)"
        )
    scores = forward_batch(net, x[None, :])[0]
    return scores, int(np.argmax(scores))


def forward_batch(net: FusionNetwork, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != net.n_inputs:
        raise DomainError("input dimension mismatch")
    return _scores(net, X, net.W)


def _scores(net: FusionNetwork, X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Output scores of inputs X against the rows W of net.W that X's
    columns hold."""
    hidden = np.maximum(0.0, X @ W + net.c)
    return hidden @ net.w + net.b


# Bytes of encoded float64 input per chunk of fused_predictions
PREDICT_BYTES = 2 * 2**20


def _chunk_rows(width: int) -> int:
    """Rows of a fused_predictions chunk of full-width (width) inputs."""
    return max(1, PREDICT_BYTES // (8 * width))


def fused_predictions(
    net: FusionNetwork, preds: np.ndarray, counts: np.ndarray, n_obs: int
) -> np.ndarray:
    """The fused prediction (argmax) at every point of a (P, K) matrix, as a
    (P,) int64 array.

    Points are encoded PREDICT_BYTES // (8 * (K*M+1)) at a time (at least
    one), so besides the result the working memory does not grow with P:
    one chunk's inputs plus its hidden-layer arrays.  Only the input
    columns some point sets are encoded and multiplied.
    """
    preds, counts = _checked_points(preds, counts, n_obs)
    width = preds.shape[1] * n_obs + 1
    if width != net.n_inputs:
        raise DomainError("input dimension mismatch")
    step = _chunk_rows(width)
    cols = _set_columns(preds, counts, n_obs)
    W = net.W[cols]
    out = np.empty(preds.shape[0], dtype=np.int64)
    for start in range(0, out.size, step):
        rows = slice(start, start + step)
        # each chunk's inputs are freed before the next chunk's are made
        X = _encode_rows(preds[rows], counts[rows], n_obs, cols)
        out[rows] = np.argmax(_scores(net, X, W), axis=1)
        del X
    return out


def cost_and_gradients(
    net: FusionNetwork, X: np.ndarray, Y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Cost and analytic gradients for a batch:
    C = (1/2n) sum ||y - out||^2 + (l2/2)(||W||^2 + ||w||^2).
    """
    return _cost_and_gradients(net, X, Y, slice(None))


def _cost_and_gradients(net: FusionNetwork, X: np.ndarray, Y: np.ndarray,
                        cols) -> tuple[float, dict[str, np.ndarray]]:
    """cost_and_gradients for a batch X that holds only the input columns
    `cols` (ascending indices, or slice(None) for all) of a batch whose
    other columns are zero: the rows of dW outside cols are the L2 term
    alone."""
    n = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        z = X @ net.W[cols] + net.c
        hidden = np.maximum(0.0, z)
        out = hidden @ net.w + net.b
        diff = out - Y
        data_cost = float((diff ** 2).sum()) / (2.0 * n)
        dout = diff / n
        cost = data_cost + 0.5 * net.l2 * (
            float((net.W ** 2).sum()) + float((net.w ** 2).sum())
        )
        dw = hidden.T @ dout + net.l2 * net.w
        db = dout.sum(axis=0)
        dhidden = dout @ net.w.T
        dz = dhidden * (z > 0.0)
        dW = net.l2 * net.W
        dW[cols] += X.T @ dz
        dc = dz.sum(axis=0)
    return cost, {"W": dW, "c": dc, "w": dw, "b": db}


def train_fusion_points(
    preds: np.ndarray,
    counts: np.ndarray,
    targets: np.ndarray,
    n_obs: int,
    hyper: FusionHyper,
) -> tuple[FusionNetwork, list[float]]:
    """Mini-batch gradient descent on a (P, K) prediction matrix, its (P,)
    counts and (P,) targets; returns the net and per-epoch mean cost.

    The distinct (prediction row, count) pairs are found once and their
    one-hot rows encoded once into a table (see _row_table), and each
    minibatch gathers its rows from it, so the dense (P, K*M+1) input matrix
    is never built.  The table holds only the input columns some point sets,
    so no product multiplies a column that is zero in every point.
    """
    preds, counts = _checked_points(preds, counts, n_obs)
    targets = _checked_targets(targets, n_obs, preds.shape[0])
    width = preds.shape[1] * n_obs + 1
    cols = _set_columns(preds, counts, n_obs)
    table, row_counts, inverse = _row_table(preds, counts, n_obs, cols)
    counted = cols.size and cols[-1] == width - 1

    def rows(idx):
        at = inverse.take(idx)
        X = table.take(at, axis=0).astype(np.float32)
        if counted:
            X[:, -1] = row_counts.take(at)
        return X

    return _train(rows, cols, width, targets, n_obs, hyper)


def _row_table(preds: np.ndarray, counts: np.ndarray, n_obs: int,
               cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (prediction row, float32 count) pairs of a checked
    (P, K) matrix and its counts: their one-hot rows in the columns `cols`
    as a (D, cols.size) bool table, their (D,) float32 counts, and the (P,)
    index of each point's pair.

    A point's float32 input row is its table row as float32 with the count
    column, if cols holds it, set to its pair's count: the bits of
    _encode_rows(..., cols, np.float32), which rounds each count to float32
    the same way.  The keys are the predictions narrowed as in
    prediction_dtype plus the float32 count, made PREDICT_BYTES / 8 bytes
    of them at a time and merged into a running union of the distinct
    keys, so besides the table and the index no temporary grows with P
    (one np.unique over all P keys would hold several copies of them).
    The table is encoded in fused_predictions' chunks.
    """
    n, k = preds.shape
    key = np.dtype([("preds", np.min_scalar_type(n_obs - 1), (k,)),
                    ("count", np.float32)])
    void = np.dtype((np.void, key.itemsize))
    step = max(1, PREDICT_BYTES // (8 * key.itemsize))

    def keys(start):
        block = np.empty(min(step, n - start), dtype=key)
        block["preds"] = preds[start : start + step]
        block["count"] = counts[start : start + step]
        return block.view(void)

    distinct = np.empty(0, dtype=void)
    for start in range(0, n, step):
        distinct = np.union1d(distinct, keys(start))
    inverse = np.empty(n, dtype=np.intp)
    for start in range(0, n, step):
        inverse[start : start + step] = np.searchsorted(distinct, keys(start))
    distinct = distinct.view(key)
    row_counts = np.ascontiguousarray(distinct["count"])
    table = np.empty((distinct.size, cols.size), dtype=bool)
    step = _chunk_rows(k * n_obs + 1)
    for start in range(0, distinct.size, step):
        rows = slice(start, start + step)
        table[rows] = _encode_rows(
            distinct["preds"][rows], row_counts[rows], n_obs, cols, bool
        )
    return table, row_counts, inverse


def train_fusion_arrays(
    X: np.ndarray, targets: np.ndarray, n_obs: int, hyper: FusionHyper
) -> tuple[FusionNetwork, list[float]]:
    """train_fusion_points on inputs already encoded as one (P, D) matrix."""
    targets = _checked_targets(targets, n_obs, X.shape[0])
    cols = np.flatnonzero(X.any(axis=0))
    return _train(
        lambda idx: X[np.ix_(idx, cols)].astype(np.float32), cols, X.shape[1],
        targets, n_obs, hyper,
    )


def _train(rows, cols: np.ndarray, n_inputs: int, targets: np.ndarray,
           n_obs: int, hyper: FusionHyper) -> tuple[FusionNetwork, list[float]]:
    """The training loop; `rows(idx)` gives the float32 inputs of points idx
    in the columns `cols`, C-contiguous, and every other column is zero in
    every point.  Each minibatch's one-hot targets are rows of an identity
    matrix.

    The steps run in float32: the initial network is rounded once, and
    numpy keeps float32 when the arrays are scaled by Python floats.  The
    returned weights are float64 arrays that hold the float32 values
    exactly, so what is saved, loaded and predicted with stays float64.
    """
    hyper.validate()
    n = targets.size
    if n == 0:
        raise DomainError("need at least one training example")
    eye = np.eye(n_obs, dtype=np.float32)
    net = _cast(init_network(n_inputs, n_obs, hyper), np.float32)
    rng = np.random.default_rng(hyper.seed + 1)
    trace: list[float] = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_costs = []
        for start in range(0, n, hyper.batch):
            idx = order[start : start + hyper.batch]
            cost, grads = _cost_and_gradients(
                net, rows(idx), eye[targets[idx]], cols
            )
            if not np.isfinite(cost):
                raise TrainingDivergedError(epoch)
            net.W -= net.lr * grads["W"]
            net.c -= net.lr * grads["c"]
            net.w -= net.lr * grads["w"]
            net.b -= net.lr * grads["b"]
            epoch_costs.append(cost)
        trace.append(float(np.mean(epoch_costs)))
    return _cast(net, np.float64), trace


def _cast(net: FusionNetwork, dtype) -> FusionNetwork:
    """`net` with its weights as `dtype` arrays and its rates as Python
    floats, which scale an array without changing its dtype."""
    return FusionNetwork(
        W=net.W.astype(dtype), c=net.c.astype(dtype), w=net.w.astype(dtype),
        b=net.b.astype(dtype), l2=float(net.l2), lr=float(net.lr),
    )


# ---------------------------------------------------------------------------
# Feature importance
# ---------------------------------------------------------------------------

def input_block_weights(net: FusionNetwork, k: int, n_obs: int) -> np.ndarray:
    """Mean absolute input-to-hidden weight per input block.

    Blocks 0..k-1 are the one-hot prediction groups; block k is the scalar
    count feature.
    """
    masses = np.empty(k + 1)
    for i in range(k):
        masses[i] = np.abs(net.W[i * n_obs : (i + 1) * n_obs, :]).mean()
    masses[k] = np.abs(net.W[-1, :]).mean()
    return masses


@dataclass
class FeatureImportance:
    name: str
    weight: float
    std: float


def feature_importance(
    preds: np.ndarray,
    counts: np.ndarray,
    targets: np.ndarray,
    n_obs: int,
    hyper: FusionHyper,
    feature_names: list[str],
    n_retrain: int = 5,
) -> list[FeatureImportance]:
    """Block weight mass averaged over seeded retrainings, highest first.

    feature_names must list the K model features in block order; the count
    feature is appended automatically.  n_retrain must be at least 1.
    """
    if n_retrain < 1:
        raise DomainError(f"n_retrain must be at least 1, got {n_retrain}")
    preds, counts = _checked_points(preds, counts, n_obs)
    k = preds.shape[1]
    if len(feature_names) != k:
        raise DomainError("need one feature name per prediction block")
    all_masses = []
    for i in range(n_retrain):
        run = FusionHyper(**{**hyper.__dict__, "seed": hyper.seed + i})
        net, _ = train_fusion_points(preds, counts, targets, n_obs, run)
        all_masses.append(input_block_weights(net, k, n_obs))
    stacked = np.stack(all_masses)
    means = stacked.mean(axis=0)
    stds = stacked.std(axis=0)
    names = list(feature_names) + ["count"]
    rows = [
        FeatureImportance(name=names[i], weight=float(means[i]), std=float(stds[i]))
        for i in range(k + 1)
    ]
    rows.sort(key=lambda r: (-r.weight, r.name))
    return rows


def format_importance_report(rows: list[FeatureImportance]) -> str:
    lines = ["weight\tfeature"]
    for r in rows:
        lines.append(f"{r.weight:.4f} ± {r.std:.4f}\t{r.name}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

FUSION_SCHEMA = "fhmm-fusion/1"


def fusion_to_doc(net: FusionNetwork) -> dict:
    return {
        "schema": FUSION_SCHEMA,
        "l2": serialize.fmt_float(net.l2),
        "lr": serialize.fmt_float(net.lr),
        "W": serialize.array_to_doc(net.W),
        "c": serialize.array_to_doc(net.c),
        "w": serialize.array_to_doc(net.w),
        "b": serialize.array_to_doc(net.b),
    }


def fusion_from_doc(doc: dict) -> FusionNetwork:
    """The network in `doc`; a non-finite weight, l2 or lr raises
    DomainError.  The "loss" key of older files is ignored: scores never
    depended on it."""
    if doc.get("schema") != FUSION_SCHEMA:
        raise DomainError(f"unexpected fusion schema {doc.get('schema')!r}")
    weights = {
        name: serialize.array_from_doc(doc[name]) for name in ("W", "c", "w", "b")
    }
    rates = {name: float(doc[name]) for name in ("l2", "lr")}
    for name, value in {**weights, **rates}.items():
        if not np.isfinite(value).all():
            raise DomainError(f"field {name!r} has non-finite entries")
    return FusionNetwork(**weights, **rates)
