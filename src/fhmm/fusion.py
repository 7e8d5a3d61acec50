"""Single-hidden-layer network fusing per-model predictions into one.

Inputs are the K individual next-state predictions (one-hot encoded) plus a
normalized time-step feature.  The hidden layer is ReLU and the output
linear, trained under the quadratic cost with L2 regularization on the two
weight matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

    This is the training step (_step) with each point its own row: a count
    of 1 and its own target as the row's target sum.
    """
    return _step(net, X, slice(None), np.arange(X.shape[0]), Y, 1, Y)


def _step(net: FusionNetwork, X: np.ndarray, cols, inv: np.ndarray,
          Y: np.ndarray, m, S: np.ndarray
          ) -> tuple[float, dict[str, np.ndarray]]:
    """cost_and_gradients for a batch of n points whose U distinct input rows
    are X: point i has row inv[i] and target Y[i], m is each row's count of
    points as a (U, 1) column (or 1 when every count is 1) and S (U, M) the
    sum of its points' targets.

    X holds only the input columns `cols` (ascending indices, or
    slice(None) for all) of rows whose other columns are zero, so the rows
    of dW outside cols are the L2 term alone.  The network runs once per
    row.  The data gradient at row u is (m_u out_u - S_u) / n, the sum of
    its points' gradients (out_u - y_i) / n; the cost is summed point by
    point.
    """
    n = Y.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        z = X @ net.W[cols] + net.c
        hidden = np.maximum(0.0, z)
        out = hidden @ net.w + net.b
        diff = out.take(inv, axis=0) - Y
        data_cost = float((diff ** 2).sum()) / (2.0 * n)
        dout = (m * out - S) / n
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
    preds: np.ndarray, counts: np.ndarray, targets: np.ndarray, n_obs: int,
    hyper: FusionHyper,
) -> tuple[FusionNetwork, list[float]]:
    """Mini-batch gradient descent on a (P, K) prediction matrix, its (P,)
    counts and (P,) targets; returns the net and per-epoch mean cost.

    The points are checked and prepared once (see _row_table): the distinct
    (prediction row, count) pairs are encoded once into a table, and each
    minibatch runs the network once per distinct row it holds (see _train),
    so the dense (P, K*M+1) input matrix is never built.  The table holds
    only the input columns some point sets, so no product multiplies a
    column that is zero in every point.
    """
    preds, counts = _checked_points(preds, counts, n_obs)
    targets = _checked_targets(targets, n_obs, preds.shape[0])
    return _train(*_row_table(preds, counts, n_obs), targets, n_obs, hyper)


def _distinct(keys, n: int, step: int, void: np.dtype
              ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct `void` keys of n points, sorted, and the (n,) index of
    each point's key among them; keys(start) gives the keys of the points
    start:start+step.  The chunks are merged into a running union of the
    distinct keys, so besides the index no temporary grows with n (one
    np.unique over all n keys would hold several copies of them)."""
    distinct = np.empty(0, dtype=void)
    for start in range(0, n, step):
        distinct = np.union1d(distinct, keys(start))
    inverse = np.empty(n, dtype=np.intp)
    for start in range(0, n, step):
        inverse[start : start + step] = np.searchsorted(distinct, keys(start))
    return distinct, inverse


def _row_table(preds: np.ndarray, counts: np.ndarray, n_obs: int):
    """_train's leading (table, row_counts, inverse, cols, width) for a
    checked (P, K) matrix and its counts, which any number of training runs
    on these points can share.  Over the D distinct (prediction row, float32
    count) pairs: their one-hot rows in the columns `cols` as a
    (D, cols.size) bool table; their (D,) float32 counts, or None when cols
    lacks the count column; the (P,) index of each point's pair; cols, the
    input columns the P points set (_set_columns over the D pairs, so the
    count column is set when some float32 count is nonzero); and the input
    width K*M+1.

    A point's float32 input row is its table row as float32 with the count
    column, if cols holds it, set to its pair's count: the bits of
    _encode_rows(..., cols, np.float32), which rounds each count to float32
    the same way.  The keys are the predictions narrowed as in
    prediction_dtype plus the float32 count, found by _distinct
    PREDICT_BYTES / 8 bytes of them at a time.  The table is encoded in
    fused_predictions' chunks.
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

    distinct, inverse = _distinct(keys, n, step, void)
    distinct = distinct.view(key)
    row_counts = np.ascontiguousarray(distinct["count"])
    cols = _set_columns(distinct["preds"], row_counts, n_obs)
    width = k * n_obs + 1
    table = np.empty((distinct.size, cols.size), dtype=bool)
    step = _chunk_rows(width)
    for start in range(0, distinct.size, step):
        rows = slice(start, start + step)
        table[rows] = _encode_rows(
            distinct["preds"][rows], row_counts[rows], n_obs, cols, bool
        )
    counted = cols.size and cols[-1] == width - 1
    return table, row_counts if counted else None, inverse, cols, width


def train_fusion_arrays(
    X: np.ndarray, targets: np.ndarray, n_obs: int, hyper: FusionHyper
) -> tuple[FusionNetwork, list[float]]:
    """train_fusion_points on inputs already encoded as one (P, D) matrix.

    The table holds the distinct float32 rows of X's set columns, found by
    _distinct as byte keys, so it trains the bits train_fusion_points
    trains on the points X encodes.
    """
    targets = _checked_targets(targets, n_obs, X.shape[0])
    cols = np.flatnonzero(X.any(axis=0))
    void = np.dtype((np.void, 4 * cols.size))
    step = max(1, PREDICT_BYTES // (8 * void.itemsize))

    def keys(start):
        block = X[start : start + step, cols]
        return np.ascontiguousarray(block, dtype=np.float32).view(void).ravel()

    distinct, inverse = _distinct(keys, X.shape[0], step, void)
    table = distinct.view(np.float32).reshape(distinct.size, cols.size)
    return _train(table, None, inverse, cols, X.shape[1], targets, n_obs,
                  hyper)


def _train(table: np.ndarray, row_counts: np.ndarray | None,
           inverse: np.ndarray, cols: np.ndarray, n_inputs: int,
           targets: np.ndarray, n_obs: int, hyper: FusionHyper
           ) -> tuple[FusionNetwork, list[float]]:
    """The training loop over points whose inputs are rows of a table:
    point i's input holds, in the columns `cols`, row inverse[i] of
    `table` as float32 with, unless row_counts is None, its last column
    set to row_counts[inverse[i]]; every other column is zero in every
    point.

    Each minibatch runs one _step over its U distinct table rows, ordered
    by their first point in the minibatch, so its bits depend on the
    minibatch's points and not on the order of the table's rows.  A row's
    count and target sum are the number and the one-hot targets of its
    points.  The minibatch order, size and count are those of per-point
    SGD over the same points.

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
    # scratch over the table rows: first the place of a row's first point
    # in the minibatch, then the row's place among the minibatch's rows
    place_of = np.empty(table.shape[0], dtype=np.intp)
    places = np.arange(min(hyper.batch, n))
    trace: list[float] = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_costs = []
        for start in range(0, n, hyper.batch):
            idx = order[start : start + hyper.batch]
            at = inverse.take(idx)
            place = places[: at.size]
            # reversed, so each row keeps the place written last: its first
            place_of[at[::-1]] = place[::-1]
            rows = at[place_of.take(at) == place]
            place_of[rows] = places[: rows.size]
            inv = place_of.take(at)
            t = targets.take(idx)
            X = table.take(rows, axis=0).astype(np.float32, copy=False)
            if row_counts is not None:
                X[:, -1] = row_counts.take(rows)
            m = np.bincount(inv, minlength=rows.size).astype(np.float32)
            S = np.bincount(inv * n_obs + t, minlength=rows.size * n_obs)
            S = S.astype(np.float32).reshape(rows.size, n_obs)
            cost, grads = _step(net, X, cols, inv, eye.take(t, axis=0),
                                m[:, None], S)
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
    preds: np.ndarray, counts: np.ndarray, targets: np.ndarray, n_obs: int,
    hyper: FusionHyper, feature_names: list[str], n_retrain: int = 5,
) -> list[FeatureImportance]:
    """Block weight mass averaged over seeded retrainings, highest first.

    feature_names must list the K model features in block order; the count
    feature is appended automatically.  n_retrain must be at least 1.  The
    points are prepared once (_row_table); retraining i has seed
    hyper.seed + i.
    """
    if n_retrain < 1:
        raise DomainError(f"n_retrain must be at least 1, got {n_retrain}")
    preds, counts = _checked_points(preds, counts, n_obs)
    k = preds.shape[1]
    if len(feature_names) != k:
        raise DomainError("need one feature name per prediction block")
    targets = _checked_targets(targets, n_obs, preds.shape[0])
    prepared = _row_table(preds, counts, n_obs)
    all_masses = []
    for i in range(n_retrain):
        run = replace(hyper, seed=hyper.seed + i)
        net, _ = _train(*prepared, targets, n_obs, run)
        all_masses.append(input_block_weights(net, k, n_obs))
    stacked = np.stack(all_masses)
    rows = [
        FeatureImportance(name=name, weight=float(mean), std=float(std))
        for name, mean, std in zip([*feature_names, "count"],
                                   stacked.mean(axis=0), stacked.std(axis=0))
    ]
    return sorted(rows, key=lambda r: (-r.weight, r.name))


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
