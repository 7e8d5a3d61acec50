"""Single-hidden-layer network fusing per-model predictions into one.

Inputs are the K individual next-state predictions (one-hot encoded) plus a
normalized time-step feature.  The hidden layer is ReLU; the default output
is linear trained under the quadratic cost with L2 regularization on the two
weight matrices.  A softmax/cross-entropy mode is available as a configured
alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TrainingDivergedError
from . import serialize

LOSS_QUADRATIC = "quadratic"
LOSS_CROSS_ENTROPY = "cross_entropy"


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
    loss: str = LOSS_QUADRATIC

    def validate(self) -> None:
        if self.hidden_width < 1:
            raise DomainError("hidden_width must be at least 1")
        if self.lr <= 0:
            raise DomainError("lr must be positive")
        if self.l2 < 0:
            raise DomainError("l2 must be non-negative")
        if self.epochs < 1 or self.batch < 1:
            raise DomainError("epochs and batch must be at least 1")
        if self.loss not in (LOSS_QUADRATIC, LOSS_CROSS_ENTROPY):
            raise DomainError(f"unknown loss {self.loss!r}")


@dataclass
class FusionNetwork:
    W: np.ndarray         # input -> hidden, (K*M+1, H)
    c: np.ndarray         # hidden bias, (H,)
    w: np.ndarray         # hidden -> output, (H, M)
    b: np.ndarray         # output bias, (M,)
    l2: float
    lr: float
    loss: str = LOSS_QUADRATIC

    @property
    def hidden_width(self) -> int:
        return self.W.shape[1]

    @property
    def n_inputs(self) -> int:
        return self.W.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.w.shape[1]


def encode(inp: FusionInput, k: int, n_obs: int) -> np.ndarray:
    """K one-hot blocks of width M followed by the scalar count feature."""
    preds = inp.hmm_preds
    if preds.size != k:
        raise DomainError(f"expected {k} predictions, got {preds.size}")
    if (preds < 0).any() or (preds >= n_obs).any():
        raise DomainError("prediction symbol out of range")
    if not 0.0 <= inp.count <= 1.0:
        raise DomainError("count must lie in [0, 1]")
    x = np.zeros(k * n_obs + 1)
    x[np.arange(k) * n_obs + preds] = 1.0
    x[-1] = inp.count
    return x


def encode_batch(preds: np.ndarray, counts: np.ndarray, n_obs: int) -> np.ndarray:
    """Vectorized encode for a (P, K) prediction matrix and (P,) counts."""
    preds, counts = _checked_points(preds, counts, n_obs)
    return _RowEncoder(preds, counts, n_obs)(slice(None))


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


class _RowEncoder:
    """encode_batch without the checks, for rows of a (P, K) matrix and its
    counts already checked, into one buffer reused call after call.

    The buffer grows to the largest call's rows and is then only rewritten:
    each call clears the ones the previous call set, so no call allocates or
    zero-fills a (rows, K*M+1) matrix.  A call returns a view of the
    buffer's leading rows, valid until the next call.
    """

    def __init__(self, preds: np.ndarray, counts: np.ndarray, n_obs: int):
        self.preds, self.counts = preds, counts
        self.base = np.arange(preds.shape[1]) * n_obs
        self.X = np.zeros((0, preds.shape[1] * n_obs + 1))
        self.ones = None                 # (rows, cols) the last call set

    def __call__(self, idx) -> np.ndarray:
        cols = self.base + self.preds[idx]
        n = cols.shape[0]
        if n > self.X.shape[0]:
            self.X = np.zeros((n, self.X.shape[1]))
        elif self.ones is not None:
            self.X[self.ones] = 0.0
        self.ones = (np.arange(n)[:, None], cols)
        X = self.X[:n]
        X[self.ones] = 1.0
        X[:, -1] = self.counts[idx]
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
        loss=hyper.loss,
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
    hidden = np.maximum(0.0, X @ net.W + net.c)
    return hidden @ net.w + net.b


# Bytes of encoded float64 input per chunk of fused_predictions
PREDICT_BYTES = 2 * 2**20


def fused_predictions(
    net: FusionNetwork, preds: np.ndarray, counts: np.ndarray, n_obs: int
) -> np.ndarray:
    """The fused prediction (argmax) at every point of a (P, K) matrix, as a
    (P,) int64 array.

    Points are encoded PREDICT_BYTES // (8 * (K*M+1)) at a time (at least
    one) into one reused buffer, so besides the result the working memory
    does not grow with P: the buffer plus the chunk's hidden-layer arrays.
    """
    preds, counts = _checked_points(preds, counts, n_obs)
    step = max(1, PREDICT_BYTES // (8 * (preds.shape[1] * n_obs + 1)))
    encode = _RowEncoder(preds, counts, n_obs)
    out = np.empty(preds.shape[0], dtype=np.int64)
    for start in range(0, out.size, step):
        rows = slice(start, start + step)
        out[rows] = np.argmax(forward_batch(net, encode(rows)), axis=1)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cost_and_gradients(
    net: FusionNetwork, X: np.ndarray, Y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Cost and analytic gradients for a batch.

    Quadratic mode: C = (1/2n) sum ||y - out||^2 + (l2/2)(||W||^2 + ||w||^2).
    Cross-entropy mode replaces the data term with -mean log softmax(out)[y].
    """
    n = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        z = X @ net.W + net.c
        hidden = np.maximum(0.0, z)
        out = hidden @ net.w + net.b
        if net.loss == LOSS_QUADRATIC:
            diff = out - Y
            data_cost = float((diff ** 2).sum()) / (2.0 * n)
            dout = diff / n
        else:
            p = _softmax(out)
            data_cost = float(-(Y * np.log(p + 1e-300)).sum()) / n
            dout = (p - Y) / n
        cost = data_cost + 0.5 * net.l2 * (
            float((net.W ** 2).sum()) + float((net.w ** 2).sum())
        )
        dw = hidden.T @ dout + net.l2 * net.w
        db = dout.sum(axis=0)
        dhidden = dout @ net.w.T
        dz = dhidden * (z > 0.0)
        dW = X.T @ dz + net.l2 * net.W
        dc = dz.sum(axis=0)
    return cost, {"W": dW, "c": dc, "w": dw, "b": db}


def one_hot_targets(targets: np.ndarray, n_obs: int) -> np.ndarray:
    targets = _checked_targets(targets, n_obs, np.size(targets))
    return np.eye(n_obs)[targets]


def train_fusion_points(
    preds: np.ndarray,
    counts: np.ndarray,
    targets: np.ndarray,
    n_obs: int,
    hyper: FusionHyper,
) -> tuple[FusionNetwork, list[float]]:
    """Mini-batch gradient descent on a (P, K) prediction matrix, its (P,)
    counts and (P,) targets; returns the net and per-epoch mean cost.

    Each minibatch is encoded on its own into one reused (batch, K*M+1)
    buffer, so the dense (P, K*M+1) input matrix is never built.
    """
    preds, counts = _checked_points(preds, counts, n_obs)
    targets = _checked_targets(targets, n_obs, preds.shape[0])
    return _train(
        _RowEncoder(preds, counts, n_obs),
        preds.shape[1] * n_obs + 1, targets, n_obs, hyper,
    )


def train_fusion_arrays(
    X: np.ndarray, targets: np.ndarray, n_obs: int, hyper: FusionHyper
) -> tuple[FusionNetwork, list[float]]:
    """train_fusion_points on inputs already encoded as one (P, D) matrix."""
    targets = _checked_targets(targets, n_obs, X.shape[0])
    return _train(lambda idx: X[idx], X.shape[1], targets, n_obs, hyper)


def _train(rows, n_inputs: int, targets: np.ndarray, n_obs: int,
           hyper: FusionHyper) -> tuple[FusionNetwork, list[float]]:
    """The training loop; `rows(idx)` gives the encoded inputs of points idx.
    Each minibatch's one-hot targets are rows of an identity matrix."""
    hyper.validate()
    n = targets.size
    if n == 0:
        raise DomainError("need at least one training example")
    eye = np.eye(n_obs)
    net = init_network(n_inputs, n_obs, hyper)
    rng = np.random.default_rng(hyper.seed + 1)
    trace: list[float] = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_costs = []
        for start in range(0, n, hyper.batch):
            idx = order[start : start + hyper.batch]
            cost, grads = cost_and_gradients(net, rows(idx), eye[targets[idx]])
            if not np.isfinite(cost):
                raise TrainingDivergedError(epoch)
            net.W -= hyper.lr * grads["W"]
            net.c -= hyper.lr * grads["c"]
            net.w -= hyper.lr * grads["w"]
            net.b -= hyper.lr * grads["b"]
            epoch_costs.append(cost)
        trace.append(float(np.mean(epoch_costs)))
    return net, trace


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
    feature is appended automatically.
    """
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
        "loss": net.loss,
        "l2": serialize.fmt_float(net.l2),
        "lr": serialize.fmt_float(net.lr),
        "W": serialize.array_to_doc(net.W),
        "c": serialize.array_to_doc(net.c),
        "w": serialize.array_to_doc(net.w),
        "b": serialize.array_to_doc(net.b),
    }


def fusion_from_doc(doc: dict) -> FusionNetwork:
    if doc.get("schema") != FUSION_SCHEMA:
        raise DomainError(f"unexpected fusion schema {doc.get('schema')!r}")
    return FusionNetwork(
        W=serialize.array_from_doc(doc["W"]),
        c=serialize.array_from_doc(doc["c"]),
        w=serialize.array_from_doc(doc["w"]),
        b=serialize.array_from_doc(doc["b"]),
        l2=float(doc["l2"]),
        lr=float(doc["lr"]),
        loss=doc["loss"],
    )
