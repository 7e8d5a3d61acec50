"""Independent reference implementations used only to check the library.

Everything here is deliberately naive: exhaustive enumeration, per-candidate
rescoring, central finite differences, power iteration.  None of it shares
code with the library paths it verifies.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def enumerate_log_likelihood(A, B, pi, obs) -> float:
    """log P(O|lambda) by brute-force sum over every hidden path."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n = pi.size
    total = 0.0
    for path in itertools.product(range(n), repeat=len(obs)):
        p = pi[path[0]] * B[path[0], obs[0]]
        for t in range(1, len(obs)):
            p *= A[path[t - 1], path[t]] * B[path[t], obs[t]]
        total += p
    return math.log(total)


def enumerate_gamma(A, B, pi, obs) -> np.ndarray:
    """Posterior state occupancies by exhaustive path enumeration."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n = pi.size
    T = len(obs)
    weights = np.zeros((T, n))
    total = 0.0
    for path in itertools.product(range(n), repeat=T):
        p = pi[path[0]] * B[path[0], obs[0]]
        for t in range(1, T):
            p *= A[path[t - 1], path[t]] * B[path[t], obs[t]]
        total += p
        for t, state in enumerate(path):
            weights[t, state] += p
    return weights / total


def brute_force_predict(score_fn, prefix, n_obs: int) -> int:
    """Append every candidate, rescore the whole thing, take the argmax.

    `score_fn(symbols) -> log-likelihood`; ties break to the lowest index
    because max() scans in order with strict improvement.
    """
    best, best_score = 0, -math.inf
    for k in range(n_obs):
        extended = np.concatenate([prefix, [k]])
        try:
            s = score_fn(extended)
        except Exception:
            s = -math.inf
        if s > best_score:
            best, best_score = k, s
    return best


def central_difference(f, x0: float, eps: float = 1e-5) -> float:
    return (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps)


def stationary_distribution(A, iters: int = 10_000) -> np.ndarray:
    """Stationary row vector of a row-stochastic matrix by power iteration."""
    A = np.asarray(A, dtype=float)
    v = np.full(A.shape[0], 1.0 / A.shape[0])
    for _ in range(iters):
        nxt = v @ A
        if np.abs(nxt - v).max() < 1e-14:
            v = nxt
            break
        v = nxt
    return v / v.sum()


def count_frequency(groups_of_sequences, n_obs: int) -> np.ndarray:
    """Naive symbol-frequency recount over a set of sequences."""
    counts = np.zeros(n_obs)
    for seq in groups_of_sequences:
        for s in seq:
            counts[int(s)] += 1
    return counts / counts.sum()


def pairwise_euclidean(vectors) -> np.ndarray:
    """Double-loop sum-of-squares distance matrix."""
    g = len(vectors)
    out = np.zeros((g, g))
    for i in range(g):
        for j in range(g):
            acc = 0.0
            for a, b in zip(vectors[i], vectors[j]):
                acc += (a - b) ** 2
            out[i, j] = math.sqrt(acc)
    return out


def floor_row(weights, floor: float) -> np.ndarray:
    """One emission row's floored maximum-likelihood distribution, solved
    alone: pin every share below the floor, split the rest, repeat."""
    m = weights.size
    pinned = np.zeros(m, dtype=bool)
    out = np.empty(m)
    for _ in range(m):
        free = ~pinned
        total = weights[free].sum()
        avail = 1.0 - pinned.sum() * floor
        if total <= 0.0:
            out[free] = avail / free.sum()
            break
        out[free] = weights[free] * (avail / total)
        newly = free & (out < floor)
        if not newly.any():
            break
        pinned |= newly
    out[pinned] = floor
    return out


def emission_counts(emission_rows, gamma, n_bins: int) -> np.ndarray:
    """Expected emission counts (N, n_bins): one weighted bincount per
    state over the stored symbols' bins, each a strided column of gamma."""
    out = np.empty((gamma.shape[1], n_bins))
    for j in range(gamma.shape[1]):
        out[j] = np.bincount(
            emission_rows, weights=gamma[:, j], minlength=n_bins
        )
    return out


def fit_markov_loop(sequences, n_obs: int, smoothing: float):
    """A smoothed first-order chain's (T1, init), counted one session at a
    time; raises as fit_markov does, the first session out of range named."""
    from fhmm.errors import DomainError, EstimationError
    from fhmm.sequences import check_symbols

    if not sequences:
        raise DomainError("need at least one sequence")
    if smoothing < 0:
        raise DomainError("smoothing must be non-negative")
    m = n_obs
    counts = np.zeros((m, m))
    first = np.zeros(m)
    n_transitions = 0
    for seq in sequences:
        check_symbols(seq, m)
        sym = seq.symbols
        first[sym[0]] += 1
        if sym.size >= 2:
            np.add.at(counts, (sym[:-1], sym[1:]), 1.0)
            n_transitions += sym.size - 1
    if n_transitions == 0 and smoothing == 0.0:
        raise EstimationError("no transitions observed and smoothing is zero")
    T1 = counts + smoothing
    row_sums = T1.sum(axis=1)
    empty = row_sums <= 0.0
    T1[empty] = 1.0 / m
    row_sums[empty] = 1.0
    T1 /= row_sums[:, None]
    init = first + smoothing
    total = init.sum()
    init = init / total if total > 0 else np.full(m, 1.0 / m)
    return T1, init


def predict_next_markov(model, prefix) -> int:
    """A first-order chain's next symbol after `prefix`: the argmax of its
    last symbol's transition row, lowest index on ties."""
    return int(np.argmax(model.T1[prefix.symbols[-1]]))


def one_hot_targets(targets, n_obs: int) -> np.ndarray:
    """(P, n_obs) indicator rows, one per target symbol."""
    out = np.zeros((len(targets), n_obs))
    for row, target in enumerate(targets):
        out[row, int(target)] = 1.0
    return out


def stacked_alpha_loop(A, B, pi, obs):
    """The stacked models' normalized forward rows (T, K, N) at every step of
    `obs` and their unscaled row sums (T, K), one fresh array per step: the
    transition product, the emissions gathered from B transposed (K, M, N),
    the row sums and the division, raising DegenerateSequenceError at the
    first step with a sum not above zero."""
    from fhmm.errors import DegenerateSequenceError

    BT = np.ascontiguousarray(np.asarray(B).transpose(0, 2, 1))
    alphas, sums = [], []

    def normalized(a, t):
        s = a.sum(axis=-1)
        if (s <= 0.0).any():
            raise DegenerateSequenceError(t)
        a /= s[..., None]
        alphas.append(a)
        sums.append(s)
        return a

    a = normalized(pi * BT[:, obs[0]], 0)
    for t in range(1, len(obs)):
        a = normalized((a[:, None, :] @ A)[:, 0] * BT[:, obs[t]], t)
    return np.stack(alphas), np.stack(sums)


def forward_loop(A, B, pi, obs):
    """One model's scaled forward pass, one step at a time: (alpha (T, N),
    scale (T,), log P(O|lambda)), scale[t] the reciprocal of step t's
    unscaled row sum.  Raises DegenerateSequenceError at the first step
    whose row sum is not above zero.  A subnormal row sum's reciprocal may
    overflow to inf, so such a step adds the log of its sum instead."""
    from fhmm.errors import DegenerateSequenceError

    tiny = np.finfo(np.float64).tiny
    T = len(obs)
    alpha = np.empty((T, len(pi)))
    sums = np.empty(T)
    a = pi * B[:, obs[0]]
    for t in range(T):
        if t:
            a = (alpha[t - 1] @ A) * B[:, obs[t]]
        s = a.sum()
        if s <= 0.0:
            raise DegenerateSequenceError(t)
        sums[t] = s
        alpha[t] = a / s
    with np.errstate(over="ignore"):
        scale = 1.0 / sums
    log_scale = np.log(scale)
    subnormal = sums < tiny
    log_scale[subnormal] = -np.log(sums[subnormal])
    return alpha, scale, -float(log_scale.sum())


def fusion_inputs(preds, counts, n_obs: int) -> np.ndarray:
    """(P, K*n_obs+1) float64 rows: K one-hot blocks, then the count."""
    p, k = np.shape(preds)
    X = np.zeros((p, k * n_obs + 1))
    for row in range(p):
        for model in range(k):
            X[row, model * n_obs + int(preds[row][model])] = 1.0
        X[row, -1] = counts[row]
    return X


def train_fusion_float64(preds, counts, targets, n_obs: int, hyper):
    """Fusion's minibatch SGD in float64 over the dense one-hot inputs,
    written out step by step: the same initial draw, minibatch order and
    quadratic cost with L2 as the library's float32 loop.  Returns the
    weights (W, c, w, b) and the per-epoch mean cost."""
    X = fusion_inputs(preds, counts, n_obs)
    p, n_inputs = X.shape
    Y = one_hot_targets(targets, n_obs)
    rng = np.random.default_rng(hyper.seed)
    h = hyper.hidden_width
    W = rng.uniform(-1.0 / math.sqrt(n_inputs), 1.0 / math.sqrt(n_inputs),
                    size=(n_inputs, h))
    w = rng.uniform(-1.0 / math.sqrt(h), 1.0 / math.sqrt(h), size=(h, n_obs))
    c, b = np.zeros(h), np.zeros(n_obs)
    rng = np.random.default_rng(hyper.seed + 1)
    trace = []
    for _ in range(hyper.epochs):
        order = rng.permutation(p)
        costs = []
        for start in range(0, p, hyper.batch):
            idx = order[start : start + hyper.batch]
            x, y = X[idx], Y[idx]
            z = x @ W + c
            hidden = np.maximum(z, 0.0)
            diff = hidden @ w + b - y
            costs.append(
                (diff ** 2).sum() / (2.0 * idx.size)
                + 0.5 * hyper.l2 * ((W ** 2).sum() + (w ** 2).sum())
            )
            dout = diff / idx.size
            dz = (dout @ w.T) * (z > 0.0)
            W = W - hyper.lr * (x.T @ dz + hyper.l2 * W)
            c = c - hyper.lr * dz.sum(axis=0)
            w = w - hyper.lr * (hidden.T @ dout + hyper.l2 * w)
            b = b - hyper.lr * dout.sum(axis=0)
        trace.append(float(np.mean(costs)))
    return (W, c, w, b), trace


def fused_argmax(weights, preds, counts, n_obs: int) -> np.ndarray:
    """The fused prediction at every point under the weights (W, c, w, b),
    in float64 from dense one-hot inputs."""
    W, c, w, b = weights
    X = fusion_inputs(preds, counts, n_obs)
    return np.argmax(np.maximum(X @ W + c, 0.0) @ w + b, axis=1)


def train_fusion_grouped(preds, counts, targets, n_obs: int, hyper):
    """Fusion's minibatch SGD in float32 over the dense one-hot inputs, with
    each minibatch's points grouped by input row, written out step by step.

    The initial draw, the inputs and the targets are rounded to float32
    once.  A loop over a minibatch's points numbers the distinct input rows
    in the order of their first point and counts each row's points (m) and
    sums their targets (S); the network runs once per row, the data
    gradient at a row is (m out - S) / n, and the cost is summed point by
    point.  Returns the float32 weights (W, c, w, b) and the per-epoch mean
    cost."""
    X = fusion_inputs(preds, counts, n_obs).astype(np.float32)
    Y = one_hot_targets(targets, n_obs).astype(np.float32)
    p, n_inputs = X.shape
    lr, l2 = float(hyper.lr), float(hyper.l2)
    rng = np.random.default_rng(hyper.seed)
    h = hyper.hidden_width
    W = rng.uniform(-1.0 / math.sqrt(n_inputs), 1.0 / math.sqrt(n_inputs),
                    size=(n_inputs, h)).astype(np.float32)
    w = rng.uniform(-1.0 / math.sqrt(h), 1.0 / math.sqrt(h),
                    size=(h, n_obs)).astype(np.float32)
    c, b = np.zeros(h, np.float32), np.zeros(n_obs, np.float32)
    rng = np.random.default_rng(hyper.seed + 1)
    trace = []
    for _ in range(hyper.epochs):
        order = rng.permutation(p)
        costs = []
        for start in range(0, p, hyper.batch):
            idx = order[start : start + hyper.batch]
            n = idx.size
            row_of: dict[bytes, int] = {}
            leads, inv = [], np.empty(n, dtype=np.intp)
            for i, point in enumerate(idx):
                key = X[point].tobytes()
                if key not in row_of:
                    row_of[key] = len(leads)
                    leads.append(point)
                inv[i] = row_of[key]
            m = np.zeros((len(leads), 1), np.float32)
            S = np.zeros((len(leads), n_obs), np.float32)
            for i, point in enumerate(idx):
                m[inv[i]] += 1
                S[inv[i]] += Y[point]
            x = X[leads]
            z = x @ W + c
            hidden = np.maximum(0.0, z)
            out = hidden @ w + b
            diff = out[inv] - Y[idx]
            costs.append(
                float((diff ** 2).sum()) / (2.0 * n)
                + 0.5 * l2 * (float((W ** 2).sum()) + float((w ** 2).sum()))
            )
            dout = (m * out - S) / n
            dz = (dout @ w.T) * (z > 0.0)
            dW = l2 * W + x.T @ dz
            W = W - lr * dW
            c = c - lr * dz.sum(axis=0)
            w = w - lr * (hidden.T @ dout + l2 * w)
            b = b - lr * dout.sum(axis=0)
        trace.append(float(np.mean(costs)))
    return (W, c, w, b), trace
