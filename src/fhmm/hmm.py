"""Discrete-observation hidden Markov models.

Provides the model representation, numerically scaled forward-backward
inference, batch Baum-Welch training over many sequences, next-symbol
prediction by likelihood maximization, and generative sampling.

Scaling convention (fixed for the whole package): at each step t the scale
factor is the reciprocal of the unscaled forward row sum, alpha rows are
multiplied by it so they sum to one, beta uses the same factors, and
log P(O|lambda) = -sum_t log(scale[t]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSequenceError, DomainError
from .sequences import StateSequence, check_symbols
from . import serialize

EMISSION_FLOOR = 1e-10
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 200
DEFAULT_N_HIDDEN = 5
# Sequences per block of the stacked prediction pass (see predict_points)
ROW_BLOCK = 1024


@dataclass
class HmmModel:
    """lambda = (A, B, pi) over N hidden states and M observation symbols."""

    n_hidden: int
    n_obs: int
    A: np.ndarray
    B: np.ndarray
    pi: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        self.pi = np.asarray(self.pi, dtype=np.float64)

    def validate(self, atol: float = 1e-9) -> None:
        if self.A.shape != (self.n_hidden, self.n_hidden):
            raise DomainError(f"A must be {self.n_hidden}x{self.n_hidden}")
        if self.B.shape != (self.n_hidden, self.n_obs):
            raise DomainError(f"B must be {self.n_hidden}x{self.n_obs}")
        if self.pi.shape != (self.n_hidden,):
            raise DomainError(f"pi must have length {self.n_hidden}")
        for name, arr in (("A", self.A), ("B", self.B)):
            if (arr < 0).any():
                raise DomainError(f"{name} has negative entries")
            if np.abs(arr.sum(axis=1) - 1.0).max() > atol:
                raise DomainError(f"{name} rows must sum to 1")
        if (self.pi < 0).any() or abs(self.pi.sum() - 1.0) > atol:
            raise DomainError("pi must be a distribution")


@dataclass
class ForwardBackwardWorkspace:
    """Scaled inference quantities for one sequence under one model."""

    alpha: np.ndarray            # T x N, rows sum to 1
    beta: np.ndarray             # T x N, scaled by the alpha factors
    scale: np.ndarray            # length T, reciprocal of unscaled row sums
    gamma: np.ndarray            # T x N posterior state occupancies
    digamma: np.ndarray          # (T-1) x N x N posterior transitions
    log_likelihood: float


def random_model(n_hidden: int, n_obs: int, seed: int) -> HmmModel:
    """Seeded random initialization: every row a flat-Dirichlet draw.

    Rows are strictly positive, which keeps EM from locking onto zeros;
    emission rows additionally respect the global floor.
    """
    if n_hidden < 1 or n_obs < 1:
        raise DomainError("n_hidden and n_obs must be positive")
    rng = np.random.default_rng(seed)
    A = rng.dirichlet(np.ones(n_hidden), size=n_hidden)
    B = rng.dirichlet(np.ones(n_obs), size=n_hidden)
    pi = rng.dirichlet(np.ones(n_hidden))
    B = np.vstack([_floor_row(row, EMISSION_FLOOR) for row in B])
    return HmmModel(n_hidden=n_hidden, n_obs=n_obs, A=A, B=B, pi=pi, seed=seed)


def _floor_row(weights: np.ndarray, floor: float) -> np.ndarray:
    """Distribution proportional to `weights` maximizing sum(w*log p) subject
    to p >= floor.

    Entries whose proportional share would fall below the floor are pinned at
    it and the remaining mass is split proportionally among the rest.  Exact
    constrained maximization keeps Baum-Welch monotone when used as the
    emission M-step.
    """
    m = weights.size
    if floor * m >= 1.0:
        raise DomainError("floor too large for the alphabet size")
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


def _forward(model: HmmModel, obs: np.ndarray):
    """Scaled forward pass.  Returns (alpha, scale, log_likelihood)."""
    T = obs.size
    N = model.n_hidden
    alpha = np.empty((T, N))
    scale = np.empty(T)
    a = model.pi * model.B[:, obs[0]]
    s = a.sum()
    if s <= 0.0:
        raise DegenerateSequenceError(0)
    scale[0] = 1.0 / s
    alpha[0] = a / s
    for t in range(1, T):
        a = (alpha[t - 1] @ model.A) * model.B[:, obs[t]]
        s = a.sum()
        if s <= 0.0:
            raise DegenerateSequenceError(t)
        # divided, not multiplied by scale[t]: the rounding of the stacked
        # prediction passes, so every path predicts the same symbol
        scale[t] = 1.0 / s
        alpha[t] = a / s
    ll = -float(np.log(scale).sum())
    return alpha, scale, ll


def forward_backward(model: HmmModel, seq: StateSequence) -> ForwardBackwardWorkspace:
    """Full scaled forward-backward with posteriors for one sequence."""
    check_symbols(seq, model.n_obs)
    obs = seq.symbols
    T = obs.size
    N = model.n_hidden
    alpha, scale, ll = _forward(model, obs)

    beta = np.empty((T, N))
    beta[T - 1] = scale[T - 1]
    for t in range(T - 2, -1, -1):
        beta[t] = scale[t] * (model.A @ (model.B[:, obs[t + 1]] * beta[t + 1]))

    # gamma_t = alpha_t * beta_t / scale_t sums to one by the scaling identity
    gamma = alpha * beta / scale[:, None]
    digamma = np.empty((T - 1, N, N))
    for t in range(T - 1):
        digamma[t] = alpha[t][:, None] * model.A * (
            model.B[:, obs[t + 1]] * beta[t + 1]
        )[None, :]
    return ForwardBackwardWorkspace(
        alpha=alpha, beta=beta, scale=scale, gamma=gamma,
        digamma=digamma, log_likelihood=ll,
    )


def score(model: HmmModel, seq: StateSequence) -> float:
    """log P(O|lambda) via the scaled forward pass only."""
    check_symbols(seq, model.n_obs)
    return _forward(model, seq.symbols)[2]


# ---------------------------------------------------------------------------
# Baum-Welch
# ---------------------------------------------------------------------------

def _group_by_length(seqs: list[np.ndarray]) -> dict[int, np.ndarray]:
    """Stack equal-length observation arrays so the batch axis vectorizes."""
    buckets: dict[int, list[np.ndarray]] = {}
    for s in seqs:
        buckets.setdefault(s.size, []).append(s)
    return {T: np.vstack(group) for T, group in sorted(buckets.items())}


def _batch_forward_backward_stats(model, obs, stats):
    """Accumulate EM sufficient statistics for a (n, T) batch of sequences.

    Returns the batch's total log-likelihood.  Mutates `stats` in place.
    """
    n, T = obs.shape
    N = model.n_hidden
    A, B, pi = model.A, model.B, model.pi

    alpha = np.empty((T, n, N))
    scale = np.empty((T, n))
    a = pi[None, :] * B[:, obs[:, 0]].T
    s = a.sum(axis=1)
    if (s <= 0.0).any():
        raise DegenerateSequenceError(0)
    scale[0] = 1.0 / s
    alpha[0] = a * scale[0][:, None]
    for t in range(1, T):
        a = (alpha[t - 1] @ A) * B[:, obs[:, t]].T
        s = a.sum(axis=1)
        if (s <= 0.0).any():
            raise DegenerateSequenceError(t)
        scale[t] = 1.0 / s
        alpha[t] = a * scale[t][:, None]
    ll = -float(np.log(scale).sum())

    beta = scale[T - 1][:, None].repeat(N, axis=1)
    gamma = np.empty_like(alpha)             # (T, n, N)
    a_outer = np.zeros((N, N))
    for t in range(T - 1, -1, -1):
        gamma[t] = alpha[t] * beta / scale[t][:, None]
        if t == 0:
            break
        emitted = B[:, obs[:, t]].T * beta   # (n, N): b_j(o_t) * beta_t(j)
        a_outer += alpha[t - 1].T @ emitted
        beta = scale[t - 1][:, None] * (emitted @ A.T)

    stats["pi"] += gamma[0].sum(axis=0)
    stats["a_num"] += A * a_outer
    stats["b_den"] += gamma.sum(axis=(0, 1))
    # emission counts: one weighted bincount per hidden state beats add.at
    flat_obs = obs.T.ravel()                 # t-major, matches gamma layout
    flat_gamma = gamma.reshape(T * n, N)
    M = B.shape[1]
    for j in range(N):
        stats["b_num"][j] += np.bincount(
            flat_obs, weights=flat_gamma[:, j], minlength=M
        )
    return ll


def _m_step(model: HmmModel, stats, n_seqs: int) -> HmmModel:
    N, M = model.n_hidden, model.n_obs
    pi = stats["pi"] / stats["pi"].sum()
    A = model.A.copy()
    B = model.B.copy()
    for i in range(N):
        # rows renormalize from their own expected counts; a state with no
        # residual occupancy keeps its old row (it no longer affects the
        # likelihood, and near-dead states underflow the two accumulation
        # routes differently)
        a_total = stats["a_num"][i].sum()
        if a_total > 0.0:
            A[i] = stats["a_num"][i] / a_total
        if stats["b_den"][i] > 0.0:
            B[i] = _floor_row(stats["b_num"][i], EMISSION_FLOOR)
    return HmmModel(n_hidden=N, n_obs=M, A=A, B=B, pi=pi, seed=model.seed)


def baum_welch_fit(
    sequences: list[StateSequence],
    n_hidden: int = DEFAULT_N_HIDDEN,
    n_obs: int | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[HmmModel, list[float]]:
    """Batch EM over all sequences; returns the model and the trace of total
    log-likelihood per iteration.

    The trace is non-decreasing up to floating-point slack.  Iteration halts
    when the improvement drops below `tol` (equality counts as converged) or
    after `max_iters` evaluations.  The returned model is always the one that
    produced the final trace entry.
    """
    if not sequences:
        raise DomainError("need at least one sequence")
    max_symbol = max(int(s.symbols.max()) for s in sequences)
    if n_obs is None:
        n_obs = max_symbol + 1
    if n_obs <= max_symbol:
        raise DomainError(
            f"n_obs={n_obs} too small for observed symbol {max_symbol}"
        )
    if n_hidden < 1:
        raise DomainError("n_hidden must be at least 1")

    batches = _group_by_length([s.symbols for s in sequences])
    n_seqs = len(sequences)
    model = random_model(n_hidden, n_obs, seed)
    trace: list[float] = []
    for iteration in range(max_iters):
        stats = {
            "pi": np.zeros(n_hidden),
            "a_num": np.zeros((n_hidden, n_hidden)),
            "b_num": np.zeros((n_hidden, n_obs)),
            "b_den": np.zeros(n_hidden),
        }
        ll = 0.0
        for obs in batches.values():
            ll += _batch_forward_backward_stats(model, obs, stats)
        trace.append(ll)
        if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
            break
        if iteration < max_iters - 1:
            model = _m_step(model, stats, n_seqs)
    return model, trace


def fit_converged(trace: list[float], tol: float = DEFAULT_TOL) -> bool:
    return len(trace) >= 2 and trace[-1] - trace[-2] < tol


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict_next(model: HmmModel, prefix: StateSequence) -> tuple[int, np.ndarray]:
    """Most likely next symbol after `prefix`, with per-candidate scores.

    scores[k] = log P(prefix + [k] | lambda), computed as one forward
    extension of the prefix rather than M full rescoring passes.  The symbol
    is the argmax of the next-symbol probabilities, as in `predict_points`;
    ties go to the lowest symbol index.
    """
    check_symbols(prefix, model.n_obs)
    alpha, _, ll = _forward(model, prefix.symbols)
    pred = alpha[-1] @ model.A
    probs = pred @ model.B
    with np.errstate(divide="ignore"):
        scores = ll + np.log(probs)
    return int(np.argmax(probs)), scores


def point_offsets(lengths: np.ndarray, stride: int) -> np.ndarray:
    """Where each sequence's prediction points start in the canonical order,
    with the total point count appended.

    Canonical order: sequences in input order and, within one of length T,
    the predicted positions t = 1, 1+stride, ... <= T-1 ascending.
    """
    counts = (np.asarray(lengths, dtype=np.int64) - 2 + stride) // stride
    return np.concatenate([[0], np.cumsum(counts)])


def _shape_groups(models: list[HmmModel]) -> list[list[int]]:
    """Model indices grouped by (n_hidden, n_obs); each group stacks."""
    if not models:
        raise DomainError("need at least one model")
    groups: dict[tuple[int, int], list[int]] = {}
    for k, m in enumerate(models):
        groups.setdefault((m.n_hidden, m.n_obs), []).append(k)
    return list(groups.values())


def _stack(models: list[HmmModel]):
    """A (K,N,N), B (K,N,M), B transposed (K,M,N) and pi (K,N) of K models
    of one shape; B transposed gathers one symbol's emissions as rows."""
    B = np.stack([m.B for m in models])
    return (
        np.stack([m.A for m in models]), B,
        np.ascontiguousarray(B.transpose(0, 2, 1)),
        np.stack([m.pi for m in models]),
    )


def _normalized(a: np.ndarray, t: int) -> np.ndarray:
    """Scale the last axis of `a` to sum to one, in place."""
    s = a.sum(axis=-1)
    if (s <= 0.0).any():
        raise DegenerateSequenceError(t)
    a /= s[..., None]
    return a


def predict_points(
    models: list[HmmModel], seqs: list[np.ndarray], stride: int = 1
) -> np.ndarray:
    """Every model's next-symbol prediction at every canonical point.

    Returns a (P, K) int array in the order of `point_offsets`; entry
    [p, k] equals predict_next(models[k], prefix)[0] for the prefix that
    point predicts after.  One scaled forward pass runs all K models over
    all sequences at once (one pass per model shape, if shapes differ):
    sorted longest first, the sequences still running at step t are the
    first rows, so alpha is (K, rows running, N) with no padding, and the
    next-symbol argmax is taken only at stride points.
    """
    if stride < 1:
        raise DomainError("stride must be at least 1")
    groups = _shape_groups(models)
    lengths = np.array([s.size for s in seqs], dtype=np.int64)
    if (lengths < 1).any():
        raise DomainError("a sequence needs at least one symbol")
    offsets = point_offsets(lengths, stride)
    out = np.empty((offsets[-1], len(models)), dtype=np.int64)
    if len(groups) > 1:
        for cols in groups:
            group = [models[k] for k in cols]
            out[:, cols] = predict_points(group, seqs, stride)
        return out
    if not seqs:
        return out
    A, B, BT, pi = _stack(models)
    order = np.argsort(-lengths, kind="stable")
    ordered = lengths[order]
    # running[t]: how many sequences are longer than t
    running = np.searchsorted(-ordered, -np.arange(ordered[0]), side="left")
    # symbols time-major: step t's are obs[starts[t]:starts[t+1]], by row
    starts = np.concatenate([[0], np.cumsum(running)])
    row = np.repeat(np.arange(len(seqs)), ordered)
    first = np.repeat(np.cumsum(ordered) - ordered, ordered)
    step = np.arange(row.size) - first
    obs = np.empty(row.size, dtype=np.int64)
    obs[starts[step] + row] = np.concatenate([seqs[i] for i in order])
    if obs.max() >= B.shape[2]:
        raise DomainError(
            f"symbol {obs.max()} outside an alphabet of {B.shape[2]} symbols"
        )
    first_point = offsets[order]

    # blocks of rows bound the working arrays to (K, ROW_BLOCK, N)
    for lo in range(0, len(seqs), ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, len(seqs))
        a = _normalized(pi[:, None, :] * BT[:, obs[lo:hi]], 0)
        for t in range(1, int(ordered[lo])):
            n = min(running[t], hi) - lo
            pred = a[:, :n] @ A
            if (t - 1) % stride == 0:
                rows = first_point[lo: lo + n] + (t - 1) // stride
                # one model at a time: (n, M) probabilities, not (K, n, M)
                for k in range(len(models)):
                    out[rows, k] = np.argmax(pred[k] @ B[k], axis=1)
            pred *= BT[:, obs[starts[t] + lo: starts[t] + lo + n]]
            a = _normalized(pred, t)
    return out


def predict_next_all(
    models: list[HmmModel], prefix: StateSequence
) -> np.ndarray:
    """Each model's predict_next symbol after `prefix`, as a (K,) array, from
    one forward pass with the models stacked as in `predict_points`."""
    groups = _shape_groups(models)
    if len(groups) > 1:
        out = np.empty(len(models), dtype=np.int64)
        for cols in groups:
            out[cols] = predict_next_all([models[k] for k in cols], prefix)
        return out
    A, B, BT, pi = _stack(models)
    check_symbols(prefix, B.shape[2])
    obs = prefix.symbols
    a = _normalized(pi * BT[:, obs[0]], 0)
    for t in range(1, obs.size):
        a = _normalized((a[:, None, :] @ A)[:, 0] * BT[:, obs[t]], t)
    return np.argmax((a[:, None, :] @ A) @ B, axis=2)[:, 0]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample(model: HmmModel, length: int, seed: int) -> StateSequence:
    """Draw one sequence from the model's generative process."""
    if length < 1:
        raise DomainError("length must be at least 1")
    rng = np.random.default_rng(seed)
    obs = sample_batch(model, np.full(1, length, dtype=np.int64), rng)[0]
    return StateSequence(obs, session_id=f"sample-{seed}")


def sample_batch(
    model: HmmModel, lengths: np.ndarray, rng: np.random.Generator
) -> list[np.ndarray]:
    """Sample many sequences at once, stepping all of them in lockstep.

    Deterministic given the generator state; one uniform draw per active
    sequence per step for the state and one for the emission.
    """
    n = lengths.size
    max_T = int(lengths.max())
    cum_A = np.cumsum(model.A, axis=1)
    cum_B = np.cumsum(model.B, axis=1)
    cum_pi = np.cumsum(model.pi)
    out = np.zeros((n, max_T), dtype=np.int64)

    def draw(cum_rows, count):
        # inverse-CDF draw per row; clip guards rows summing to 1 - epsilon
        r = rng.random(count)
        idx = (r[:, None] > cum_rows).sum(axis=1)
        return np.minimum(idx, cum_rows.shape[-1] - 1)

    states = draw(cum_pi[None, :], n)
    out[:, 0] = draw(cum_B[states], n)
    for t in range(1, max_T):
        active = np.nonzero(lengths > t)[0]
        if active.size == 0:
            break
        states[active] = draw(cum_A[states[active]], active.size)
        out[active, t] = draw(cum_B[states[active]], active.size)
    return [out[i, : lengths[i]].copy() for i in range(n)]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

HMM_SCHEMA = "fhmm-hmm/1"


def model_to_doc(model: HmmModel) -> dict:
    return {
        "schema": HMM_SCHEMA,
        "n_hidden": model.n_hidden,
        "n_obs": model.n_obs,
        "seed": model.seed,
        "a": serialize.array_to_doc(model.A),
        "b": serialize.array_to_doc(model.B),
        "pi": serialize.array_to_doc(model.pi),
    }


def model_from_doc(doc: dict) -> HmmModel:
    if doc.get("schema") != HMM_SCHEMA:
        raise DomainError(f"unexpected model schema {doc.get('schema')!r}")
    model = HmmModel(
        n_hidden=int(doc["n_hidden"]),
        n_obs=int(doc["n_obs"]),
        A=serialize.array_from_doc(doc["a"]),
        B=serialize.array_from_doc(doc["b"]),
        pi=serialize.array_from_doc(doc["pi"]),
        seed=int(doc["seed"]),
    )
    model.validate()
    return model


def save_model(model: HmmModel, path) -> None:
    serialize.write_doc(path, model_to_doc(model))


def load_model(path) -> HmmModel:
    return model_from_doc(serialize.read_doc(path))
