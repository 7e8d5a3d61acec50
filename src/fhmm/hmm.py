"""Discrete-observation hidden Markov models.

Provides the model representation, numerically scaled forward-backward
inference, Baum-Welch training, next-symbol prediction by likelihood
maximization, and generative sampling.  One EM routine (`_baum_welch`)
fits both one model over sequences of any lengths (`baum_welch_fit`) and
one model per single-length group (`fit_groups`); its E-step runs in
passes of at least BLOCK_SYMBOLS symbols, cut only where the length or
the group changes (`_passes`).

Three forward passes: the Baum-Welch E-step holds alpha states last,
(steps, N).  The stacked pass behind stage 2 and evaluation
(`predict_points`) holds it state-major, (K, N, rows), so each step runs
along contiguous rows of sequences, and adds the states in numpy's order,
so that it predicts as the one-sequence step does.  That step
(`_stacked_alpha`) runs K models over one sequence, alpha (K, N), as four
ufunc calls per step into buffers made once per call, reading one (K, N)
row of the symbol-major emissions of `ModelStack`.  `predict_next_all`
runs it on K models; `score`, `predict_next` and `forward_backward` on
one, and only `forward_backward` keeps every step's alpha.

Scaling convention (fixed for the whole package): at each step t the scale
factor is the reciprocal of the unscaled forward row sum, alpha rows are
multiplied by it so they sum to one, beta uses the same factors, and
log P(O|lambda) = -sum_t log(scale[t]).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DegenerateSequenceError, DomainError
from .sequences import StateSequence, check_symbols
from . import serialize

EMISSION_FLOOR = 1e-10
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 200
DEFAULT_N_HIDDEN = 5
# Sequences per block of the stacked prediction pass (see predict_points),
# which bounds its (K, N, rows) working arrays
ROW_BLOCK = 1024
# Symbols per pass of the Baum-Welch E-step (see _passes), which bounds its
# stored (symbols, N) alpha; cut only where the length or the group changes
BLOCK_SYMBOLS = 32768
# Alpha entries per np.add.at call of the E-step's emission counts, which
# bounds their flat index of bins and numpy's working copy of it
COUNT_ENTRIES = 16384
# The smallest normal float64; anything positive below it is subnormal
_TINY = np.finfo(np.float64).tiny


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
        # pi as the one row of a matrix
        for name, arr in (("A", self.A), ("B", self.B), ("pi", self.pi[None])):
            if not np.isfinite(arr).all():
                raise DomainError(f"{name} has non-finite entries")
            if (arr < 0).any():
                raise DomainError(f"{name} has negative entries")
            if np.abs(arr.sum(axis=1) - 1.0).max() > atol:
                raise DomainError(f"{name} rows must sum to 1")


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
    B = _floor_rows(B, EMISSION_FLOOR)
    return HmmModel(n_hidden=n_hidden, n_obs=n_obs, A=A, B=B, pi=pi, seed=seed)


def _floor_rows(weights: np.ndarray, floor: float) -> np.ndarray:
    """Each row of `weights` as the distribution proportional to it that
    maximizes sum(w*log p) subject to p >= floor.

    Entries whose proportional share would fall below the floor are pinned at
    it and the remaining mass is split proportionally among the rest, round
    after round until no share falls below.  Exact constrained maximization
    keeps Baum-Welch monotone when used as the emission M-step.  All rows
    run each round together; a row's free weights are summed in the order
    and at the length a one-row solve would sum them, so every row equals
    its own solve bit for bit.
    """
    n, m = weights.shape
    if floor * m >= 1.0:
        raise DomainError("floor too large for the alphabet size")
    out = np.empty((n, m))
    pinned = np.zeros((n, m), dtype=bool)
    rows = np.arange(n)                      # rows still being solved
    for _ in range(m):
        if not rows.size:
            break
        w, pin = weights[rows], pinned[rows]
        n_free = m - pin.sum(axis=1)
        avail = 1.0 - (m - n_free) * floor
        # the free weights packed to the front, summed per free count
        order = np.argsort(pin, axis=1, kind="stable")
        packed = np.take_along_axis(w, order, axis=1)
        total = np.empty(rows.size)
        for f in np.unique(n_free).tolist():
            same = n_free == f
            total[same] = packed[same, :f].sum(axis=1)
        empty = total <= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            share = w * (avail / total)[:, None]
        share[empty] = (avail[empty] / n_free[empty])[:, None]
        out[rows] = share                  # pinned entries are set last
        newly = ~pin & (share < floor)
        newly[empty] = False
        pinned[rows] = pin | newly
        rows = rows[newly.any(axis=1)]
    out[pinned] = floor
    return out


def _log_likelihood(sums: np.ndarray) -> float:
    """log P(O|lambda) = -sum_t log(scale[t]) from the unscaled forward row
    sums, scale[t] = 1 / sums[t].  A subnormal sum's reciprocal may
    overflow to inf, so it adds its own log instead."""
    with np.errstate(over="ignore"):
        log_scale = np.log(1.0 / sums)
    subnormal = sums < _TINY
    log_scale[subnormal] = -np.log(sums[subnormal])
    return -float(log_scale.sum())


def forward_backward(model: HmmModel, seq: StateSequence) -> ForwardBackwardWorkspace:
    """Full scaled forward-backward with posteriors for one sequence, its
    forward pass the one-model `_stacked_alpha` with every step's alpha.

    Raises DegenerateSequenceError at the first step whose unscaled row sum
    is zero or subnormal, where `score` still returns a finite value.
    """
    check_symbols(seq, model.n_obs)
    obs = seq.symbols
    H, S = _stacked_alpha(stack_models([model]), obs, history=True)
    alpha, sums = H[:, 0], S[:, 0, 0]
    T, N = alpha.shape
    # a subnormal row sum's reciprocal exceeds 1/tiny and may overflow, and
    # beta, gamma and digamma with it: the sequence is degenerate there
    subnormal = np.flatnonzero(sums < _TINY)
    if subnormal.size:
        raise DegenerateSequenceError(int(subnormal[0]))
    scale = 1.0 / sums

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
        digamma=digamma, log_likelihood=_log_likelihood(sums),
    )


def score(model: HmmModel, seq: StateSequence) -> float:
    """log P(O|lambda) from the row sums of the one-model `_stacked_alpha`,
    which keeps no alpha history."""
    check_symbols(seq, model.n_obs)
    _, S = _stacked_alpha(stack_models([model]), seq.symbols)
    return _log_likelihood(S[:, 0, 0])


# ---------------------------------------------------------------------------
# Ragged layout, shared by Baum-Welch and the stacked prediction pass
# ---------------------------------------------------------------------------

@dataclass
class _Ragged:
    """Sequences that come longest first, symbols stored time-major.

    At step t the sequences still running are the first running[t] rows,
    and their symbols are obs[starts[t]:starts[t+1]], one per row.
    """

    lengths: np.ndarray          # row lengths, non-increasing
    running: np.ndarray          # running[t]: how many rows are longer than t
    starts: np.ndarray
    obs: np.ndarray


def _ragged(seqs: list[np.ndarray]) -> _Ragged:
    """The ragged layout of one or more non-empty sequences, which must
    come longest first; the rows keep their input order.

    `obs` is filled one step at a time from the concatenation of `seqs`,
    so besides the two of them only per-row and per-step arrays exist.
    """
    lengths = np.array([s.size for s in seqs], dtype=np.int64)
    running = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")
    starts = np.concatenate([[0], np.cumsum(running)])
    flat = np.concatenate(seqs)
    first = np.cumsum(lengths) - lengths     # each row's start in `flat`
    obs = np.empty(flat.size, dtype=np.int64)
    for t, n in enumerate(running.tolist()):
        obs[starts[t]: starts[t + 1]] = flat[first[:n] + t]
    return _Ragged(lengths, running, starts, obs)


# ---------------------------------------------------------------------------
# Baum-Welch
# ---------------------------------------------------------------------------

def _m_step(A: np.ndarray, B: np.ndarray, stats):
    """Re-estimated (A, B, pi) from one E-step's statistics; `A`, `B` and
    every statistic may carry a leading axis of models.

    Rows renormalize from their own expected counts; a state with no
    residual occupancy keeps its old row (it no longer affects the
    likelihood, and near-dead states underflow the two accumulation routes
    differently).  Entries below the smallest normal float are set to 0.0,
    so no E-step product takes the slow subnormal path and a row fed only
    by subnormal counts keeps its old value at once.  This is the one rule
    that sets a parameter to 0.0: every prediction path runs a model's
    parameters as they are.
    """
    pi = stats["pi"] / stats["pi"].sum(axis=-1, keepdims=True)
    a_total = stats["a_num"].sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        A = np.where(a_total > 0.0, stats["a_num"] / a_total, A)
    B = B.copy()
    live = stats["b_den"] > 0.0
    B[live] = _floor_rows(stats["b_num"][live], EMISSION_FLOOR)
    for out in (A, B, pi):
        out[out < _TINY] = 0.0
    return A, B, pi


def _check_fit_args(sequences, n_hidden: int, n_obs: int | None) -> int:
    """The alphabet size a fit of `sequences` uses, after checking them."""
    if not sequences:
        raise DomainError("need at least one sequence")
    max_symbol = int(np.concatenate([s.symbols for s in sequences]).max())
    if n_obs is None:
        n_obs = max_symbol + 1
    if n_obs <= max_symbol:
        raise DomainError(
            f"n_obs={n_obs} too small for observed symbol {max_symbol}"
        )
    if n_hidden < 1:
        raise DomainError("n_hidden must be at least 1")
    return n_obs


def _spans(offsets: list[int], n: int) -> list[tuple[int, int, int]]:
    """(group, first row, end row) of each group's rows among the first n,
    group g holding rows offsets[g] to offsets[g + 1]: the groups with such
    rows lead, and each holds its rows below n."""
    return [
        (g, lo, min(hi, n))
        for g, (lo, hi) in enumerate(zip(offsets, offsets[1:]))
        if lo < n
    ]


def _e_step(layout: _Ragged, sizes: list[int], A: np.ndarray, B: np.ndarray,
            pi: np.ndarray):
    """Every group's EM statistics, with a leading group axis, and
    log-likelihood, for groups of `sizes` sequences run together in one
    ragged layout with one (A, B, pi) per group.

    Each group's rows are contiguous in the layout, and at step t group g
    holds rows offsets[g] to offsets[g] + running_g[t] of the rows still
    running: its running rows are a prefix of its rows.  Single-length
    groups entered longest first keep this, and so does one group of mixed
    lengths.  Elementwise work runs once per step over all running rows.
    The products with A run per group on the group's own running rows, at
    the shapes of a pass over that group alone, so each group's statistics
    equal those of its own pass bit for bit.  The views each product reads
    and writes are made at its step, so the buffers are all a call holds.

    The forward pass stores alpha time-major for the rows still running
    (no padding), gathering each step's emissions as rows of the stacked
    B.T straight into a row buffer, so no gather of the whole layout
    exists.  A zero row sum, or one whose reciprocal overflows, shows
    as an infinite scale factor: the pass runs with those warnings off,
    and the first such factor raises DegenerateSequenceError at its
    step before the backward pass.  The backward pass walks t downward,
    starts beta at scale[t] for the rows that end at step t, overwrites
    alpha with gamma and accumulates the expected transitions.
    """
    G, N, M = B.shape
    counts = layout.running.tolist()
    starts = layout.starts.tolist()
    offsets = np.cumsum([0] + sizes).tolist()
    ends = np.concatenate([[0], np.cumsum(layout.lengths)])
    own_offsets = ends[offsets].tolist()
    if G == 1:
        # one group: the stored symbols are the rows of B.T and their order
        # is the group's own
        rows, own = layout.obs, None
    else:
        row = np.arange(layout.obs.size) - np.repeat(
            layout.starts[:-1], layout.running
        )
        group = np.repeat(np.arange(G), sizes)[row]
        # each stored symbol's row of the stacked B.T, and its b_num bin
        rows = group * M + layout.obs
        # each group's symbols in its own layout's order, group after group
        own = np.argsort(group, kind="stable")
        del row, group
    alpha = np.empty((layout.obs.size, N))
    scale = np.empty(layout.obs.size)
    beta, emitted, back = np.empty((3, counts[0], N))
    outer = np.empty((G, N, N))
    BT = np.ascontiguousarray(B.transpose(0, 2, 1)).reshape(G * M, N)
    # "clip" writes straight into `out`; "raise" would buffer the copy
    take, row_sums = BT.take, np.add.reduce
    n = counts[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = take(rows[:n], axis=0, out=alpha[:n], mode="clip")
        a *= np.repeat(pi, sizes, axis=0)
        np.divide(1.0, row_sums(a, axis=1), out=scale[:n])
        a *= scale[:n, None]
        for t in range(1, len(counts)):
            p, q, n = starts[t - 1], starts[t], counts[t]
            for g, lo, hi in _spans(offsets, n):
                np.matmul(
                    alpha[p + lo: p + hi], A[g], out=alpha[q + lo: q + hi]
                )
            a, s = alpha[q: q + n], scale[q: q + n]
            a *= take(rows[q: q + n], axis=0, out=emitted[:n], mode="clip")
            np.divide(1.0, row_sums(a, axis=1), out=s)
            a *= s[:, None]
    # NaN follows an infinite factor only in later steps of its row
    if not scale.max() < np.inf:
        first = np.flatnonzero(~(scale < np.inf))[0]
        raise DegenerateSequenceError(
            int(np.searchsorted(starts, first, side="right")) - 1
        )

    # alpha becomes gamma in place: gamma_t = alpha_t * beta_t / scale_t
    T = len(counts)
    beta[: counts[T - 1]] = scale[starts[T - 1]: starts[T], None]
    a_outer = np.zeros((G, N, N))
    for t in range(T - 1, -1, -1):
        q, n = starts[t], counts[t]
        gamma, beta_t = alpha[q: q + n], beta[:n]
        gamma *= beta_t
        gamma /= scale[q: q + n, None]
        if t == 0:
            break
        emitted_t = take(rows[q: q + n], axis=0, out=emitted[:n], mode="clip")
        emitted_t *= beta_t                          # b_j(o_t) * beta_t(j)
        p, m = starts[t - 1], counts[t - 1]
        spans = _spans(offsets, n)
        for g, lo, hi in spans:
            np.matmul(alpha[p + lo: p + hi].T, emitted[lo:hi], out=outer[g])
            np.matmul(emitted[lo:hi], A[g].T, out=back[lo:hi])
        a_outer[:len(spans)] += outer[:len(spans)]
        np.multiply(scale[p: p + n, None], back[:n], out=beta_t)
        if m > n:                                    # rows that end at t-1
            beta[n:m] = scale[p + n: p + m, None]

    # per-group sums at the group's own shapes: pi over its rows at t=0,
    # and log-likelihood over its scale factors in its own layout's order
    logs = scale if own is None else np.take(scale, own)
    np.log(logs, out=logs)
    stats = {"pi": np.empty((G, N)), "a_num": A * a_outer}
    for g, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        stats["pi"][g] = alpha[lo:hi].sum(axis=0)
    ll = [
        -float(logs[lo:hi].sum())
        for lo, hi in zip(own_offsets, own_offsets[1:])
    ]
    stats["b_num"] = _emission_counts(rows, alpha, G, M)
    # the M-step reads only whether a state's occupancy is positive, and
    # a sum of non-negative terms is positive exactly when one of them is
    stats["b_den"] = stats["b_num"].sum(axis=2)
    return stats, ll


def _emission_counts(rows: np.ndarray, gamma: np.ndarray, G: int,
                     M: int) -> np.ndarray:
    """b_num, (G, N, M): the (len(rows), N) weights `gamma` added into the
    flat (G*M, N) bins of their symbols' rows of the stacked B.T.

    np.add.at adds in index order, as a per-state weighted bincount does,
    so each bin adds its weights in row order.  It runs over the entries of
    COUNT_ENTRIES // N symbols at a time, which bounds the index.
    """
    N = gamma.shape[1]
    counts = np.zeros(G * M * N)
    weights = gamma.reshape(-1)
    states = np.arange(N)
    step = max(COUNT_ENTRIES // N, 1)
    for lo in range(0, rows.size, step):
        bins = rows[lo: lo + step, None] * N + states
        hi = lo + bins.shape[0]
        np.add.at(counts, bins.reshape(-1), weights[lo * N: hi * N])
    return np.ascontiguousarray(counts.reshape(G, M, N).transpose(0, 2, 1))


def _passes(groups: list[list[np.ndarray]]) -> list[tuple]:
    """The E-step passes over `groups`' rows, each group's longest first:
    (layout, its pass-groups' sizes, the index of its first group).

    A pass is cut once it holds at least BLOCK_SYMBOLS symbols, and only
    where the length or the group changes; its rows of one group form one
    pass-group.  With one group, or groups of one length each that come
    longest first, a pass-group's rows are contiguous in its layout.
    """
    rows = [s for g in groups for s in sorted(g, key=len, reverse=True)]
    lengths = np.array([s.size for s in rows], dtype=np.int64)
    owner = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    total = np.concatenate([[0], np.cumsum(lengths)])
    cuts = np.flatnonzero((np.diff(lengths) != 0) | (np.diff(owner) != 0)) + 1
    passes, lo = [], 0
    for hi in cuts.tolist() + [len(rows)]:
        if total[hi] - total[lo] >= BLOCK_SYMBOLS or hi == len(rows):
            first, sizes = np.unique(owner[lo:hi], return_counts=True)
            passes.append((_ragged(rows[lo:hi]), sizes.tolist(), first[0]))
            lo = hi
    return passes


def _baum_welch(
    groups: list[list[np.ndarray]], seeds: list[int], n_hidden: int,
    n_obs: int, tol: float, max_iters: int,
) -> list[tuple[HmmModel, list[float]]]:
    """(model, trace) per group, in input order: Baum-Welch for one HMM per
    group from random_model(n_hidden, n_obs, seeds[g]).  There is one
    group, or every group is of one length (see `_passes`).

    Each iteration runs one E-step over the groups still iterating, pass
    after pass, and one M-step over them all; a group leaves when it
    converges or reaches `max_iters`.  A group adds its statistics and
    log-likelihood over its passes in pass order, from 0.0; they do not
    depend on the other groups in a pass.  Layouts are rebuilt only when a
    group leaves; each pass's `_e_step` buffers are made and freed in turn.
    """
    inits = [random_model(n_hidden, n_obs, seed) for seed in seeds]
    if max_iters < 1:
        return [(model, []) for model in inits]
    live = sorted(range(len(groups)), key=lambda g: -max(map(len, groups[g])))
    A = np.stack([inits[g].A for g in live])
    B = np.stack([inits[g].B for g in live])
    pi = np.stack([inits[g].pi for g in live])
    traces, models = [[] for _ in groups], [None] * len(groups)
    passes = None
    while live:
        passes = passes or _passes([groups[g] for g in live])
        stats, lls = {}, np.zeros(len(live))
        for layout, sizes, lo in passes:
            hi = lo + len(sizes)
            pass_stats, pass_lls = _e_step(
                layout, sizes, A[lo:hi], B[lo:hi], pi[lo:hi]
            )
            for name, value in pass_stats.items():
                stats.setdefault(name, np.zeros((len(live), *value.shape[1:])))
                stats[name][lo:hi] += value
            lls[lo:hi] += pass_lls
        for i, g in enumerate(live):
            traces[g].append(float(lls[i]))
            if fit_converged(traces[g], tol) or len(traces[g]) == max_iters:
                models[g] = HmmModel(
                    n_hidden, n_obs, A[i].copy(), B[i].copy(), pi[i].copy(),
                    seed=seeds[g],
                )
        stay = [i for i, g in enumerate(live) if models[g] is None]
        if len(stay) < len(live):
            live = [live[i] for i in stay]
            A, B, pi = A[stay], B[stay], pi[stay]
            stats = {name: v[stay] for name, v in stats.items()}
            passes = None
        if live:
            A, B, pi = _m_step(A, B, stats)
    return list(zip(models, traces))


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
    produced the final trace entry; past the random start it holds no
    subnormal entry (see `_m_step`).  This is `_baum_welch` on one group.
    """
    n_obs = _check_fit_args(sequences, n_hidden, n_obs)
    groups = [[s.symbols for s in sequences]]
    return _baum_welch(groups, [seed], n_hidden, n_obs, tol, max_iters)[0]


def fit_groups(
    groups: list[list[StateSequence]],
    seeds: list[int],
    n_hidden: int,
    n_obs: int,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> list[tuple[HmmModel, list[float]]]:
    """One HMM per single-length group, all fitted in one stacked EM run.

    Returns (model, trace) per group, in input order, each exactly what
    `baum_welch_fit(groups[g], n_hidden, n_obs, seeds[g], tol, max_iters)`
    returns; the groups share each E-step's passes and each M-step (see
    `_baum_welch`).
    """
    if len(seeds) != len(groups):
        raise DomainError("need one seed per group")
    _check_fit_args([s for g in groups for s in g], n_hidden, n_obs)
    for group in groups:
        if not group or len({len(s) for s in group}) != 1:
            raise DomainError("each group needs sequences, all of one length")
    symbols = [[s.symbols for s in g] for g in groups]
    return _baum_welch(symbols, seeds, n_hidden, n_obs, tol, max_iters)


def fit_converged(trace: list[float], tol: float = DEFAULT_TOL) -> bool:
    return len(trace) >= 2 and trace[-1] - trace[-2] < tol


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict_next(model: HmmModel, prefix: StateSequence) -> tuple[int, np.ndarray]:
    """Most likely next symbol after `prefix`, with per-candidate scores.

    scores[k] = log P(prefix + [k] | lambda), one forward extension of the
    prefix (the one-model `_stacked_alpha`, without history) rather than M
    rescoring passes.  The symbol is the argmax of the next-symbol
    probabilities, as in `predict_next_all`; ties go to the lowest index.
    """
    check_symbols(prefix, model.n_obs)
    stack = stack_models([model])
    H, S = _stacked_alpha(stack, prefix.symbols)
    probs = _next_symbol_probs(stack, H[-1])[0, 0]
    with np.errstate(divide="ignore"):
        scores = _log_likelihood(S[:, 0, 0]) + np.log(probs)
    return int(np.argmax(probs)), scores


def point_offsets(lengths: np.ndarray, stride: int) -> np.ndarray:
    """Where each sequence's prediction points start in the canonical order,
    with the total point count appended.

    Canonical order: sequences in input order and, within one of length T,
    the predicted positions t = 1, 1+stride, ... <= T-1 ascending.
    """
    counts = (np.asarray(lengths, dtype=np.int64) - 2 + stride) // stride
    return np.concatenate([[0], np.cumsum(counts)])


@dataclass(frozen=True)
class ModelStack:
    """K models of one shape stacked for the stacked passes: A (K,N,N),
    B (K,N,M), the emissions symbol-major E (M,K,N) and pi (K,N).  E[o] is
    one contiguous (K, N) row, the emissions of symbol o in every model,
    which each step of `predict_next_all` multiplies by."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    pi: np.ndarray


def stack_models(models: list[HmmModel]) -> ModelStack:
    """Copies of `models`' parameters, stacked in input order.  Models of
    different (n_hidden, n_obs) raise DomainError."""
    if not models:
        raise DomainError("need at least one model")
    shapes = {(m.n_hidden, m.n_obs) for m in models}
    if len(shapes) > 1:
        raise DomainError(
            f"models of different (n_hidden, n_obs) shapes: {sorted(shapes)}"
        )
    # np.array: np.stack's copies at a fifth of its cost per call
    B = np.array([m.B for m in models])
    return ModelStack(
        np.array([m.A for m in models]), B,
        np.ascontiguousarray(B.transpose(2, 0, 1)),
        np.array([m.pi for m in models]),
    )


def _state_sums(a: np.ndarray) -> np.ndarray:
    """The sums over axis 1 of state-major alpha (K, N, rows), each equal
    bit for bit to numpy's `sum` of that row's N states stored contiguously.

    It adds the N state rows in numpy's pairwise order: below 8 terms one
    after another; up to 128 in 8 running sums, folded as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder one after
    another; above 128 as the sum of two halves split at a multiple of 8.
    numpy starts from 0, and 0 + x is x.
    """
    n = a.shape[1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _state_sums(a[:, :half]) + _state_sums(a[:, half:])
    if n < 8:
        s = a[:, 0].copy()
        rest = range(1, n)
    else:
        r = a[:, :8]
        for i in range(8, n - n % 8, 8):
            r = r + a[:, i: i + 8]
        r = r[:, 0::2] + r[:, 1::2]
        r = r[:, 0::2] + r[:, 1::2]
        s = r[:, 0] + r[:, 1]
        rest = range(n - n % 8, n)
    for i in rest:
        s += a[:, i]
    return s


def _normalized_states(a: np.ndarray, t: int) -> np.ndarray:
    """Scale each row of state-major alpha (K, N, rows) to sum to one over
    its N states, in place, with the sums and quotients that
    `_stacked_alpha` takes over states-last rows."""
    s = _state_sums(a)
    if (s <= 0.0).any():
        raise DegenerateSequenceError(t)
    a /= s[:, None, :]
    return a


def prediction_dtype(models: list[HmmModel]) -> np.dtype:
    """The narrowest unsigned dtype that holds every symbol the models can
    predict: uint8 for up to 256 symbols, uint16 for up to 65,536."""
    return np.min_scalar_type(max(m.n_obs for m in models) - 1)


def predict_points(
    models: list[HmmModel], seqs: list[np.ndarray], stride: int = 1
) -> np.ndarray:
    """Every model's next-symbol prediction at every canonical point.

    Returns a (P, K) array of dtype `prediction_dtype(models)` in the order
    of `point_offsets`; entry [p, k] equals predict_next(models[k],
    prefix)[0] for the prefix that point predicts after.  The models must
    share one (n_hidden, n_obs) shape (see `stack_models`).  One scaled
    forward pass runs all K models over the sequences, sorted longest first,
    one block of ROW_BLOCK sequences at a time: in the block's ragged
    layout, the one Baum-Welch also uses, the sequences still running at
    step t are the first rows, and the next-symbol argmax is taken only at
    stride points.  Besides the result and a few per-sequence arrays,
    memory holds one block's layout (two int64 per symbol while it is
    built, one after) and its working arrays.

    Alpha is held state-major, (K, N, rows running) with no padding, so
    each step's work runs along contiguous rows of sequences: the
    transition product is A^T @ alpha, the emissions are gathered as
    B[:, :, symbols], the row sums add the N state rows in numpy's pairwise
    order (`_state_sums`), so each equals numpy's `sum` over that row's N
    states bit for bit, and the next-symbol probabilities of all K models
    are one batched (K, rows, M) product.
    """
    if stride < 1:
        raise DomainError("stride must be at least 1")
    stack = stack_models(models)
    lengths = np.array([s.size for s in seqs], dtype=np.int64)
    if (lengths < 1).any():
        raise DomainError("a sequence needs at least one symbol")
    offsets = point_offsets(lengths, stride)
    out = np.empty((offsets[-1], len(models)), dtype=prediction_dtype(models))
    AT, B, pi = stack.A.transpose(0, 2, 1), stack.B, stack.pi
    order = np.argsort(-lengths, kind="stable")
    for lo in range(0, len(seqs), ROW_BLOCK):
        rows = order[lo: lo + ROW_BLOCK]
        layout = _ragged([seqs[i] for i in rows])
        running, starts, obs = layout.running, layout.starts, layout.obs
        if obs.max() >= B.shape[2]:
            raise DomainError(
                f"symbol {obs.max()} outside an alphabet of {B.shape[2]} symbols"
            )
        first_point = offsets[rows]
        a = _normalized_states(
            pi[:, :, None] * np.take(B, obs[: rows.size], axis=2), 0
        )
        for t in range(1, int(layout.lengths[0])):
            n = running[t]
            # rebound at once: the previous alpha is freed before the
            # (K, n, M) probabilities exist
            a = AT @ a[:, :, :n]
            if (t - 1) % stride == 0:
                # (K, n, M) next-symbol probabilities, one batched product
                out[first_point[:n] + (t - 1) // stride] = np.argmax(
                    np.matmul(a.transpose(0, 2, 1), B), axis=2
                ).T
            # np.take lays the (K, N, n) emissions out as `a` is laid out;
            # an index on the last axis would not, and multiplies slower
            a *= np.take(B, obs[starts[t]: starts[t + 1]], axis=2)
            _normalized_states(a, t)
    return out


def _stacked_alpha(stack: ModelStack, obs: np.ndarray,
                   history: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(H, S): every stacked model's normalized forward rows H and unscaled
    row sums S (T, K, 1) over the T steps of `obs`.  H holds every step's
    alpha, (T, K, N), with `history`, else only the last, (1, K, N).

    Each step is four ufunc calls into buffers made once per call: the
    previous alpha as (K, 1, N) times A, times the (K, N) emissions
    E[obs[t]], the row sums into S[t] and the division by them.  A zero row
    sum turns that model's row into NaN from then on, so the first step
    whose sums are not all positive raises DegenerateSequenceError.
    """
    A, pi = stack.A, stack.pi
    (K, N), T = pi.shape, obs.size
    rows, symbols = list(stack.E), obs.tolist()
    H = np.empty((T if history else 1, K, N))
    prod, S = np.empty((K, 1, N)), np.empty((T, K, 1))
    # step t reads alpha t-1 as (K, 1, N) and writes alpha t
    prevs, outs = H[:, :, None, :], H[1:]
    if not history:
        prevs, outs = repeat(prevs[0]), repeat(H[0])
    p = prod[:, 0]
    # positional arguments, (in, ..., out) and add.reduce's (a, axis,
    # dtype, out, keepdims): keywords cost more than the arithmetic here
    matmul, multiply, divide, row_sums = (
        np.matmul, np.multiply, np.divide, np.add.reduce
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        a = H[0]
        multiply(pi, rows[symbols[0]], a)
        row_sums(a, -1, None, S[0], True)
        divide(a, S[0], a)
        for prev, a, s, o in zip(prevs, outs, S[1:], symbols[1:]):
            matmul(prev, A, prod)
            multiply(p, rows[o], a)
            row_sums(a, -1, None, s, True)
            divide(a, s, a)
    bad = ~(S > 0).all(axis=(1, 2))
    if bad.any():
        raise DegenerateSequenceError(int(bad.argmax()))
    return H, S


def _next_symbol_probs(stack: ModelStack, a: np.ndarray) -> np.ndarray:
    """(K, 1, M) next-symbol probabilities from the forward rows a (K, N)."""
    return (a[:, None, :] @ stack.A) @ stack.B


def predict_next_all(stack: ModelStack, prefix: StateSequence) -> np.ndarray:
    """Each stacked model's predict_next symbol after `prefix`, as a (K,)
    array in input order, from one forward pass as in
    `predict_points`.  Build `stack` once with `stack_models`."""
    check_symbols(prefix, stack.B.shape[2])
    H, _ = _stacked_alpha(stack, prefix.symbols)
    return np.argmax(_next_symbol_probs(stack, H[-1]), axis=2)[:, 0]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_batch(
    model: HmmModel, lengths: np.ndarray, rng: np.random.Generator
) -> list[np.ndarray]:
    """Sample many sequences at once, stepping all of them in lockstep.

    Deterministic given the generator state; one uniform draw per active
    sequence per step for the state and one for the emission.
    """
    if lengths.size == 0 or lengths.min() < 1:
        raise DomainError("every length must be at least 1")
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
    """The model saved at `path`.  A damaged file raises DomainError naming
    it; a missing one, FileNotFoundError."""
    return serialize.read_checked(path, model_from_doc)
