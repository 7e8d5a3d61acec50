"""Discrete-observation hidden Markov models.

Provides the model representation, numerically scaled forward-backward
inference, batch Baum-Welch training over many sequences, one stacked EM
pass that fits one model per single-length group, next-symbol prediction by
likelihood maximization, and generative sampling.

Layouts: one sequence's forward pass and the Baum-Welch E-step hold alpha
with states last, (steps, N).  The stacked prediction pass behind stage 2
and evaluation (`predict_points`) holds it state-major, (K, N, rows), so
its per-step work runs along contiguous rows of sequences; it adds the
states in numpy's summation order, so that its predictions are those of
the one-sequence pass (`predict_next`).

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
# Sequences per block of the stacked prediction pass (see predict_points),
# which bounds its (K, N, rows) working arrays
ROW_BLOCK = 1024
# Symbols per block of the Baum-Welch E-step (see _em_blocks), which bounds
# its stored (symbols, N) alpha; closed only where the length changes
BLOCK_SYMBOLS = 32768
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


def _forward(model: HmmModel, obs: np.ndarray):
    """Scaled forward pass.  Returns (alpha, scale, log_likelihood)."""
    T = obs.size
    N = model.n_hidden
    alpha = np.empty((T, N))
    sums = np.empty(T)
    a = model.pi * model.B[:, obs[0]]
    s = a.sum()
    if s <= 0.0:
        raise DegenerateSequenceError(0)
    sums[0] = s
    alpha[0] = a / s
    for t in range(1, T):
        a = (alpha[t - 1] @ model.A) * model.B[:, obs[t]]
        s = a.sum()
        if s <= 0.0:
            raise DegenerateSequenceError(t)
        # divided, not multiplied by scale[t]: the rounding of the stacked
        # prediction passes, so every path predicts the same symbol
        sums[t] = s
        alpha[t] = a / s
    subnormal = sums < _TINY
    if not subnormal.any():
        scale = 1.0 / sums
        return alpha, scale, -float(np.log(scale).sum())
    # a subnormal row sum's reciprocal may overflow to inf: it adds its own
    # log instead, and the normal ones the log of their reciprocals as above
    with np.errstate(over="ignore"):
        scale = 1.0 / sums
    log_scale = np.log(scale)
    log_scale[subnormal] = -np.log(sums[subnormal])
    return alpha, scale, -float(log_scale.sum())


def forward_backward(model: HmmModel, seq: StateSequence) -> ForwardBackwardWorkspace:
    """Full scaled forward-backward with posteriors for one sequence.

    Raises DegenerateSequenceError at the first step whose unscaled row sum
    is zero or subnormal, where `score` still returns a finite value.
    """
    check_symbols(seq, model.n_obs)
    obs = seq.symbols
    T = obs.size
    N = model.n_hidden
    alpha, scale, ll = _forward(model, obs)
    # a subnormal row sum's reciprocal exceeds 1/tiny and may overflow, and
    # beta, gamma and digamma with it: the sequence is degenerate there
    subnormal = np.flatnonzero(scale > 1.0 / _TINY)
    if subnormal.size:
        raise DegenerateSequenceError(int(subnormal[0]))

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
# Ragged layout, shared by Baum-Welch and the stacked prediction pass
# ---------------------------------------------------------------------------

@dataclass
class _Ragged:
    """Sequences sorted longest first, symbols stored time-major.

    At step t the sequences still running are the first running[t] rows,
    and their symbols are obs[starts[t]:starts[t+1]], one per row.
    """

    order: np.ndarray            # input index of each row
    lengths: np.ndarray          # row lengths, non-increasing
    running: np.ndarray          # running[t]: how many rows are longer than t
    starts: np.ndarray
    obs: np.ndarray


def _ragged(seqs: list[np.ndarray]) -> _Ragged:
    """The ragged layout of one or more non-empty sequences.

    `obs` is filled one step at a time from the longest-first concatenation,
    so besides the two of them only per-row and per-step arrays exist.
    """
    lengths = np.array([s.size for s in seqs], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    ordered = lengths[order]
    running = np.searchsorted(-ordered, -np.arange(ordered[0]), side="left")
    starts = np.concatenate([[0], np.cumsum(running)])
    flat = np.concatenate([seqs[i] for i in order])
    first = np.cumsum(ordered) - ordered     # each row's start in `flat`
    obs = np.empty(flat.size, dtype=np.int64)
    for t, n in enumerate(running.tolist()):
        obs[starts[t]: starts[t + 1]] = flat[first[:n] + t]
    return _Ragged(order, ordered, running, starts, obs)


# ---------------------------------------------------------------------------
# Baum-Welch
# ---------------------------------------------------------------------------

def _em_blocks(seqs: list[np.ndarray]) -> list[_Ragged]:
    """The sequences, sorted longest first, cut into E-step blocks, each in
    its own ragged layout.

    A block closes once it holds at least BLOCK_SYMBOLS symbols, and only
    where the length changes: a run of equal-length sequences is never
    split, and a single-length corpus is one block.  Laying out one block
    at a time keeps the layout's temporaries to the size of a block.
    """
    lengths = np.array([s.size for s in seqs], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    ordered = lengths[order]
    total = np.concatenate([[0], np.cumsum(ordered)])
    ends = (np.flatnonzero(np.diff(ordered)) + 1).tolist() + [len(seqs)]
    blocks, lo = [], 0
    for hi in ends:
        if total[hi] - total[lo] >= BLOCK_SYMBOLS or hi == len(seqs):
            blocks.append(_ragged([seqs[i] for i in order[lo:hi]]))
            lo = hi
    return blocks


def _e_step(model: HmmModel, blocks: list[_Ragged]):
    """EM sufficient statistics and the total log-likelihood of the blocks,
    each run as a one-group pass and added in block order.

    Only one block's pass exists at a time: each is built, run and freed
    before the next, so the buffers never hold more than one block.
    """
    A, B, pi = model.A[None], model.B[None], model.pi[None]
    stats, ll = {}, 0.0
    for block in blocks:
        block_stats, block_ll = _GroupPass(
            block, [block.order.size], A, model.n_obs
        ).e_step(B, pi)
        for name, value in block_stats.items():
            stats[name] = stats.get(name, 0.0) + value[0]
        ll += block_ll[0]
    return stats, ll


def _m_step(A: np.ndarray, B: np.ndarray, stats):
    """Re-estimated (A, B, pi) from one E-step's statistics; `A`, `B` and
    every statistic may carry a leading axis of models.

    Rows renormalize from their own expected counts; a state with no
    residual occupancy keeps its old row (it no longer affects the
    likelihood, and near-dead states underflow the two accumulation routes
    differently).
    """
    pi = stats["pi"] / stats["pi"].sum(axis=-1, keepdims=True)
    a_total = stats["a_num"].sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        A = np.where(a_total > 0.0, stats["a_num"] / a_total, A)
    B = B.copy()
    live = stats["b_den"] > 0.0
    B[live] = _floor_rows(stats["b_num"][live], EMISSION_FLOOR)
    return A, B, pi


def _check_fit_args(sequences, n_hidden: int, n_obs: int | None) -> int:
    """The alphabet size a fit of `sequences` uses, after checking them."""
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
    return n_obs


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
    n_obs = _check_fit_args(sequences, n_hidden, n_obs)
    blocks = _em_blocks([s.symbols for s in sequences])
    model = random_model(n_hidden, n_obs, seed)
    trace: list[float] = []
    for iteration in range(max_iters):
        stats, ll = _e_step(model, blocks)
        trace.append(ll)
        if fit_converged(trace, tol):
            break
        if iteration < max_iters - 1:
            A, B, pi = _m_step(model.A, model.B, stats)
            model = HmmModel(n_hidden, n_obs, A, B, pi, seed=seed)
    return model, trace


class _GroupPass:
    """E-steps of groups of sequences, run together in one ragged layout.

    Each group's rows are contiguous in the layout, and at step t group g
    holds rows offsets[g] to offsets[g] + running_g[t] of the rows still
    running: its running rows are a prefix of its rows.  Single-length
    groups entered longest first keep this, and so does one group of mixed
    lengths.  Elementwise work runs once per step over all running rows.
    The products with A run per group on the group's own running rows, at
    the shapes of a pass over that group alone, so each group's statistics
    equal those of its own pass bit for bit.  The buffers, and the views of
    them each product reads and writes, are built once and serve every
    E-step; `A` (one matrix per group) is updated in place between E-steps.
    """

    def __init__(
        self, layout: _Ragged, sizes: list[int], A: np.ndarray, n_obs: int
    ):
        G, N = A.shape[0], A.shape[2]
        self.A = A
        self.sizes = sizes
        self.counts = counts = layout.running.tolist()
        self.starts = starts = layout.starts.tolist()
        self.offsets = offsets = np.cumsum([0] + sizes).tolist()
        ends = np.concatenate([[0], np.cumsum(layout.lengths)])
        self.own_offsets = ends[offsets].tolist()
        if G == 1:
            # one group: the stored symbols are the rows of B.T and their
            # order is the group's own
            self.emission_rows, self.own = layout.obs, None
        else:
            row = np.arange(layout.obs.size) - np.repeat(
                layout.starts[:-1], layout.running
            )
            group = np.repeat(np.arange(G), sizes)[row]
            # each stored symbol's row of the stacked B.T, and its b_num bin
            self.emission_rows = group * n_obs + layout.obs
            # each group's symbols in its own layout's order, group after group
            self.own = np.argsort(group, kind="stable")
        self.alpha = np.empty((layout.obs.size, N))
        self.scale = np.empty(layout.obs.size)
        self.beta, self.emitted, self.back = np.empty((3, counts[0], N))
        self.outer = np.empty((G, N, N))
        alpha, self.forward, self.backward = self.alpha, [], []
        for t in range(1, len(counts)):
            p, q, n = starts[t - 1], starts[t], counts[t]
            # the groups with running rows lead; each holds its rows below n
            spans = [
                (g, lo, min(hi, n))
                for g, (lo, hi) in enumerate(zip(offsets, offsets[1:]))
                if lo < n
            ]
            self.forward.append([
                (alpha[p + lo: p + hi], A[g], alpha[q + lo: q + hi])
                for g, lo, hi in spans
            ])
            self.backward.append((len(spans), [
                (alpha[p + lo: p + hi].T, self.emitted[lo:hi], self.outer[g],
                 A[g].T, self.back[lo:hi])
                for g, lo, hi in spans
            ]))

    def _emissions(self, BT: np.ndarray, t: int, out: np.ndarray):
        """The emissions of the rows running at step t, gathered into the
        leading rows of `out`: one step at a time, so no gather of the whole
        layout exists."""
        q, n = self.starts[t], self.counts[t]
        # "clip" writes straight into `out`; "raise" would buffer the copy
        return np.take(
            BT, self.emission_rows[q: q + n], axis=0, out=out[:n], mode="clip"
        )

    def e_step(self, B: np.ndarray, pi: np.ndarray):
        """Every group's EM statistics, with a leading group axis, and
        log-likelihood.

        The forward pass stores alpha time-major for the rows still running
        (no padding).  The backward pass walks t downward, starts beta at
        scale[t] for the rows that end at step t, overwrites alpha with
        gamma and accumulates the expected transitions.
        """
        G, N, M = B.shape
        A, alpha, scale = self.A, self.alpha, self.scale
        counts, starts = self.counts, self.starts
        beta, emitted, back = self.beta, self.emitted, self.back
        BT = np.ascontiguousarray(B.transpose(0, 2, 1)).reshape(G * M, N)
        n = counts[0]
        self._emissions(BT, 0, alpha)
        alpha[:n] *= np.repeat(pi, self.sizes, axis=0)
        _rescale(alpha[:n], scale[:n], 0)
        for t, products in enumerate(self.forward, start=1):
            for prev, A_g, out in products:
                np.matmul(prev, A_g, out=out)
            q, n = starts[t], counts[t]
            alpha[q: q + n] *= self._emissions(BT, t, emitted)
            _rescale(alpha[q: q + n], scale[q: q + n], t)

        # alpha becomes gamma in place: gamma_t = alpha_t * beta_t / scale_t
        T = len(counts)
        beta[: counts[T - 1]] = scale[starts[T - 1]: starts[T], None]
        a_outer = np.zeros((G, N, N))
        for t in range(T - 1, -1, -1):
            q, n = starts[t], counts[t]
            gamma = alpha[q: q + n]
            gamma *= beta[:n]
            gamma /= scale[q: q + n, None]
            if t == 0:
                break
            emitted_t = self._emissions(BT, t, emitted)
            emitted_t *= beta[:n]                    # b_j(o_t) * beta_t(j)
            k, products = self.backward[t - 1]
            for prev, emitted_g, outer_g, AT_g, back_g in products:
                np.matmul(prev, emitted_g, out=outer_g)
                np.matmul(emitted_g, AT_g, out=back_g)
            a_outer[:k] += self.outer[:k]
            p, m = starts[t - 1], counts[t - 1]
            np.multiply(scale[p: p + n, None], back[:n], out=beta[:n])
            beta[n:m] = scale[p + n: p + m, None]    # rows that end at t-1

        # per-group sums at the group's own shapes: pi over its rows at t=0,
        # and log-likelihood over its scale factors in its own layout's order
        logs = scale.copy() if self.own is None else np.take(scale, self.own)
        np.log(logs, out=logs)
        stats = {"pi": np.empty((G, N)), "a_num": A * a_outer}
        for g, (lo, hi) in enumerate(zip(self.offsets, self.offsets[1:])):
            stats["pi"][g] = alpha[lo:hi].sum(axis=0)
        ll = [
            -float(logs[lo:hi].sum())
            for lo, hi in zip(self.own_offsets, self.own_offsets[1:])
        ]
        # emission counts: one weighted bincount per state over all groups
        # beats add.at; each bin adds in its group's row order
        stats["b_num"] = np.empty((G, N, M))
        for j in range(N):
            stats["b_num"][:, j] = np.bincount(
                self.emission_rows, weights=alpha[:, j], minlength=G * M
            ).reshape(G, M)
        # the M-step reads only whether a state's occupancy is positive, and
        # a sum of non-negative terms is positive exactly when one of them is
        stats["b_den"] = stats["b_num"].sum(axis=2)
        return stats, ll


def _rescale(a: np.ndarray, scale: np.ndarray, t: int) -> None:
    """Scale the rows of `a` to sum to one, in place, storing the factors."""
    s = a.sum(axis=1)
    if s.min() <= 0.0:
        raise DegenerateSequenceError(t)
    np.divide(1.0, s, out=scale)
    a *= scale[:, None]


def fit_groups(
    groups: list[list[StateSequence]],
    seeds: list[int],
    n_hidden: int,
    n_obs: int,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> list[tuple[HmmModel, list[float]]]:
    """One HMM per single-length group, all fitted in one stacked EM pass.

    Returns (model, trace) per group, in input order, each exactly what
    `baum_welch_fit(groups[g], n_hidden, n_obs, seeds[g], tol, max_iters)`
    returns.  Every iteration runs one E-step over the rows of all groups
    still iterating (see `_GroupPass`) and one M-step over all their rows;
    a group leaves the pass when it converges or reaches `max_iters`.
    """
    if len(seeds) != len(groups):
        raise DomainError("need one seed per group")
    _check_fit_args([s for g in groups for s in g], n_hidden, n_obs)
    for group in groups:
        if not group or len({len(s) for s in group}) != 1:
            raise DomainError("each group needs sequences, all of one length")
    inits = [random_model(n_hidden, n_obs, seed) for seed in seeds]
    if max_iters < 1:
        return [(model, []) for model in inits]
    order = sorted(range(len(groups)), key=lambda g: -len(groups[g][0]))
    A = np.stack([inits[g].A for g in order])
    B = np.stack([inits[g].B for g in order])
    pi = np.stack([inits[g].pi for g in order])
    traces: list[list[float]] = [[] for _ in groups]
    results: list = [None] * len(groups)
    live = order                             # groups still iterating
    gp = None
    while live:
        if gp is None:
            gp = _GroupPass(
                _ragged([s.symbols for g in live for s in groups[g]]),
                [len(groups[g]) for g in live], A, n_obs,
            )
        stats, lls = gp.e_step(B, pi)
        stay = []
        for i, g in enumerate(live):
            traces[g].append(lls[i])
            if fit_converged(traces[g], tol) or len(traces[g]) == max_iters:
                model = HmmModel(
                    n_hidden, n_obs, A[i].copy(), B[i].copy(), pi[i].copy(),
                    seed=seeds[g],
                )
                results[g] = (model, traces[g])
            else:
                stay.append(i)
        if len(stay) < len(live):
            live = [live[i] for i in stay]
            A, B, pi = A[stay], B[stay], pi[stay]
            stats = {name: v[stay] for name, v in stats.items()}
            gp = None
        if live:
            # in place, where the pass's products read it
            A[...], B, pi = _m_step(A, B, stats)
    return results


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


@dataclass(frozen=True)
class ModelStack:
    """Models of one shape stacked for the stacked passes: A (K,N,N),
    B (K,N,M), B transposed (K,M,N) and pi (K,N); B transposed gathers one
    symbol's emissions as rows.  `cols` are the models' input indices.

    Entries below the smallest normal float are 0.0 in the stacks, so no
    product takes the slow subnormal path.  A subnormal term is below half
    an ULP of any sum above about 1e-292 that it enters, so only alpha
    components already below that can differ from `predict_next`'s; with
    emissions floored at EMISSION_FLOOR, row sums and next-symbol
    probabilities are far above it.  One behaviour differs: a prefix
    reachable only through a subnormal entry raises DegenerateSequenceError
    in the stacked passes, where `predict_next` still predicts."""

    cols: list[int]
    A: np.ndarray
    B: np.ndarray
    BT: np.ndarray
    pi: np.ndarray


def stack_models(models: list[HmmModel]) -> list[ModelStack]:
    """One ModelStack per (n_hidden, n_obs) shape among `models`, with
    subnormal entries set to 0.0 in the stacked copies (see ModelStack);
    the models' own arrays are left as they are."""
    if not models:
        raise DomainError("need at least one model")
    groups: dict[tuple[int, int], list[int]] = {}
    for k, m in enumerate(models):
        groups.setdefault((m.n_hidden, m.n_obs), []).append(k)

    def flushed(arrays):
        out = np.stack(arrays)
        out[out < _TINY] = 0.0
        return out

    stacks = []
    for cols in groups.values():
        B = flushed([models[k].B for k in cols])
        stacks.append(ModelStack(
            cols, flushed([models[k].A for k in cols]), B,
            np.ascontiguousarray(B.transpose(0, 2, 1)),
            flushed([models[k].pi for k in cols]),
        ))
    return stacks


def _normalized(a: np.ndarray, t: int) -> np.ndarray:
    """Scale the last axis of `a` to sum to one, in place."""
    s = a.sum(axis=-1)
    if (s <= 0.0).any():
        raise DegenerateSequenceError(t)
    a /= s[..., None]
    return a


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
    its N states, in place, with the sums and quotients of `_normalized`."""
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
    prefix)[0] for the prefix that point predicts after.  One scaled
    forward pass runs all K models over all sequences at once (one pass per
    model shape, if shapes differ): in the ragged layout Baum-Welch also
    uses, the sequences still running at step t are the first rows, and
    the next-symbol argmax is taken only at stride points.  Besides the
    result, memory holds the layout (two int64 per symbol while it is
    built, one after) and working arrays of at most ROW_BLOCK sequences.

    Alpha is held state-major, (K, N, rows running) with no padding, so
    each step's work runs along contiguous rows of sequences: the
    transition product is A^T @ alpha, the emissions are gathered as
    B[:, :, symbols], the row sums add the N state rows in numpy's pairwise
    order (`_state_sums`), so each equals numpy's `sum` over that row's N
    states bit for bit, and the next-symbol probabilities of all K models
    are one batched (K, rows, M) product.

    The pass runs on `stack_models`' stacks, whose subnormal entries are
    0.0: a prefix that only a subnormal transition, start or emission
    probability makes possible raises `DegenerateSequenceError` at its step,
    where `predict_next` still predicts after it.
    """
    if stride < 1:
        raise DomainError("stride must be at least 1")
    stacks = stack_models(models)
    lengths = np.array([s.size for s in seqs], dtype=np.int64)
    if (lengths < 1).any():
        raise DomainError("a sequence needs at least one symbol")
    offsets = point_offsets(lengths, stride)
    out = np.empty((offsets[-1], len(models)), dtype=prediction_dtype(models))
    if not seqs:
        return out
    layout = _ragged(seqs)
    ordered, running, starts, obs = (
        layout.lengths, layout.running, layout.starts, layout.obs
    )
    first_point = offsets[layout.order]
    for stack in stacks:
        AT, B, pi = stack.A.transpose(0, 2, 1), stack.B, stack.pi
        if obs.max() >= B.shape[2]:
            raise DomainError(
                f"symbol {obs.max()} outside an alphabet of {B.shape[2]} symbols"
            )
        cols = np.array(stack.cols)
        # blocks of rows bound the working arrays to (K, N, ROW_BLOCK)
        for lo in range(0, len(seqs), ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, len(seqs))
            a = _normalized_states(
                pi[:, :, None] * np.take(B, obs[lo:hi], axis=2), 0
            )
            for t in range(1, int(ordered[lo])):
                n = min(running[t], hi) - lo
                # rebound at once: the previous alpha is freed before the
                # (K, n, M) probabilities exist
                a = AT @ a[:, :, :n]
                if (t - 1) % stride == 0:
                    rows = first_point[lo: lo + n] + (t - 1) // stride
                    # (K, n, M) next-symbol probabilities, one batched product
                    out[rows[:, None], cols] = np.argmax(
                        np.matmul(a.transpose(0, 2, 1), B), axis=2
                    ).T
                # np.take lays the (K, N, n) emissions out as `a` is laid
                # out; an index on the last axis would not, and multiplies
                # slower
                q = starts[t] + lo
                a *= np.take(B, obs[q: q + n], axis=2)
                _normalized_states(a, t)
    return out


def predict_next_all(
    stacks: list[ModelStack], prefix: StateSequence
) -> np.ndarray:
    """Each stacked model's predict_next symbol after `prefix`, as a (K,)
    array in input order, from one forward pass per stack as in
    `predict_points`.  Build `stacks` once with `stack_models`."""
    out = np.empty(sum(len(stack.cols) for stack in stacks), dtype=np.int64)
    for stack in stacks:
        A, B, BT, pi = stack.A, stack.B, stack.BT, stack.pi
        check_symbols(prefix, B.shape[2])
        obs = prefix.symbols
        a = _normalized(pi * BT[:, obs[0]], 0)
        for t in range(1, obs.size):
            a = _normalized((a[:, None, :] @ A)[:, 0] * BT[:, obs[t]], t)
        out[stack.cols] = np.argmax((a[:, None, :] @ A) @ B, axis=2)[:, 0]
    return out


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
    return model_from_doc(serialize.read_doc(path))
