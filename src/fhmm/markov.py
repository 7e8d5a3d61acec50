"""First-order Markov-chain baseline over observed symbols."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError
from .sequences import StateSequence, joined_symbols

DEFAULT_SMOOTHING = 1.0
# Symbols per bincount of fit_markov's transition counts, which bounds the
# temporary pair codes to a fraction of the joined sessions
PAIR_BLOCK = 65536


@dataclass
class MarkovChainModel:
    n_obs: int
    T1: np.ndarray        # M x M row-stochastic transition matrix
    init: np.ndarray      # length-M initial distribution
    smoothing: float

    def __post_init__(self):
        self.T1 = np.asarray(self.T1, dtype=np.float64)
        self.init = np.asarray(self.init, dtype=np.float64)

    def validate(self, atol: float = 1e-9) -> None:
        if self.T1.shape != (self.n_obs, self.n_obs):
            raise DomainError("T1 shape mismatch")
        if (self.T1 < 0).any() or (self.init < 0).any():
            raise DomainError("negative probabilities")
        if np.abs(self.T1.sum(axis=1) - 1.0).max() > atol:
            raise DomainError("T1 rows must sum to 1")
        if abs(self.init.sum() - 1.0) > atol:
            raise DomainError("init must sum to 1")


def fit_markov(
    sequences: list[StateSequence],
    n_obs: int,
    smoothing: float = DEFAULT_SMOOTHING,
) -> MarkovChainModel:
    """Additive-smoothed transition counts.

    T1[i][j] = (count(i->j) + smoothing) / (count(i->.) + M * smoothing);
    the initial distribution comes from first symbols the same way.  Source
    states never observed get a uniform row when smoothing is zero.  The
    counts are integers: bincounts over the first symbols and over the
    (previous, next) pairs of the joined sessions, a block at a time.
    """
    if not sequences:
        raise DomainError("need at least one sequence")
    if smoothing < 0:
        raise DomainError("smoothing must be non-negative")
    m = n_obs
    symbols = joined_symbols(sequences, m)
    lengths = np.array([s.symbols.size for s in sequences])
    ends = np.cumsum(lengths)
    first = np.bincount(symbols[ends - lengths], minlength=m).astype(float)
    # the code previous * m + next of every adjacent pair of the join, a
    # block at a time, less the pairs that cross from one session into the
    # next
    pairs = np.zeros(m * m, dtype=np.int64)
    for lo in range(0, symbols.size - 1, PAIR_BLOCK):
        hi = min(lo + PAIR_BLOCK, symbols.size - 1)
        codes = symbols[lo:hi] * m
        codes += symbols[lo + 1: hi + 1]
        pairs += np.bincount(codes, minlength=m * m)
    cross = ends[:-1]
    pairs -= np.bincount(
        symbols[cross - 1] * m + symbols[cross], minlength=m * m
    )
    counts = pairs.reshape(m, m).astype(float)
    if symbols.size == len(sequences) and smoothing == 0.0:
        raise EstimationError(
            "no transitions observed and smoothing is zero"
        )

    T1 = counts + smoothing
    row_sums = T1.sum(axis=1)
    empty = row_sums <= 0.0
    T1[empty] = 1.0 / m
    row_sums[empty] = 1.0
    T1 /= row_sums[:, None]

    init = first + smoothing
    total = init.sum()
    init = init / total if total > 0 else np.full(m, 1.0 / m)
    model = MarkovChainModel(n_obs=m, T1=T1, init=init, smoothing=smoothing)
    model.validate()
    return model
