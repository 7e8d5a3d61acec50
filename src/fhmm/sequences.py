"""Observation sequences: one attack session as a run of discrete symbols."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass
class StateSequence:
    """One session's ordered observation symbols.

    Symbols are small non-negative integers; the alphabet size M is a
    property of the model consuming the sequence, so range checks against M
    happen at the point of use (see :func:`check_symbols`).
    """

    symbols: np.ndarray
    session_id: str = ""

    def __post_init__(self):
        arr = np.asarray(self.symbols, dtype=np.int64)
        if arr.ndim != 1:
            raise DomainError("symbols must be one-dimensional")
        if arr.size < 1:
            raise DomainError("a sequence needs at least one symbol")
        if arr.min() < 0:
            raise DomainError("symbols must be non-negative")
        self.symbols = arr

    def __len__(self) -> int:
        return int(self.symbols.size)


def check_symbols(seq: StateSequence, n_obs: int) -> None:
    """Raise DomainError unless every symbol lies in [0, n_obs)."""
    high = int(seq.symbols.max())
    if high >= n_obs:
        raise DomainError(
            f"sequence {seq.session_id!r} contains symbol {high} "
            f"but the alphabet has only {n_obs} symbols"
        )


def joined_symbols(seqs: list[StateSequence], n_obs: int) -> np.ndarray:
    """Every sequence's symbols, joined in order, after `check_symbols` on
    each: one max over the join, and a search for the first sequence out of
    range, which the DomainError names, only when it fails."""
    joined = np.concatenate([s.symbols for s in seqs])
    if joined.max() >= n_obs:
        for seq in seqs:
            check_symbols(seq, n_obs)
    return joined
