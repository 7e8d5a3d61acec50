"""Correctness checks: the operation ledger and reference computations.

The references here are written against numpy alone, apart from the fhmm
package, so that a check compares the program with an independent
computation rather than with itself.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class Ledger:
    """Counts operations attempted and failed.

    An operation fails when it raises or when any check made inside it fails.
    A raised error is recorded and re-raised, since later operations depend
    on the failed one's output.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._current: str | None = None
        self._current_failed = False

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        self._current, self._current_failed = name, False
        try:
            yield
        except Exception as exc:
            self.problems.append(f"{name}: raised {exc!r}")
            self._current_failed = True
            raise
        finally:
            self.failed += self._current_failed
            self._current = None

    def merge(self, attempted: int, failed: int, problems: list[str]) -> None:
        """Add the operations another process counted."""
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def check(self, ok: bool, what: str) -> None:
        """Record one check made inside the current operation."""
        if self._current is None:
            raise RuntimeError("check outside an operation")
        if not ok:
            self.problems.append(f"{self._current}: {what}")
            self._current_failed = True

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def point_count(sessions, stride: int) -> int:
    """Evaluation points: one per t in range(1, T, stride) per session."""
    return sum(len(range(1, len(s.symbols), stride)) for s in sessions)


def bigram_accuracy(train, test, stride: int, n_obs: int) -> float:
    """Accuracy of predicting the most frequent successor of the previous
    symbol, counted on `train`, at the evaluation points of `test`."""
    counts = np.zeros((n_obs, n_obs), dtype=np.int64)
    for s in train:
        np.add.at(counts, (s.symbols[:-1], s.symbols[1:]), 1)
    successor = np.argmax(counts, axis=1)
    hits = total = 0
    for s in test:
        pos = np.arange(1, len(s.symbols), stride)
        hits += int((successor[s.symbols[pos - 1]] == s.symbols[pos]).sum())
        total += pos.size
    return hits / total


def forward_log_likelihood(A, B, pi, sessions) -> float:
    """Sum of log P(session) under (A, B, pi) by a scaled forward pass over
    sessions stacked by length."""
    by_length: dict[int, list[np.ndarray]] = {}
    for s in sessions:
        by_length.setdefault(len(s.symbols), []).append(s.symbols)
    total = 0.0
    for rows in by_length.values():
        obs = np.vstack(rows)
        alpha = pi[None, :] * B[:, obs[:, 0]].T
        for t in range(obs.shape[1]):
            if t:
                alpha = (alpha @ A) * B[:, obs[:, t]].T
            norm = alpha.sum(axis=1)
            total += float(np.log(norm).sum())
            alpha = alpha / norm[:, None]
    return total


def non_decreasing(trace: list[float], rel_slack: float = 1e-9) -> bool:
    return all(
        b >= a - rel_slack * max(1.0, abs(a)) for a, b in zip(trace, trace[1:])
    )


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def confusion(targets, predictions, n_obs: int) -> np.ndarray:
    out = np.zeros((n_obs, n_obs), dtype=np.int64)
    np.add.at(out, (np.asarray(targets), np.asarray(predictions)), 1)
    return out
