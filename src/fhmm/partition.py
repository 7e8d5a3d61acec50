"""Length-keyed partitioning of sessions and diverse sub-dataset selection.

Sessions are bucketed by exact length; each bucket gets a symbol-frequency
array, buckets are compared by Euclidean distance between those arrays, and
the K most diverse high-coverage buckets are chosen greedily.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SelectionError
from .sequences import StateSequence, joined_symbols
from . import serialize

DEFAULT_MIN_SUPPORT = 10
K_GENERALIZATION_WARNING = 50


@dataclass
class FrequencyArray:
    """Per-length empirical symbol distribution across a session group."""

    length_key: int
    probs: np.ndarray
    support: int

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)


@dataclass
class PartitionPlan:
    freq_arrays: list[FrequencyArray]
    distances: np.ndarray                        # G x G Euclidean
    ranks: dict[int, int]                        # length -> selection order
    selected_lengths: list[int]                  # in selection order
    coverage: float
    total_sessions: int = 0
    min_support: int = DEFAULT_MIN_SUPPORT


@dataclass
class Projection2D:
    """PCA plot data for the frequency arrays; rank_deficient marks inputs
    whose covariance had fewer than two informative directions."""

    points: list[tuple[float, float]]
    rank_deficient: bool = False


def group_by_length(
    sessions: list[StateSequence],
) -> list[tuple[int, list[StateSequence]]]:
    """Bucket sessions by exact length; buckets ordered by length."""
    if not sessions:
        raise DomainError("need at least one session")
    buckets: dict[int, list[StateSequence]] = {}
    for s in sessions:
        buckets.setdefault(len(s), []).append(s)
    return sorted(buckets.items())


def frequency_array(group: list[StateSequence], n_obs: int) -> FrequencyArray:
    """Occurrence count of each symbol across the group over total symbols."""
    if not group:
        raise DomainError("group must be non-empty")
    counts = np.bincount(joined_symbols(group, n_obs), minlength=n_obs)
    return FrequencyArray(
        length_key=len(group[0]),
        probs=counts / counts.sum(),
        support=len(group),
    )


def dissimilarity_matrix(freq_arrays: list[FrequencyArray]) -> np.ndarray:
    """(G, G) Euclidean distances, one row at a time: no (G, G, M) array."""
    if not freq_arrays:
        raise DomainError("need at least one frequency array")
    dims = {fa.probs.size for fa in freq_arrays}
    if len(dims) != 1:
        raise DomainError(f"frequency arrays disagree on alphabet size: {sorted(dims)}")
    X = np.stack([fa.probs for fa in freq_arrays])
    out = np.empty((len(X), len(X)))
    for x, row in zip(X, out):
        d = x - X
        d *= d
        np.sqrt(d.sum(axis=-1), out=row)
    return out


def select_k(
    freq_arrays: list[FrequencyArray],
    distances: np.ndarray,
    k: int,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> PartitionPlan:
    """Greedy farthest-point selection weighted by log-support.

    Seeds with the highest-support eligible group, then repeatedly adds the
    group maximizing (min distance to the current selection) * log(1+support).
    Ties break to the smaller length key.  Eligibility requires support of at
    least `min_support` sessions.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    if k > K_GENERALIZATION_WARNING:
        warnings.warn(
            f"k={k} is above {K_GENERALIZATION_WARNING}; large ensembles "
            "tend to generalize poorly",
            stacklevel=2,
        )
    supports = np.array([fa.support for fa in freq_arrays])
    lengths = np.array([fa.length_key for fa in freq_arrays])
    eligible = np.nonzero(supports >= min_support)[0]
    if eligible.size < k:
        raise SelectionError(requested=k, eligible=int(eligible.size))

    seed_pos = min(
        eligible, key=lambda i: (-supports[i], lengths[i])
    )
    selected = [int(seed_pos)]
    remaining = {int(i) for i in eligible if i != seed_pos}
    while len(selected) < k:
        best = min(
            remaining,
            key=lambda j: (
                -float(distances[j, selected].min() * np.log1p(supports[j])),
                lengths[j],
            ),
        )
        selected.append(best)
        remaining.discard(best)

    selected_lengths = [int(lengths[i]) for i in selected]
    ranks = {length: order for order, length in enumerate(selected_lengths)}
    total = int(supports.sum())
    coverage = float(supports[selected].sum()) / total
    return PartitionPlan(
        freq_arrays=freq_arrays,
        distances=distances,
        ranks=ranks,
        selected_lengths=selected_lengths,
        coverage=coverage,
        total_sessions=total,
        min_support=min_support,
    )


def build_plan(
    sessions: list[StateSequence],
    n_obs: int,
    k: int,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> PartitionPlan:
    """group_by_length -> frequency arrays -> distances -> select_k."""
    groups = group_by_length(sessions)
    freq_arrays = [frequency_array(seqs, n_obs) for _, seqs in groups]
    distances = dissimilarity_matrix(freq_arrays)
    return select_k(freq_arrays, distances, k, min_support)


def project_2d(freq_arrays: list[FrequencyArray]) -> Projection2D:
    """Top-2 principal components of the mean-centered frequency vectors.

    Uses an eigen-decomposition of the covariance (1/G scaling, so the
    reconstruction MSE equals the sum of dropped eigenvalues).  Emits plot
    data only.
    """
    if len(freq_arrays) < 2:
        raise DomainError("need at least two frequency arrays to project")
    X = np.stack([fa.probs for fa in freq_arrays])
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / X.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    threshold = max(evals[0], 0.0) * 1e-12
    rank = int((evals > threshold).sum())

    coords = np.zeros((X.shape[0], 2))
    take = min(rank, 2)
    if take > 0:
        coords[:, :take] = Xc @ evecs[:, :take]
    return Projection2D(
        points=[(float(x), float(y)) for x, y in coords],
        rank_deficient=rank < 2,
    )


PLAN_SCHEMA = "fhmm-plan/1"


def plan_to_doc(plan: PartitionPlan) -> dict:
    projection = project_2d(plan.freq_arrays) if len(plan.freq_arrays) >= 2 else None
    return {
        "schema": PLAN_SCHEMA,
        "selected_lengths": plan.selected_lengths,
        "ranks": {str(k): v for k, v in plan.ranks.items()},
        "coverage": serialize.fmt_float(plan.coverage),
        "min_support": plan.min_support,
        "total_sessions": plan.total_sessions,
        "group_supports": {
            str(fa.length_key): fa.support for fa in plan.freq_arrays
        },
        "frequency_arrays": {
            str(fa.length_key): serialize.array_to_doc(fa.probs)
            for fa in plan.freq_arrays
        },
        "distance_matrix": serialize.array_to_doc(plan.distances),
        "projection_2d": None if projection is None else {
            "points": [
                [serialize.fmt_float(x), serialize.fmt_float(y)]
                for x, y in projection.points
            ],
            "rank_deficient": projection.rank_deficient,
        },
    }


def write_plan_report(plan: PartitionPlan, path) -> None:
    serialize.write_doc(path, plan_to_doc(plan))
