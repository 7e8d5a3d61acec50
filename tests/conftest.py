import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
import pytest
from hypothesis import settings

from fhmm.hmm import HmmModel, sample_batch
from fhmm.sequences import StateSequence

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and prints the
# blob that replays a failure with @reproduce_failure
settings.register_profile(
    "ci", derandomize=True, print_blob=True, deadline=None
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def alternating_model():
    """Two hidden states, state i emits symbol i, transitions flip every step."""
    return HmmModel(
        n_hidden=2, n_obs=2,
        A=np.array([[0.0, 1.0], [1.0, 0.0]]),
        B=np.array([[1.0, 0.0], [0.0, 1.0]]),
        pi=np.array([1.0, 0.0]),
    )


@pytest.fixture
def uniform_model():
    n, m = 3, 4
    return HmmModel(
        n_hidden=n, n_obs=m,
        A=np.full((n, n), 1.0 / n),
        B=np.full((n, m), 1.0 / m),
        pi=np.full(n, 1.0 / n),
    )


def make_seq(symbols, session_id="t"):
    return StateSequence(np.asarray(symbols), session_id=session_id)


def draw(model, length, seed):
    """One seeded sequence of `length` symbols from the model."""
    lengths = np.full(1, length, dtype=np.int64)
    return make_seq(sample_batch(model, lengths, np.random.default_rng(seed))[0])
