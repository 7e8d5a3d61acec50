import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhmm import ensemble
from fhmm.errors import DomainError, EstimationError
from fhmm.hmm import HmmModel, sample_batch
from fhmm.markov import fit_markov, MarkovChainModel
from fhmm.sequences import StateSequence

from conftest import make_seq
from oracles import fit_markov_loop, predict_next_markov


class TestFit:
    def test_pure_alternation(self):
        model = fit_markov([make_seq([0, 1, 0, 1])], n_obs=2, smoothing=0.0)
        np.testing.assert_allclose(model.T1, [[0, 1], [1, 0]], atol=1e-12)

    def test_direct_counts(self):
        model = fit_markov(
            [make_seq([0, 0]), make_seq([0, 1])], n_obs=2, smoothing=0.0
        )
        np.testing.assert_allclose(model.T1[0], [0.5, 0.5], atol=1e-12)

    def test_refit_recovers_generator(self):
        T1 = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
        init = np.array([0.5, 0.3, 0.2])
        # a Markov chain is an HMM whose hidden states emit themselves
        gen = HmmModel(n_hidden=3, n_obs=3, A=T1, B=np.eye(3), pi=init)
        rng = np.random.default_rng(17)
        seqs = [
            make_seq(o, f"s{i}")
            for i, o in enumerate(sample_batch(gen, np.full(1000, 20), rng))
        ]
        refit = fit_markov(seqs, n_obs=3, smoothing=1.0)
        assert np.abs(refit.T1 - T1).max() < 0.05

    def test_unseen_source_rows_are_uniform(self):
        model = fit_markov([make_seq([0, 1, 1])], n_obs=3, smoothing=0.0)
        np.testing.assert_allclose(model.T1[2], np.full(3, 1 / 3))
        model.validate()

    def test_no_transitions_without_smoothing_is_error(self):
        with pytest.raises(EstimationError):
            fit_markov([make_seq([0]), make_seq([1])], n_obs=2, smoothing=0.0)

    def test_smoothing_must_be_non_negative(self):
        with pytest.raises(DomainError):
            fit_markov([make_seq([0, 1])], n_obs=2, smoothing=-1.0)

    @given(
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=12),
        m=st.integers(1, 5),
        smoothing=st.sampled_from([0.0, 0.5, 1.0]),
        bad=st.lists(st.integers(0, 11), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_the_per_session_loop(
        self, lengths, m, smoothing, bad, seed
    ):
        # `bad` sessions hold the symbol m, outside the alphabet
        rng = np.random.default_rng(seed)
        seqs = [
            make_seq(rng.integers(0, m, size=n), f"s{i}")
            for i, n in enumerate(lengths)
        ]
        for i in bad:
            if i < len(seqs):
                seqs[i].symbols[-1] = m
        try:
            want = fit_markov_loop(seqs, m, smoothing)
        except (DomainError, EstimationError) as err:
            with pytest.raises(type(err)) as got:
                fit_markov(seqs, m, smoothing)
            assert str(got.value) == str(err)
            return
        model = fit_markov(seqs, m, smoothing)
        np.testing.assert_array_equal(model.T1, want[0])
        np.testing.assert_array_equal(model.init, want[1])

    def test_names_the_first_session_out_of_range(self):
        seqs = [make_seq([0, 1], "a"), make_seq([2, 0], "b"), make_seq([3])]
        with pytest.raises(DomainError, match="'b' contains symbol 2"):
            fit_markov(seqs, n_obs=2)

    def test_smoothed_rows_sum_to_one(self):
        model = fit_markov([make_seq([0, 1, 2, 0])], n_obs=5, smoothing=1.0)
        np.testing.assert_allclose(model.T1.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.init.sum(), 1.0, atol=1e-9)


class TestPredict:
    def test_alternation(self):
        model = fit_markov([make_seq([0, 1, 0, 1])], n_obs=2, smoothing=0.0)
        assert predict_next_markov(model, make_seq([1, 0])) == 1

    def test_uniform_rows_tie_break_low(self):
        model = MarkovChainModel(
            n_obs=3, T1=np.full((3, 3), 1 / 3), init=np.full(3, 1 / 3),
            smoothing=0.0,
        )
        assert predict_next_markov(model, make_seq([2])) == 0

    def test_matches_row_argmax(self):
        rng = np.random.default_rng(5)
        seqs = [
            make_seq(rng.integers(0, 4, size=12), f"x{i}") for i in range(30)
        ]
        model = fit_markov(seqs, n_obs=4, smoothing=1.0)
        for last in range(4):
            expected = int(np.argmax(model.T1[last]))
            assert predict_next_markov(model, make_seq([0, last])) == expected

    @given(
        last=st.integers(0, 3),
        head_a=st.lists(st.integers(0, 3), max_size=6),
        head_b=st.lists(st.integers(0, 3), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_prediction_depends_only_on_last_symbol(self, last, head_a, head_b):
        rng = np.random.default_rng(2)
        seqs = [make_seq(rng.integers(0, 4, size=10), f"p{i}") for i in range(20)]
        model = fit_markov(seqs, n_obs=4, smoothing=0.5)
        a = predict_next_markov(model, make_seq(head_a + [last]))
        b = predict_next_markov(model, make_seq(head_b + [last]))
        assert a == b

    @given(
        lengths=st.lists(st.integers(1, 30), max_size=20),
        stride=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluate_points_match_the_per_prefix_oracle(
        self, lengths, stride, seed
    ):
        rng = np.random.default_rng(seed)
        sessions = [make_seq(rng.integers(0, 4, size=n)) for n in lengths]
        model = fit_markov(
            [make_seq(rng.integers(0, 4, size=12)) for _ in range(5)],
            n_obs=4, smoothing=0.5,
        )
        want = [
            predict_next_markov(model, StateSequence(s.symbols[:t]))
            for s in sessions
            for t in range(1, len(s), stride)
        ]
        got = ensemble._markov_point_predictions(model, sessions, stride)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.array(want, dtype=np.int64))
