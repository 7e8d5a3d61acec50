import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhmm.benchmark import standard_benchmark, standard_config
from fhmm import hmm
from fhmm.errors import DegenerateSequenceError, DomainError
from fhmm.hmm import (
    HmmModel,
    baum_welch_fit,
    forward_backward,
    load_model,
    model_from_doc,
    model_to_doc,
    point_offsets,
    predict_next,
    predict_next_all,
    predict_points,
    random_model,
    sample_batch,
    save_model,
    score,
    stack_models,
)
from fhmm.sequences import StateSequence

from conftest import draw, make_seq
import oracles


class TestForwardBackward:
    def test_single_state_likelihood_is_emission_product(self):
        model = HmmModel(
            n_hidden=1, n_obs=2,
            A=np.array([[1.0]]), B=np.array([[0.5, 0.5]]), pi=np.array([1.0]),
        )
        ws = forward_backward(model, make_seq([0, 1, 0]))
        assert ws.log_likelihood == pytest.approx(3 * math.log(0.5), abs=1e-12)

    def test_deterministic_alternating_chain(self, alternating_model):
        ws = forward_backward(alternating_model, make_seq([0, 1, 0, 1]))
        assert ws.log_likelihood == pytest.approx(0.0, abs=1e-12)
        expected = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        np.testing.assert_allclose(ws.gamma, expected, atol=1e-12)

    def test_matches_path_enumeration(self):
        model = random_model(3, 4, seed=7)
        seq = draw(model, 6, seed=11)
        ws = forward_backward(model, seq)
        expected = oracles.enumerate_log_likelihood(
            model.A, model.B, model.pi, seq.symbols
        )
        assert abs(ws.log_likelihood - expected) < 1e-9

    def test_gamma_matches_enumeration(self):
        model = random_model(2, 3, seed=3)
        seq = make_seq([0, 2, 1, 1, 0])
        ws = forward_backward(model, seq)
        expected = oracles.enumerate_gamma(model.A, model.B, model.pi, seq.symbols)
        np.testing.assert_allclose(ws.gamma, expected, atol=1e-10)

    def test_symbol_out_of_range(self, alternating_model):
        with pytest.raises(DomainError):
            forward_backward(alternating_model, make_seq([0, 2]))

    def test_zero_probability_sequence_names_time_step(self, alternating_model):
        # symbol 0 twice in a row is impossible under the flip chain
        with pytest.raises(DegenerateSequenceError) as err:
            forward_backward(alternating_model, make_seq([0, 0]))
        assert err.value.time_step == 1

    @pytest.mark.parametrize("entry", [5e-324, 1e-308])
    def test_subnormal_row_sum_names_its_step(self, entry):
        # state 1 is entered only through A[0, 1] and alone emits symbol 1,
        # so the row sum at step 1 is that subnormal entry; at 5e-324 its
        # reciprocal overflows
        model = HmmModel(
            n_hidden=2, n_obs=2,
            A=np.array([[1.0 - entry, entry], [0.0, 1.0]]),
            B=np.array([[1.0, 0.0], [0.0, 1.0]]),
            pi=np.array([1.0, 0.0]),
        )
        seq = make_seq([0, 1])
        with np.errstate(all="raise"):
            with pytest.raises(DegenerateSequenceError) as err:
                forward_backward(model, seq)
            assert score(model, seq) == pytest.approx(
                math.log(entry), abs=1e-9
            )
            # the prefix before it keeps its posteriors
            ws = forward_backward(model, make_seq([0, 0]))
        assert err.value.time_step == 1
        np.testing.assert_array_equal(ws.gamma, [[1.0, 0.0], [1.0, 0.0]])

    def test_scale_sign_convention(self):
        model = random_model(2, 2, seed=0)
        seq = make_seq([0, 1, 1, 0])
        ws = forward_backward(model, seq)
        assert ws.log_likelihood == pytest.approx(-np.log(ws.scale).sum())
        assert np.isfinite(ws.log_likelihood)

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 3),
           m=st.integers(2, 4), t=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_equivalence_property(self, seed, n, m, t):
        model = random_model(n, m, seed=seed)
        seq = draw(model, t, seed=seed + 1)
        ws = forward_backward(model, seq)
        expected = oracles.enumerate_log_likelihood(
            model.A, model.B, model.pi, seq.symbols
        )
        assert abs(ws.log_likelihood - expected) < 1e-9

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4),
           m=st.integers(2, 6), t=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_posterior_normalization(self, seed, n, m, t):
        model = random_model(n, m, seed=seed)
        seq = draw(model, t, seed=seed + 1)
        ws = forward_backward(model, seq)
        np.testing.assert_allclose(ws.gamma.sum(axis=1), 1.0, atol=1e-9)
        if t > 1:
            np.testing.assert_allclose(
                ws.digamma.sum(axis=(1, 2)), 1.0, atol=1e-9
            )
        # gamma must also equal the row-marginal of digamma
        if t > 1:
            np.testing.assert_allclose(
                ws.digamma.sum(axis=2), ws.gamma[:-1], atol=1e-9
            )


class TestBaumWelch:
    def test_learns_alternating_structure(self):
        seqs = [make_seq([0, 1] * 4, f"s{i}") for i in range(50)]
        model, trace = baum_welch_fit(seqs, n_hidden=2, n_obs=2, seed=5)
        # up to hidden-state relabeling, transitions concentrate off-diagonal
        off = max(
            min(model.A[0, 1], model.A[1, 0]),
            min(model.A[0, 0], model.A[1, 1]),
        )
        assert off >= 0.95
        assert trace[-1] >= trace[0]

    def test_degenerate_one_symbol_data(self):
        model, trace = baum_welch_fit(
            [make_seq([0, 0, 0, 0])], n_hidden=1, n_obs=2, seed=0
        )
        np.testing.assert_allclose(model.B, [[1.0, 0.0]], atol=1e-6)
        assert trace[-1] == pytest.approx(0.0, abs=1e-6)

    def test_recovers_generator_likelihood(self):
        gen = random_model(2, 3, seed=42)
        rng = np.random.default_rng(1)
        lengths = np.full(200, 10, dtype=np.int64)
        seqs = [
            StateSequence(o, f"g{i}")
            for i, o in enumerate(sample_batch(gen, lengths, rng))
        ]
        model, _ = baum_welch_fit(seqs, n_hidden=2, n_obs=3, seed=9)
        total_symbols = sum(len(s) for s in seqs)
        fit_ll = sum(score(model, s) for s in seqs) / total_symbols
        gen_ll = sum(score(gen, s) for s in seqs) / total_symbols
        assert fit_ll >= gen_ll - 0.05

    def test_trace_monotone_and_deterministic(self):
        gen = random_model(3, 4, seed=2)
        rng = np.random.default_rng(8)
        seqs = [
            StateSequence(o, f"m{i}")
            for i, o in enumerate(sample_batch(gen, np.full(30, 12), rng))
        ]
        model1, trace1 = baum_welch_fit(seqs, n_hidden=3, n_obs=4, seed=77)
        model2, trace2 = baum_welch_fit(seqs, n_hidden=3, n_obs=4, seed=77)
        diffs = np.diff(trace1)
        assert (diffs >= -1e-8).all()
        assert trace1 == trace2
        assert np.array_equal(model1.A, model2.A)
        assert np.array_equal(model1.B, model2.B)
        assert np.array_equal(model1.pi, model2.pi)

    def test_mixed_length_batching_matches_sequence_count(self):
        seqs = [make_seq([0, 1]), make_seq([1, 0, 1]), make_seq([0])]
        model, trace = baum_welch_fit(seqs, n_hidden=2, n_obs=2, seed=1)
        model.validate()
        assert len(trace) >= 1

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            baum_welch_fit([], n_hidden=2, n_obs=2, seed=0)

    def test_n_obs_too_small_rejected(self):
        seqs = [make_seq([0, 1]), make_seq([0, 3]), make_seq([5, 2])]
        message = "n_obs={} too small for observed symbol 5"
        with pytest.raises(DomainError, match=message.format(2)):
            baum_welch_fit(seqs, n_hidden=2, n_obs=2, seed=0)
        with pytest.raises(DomainError, match=message.format(5)):
            hmm.fit_groups([seqs[:1], seqs[1:]], [0, 1], 2, 5)

    def test_model_rows_normalized(self):
        seqs = [make_seq([0, 1, 2, 1, 0], f"r{i}") for i in range(5)]
        model, _ = baum_welch_fit(seqs, n_hidden=3, n_obs=4, seed=3)
        model.validate()
        # symbol 3 never observed: emission floor keeps it just above zero
        assert (model.B[:, 3] >= 1e-10 * (1 - 1e-9)).all()
        assert (model.B[:, 3] <= 1e-8).all()

    def test_overparameterized_fit_stays_normalized(self, tmp_path):
        # many spare hidden states starve toward zero occupancy; their rows
        # must still be proper distributions after long runs
        rng = np.random.default_rng(0)
        seqs = [
            make_seq(rng.integers(0, 3, size=2), f"tiny{i}") for i in range(300)
        ]
        model, _ = baum_welch_fit(seqs, n_hidden=8, n_obs=3, seed=1,
                                  max_iters=200)
        model.validate()
        save_model(model, tmp_path / "m.json")
        load_model(tmp_path / "m.json").validate()


def assert_matches_forward_backward(model, seqs, stats, ll):
    """EM statistics and log-likelihood against sums of per-sequence
    forward_backward, within 1e-12 normwise relative."""
    n, m = model.n_hidden, model.n_obs
    expected = {
        "pi": np.zeros(n), "a_num": np.zeros((n, n)),
        "b_num": np.zeros((n, m)), "b_den": np.zeros(n),
    }
    expected_ll = 0.0
    for s in seqs:
        ws = forward_backward(model, StateSequence(s))
        expected["pi"] += ws.gamma[0]
        expected["a_num"] += ws.digamma.sum(axis=0)
        expected["b_den"] += ws.gamma.sum(axis=0)
        for t, symbol in enumerate(s):
            expected["b_num"][:, symbol] += ws.gamma[t]
        expected_ll += ws.log_likelihood
    for name, want in expected.items():
        gap = np.abs(stats[name] - want).max()
        assert gap <= 1e-12 * np.abs(want).max(), name
    assert abs(ll - expected_ll) <= 1e-12 * abs(expected_ll)


def first_e_step(model, seqs):
    """The statistics and log-likelihood of the first E-step of the shared
    EM route over `seqs` as one group, started from `model`."""
    m_step, seen = hmm._m_step, []

    def recorded(A, B, stats):
        seen.append({name: v[0] for name, v in stats.items()})
        return m_step(A, B, stats)

    with mock.patch.object(hmm, "random_model", lambda *_: model):
        with mock.patch.object(hmm, "_m_step", recorded):
            [(_, trace)] = hmm._baum_welch(
                [seqs], [0], model.n_hidden, model.n_obs, hmm.DEFAULT_TOL, 2
            )
    return seen[0], trace[0]


class TestEStep:
    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        repeats=st.integers(1, 3),
        budget=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_statistics_match_per_sequence_forward_backward(
        self, lengths, repeats, budget, seed
    ):
        rng = np.random.default_rng(seed)
        n, m = 3, 4
        model = random_model(n, m, seed=seed)
        lengths = rng.permutation(([1] + lengths) * repeats)
        seqs = [rng.integers(0, m, size=t) for t in lengths]
        with mock.patch.object(hmm, "BLOCK_SYMBOLS", budget):
            stats, ll = first_e_step(model, seqs)
        assert_matches_forward_backward(model, seqs, stats, ll)

    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 5)),
            min_size=1, max_size=5,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pass_over_single_length_groups(self, shapes, seed):
        # a length drawn twice makes two groups of equal length
        rng = np.random.default_rng(seed)
        n, m = 3, 4
        shapes = sorted(shapes + shapes[:1], key=lambda shape: -shape[0])
        groups = [
            [rng.integers(0, m, size=t) for _ in range(size)]
            for t, size in shapes
        ]
        models = [random_model(n, m, seed=seed + g) for g in range(len(groups))]
        stack = stack_models(models)
        stats, lls = hmm._e_step(
            hmm._ragged([s for g in groups for s in g]),
            [len(g) for g in groups], stack.A, stack.B, stack.pi,
        )
        for g, (model, seqs) in enumerate(zip(models, groups)):
            assert_matches_forward_backward(
                model, seqs, {name: v[g] for name, v in stats.items()}, lls[g]
            )

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
        repeats=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pass_over_one_mixed_length_group(self, lengths, repeats, seed):
        rng = np.random.default_rng(seed)
        n, m = 3, 4
        model = random_model(n, m, seed=seed)
        seqs = [
            rng.integers(0, m, size=t)
            for t in rng.permutation(lengths * repeats)
        ]
        # the layout takes its rows longest first
        stats, lls = hmm._e_step(
            hmm._ragged(sorted(seqs, key=len, reverse=True)), [len(seqs)],
            model.A[None], model.B[None], model.pi[None],
        )
        assert_matches_forward_backward(
            model, seqs, {name: v[0] for name, v in stats.items()}, lls[0]
        )

    def test_fit_holds_one_block_pass_of_alpha(self):
        # 19 blocks; the largest block's alpha is 1769 KiB.  Keeping the
        # previous block's pass alive while the next is built, or gathering
        # a whole block's emissions at once, each adds about one more alpha
        rng = np.random.default_rng(0)
        seqs = [
            StateSequence(rng.integers(0, 6, size=t))
            for t in rng.integers(1, 60, size=3000)
        ]
        n_hidden = 32
        # a first fit does the one-time work (lazy imports, about 1 MiB)
        # that would otherwise count towards the traced peak
        baum_welch_fit(seqs[:10], n_hidden, n_obs=6, seed=1, max_iters=2)
        with mock.patch.object(hmm, "BLOCK_SYMBOLS", 4096):
            blocks = [p[0] for p in hmm._passes([[s.symbols for s in seqs]])]
            assert len(blocks) == 19
            alpha_bytes = max(b.obs.size for b in blocks) * n_hidden * 8
            del blocks
            tracemalloc.start()
            try:
                baum_welch_fit(seqs, n_hidden, n_obs=6, seed=1, max_iters=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2.2 * alpha_bytes, (peak, alpha_bytes)

    def test_passes_cut_only_where_the_length_or_the_group_changes(self):
        rng = np.random.default_rng(0)
        same = [rng.integers(0, 3, size=7) for _ in range(50)]
        with mock.patch.object(hmm, "BLOCK_SYMBOLS", 10):
            passes = hmm._passes([same])
        assert [p[0].lengths.tolist() for p in passes] == [[7] * 50]

        lengths = rng.permutation(np.repeat([9, 5, 4, 2, 1], [3, 6, 1, 4, 5]))
        seqs = [rng.integers(0, 3, size=t) for t in lengths]
        with mock.patch.object(hmm, "BLOCK_SYMBOLS", 10):
            passes = hmm._passes([seqs])
        # one group over four passes: 27 symbols, 30, then 4 + 8 closing
        # past the budget, then the rest
        assert [p[0].lengths.tolist() for p in passes] == [
            [9] * 3, [5] * 6, [4, 2, 2, 2, 2], [1] * 5
        ]
        assert [p[1:] for p in passes] == [([3], 0), ([6], 0), ([5], 0),
                                           ([5], 0)]
        assert [len(p[0].lengths) for p in hmm._passes([seqs])] == [19]

        # single-length groups, longest first, packed whole: 27 symbols;
        # 5 left open at the change of group, closing at 15; then the rest
        shapes = [(9, 3), (5, 1), (5, 2), (2, 4), (1, 5)]
        groups = [
            [rng.integers(0, 3, size=t) for _ in range(size)]
            for t, size in shapes
        ]
        with mock.patch.object(hmm, "BLOCK_SYMBOLS", 10):
            passes = hmm._passes(groups)
        assert [(p[0].lengths.tolist(), *p[1:]) for p in passes] == [
            ([9] * 3, [3], 0), ([5] * 3, [1, 2], 1),
            ([2] * 4 + [1] * 5, [4, 5], 3),
        ]
        # each pass-group's rows, in input order, are contiguous: the
        # pass's obs holds them time-major
        np.testing.assert_array_equal(
            passes[1][0].obs, np.stack(groups[1] + groups[2]).T.ravel()
        )
        assert [len(p[0].lengths) for p in hmm._passes(groups)] == [15]

    @pytest.mark.parametrize("chunk", [hmm.COUNT_ENTRIES, 35])
    @pytest.mark.parametrize("G", [1, 4], ids=["one-group", "four-groups"])
    def test_emission_counts_equal_per_state_bincounts(self, G, chunk):
        # random weights into random bins of G stacked B.T, in no order; at
        # 35 entries the counts run over chunks of 7 symbols, the last one
        # short
        rng = np.random.default_rng(4)
        n, m = 5, 6
        rows = rng.integers(0, G * m, size=200)
        gamma = rng.random((rows.size, n))
        assert rows.size % 7
        with mock.patch.object(hmm, "COUNT_ENTRIES", chunk):
            got = hmm._emission_counts(rows, gamma, G, m)
        want = oracles.emission_counts(rows, gamma, G * m)
        np.testing.assert_array_equal(
            got, want.reshape(n, G, m).transpose(1, 0, 2)
        )


class TestDegenerateFits:
    """Fits started from a model under which some sequence is impossible
    raise DegenerateSequenceError at the first step where any of their
    sequences is, the step forward_backward names for it."""

    # no state ever leaves itself; no state emits symbol 3
    INIT = HmmModel(
        n_hidden=2, n_obs=4,
        A=np.eye(2),
        B=np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0]]),
        pi=np.array([0.5, 0.5]),
    )

    def first_impossible_step(self, seqs):
        steps = []
        for s in seqs:
            with pytest.raises(DegenerateSequenceError) as err:
                forward_backward(self.INIT, make_seq(s))
            steps.append(err.value.time_step)
        return min(steps)

    def init(self, n_hidden, n_obs, seed):
        return HmmModel(
            2, 4, self.INIT.A.copy(), self.INIT.B.copy(),
            self.INIT.pi.copy(), seed=seed,
        )

    @pytest.mark.parametrize("impossible, step", [
        ([[0, 1, 1, 2, 1], [0, 2, 2, 2, 2, 2]], 1),
        ([[0, 1, 1, 2, 1], [2, 2, 0]], 2),
        ([[0, 1, 1, 2, 1]], 3),
        ([[1, 3], [3, 1, 1]], 0),
    ])
    def test_baum_welch_fit(self, impossible, step):
        assert self.first_impossible_step(impossible) == step
        seqs = [make_seq(s) for s in [[1, 1, 1, 1], [2, 2]] + impossible]
        with mock.patch.object(hmm, "random_model", self.init):
            with pytest.raises(DegenerateSequenceError) as err:
                baum_welch_fit(seqs, 2, 4, seed=0)
        assert err.value.time_step == step

    @pytest.mark.parametrize("impossible, step", [
        ([[2, 2, 0, 1]], 2),
        ([[0, 1, 2], [1, 1, 1, 3]], 2),
        ([[3, 3], [0, 2, 1, 1]], 0),
    ])
    def test_fit_groups(self, impossible, step):
        assert self.first_impossible_step(impossible) == step
        groups = [[make_seq([1] * 5)], [make_seq([0, 1]), make_seq([2, 2])]]
        groups += [[make_seq(s)] for s in impossible]
        with mock.patch.object(hmm, "random_model", self.init):
            with pytest.raises(DegenerateSequenceError) as err:
                hmm.fit_groups(groups, list(range(len(groups))), 2, 4)
        assert err.value.time_step == step


class TestMStep:
    def test_floor_rows_equal_one_row_solves(self):
        rng = np.random.default_rng(3)
        m = 19
        weights = rng.random((300, m)) ** rng.uniform(1, 60, size=(300, 1))
        weights[::7, :5] = 0.0
        weights[::11] *= 1e-12
        weights[4] = 0.0
        got = hmm._floor_rows(weights, hmm.EMISSION_FLOOR)
        pins = []
        for row, out in zip(weights, got):
            want = oracles.floor_row(row, hmm.EMISSION_FLOOR)
            np.testing.assert_array_equal(out, want)
            pins.append(int((want == hmm.EMISSION_FLOOR).sum()))
        # rows that do not pin, and rows that pin over one and several rounds
        assert min(pins) == 0 and max(pins) >= 10 and len(set(pins)) > 5

    def test_stacked_m_step_equals_one_model_at_a_time(self):
        rng = np.random.default_rng(8)
        n, m = 4, 6
        models = [random_model(n, m, seed=s) for s in range(3)]
        # state 3 of model 1 never starts, moves or emits: its rows stay
        models[1].pi[3] = 0.0
        models[1].pi /= models[1].pi.sum()
        models[1].A[:, 3] = 0.0
        models[1].A /= models[1].A.sum(axis=1, keepdims=True)
        stats = []
        for model in models:
            seqs = [rng.integers(0, m, size=7) for _ in range(5)]
            stats.append(first_e_step(model, seqs)[0])
        A, B, pi = hmm._m_step(
            np.stack([model.A for model in models]),
            np.stack([model.B for model in models]),
            {name: np.stack([s[name] for s in stats]) for name in stats[0]},
        )
        assert stats[1]["b_den"][3] == 0.0
        for g, (model, s) in enumerate(zip(models, stats)):
            want = hmm._m_step(model.A, model.B, s)
            for got_arr, want_arr in zip((A[g], B[g], pi[g]), want):
                np.testing.assert_array_equal(got_arr, want_arr)
            for j in range(n):
                if s["b_den"][j] > 0.0:
                    want_row = oracles.floor_row(
                        s["b_num"][j], hmm.EMISSION_FLOOR
                    )
                    np.testing.assert_array_equal(B[g, j], want_row)
                else:
                    np.testing.assert_array_equal(B[g, j], model.B[j])

    def test_no_subnormal_entry_leaves_a_fit(self):
        # the standard corpus' length-8 sessions: unflushed, their M-steps
        # yield subnormal A entries after about 20 iterations
        data = standard_benchmark(n_train=10_000, n_test=0)
        group = [s for s in data.train if len(s) == 8]
        tiny = np.finfo(float).tiny
        m_step, flushed = hmm._m_step, []

        def checked(A, B, stats):
            out = m_step(A, B, stats)
            with mock.patch.object(hmm, "_TINY", 0.0):
                raw = m_step(A, B, stats)
            for got, want in zip(out, raw):
                np.testing.assert_array_equal(
                    got, np.where(want < tiny, 0.0, want)
                )
                flushed.append(int(((want > 0.0) & (want < tiny)).sum()))
            return out

        with mock.patch.object(hmm, "_m_step", checked):
            model, trace = baum_welch_fit(group, 10, 19, seed=11 ^ 8, tol=1e-5)
        assert sum(flushed) > 0
        # the unflushed fit takes the same likelihood steps
        with mock.patch.object(hmm, "_TINY", 0.0):
            _, raw_trace = baum_welch_fit(group, 10, 19, seed=11 ^ 8, tol=1e-5)
        assert raw_trace == trace
        for arr in (model.A, model.B, model.pi):
            assert not ((arr > 0.0) & (arr < tiny)).any()

    def test_kept_rows_and_pi_lose_their_subnormal_entries(self):
        # one model on a leading axis: state 1 neither moves nor emits, so
        # its A and B rows are kept, and pi renormalizes to a subnormal
        A = np.array([[[0.5, 0.5], [1.0, 3e-310]]])
        B = np.array([[[0.5, 0.5], [1.0, 2e-315]]])
        stats = {
            "pi": np.array([[1.0, 1e-312]]),
            "a_num": np.array([[[2.0, 6e-310], [0.0, 0.0]]]),
            "b_num": np.array([[[3.0, 1.0], [0.0, 0.0]]]),
            "b_den": np.array([[4.0, 0.0]]),
        }
        A, B, pi = hmm._m_step(A, B, stats)
        np.testing.assert_array_equal(A, [[[1.0, 0.0], [1.0, 0.0]]])
        np.testing.assert_array_equal(B[0, 1], [1.0, 0.0])
        np.testing.assert_array_equal(B[0, 0], [0.75, 0.25])
        np.testing.assert_array_equal(pi, [[1.0, 0.0]])


class TestFitGroups:
    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 30), st.integers(1, 20)),
            min_size=1, max_size=5,
        ),
        n_hidden=st.integers(1, 4),
        max_iters=st.integers(1, 15),
        tol=st.sampled_from([1e-1, 1e-2, 1e-3]),
        budget=st.sampled_from([1, 40, 150, hmm.BLOCK_SYMBOLS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_group_equals_its_own_fit(
        self, shapes, n_hidden, max_iters, tol, budget, seed
    ):
        # small budgets spread the groups over several passes
        rng = np.random.default_rng(seed)
        m = 4
        groups = [
            [StateSequence(rng.integers(0, m, size=n)) for _ in range(size)]
            for n, size in shapes
        ]
        seeds = rng.integers(0, 2**31, size=len(groups)).tolist()
        with mock.patch.object(hmm, "BLOCK_SYMBOLS", budget):
            fits = hmm.fit_groups(groups, seeds, n_hidden, m, tol, max_iters)
        for group, group_seed, (model, trace) in zip(groups, seeds, fits):
            want, want_trace = baum_welch_fit(
                group, n_hidden, m, group_seed, tol, max_iters
            )
            assert trace == want_trace
            np.testing.assert_array_equal(model.A, want.A)
            np.testing.assert_array_equal(model.B, want.B)
            np.testing.assert_array_equal(model.pi, want.pi)
            assert model.seed == want.seed

    def test_groups_leave_at_different_iterations(self):
        rng = np.random.default_rng(5)
        shapes = [(30, 3), (2, 20), (12, 6), (5, 1), (12, 9)]
        groups = [
            [StateSequence(rng.integers(0, 4, size=n)) for _ in range(size)]
            for n, size in shapes
        ]
        seeds = [11, 12, 13, 14, 15]
        fits = hmm.fit_groups(groups, seeds, 3, 4, tol=1e-2, max_iters=40)
        # three groups converge, at iterations 10, 30 and 35; two are capped
        assert [len(trace) for _, trace in fits] == [30, 35, 40, 10, 40]
        for group, seed, (model, trace) in zip(groups, seeds, fits):
            want, want_trace = baum_welch_fit(group, 3, 4, seed, 1e-2, 40)
            assert trace == want_trace
            np.testing.assert_array_equal(model.B, want.B)

    def test_holds_one_pass_of_alpha(self):
        # 10 single-length groups in 6 passes; the largest pass's alpha is
        # 1800 KiB.  One pass over every live group held 5.2 times that
        rng = np.random.default_rng(1)
        groups = [
            [StateSequence(rng.integers(0, 6, size=t)) for _ in range(60)]
            for t in range(8, 88, 8)
        ]
        seeds = list(range(len(groups)))
        n_hidden = 32
        # one-time work off the peak, as in the one-group test above
        hmm.fit_groups(groups[:2], seeds[:2], n_hidden, 6, max_iters=2)
        with mock.patch.object(hmm, "BLOCK_SYMBOLS", 4096):
            blocks = [p[0] for p in hmm._passes(
                [[s.symbols for s in g] for g in reversed(groups)]
            )]
            assert len(blocks) == 6
            alpha_bytes = max(b.obs.size for b in blocks) * n_hidden * 8
            del blocks
            tracemalloc.start()
            try:
                hmm.fit_groups(groups, seeds, n_hidden, 6, max_iters=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2.2 * alpha_bytes, (peak, alpha_bytes)

    def test_rejects_mixed_lengths_and_missing_seeds(self):
        group = [make_seq([0, 1]), make_seq([1, 0, 1])]
        with pytest.raises(DomainError):
            hmm.fit_groups([group], [0], 2, 2)
        with pytest.raises(DomainError):
            hmm.fit_groups([group[:1]], [], 2, 2)


class TestPredictNext:
    def test_forced_by_deterministic_transitions(self, alternating_model):
        symbol, scores = predict_next(alternating_model, make_seq([0, 1, 0]))
        assert symbol == 1
        assert scores[1] == pytest.approx(0.0, abs=1e-12)
        assert scores[0] == -math.inf

    def test_uniform_model_tie_breaks_low(self, uniform_model):
        symbol, scores = predict_next(uniform_model, make_seq([2, 0, 3]))
        assert symbol == 0
        assert np.allclose(scores, scores[0])

    def test_matches_brute_force_rescoring(self):
        for case in range(100):
            model = random_model(3, 4, seed=200 + case)
            prefix = draw(model, 5, seed=300 + case)
            symbol, _ = predict_next(model, prefix)
            expected = oracles.brute_force_predict(
                lambda ext: score(model, StateSequence(ext)),
                prefix.symbols,
                model.n_obs,
            )
            assert symbol == expected

    def test_scores_are_appended_log_likelihoods(self):
        model = random_model(2, 3, seed=55)
        prefix = make_seq([0, 1, 2])
        _, scores = predict_next(model, prefix)
        for k in range(3):
            full = score(model, make_seq([0, 1, 2, k]))
            assert scores[k] == pytest.approx(full, abs=1e-10)

    def test_streaming_matches_pointwise(self):
        model = random_model(4, 5, seed=13)
        seq = draw(model, 20, seed=14)
        stream = predict_points([model], [seq.symbols])[:, 0]
        for t in range(1, len(seq)):
            point, _ = predict_next(model, StateSequence(seq.symbols[:t]))
            assert stream[t - 1] == point

    def test_batch_matches_streaming(self):
        model = random_model(3, 4, seed=21)
        rng = np.random.default_rng(0)
        obs = sample_batch(model, np.full(6, 9), rng)
        batch = predict_points([model], obs)[:, 0].reshape(6, 8)
        for i in range(len(obs)):
            np.testing.assert_array_equal(
                batch[i], predict_points([model], [obs[i]])[:, 0]
            )

    def test_ties_go_to_the_lowest_symbol_like_the_kernel(self):
        # the length-9 specialist of this corpus gives symbols 3 and 4 equal
        # next-symbol probabilities; log scores used to hide a last-bit
        # difference the kernel's probabilities keep
        data = standard_benchmark(10_000, 2_000, 28)
        config = standard_config()
        model, _ = baum_welch_fit(
            [s for s in data.train if len(s) == 9], n_hidden=config.n_hidden,
            n_obs=config.n_obs, seed=config.base_seed ^ 9, tol=config.tol,
            max_iters=config.max_iters,
        )
        test = [s for s in data.test if len(s) <= 30][:300]
        points = predict_points([model], [s.symbols for s in test])[:, 0]
        offsets = point_offsets([len(s) for s in test], 1)
        for i, s in enumerate(test):
            got = [
                predict_next(model, StateSequence(s.symbols[:t]))[0]
                for t in range(1, len(s))
            ]
            np.testing.assert_array_equal(
                got, points[offsets[i]: offsets[i + 1]]
            )


class TestPredictPoints:
    def test_canonical_order_and_stride(self):
        models = [random_model(3, 4, seed=s) for s in (1, 2)]
        rng = np.random.default_rng(5)
        seqs = [rng.integers(0, 4, size=n) for n in (3, 7, 1, 7, 2)]
        got = predict_points(models, seqs, stride=2)
        offsets = point_offsets([s.size for s in seqs], 2)
        np.testing.assert_array_equal(offsets, [0, 1, 4, 4, 7, 8])
        for i, s in enumerate(seqs):
            for j, t in enumerate(range(1, s.size, 2)):
                for k, m in enumerate(models):
                    expected, _ = predict_next(m, StateSequence(s[:t]))
                    assert got[offsets[i] + j, k] == expected

    def test_zero_row_sum_raises_with_its_step(self):
        model = HmmModel(
            n_hidden=2, n_obs=3,
            A=np.array([[0.0, 1.0], [1.0, 0.0]]),
            B=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            pi=np.array([1.0, 0.0]),
        )
        seqs = [np.array([0, 1, 0, 1, 0]), np.array([0, 1, 1, 0])]
        with pytest.raises(DegenerateSequenceError) as err:
            predict_points([model], seqs)
        assert err.value.time_step == 2
        with pytest.raises(DegenerateSequenceError):
            predict_next_all(stack_models([model]), StateSequence(seqs[1]))

    def test_models_of_different_shapes(self):
        seqs = [np.array([0, 1, 2, 1]), np.array([2, 0])]
        prefix = StateSequence(seqs[0])
        # n_hidden differs, then n_obs
        for shapes in ([(2, 3), (3, 3), (2, 3)], [(2, 3), (2, 4)]):
            models = [random_model(n, m, seed)
                      for seed, (n, m) in enumerate(shapes)]
            with pytest.raises(DomainError, match="different"):
                stack_models(models)
            with pytest.raises(DomainError, match="different"):
                predict_points(models, seqs)
            # the models of each shape stack and predict
            for shape in set(shapes):
                alike = [m for m, sh in zip(models, shapes) if sh == shape]
                np.testing.assert_array_equal(
                    predict_next_all(stack_models(alike), prefix),
                    [predict_next(m, prefix)[0] for m in alike],
                )

    def test_narrowest_dtype_that_holds_every_symbol(self):
        rng = np.random.default_rng(8)
        seqs = [rng.integers(0, 300, size=n) for n in (9, 4, 12)]
        models = [random_model(3, 300, seed=s) for s in (1, 2)]
        # the symbols reversed, so that it predicts symbols above 255
        models[0].B = models[0].B[:, ::-1].copy()
        got = predict_points(models, seqs)
        assert got.dtype == np.uint16
        assert (got > 255).any()         # values uint8 would wrap
        offsets = point_offsets([s.size for s in seqs], 1)
        for i, s in enumerate(seqs):
            for t in range(1, s.size):
                prefix = StateSequence(s[:t])
                expected = [predict_next(m, prefix)[0] for m in models]
                np.testing.assert_array_equal(
                    got[offsets[i] + t - 1], expected
                )
        for n_obs in (19, 256):
            small = [random_model(3, n_obs, seed=s) for s in (3, 4)]
            got = predict_points(small, [s % 19 for s in seqs])
            assert got.dtype == np.uint8

    def test_memory_is_the_result_plus_the_layout(self):
        # the (P, K) result at one byte per entry; the layout and the
        # longest-first concatenation it is filled from, two int64 per
        # symbol; and a third int64 per symbol of slack for the
        # per-sequence arrays and the ROW_BLOCK working arrays
        rng = np.random.default_rng(4)
        seqs = [
            rng.integers(0, 19, size=t)
            for t in rng.integers(2, 120, size=4000)
        ]
        models = [random_model(3, 19, seed=s) for s in range(4)]
        predict_points(models, seqs[:10])    # one-time work off the peak
        tracemalloc.start()
        try:
            got = predict_points(models, seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.dtype == np.uint8
        symbols = sum(s.size for s in seqs)
        assert peak <= got.nbytes + 3 * 8 * symbols, (peak, got.nbytes)

    def test_memory_is_bounded_by_a_block(self):
        # from 2 to 8 blocks of sessions of one length, the traced peak less
        # the result grows only by per-session arrays, three int64 each
        # (0.36 of one block's layout); a layout of the whole corpus, with
        # the concatenation it is filled from, would add 12 blocks' layouts
        length = 50
        block_layout = hmm.ROW_BLOCK * length * 8
        rng = np.random.default_rng(5)
        models = [random_model(2, 5, seed=s) for s in range(2)]
        predict_points(models, [rng.integers(0, 5, size=length)] * 10)
        above = []
        for blocks in (2, 8):
            seqs = [
                rng.integers(0, 5, size=length)
                for _ in range(blocks * hmm.ROW_BLOCK)
            ]
            tracemalloc.start()
            try:
                got = predict_points(models, seqs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            above.append(peak - got.nbytes)
        assert abs(above[1] - above[0]) <= 0.5 * block_layout, above

    def test_state_sums_equal_numpy_sums_bit_for_bit(self):
        rng = np.random.default_rng(12)
        orders_differ = 0
        for n in range(1, 301):
            # terms over 16 decades, so the order of the additions shows
            x = rng.random((2, 7, n)) * 10.0 ** rng.integers(-8, 8, (2, 7, n))
            want = x.sum(axis=-1)
            states = np.ascontiguousarray(x.transpose(0, 2, 1))
            assert hmm._state_sums(states).tobytes() == want.tobytes(), n
            one_by_one = states[:, 0].copy()
            for i in range(1, n):
                one_by_one += states[:, i]
            orders_differ += one_by_one.tobytes() != want.tobytes()
        # the data tell numpy's pairwise order from a running sum
        assert orders_differ > 250

    def test_same_bytes_at_one_and_two_blas_threads(self):
        # N=32 makes each block's products large enough for OpenBLAS to
        # split them over two threads; N=10 is the standard shape
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from fhmm.hmm import predict_points, random_model\n"
            "rng = np.random.default_rng(3)\n"
            "seqs = [rng.integers(0, 19, size=t)\n"
            "        for t in rng.integers(2, 30, size=1500)]\n"
            "for n, seeds in ((32, (32, 33)), (10, (10,))):\n"
            "    models = [random_model(n, 19, seed=s) for s in seeds]\n"
            "    got = predict_points(models, seqs).tobytes()\n"
            "    sys.stdout.buffer.write(got)\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ, OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
            )
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(hmm.__file__).parents[1]), env.get("PYTHONPATH", "")]
            )
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, timeout=300,
            ).stdout)
        assert len(outputs[0]) > 0
        assert outputs[0] == outputs[1]

    def test_stacks_copy_the_models_bit_for_bit(self):
        tiny = np.finfo(np.float64).tiny
        models = [random_model(3, 4, seed=s) for s in (1, 2)]
        models[0].A[0, 1] = 5e-324
        models[0].A[1, 2] = tiny
        models[0].pi[1] = 1e-310
        models[1].B[2, 3] = 1e-320
        models[1].B[0, 0] = tiny
        models[1].pi[0] = tiny
        before = [(m.A.copy(), m.B.copy(), m.pi.copy()) for m in models]
        stack = stack_models(models)
        for k, (A, B, pi) in enumerate(before):
            for got, kept in ((stack.A[k], A), (stack.B[k], B),
                              (stack.E[:, k], B.T), (stack.pi[k], pi)):
                assert got.tobytes() == np.ascontiguousarray(kept).tobytes()
            # copies: the models keep every bit, and writing to the stacks
            # reaches no model
            for got, kept in zip((models[k].A, models[k].B, models[k].pi),
                                 (A, B, pi)):
                assert got.tobytes() == kept.tobytes()
        for arr in (stack.A, stack.B, stack.E, stack.pi):
            arr[...] = 0.0
        for m, (A, B, pi) in zip(models, before):
            for got, kept in zip((m.A, m.B, m.pi), (A, B, pi)):
                assert got.tobytes() == kept.tobytes()

    def test_prefix_reachable_only_through_a_subnormal_predicts(self):
        # state 1 is entered only through A[0, 1] = 5e-324, and only state 1
        # emits symbol 1
        model = HmmModel(
            n_hidden=2, n_obs=2,
            A=np.array([[1.0, 5e-324], [0.0, 1.0]]),
            B=np.array([[1.0, 0.0], [0.0, 1.0]]),
            pi=np.array([1.0, 0.0]),
        )
        prefix = StateSequence(np.array([0, 1]))
        # the row sum at step 1 is 5e-324, whose reciprocal overflows; no
        # path meets a floating-point warning on it
        with np.errstate(all="raise"):
            assert predict_next(model, prefix)[0] == 1
            assert score(model, prefix) == pytest.approx(
                math.log(5e-324), abs=1e-9
            )
            np.testing.assert_array_equal(
                predict_points([model], [np.array([0, 1, 1])]), [[0], [1]]
            )
            np.testing.assert_array_equal(
                predict_next_all(stack_models([model]), prefix), [1]
            )
        # the posteriors are degenerate there
        with pytest.raises(DegenerateSequenceError) as err:
            forward_backward(model, prefix)
        assert err.value.time_step == 1

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 4),
        n_hidden=st.integers(1, 12),
        lengths=st.lists(st.integers(2, 40), min_size=1, max_size=6),
        repeats=st.integers(1, 3),
        stride=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        planted=st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 2**16),
                st.sampled_from([5e-324, 1e-310, np.finfo(np.float64).tiny]),
            ),
            max_size=4,
        ),
    )
    def test_matches_predict_next_at_every_point(
        self, k, n_hidden, lengths, repeats, stride, seed, planted
    ):
        # up to 12 states, so the row sums take both numpy's one-by-one
        # order (below 8 states) and its unrolled one
        n_obs = 5
        rng = np.random.default_rng(seed)
        models = [random_model(n_hidden, n_obs, seed=seed + i) for i in range(k)]
        # values at and below the smallest normal float anywhere in A, B and
        # pi, diagonals and pi[0] included, so a prefix may become possible
        # only through such a value, or impossible where it underflows
        for i, pos, value in planted:
            m = models[i % k]
            pos %= m.A.size + m.B.size + m.pi.size
            for arr in (m.A, m.B, m.pi):
                if pos < arr.size:
                    arr.flat[pos] = value
                    break
                pos -= arr.size
        lengths = rng.permutation(lengths * repeats)
        seqs = [rng.integers(0, n_obs, size=n) for n in lengths]

        def outcome(call):
            try:
                return call()
            except DegenerateSequenceError as err:
                return ("degenerate", err.time_step)

        def first_degenerate(outcomes):
            steps = [o[1] for o in outcomes if isinstance(o, tuple)]
            return ("degenerate", min(steps)) if steps else None

        stack = stack_models(models)
        rows, raised = [], []
        for s in seqs:
            points = range(1, s.size, stride)
            for m in models:
                # predict_points runs the forward pass over the whole
                # sequence, so it raises where `score` over it does, and
                # otherwise predicts as predict_next at every point
                got = outcome(
                    lambda: predict_points([m], [s], stride)[:, 0].tolist()
                )
                whole = outcome(lambda: score(m, StateSequence(s)))
                if isinstance(whole, tuple):
                    assert got == whole
                    raised.append(whole)
                else:
                    assert got == [
                        predict_next(m, StateSequence(s[:t]))[0] for t in points
                    ]
            for t in points:
                prefix = StateSequence(s[:t])
                expected = [
                    outcome(lambda: predict_next(m, prefix)[0]) for m in models
                ]
                got = outcome(lambda: predict_next_all(stack, prefix).tolist())
                assert got == (first_degenerate(expected) or expected)
                rows.append(expected)
        # all models over all sequences at once: the first step any of them
        # raises at, or every model's predictions side by side
        got = outcome(lambda: predict_points(models, seqs, stride))
        if raised:
            assert got == min(raised)
            return
        np.testing.assert_array_equal(got, rows)
        assert got.shape == (point_offsets(lengths, stride)[-1], k)
        with mock.patch.object(hmm, "ROW_BLOCK", 2):
            np.testing.assert_array_equal(
                predict_points(models, seqs, stride), got
            )


PLANTED = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "pi"]), st.integers(0, 10**6),
        st.sampled_from([5e-324, 1e-310, np.finfo(np.float64).tiny,
                         2 * np.finfo(np.float64).tiny]),
    ),
    max_size=6,
)


class TestStackedStep:
    """The buffered forward step behind predict_next_all, score,
    predict_next and forward_backward against the per-step loops it
    replaced (oracles.stacked_alpha_loop and oracles.forward_loop)."""

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 4),
        n_hidden=st.integers(1, 12),
        n_obs=st.integers(1, 5),
        length=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        planted=PLANTED,
        dead=st.booleans(),
    )
    def test_equals_the_per_step_loop_bit_for_bit(
        self, k, n_hidden, n_obs, length, seed, planted, dead
    ):
        # up to 12 states, so the row sums take both numpy's one-by-one
        # order (below 8 states) and its unrolled one
        rng = np.random.default_rng(seed)
        models = [random_model(n_hidden, n_obs, seed=seed + i)
                  for i in range(k)]
        # subnormal entries and the two smallest normal ones, all of which
        # make alpha entries subnormal
        for i, (name, pos, value) in enumerate(planted):
            arr = getattr(models[i % k], name)
            arr.flat[pos % arr.size] = value
        if dead:
            # a symbol the last model cannot emit: a prefix holding it is
            # degenerate from its first occurrence on
            models[-1].B[:, n_obs - 1] = 0.0
        stack = stack_models(models)
        obs = rng.integers(0, n_obs, size=length)
        try:
            alphas, sums = oracles.stacked_alpha_loop(
                stack.A, stack.B, stack.pi, obs
            )
        except DegenerateSequenceError as err:
            for history in (False, True):
                with pytest.raises(DegenerateSequenceError) as got:
                    hmm._stacked_alpha(stack, obs, history)
                assert got.value.time_step == err.time_step
            return
        # the last step's alpha alone, or every step's
        for history, want in ((False, alphas[-1:]), (True, alphas)):
            H, S = hmm._stacked_alpha(stack, obs, history)
            assert H.shape == want.shape
            assert H.tobytes() == want.tobytes()
            assert S.shape == (length, k, 1)
            assert S.tobytes() == sums.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n_hidden=st.integers(1, 12),
        n_obs=st.integers(1, 5),
        length=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        planted=PLANTED,
        dead=st.booleans(),
    )
    def test_one_model_paths_equal_the_forward_loop_bit_for_bit(
        self, n_hidden, n_obs, length, seed, planted, dead
    ):
        model = random_model(n_hidden, n_obs, seed=seed)
        for name, pos, value in planted:
            arr = getattr(model, name)
            arr.flat[pos % arr.size] = value
        if dead:
            model.B[:, n_obs - 1] = 0.0
        rng = np.random.default_rng(seed)
        seq = StateSequence(rng.integers(0, n_obs, size=length))
        paths = (score, predict_next, forward_backward)
        try:
            alpha, scale, ll = oracles.forward_loop(
                model.A, model.B, model.pi, seq.symbols
            )
        except DegenerateSequenceError as err:
            for path in paths:
                with pytest.raises(DegenerateSequenceError) as got:
                    path(model, seq)
                assert got.value.time_step == err.time_step
            return
        assert score(model, seq).hex() == ll.hex()
        probs = (alpha[-1] @ model.A) @ model.B
        with np.errstate(divide="ignore"):
            scores = ll + np.log(probs)
        symbol, got = predict_next(model, seq)
        assert symbol == int(np.argmax(probs))
        assert got.tobytes() == scores.tobytes()
        # the posteriors are degenerate from a subnormal row sum on, whose
        # reciprocal exceeds 1/tiny
        subnormal = np.flatnonzero(scale > 1.0 / np.finfo(np.float64).tiny)
        if subnormal.size:
            with pytest.raises(DegenerateSequenceError) as err:
                forward_backward(model, seq)
            assert err.value.time_step == subnormal[0]
            return
        ws = forward_backward(model, seq)
        assert ws.alpha.tobytes() == alpha.tobytes()
        assert ws.scale.tobytes() == scale.tobytes()
        assert ws.log_likelihood.hex() == ll.hex()

    def test_holds_no_per_step_arrays(self):
        K, N, M, T = 16, 10, 10, 300
        models = [random_model(N, M, seed=s) for s in range(K)]
        stack = stack_models(models)
        prefix = StateSequence(np.random.default_rng(0).integers(0, M, T))

        def peak(call):
            call()                           # one-time work off the peak
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # half of one (T, K, N) float64 array, such as a gather of every
        # step's emissions; the step's buffers and sums are far below it
        got = peak(lambda: predict_next_all(stack, prefix))
        assert got < T * K * N * 8 / 2, got
        # on a one-model stack of 4N states, half of its (T, 4N) alpha
        # history, which only forward_backward holds; the per-step sums and
        # symbols, one number each, are far below it
        one = random_model(4 * N, M, seed=K)
        history = T * 4 * N * 8
        for call in (lambda: score(one, prefix),
                     lambda: predict_next(one, prefix)):
            got = peak(call)
            assert got < history / 2, got
        got = peak(lambda: forward_backward(one, prefix))
        assert got >= history, got


class TestSample:
    def test_deterministic_generator_sequence(self, alternating_model):
        seq = draw(alternating_model, 4, seed=0)
        np.testing.assert_array_equal(seq.symbols, [0, 1, 0, 1])

    def test_same_seed_same_sequence(self):
        model = random_model(3, 5, seed=4)
        a = draw(model, 25, seed=99)
        b = draw(model, 25, seed=99)
        np.testing.assert_array_equal(a.symbols, b.symbols)

    def test_empirical_frequencies_near_stationary(self):
        A = np.array([[0.8, 0.2], [0.3, 0.7]])
        B = np.array([[0.9, 0.1, 0.0], [0.1, 0.1, 0.8]])
        stationary = oracles.stationary_distribution(A)
        model = HmmModel(n_hidden=2, n_obs=3, A=A, B=B, pi=stationary)
        rng = np.random.default_rng(123)
        seqs = sample_batch(model, np.full(10_000, 20), rng)
        counts = np.bincount(np.concatenate(seqs), minlength=3)
        empirical = counts / counts.sum()
        expected = stationary @ B
        assert np.abs(empirical - expected).max() < 0.02

    def test_length_validation(self):
        model = random_model(2, 2, seed=0)
        with pytest.raises(DomainError):
            sample_batch(model, np.array([3, 0]), np.random.default_rng(0))


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = random_model(4, 7, seed=31)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(model.A, loaded.A)
        assert np.array_equal(model.B, loaded.B)
        assert np.array_equal(model.pi, loaded.pi)
        assert (model.n_hidden, model.n_obs, model.seed) == (
            loaded.n_hidden, loaded.n_obs, loaded.seed,
        )
        prefix = make_seq([0, 3, 2, 6, 1])
        s1, sc1 = predict_next(model, prefix)
        s2, sc2 = predict_next(loaded, prefix)
        assert s1 == s2
        assert np.array_equal(sc1, sc2)

    def test_doc_floats_have_full_precision(self):
        model = random_model(2, 2, seed=1)
        doc = model_to_doc(model)
        reread = model_from_doc(doc)
        assert np.array_equal(model.A, reread.A)
        assert all(isinstance(v, str) for row in doc["a"] for v in row)

    def test_damaged_file_raises_domain_error_naming_it(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(random_model(2, 3, seed=1), path)
        text = path.read_text()
        for damaged in (text[: len(text) // 2], "not json", "[1, 2]"):
            path.write_text(damaged)
            with pytest.raises(DomainError, match="model.json"):
                load_model(path)
        # a missing file stays an I/O failure
        path.unlink()
        with pytest.raises(FileNotFoundError):
            load_model(path)

    def test_schema_mismatch_rejected(self):
        model = random_model(2, 2, seed=1)
        doc = model_to_doc(model)
        doc["schema"] = "something-else"
        with pytest.raises(DomainError):
            model_from_doc(doc)
