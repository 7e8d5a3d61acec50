import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhmm.errors import DomainError, SelectionError
from fhmm.partition import (
    FrequencyArray,
    build_plan,
    dissimilarity_matrix,
    frequency_array,
    group_by_length,
    plan_to_doc,
    project_2d,
    select_k,
)

from conftest import make_seq
import oracles


def _sessions_from_lists(lists):
    return [make_seq(sym, f"s{i}") for i, sym in enumerate(lists)]


class TestGroupByLength:
    def test_direct_bucketing(self):
        sessions = _sessions_from_lists([[0], [0, 1], [1, 0]])
        groups = dict(
            (length, [s.session_id for s in seqs])
            for length, seqs in group_by_length(sessions)
        )
        assert groups == {1: ["s0"], 2: ["s1", "s2"]}

    def test_counts_sum_to_input_size(self):
        # session count mirrors the scale of a real honeypot corpus
        rng = np.random.default_rng(0)
        lengths = rng.geometric(0.08, size=22_499) + 1
        sessions = [
            make_seq(rng.integers(0, 4, size=length), f"c{i}")
            for i, length in enumerate(lengths)
        ]
        groups = group_by_length(sessions)
        assert sum(len(seqs) for _, seqs in groups) == 22_499

    def test_no_empty_groups(self):
        sessions = _sessions_from_lists([[0, 1], [1, 0], [0, 1, 0, 1]])
        lengths = [length for length, _ in group_by_length(sessions)]
        assert lengths == [2, 4]

    @given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=9),
                    min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_partition_exhaustive_and_disjoint(self, lists):
        sessions = _sessions_from_lists(lists)
        groups = group_by_length(sessions)
        seen = [s.session_id for _, seqs in groups for s in seqs]
        assert sorted(seen) == sorted(s.session_id for s in sessions)
        assert len(set(seen)) == len(seen)
        for length, seqs in groups:
            assert all(len(s) == length for s in seqs)


class TestFrequencyArray:
    def test_hand_count(self):
        fa = frequency_array(_sessions_from_lists([[0, 0, 1, 1]]), n_obs=4)
        np.testing.assert_allclose(fa.probs, [0.5, 0.5, 0, 0])
        assert fa.support == 1

    def test_scale_invariance(self):
        one = frequency_array(_sessions_from_lists([[0, 1, 2]]), n_obs=3)
        two = frequency_array(
            _sessions_from_lists([[0, 1, 2], [0, 1, 2]]), n_obs=3
        )
        np.testing.assert_allclose(one.probs, two.probs)

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(9)
        group = _sessions_from_lists([rng.integers(0, 5, size=7) for _ in range(11)])
        fa = frequency_array(group, n_obs=5)
        expected = oracles.count_frequency([s.symbols for s in group], 5)
        np.testing.assert_allclose(fa.probs, expected, atol=1e-12)
        assert fa.probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestDissimilarity:
    def test_identical_arrays_zero(self):
        fa = FrequencyArray(2, np.array([0.25, 0.75]), 4)
        fb = FrequencyArray(3, np.array([0.25, 0.75]), 4)
        d = dissimilarity_matrix([fa, fb])
        assert d[0, 1] == 0.0

    def test_one_hot_distance(self):
        e0 = FrequencyArray(2, np.array([1.0, 0.0, 0.0]), 1)
        e1 = FrequencyArray(3, np.array([0.0, 1.0, 0.0]), 1)
        d = dissimilarity_matrix([e0, e1])
        assert d[0, 1] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_matches_double_loop_oracle(self):
        G, M = 60, 19
        rng = np.random.default_rng(4)
        arrays = []
        for i in range(G):
            p = rng.random(M)
            arrays.append(FrequencyArray(i + 2, p / p.sum(), 3))
        dissimilarity_matrix(arrays[:2])     # one-time work off the peak
        tracemalloc.start()
        try:
            d = dissimilarity_matrix(arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result and the bytes of eight (G, M) arrays (the stacked
        # inputs, one row's differences, the per-array views), a fifth of
        # one (G, G, M) difference cube
        assert peak <= d.nbytes + 8 * G * M * 8, peak
        expected = oracles.pairwise_euclidean([fa.probs for fa in arrays])
        assert np.abs(d - expected).max() < 1e-12
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), np.zeros(G))

    def test_mismatched_alphabets_rejected(self):
        fa = FrequencyArray(2, np.array([1.0, 0.0]), 1)
        fb = FrequencyArray(3, np.array([0.5, 0.25, 0.25]), 1)
        with pytest.raises(DomainError):
            dissimilarity_matrix([fa, fb])


def _plan_inputs(lists_by_length):
    """lists_by_length: {length: list of symbol lists}."""
    sessions = []
    i = 0
    for length in sorted(lists_by_length):
        for sym in lists_by_length[length]:
            assert len(sym) == length
            sessions.append(make_seq(sym, f"p{i}"))
            i += 1
    groups = group_by_length(sessions)
    fas = [frequency_array(seqs, 3) for _, seqs in groups]
    return fas, dissimilarity_matrix(fas)


class TestSelectK:
    def test_selects_all_when_k_equals_group_count(self):
        fas, d = _plan_inputs({
            2: [[0, 1]] * 3, 3: [[2, 2, 2]] * 2, 4: [[0, 0, 1, 2]] * 4,
        })
        plan = select_k(fas, d, k=3, min_support=1)
        assert sorted(plan.selected_lengths) == [2, 3, 4]
        assert plan.coverage == pytest.approx(1.0)
        assert sorted(plan.ranks.values()) == [0, 1, 2]

    def test_duplicate_arrays_prefer_distant_then_support(self):
        # lengths 2 and 4 share identical frequency arrays; length 6 is far
        fas, d = _plan_inputs({
            2: [[0, 1]] * 5, 4: [[0, 1, 0, 1]] * 3, 6: [[2] * 6] * 2,
        })
        plan = select_k(fas, d, k=2, min_support=1)
        assert plan.selected_lengths == [2, 6]

    def test_seeded_at_distant_group_picks_higher_support_duplicate(self):
        fas, d = _plan_inputs({
            2: [[0, 1]] * 5, 4: [[0, 1, 0, 1]] * 3, 6: [[2] * 6] * 9,
        })
        plan = select_k(fas, d, k=2, min_support=1)
        assert plan.selected_lengths == [6, 2]

    def test_long_tail_corpus_selects_short_and_long(self):
        rng = np.random.default_rng(3)
        sessions = []
        i = 0
        # short high-support groups with one symbol profile,
        # sparse long groups with a different one
        for length in range(2, 14):
            for _ in range(120 - 8 * length):
                sessions.append(make_seq(rng.integers(0, 2, size=length), f"a{i}"))
                i += 1
        for length in (110, 150, 220):
            for _ in range(15):
                sessions.append(make_seq(1 + rng.integers(0, 2, size=length), f"b{i}"))
                i += 1
        groups = group_by_length(sessions)
        fas = [frequency_array(seqs, 3) for _, seqs in groups]
        plan = select_k(fas, dissimilarity_matrix(fas), k=6, min_support=10)
        assert any(length < 20 for length in plan.selected_lengths)
        assert any(length > 100 for length in plan.selected_lengths)

    def test_too_few_eligible_groups(self):
        fas, d = _plan_inputs({2: [[0, 1]] * 3, 3: [[0, 1, 2]] * 2})
        with pytest.raises(SelectionError) as err:
            select_k(fas, d, k=2, min_support=3)
        assert err.value.eligible == 1

    def test_warns_on_large_k(self):
        lists = {length: [[0, 1] * (length // 2)] * 2 for length in range(2, 110, 2)}
        fas, d = _plan_inputs(lists)
        with pytest.warns(UserWarning):
            select_k(fas, d, k=51, min_support=1)

    def test_coverage_monotone_in_k(self):
        fas, d = _plan_inputs({
            2: [[0, 1]] * 5, 3: [[2, 2, 0]] * 4, 4: [[1, 1, 2, 0]] * 3,
            5: [[0] * 5] * 2,
        })
        coverages = [
            select_k(fas, d, k=k, min_support=1).coverage
            for k in (1, 2, 3, 4)
        ]
        assert all(b >= a for a, b in zip(coverages, coverages[1:]))

    def test_selection_order_is_nested_prefix(self):
        fas, d = _plan_inputs({
            2: [[0, 1]] * 5, 3: [[2, 2, 0]] * 4, 4: [[1, 1, 2, 0]] * 3,
            5: [[0] * 5] * 2,
        })
        full = select_k(fas, d, k=4, min_support=1).selected_lengths
        for k in (1, 2, 3):
            partial = select_k(fas, d, k=k, min_support=1).selected_lengths
            assert partial == full[:k]

    def test_selected_groups_pairwise_distinct_when_possible(self):
        fas, d = _plan_inputs({
            2: [[0, 1]] * 5, 3: [[2, 2, 0]] * 4, 4: [[1, 1, 2, 0]] * 3,
            5: [[0] * 5] * 2,
        })
        plan = select_k(fas, d, k=3, min_support=1)
        pos = {fa.length_key: i for i, fa in enumerate(fas)}
        chosen = [pos[length] for length in plan.selected_lengths]
        for a in chosen:
            for b in chosen:
                if a != b:
                    assert d[a, b] > 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        base = []
        for i in range(60):
            length = int(rng.integers(2, 7))
            base.append(make_seq(rng.integers(0, 3, size=length), f"q{i}"))
        reference = build_plan(base, n_obs=3, k=3, min_support=2).selected_lengths
        for shuffle_seed in range(5):
            order = np.random.default_rng(shuffle_seed).permutation(len(base))
            shuffled = [base[j] for j in order]
            got = build_plan(shuffled, n_obs=3, k=3, min_support=2).selected_lengths
            assert got == reference


class TestProject2D:
    def test_planar_points_preserve_distances(self):
        fas = [
            FrequencyArray(2, np.array([1.0, 0.0, 0.0, 0.0]), 1),
            FrequencyArray(3, np.array([0.0, 1.0, 0.0, 0.0]), 1),
            FrequencyArray(4, np.array([0.0, 0.0, 1.0, 0.0]), 1),
        ]
        proj = project_2d(fas)
        pts = np.asarray(proj.points)
        original = dissimilarity_matrix(fas)
        projected = np.sqrt(
            ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        )
        assert np.abs(original - projected).max() < 1e-9

    def test_identical_arrays_collapse_to_origin(self):
        fas = [FrequencyArray(i, np.array([0.5, 0.5]), 1) for i in range(2, 6)]
        proj = project_2d(fas)
        assert proj.rank_deficient
        assert all(x == 0.0 and y == 0.0 for x, y in proj.points)

    def test_collinear_arrays_flagged_with_zero_second_axis(self):
        fas = [
            FrequencyArray(2, np.array([0.2, 0.8]), 1),
            FrequencyArray(3, np.array([0.5, 0.5]), 1),
            FrequencyArray(4, np.array([0.8, 0.2]), 1),
        ]
        proj = project_2d(fas)
        assert proj.rank_deficient
        assert all(y == 0.0 for _, y in proj.points)
        xs = sorted(x for x, _ in proj.points)
        assert xs[0] < 0 < xs[-1]

    def test_reconstruction_error_equals_dropped_eigenvalues(self):
        rng = np.random.default_rng(7)
        fas = []
        for i in range(8):
            p = rng.random(6)
            fas.append(FrequencyArray(i + 2, p / p.sum(), 1))
        proj = project_2d(fas)
        X = np.stack([fa.probs for fa in fas])
        Xc = X - X.mean(axis=0)
        cov = Xc.T @ Xc / X.shape[0]
        evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        # full eigendecomposition oracle: MSE of the rank-2 reconstruction
        evecs_full = np.linalg.eigh(cov)[1]
        order = np.argsort(np.linalg.eigh(cov)[0])[::-1]
        V2 = evecs_full[:, order[:2]]
        recon = (Xc @ V2) @ V2.T
        mse = ((Xc - recon) ** 2).sum() / X.shape[0]
        assert mse == pytest.approx(evals[2:].sum(), abs=1e-9)
        pts = np.asarray(proj.points)
        np.testing.assert_allclose(pts, Xc @ V2, atol=1e-9)

    def test_needs_two_arrays(self):
        with pytest.raises(DomainError):
            project_2d([FrequencyArray(2, np.array([1.0]), 1)])


class TestPlanReport:
    def test_report_contains_projection_and_coverage(self):
        fas, d = _plan_inputs({
            2: [[0, 1]] * 5, 3: [[2, 2, 0]] * 4, 4: [[1, 1, 2, 0]] * 3,
        })
        plan = select_k(fas, d, k=2, min_support=1)
        doc = plan_to_doc(plan)
        assert doc["schema"] == "fhmm-plan/1"
        assert doc["selected_lengths"] == plan.selected_lengths
        assert 0.0 <= float(doc["coverage"]) <= 1.0
        assert doc["projection_2d"] is not None
        assert len(doc["distance_matrix"]) == 3
