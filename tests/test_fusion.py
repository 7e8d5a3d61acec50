import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhmm import fusion
from fhmm.errors import DomainError, TrainingDivergedError
from fhmm.fusion import (
    FusionHyper,
    FusionInput,
    FusionNetwork,
    cost_and_gradients,
    encode,
    encode_batch,
    feature_importance,
    format_importance_report,
    forward,
    forward_batch,
    fused_predictions,
    fusion_from_doc,
    fusion_to_doc,
    init_network,
    input_block_weights,
    train_fusion_arrays,
    train_fusion_points,
)

import oracles


class TestEncode:
    def test_definitional_layout(self):
        x = encode(FusionInput([1, 0], 0.5), k=2, n_obs=3)
        np.testing.assert_array_equal(x, [0, 1, 0, 1, 0, 0, 0.5])

    def test_zero_preds_zero_count(self):
        x = encode(FusionInput([0, 0, 0], 0.0), k=3, n_obs=2)
        np.testing.assert_array_equal(x, [1, 0, 1, 0, 1, 0, 0.0])

    def test_out_of_range_symbol(self):
        with pytest.raises(DomainError):
            encode(FusionInput([3], 0.0), k=1, n_obs=3)
        with pytest.raises(DomainError):
            encode(FusionInput([0], 1.5), k=1, n_obs=3)

    @given(
        k=st.integers(1, 5),
        m=st.integers(2, 6),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_lossless(self, k, m, data):
        preds = data.draw(
            st.lists(st.integers(0, m - 1), min_size=k, max_size=k)
        )
        count = data.draw(st.floats(0, 1, allow_nan=False))
        x = encode(FusionInput(preds, count), k=k, n_obs=m)
        back = np.argmax(x[: k * m].reshape(k, m), axis=1)
        np.testing.assert_array_equal(back, preds)
        assert x[-1] == pytest.approx(count)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 4, size=(7, 3))
        counts = rng.random(7)
        X = encode_batch(preds, counts, n_obs=4)
        for i in range(7):
            np.testing.assert_array_equal(
                X[i], encode(FusionInput(preds[i], counts[i]), 3, 4)
            )

    @pytest.mark.parametrize(
        "with_count", [True, False], ids=["with-count", "without-count"]
    )
    def test_compact_rows_are_the_set_columns_of_the_batch(self, with_count):
        # any subset of rows, the empty one included, encoded into the
        # columns some row sets; without a nonzero count the count column
        # is not among them
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 4, size=(40, 3)).astype(np.uint8)
        counts = rng.random(40) if with_count else np.zeros(40)
        cols = fusion._set_columns(preds, counts, 4)
        assert (cols[-1] == 3 * 4) == with_count
        for idx in ([3, 1, 4, 1, 5], [9, 2], np.arange(40)[::-1], [7], []):
            idx = np.asarray(idx, dtype=np.int64)
            np.testing.assert_array_equal(
                fusion._encode_rows(preds[idx], counts[idx], 4, cols),
                encode_batch(preds[idx], counts[idx], 4)[:, cols],
            )

    def test_rejects_a_wrong_k_a_negative_symbol_and_a_nan_count(self):
        with pytest.raises(DomainError, match="expected 2 predictions, got 3"):
            encode(FusionInput([0, 1, 2], 0.5), k=2, n_obs=3)
        with pytest.raises(DomainError, match="prediction symbol"):
            encode(FusionInput([0, -1], 0.5), k=2, n_obs=3)
        with pytest.raises(DomainError, match="count"):
            encode(FusionInput([0, 1], float("nan")), k=2, n_obs=3)

    def test_batch_rejects_what_single_rejects(self):
        # a 3 once landed in the next block and a -1 in the count column
        with pytest.raises(DomainError, match="prediction symbol"):
            encode_batch(np.array([[3, 0], [-1, 1]]), np.array([0.5, 0.2]), 3)
        with pytest.raises(DomainError, match="count"):
            encode_batch(np.array([[0, 0]]), np.array([1.5]), 3)


class TestForward:
    def test_zero_network_predicts_zero(self):
        net = FusionNetwork(
            W=np.zeros((4, 3)), c=np.zeros(3), w=np.zeros((3, 2)),
            b=np.zeros(2), l2=0.0, lr=0.1,
        )
        scores, pred = forward(net, np.array([1.0, 0, 0, 0.5]))
        np.testing.assert_array_equal(scores, [0.0, 0.0])
        assert pred == 0

    def test_constructed_pass_through(self):
        # route block 0's one-hots straight to the matching outputs
        k, m, h = 2, 3, 3
        W = np.zeros((k * m + 1, h))
        W[:m, :m] = np.eye(m)
        net = FusionNetwork(
            W=W, c=np.zeros(h), w=np.eye(h), b=np.zeros(m), l2=0.0, lr=0.1,
        )
        for sym in range(m):
            x = encode(FusionInput([sym, (sym + 1) % m], 0.3), k, m)
            _, pred = forward(net, x)
            assert pred == sym

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(8)
        net = init_network(9, 4, FusionHyper(hidden_width=5, seed=3))
        x = rng.random(9)
        scores, _ = forward(net, x)
        # naive loop oracle
        hidden = np.zeros(5)
        for j in range(5):
            acc = net.c[j]
            for i in range(9):
                acc += net.W[i, j] * x[i]
            hidden[j] = max(0.0, acc)
        expected = np.zeros(4)
        for o in range(4):
            acc = net.b[o]
            for j in range(5):
                acc += net.w[j, o] * hidden[j]
            expected[o] = acc
        assert np.abs(scores - expected).max() < 1e-12

    def test_dimension_mismatch(self):
        net = init_network(5, 2, FusionHyper(seed=0))
        with pytest.raises(DomainError):
            forward(net, np.zeros(4))


def _random_case(seed):
    rng = np.random.default_rng(seed)
    k, m, h = 2, 3, 4
    hyper = FusionHyper(hidden_width=h, seed=seed, l2=1e-3)
    net = init_network(k * m + 1, m, hyper)
    X = rng.random((3, k * m + 1))
    Y = oracles.one_hot_targets(rng.integers(0, m, size=3), m)
    return net, X, Y


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        eps = 1e-5
        for case in range(20):
            net, X, Y = _random_case(1000 + case)
            _, grads = cost_and_gradients(net, X, Y)
            max_rel = 0.0
            for name in ("W", "c", "w", "b"):
                tensor = getattr(net, name)
                flat = tensor.ravel()
                probe = np.random.default_rng(case).choice(
                    flat.size, size=min(6, flat.size), replace=False
                )
                for idx in probe:
                    def cost_at(v, idx=idx, flat=flat):
                        old = flat[idx]
                        flat[idx] = v
                        c, _ = cost_and_gradients(net, X, Y)
                        flat[idx] = old
                        return c

                    numeric = oracles.central_difference(cost_at, flat[idx], eps)
                    analytic = grads[name].ravel()[idx]
                    denom = max(abs(numeric), abs(analytic), 1e-8)
                    max_rel = max(max_rel, abs(numeric - analytic) / denom)
            assert max_rel < 1e-4

    def test_single_step_decreases_cost(self):
        # with l2 = 0 and a small lr, one step on one example reduces its cost
        net, X, Y = _random_case(5)
        net.l2 = 0.0
        x, y = X[:1], Y[:1]
        before, grads = cost_and_gradients(net, x, y)
        lr = 1e-3
        net.W -= lr * grads["W"]
        net.c -= lr * grads["c"]
        net.w -= lr * grads["w"]
        net.b -= lr * grads["b"]
        after, _ = cost_and_gradients(net, x, y)
        assert after < before


class TestTraining:
    def test_memorizes_single_example(self):
        inp = FusionInput([1, 2], 0.25)
        hyper = FusionHyper(
            hidden_width=8, lr=0.05, l2=0.0, epochs=400, batch=4, seed=0
        )
        net, trace = train_fusion_points(
            inp.hmm_preds[None, :], np.array([inp.count]), np.array([2]),
            3, hyper,
        )
        assert trace[-1] < 1e-4
        diffs = np.diff(trace)
        assert (diffs <= 1e-12).all()
        _, pred = forward(net, encode(inp, 2, 3))
        assert pred == 2

    def test_learns_to_copy_first_model(self):
        rng = np.random.default_rng(42)
        k, m = 3, 4
        n = 5000
        preds = rng.integers(0, m, size=(n, k))
        counts = rng.random(n)
        targets = preds[:, 0].copy()
        hyper = FusionHyper(hidden_width=30, lr=0.1, l2=0.0, epochs=60,
                            batch=64, seed=1)
        net, _ = train_fusion_points(preds, counts, targets, m, hyper)
        held_preds = rng.integers(0, m, size=(500, k))
        held_counts = rng.random(500)
        got = fused_predictions(net, held_preds, held_counts, m)
        agreement = (got == held_preds[:, 0]).mean()
        assert agreement >= 0.99

    def test_divergence_raises_with_epoch(self):
        rng = np.random.default_rng(3)
        X = rng.random((32, 5)) * 10
        targets = rng.integers(0, 3, size=32)
        hyper = FusionHyper(hidden_width=6, lr=1e6, l2=0.0, epochs=10,
                            batch=8, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train_fusion_arrays(X, targets, 3, hyper)
        assert err.value.epoch >= 0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        X = rng.random((64, 7))
        targets = rng.integers(0, 3, size=64)
        hyper = FusionHyper(hidden_width=5, epochs=5, seed=9)
        n1, t1 = train_fusion_arrays(X, targets, 3, hyper)
        n2, t2 = train_fusion_arrays(X, targets, 3, hyper)
        assert t1 == t2
        assert np.array_equal(n1.W, n2.W)
        assert np.array_equal(n1.w, n2.w)
        assert np.array_equal(n1.c, n2.c)
        assert np.array_equal(n1.b, n2.b)

    def test_empty_examples_rejected(self):
        with pytest.raises(DomainError):
            train_fusion_points(
                np.empty((0, 1), dtype=np.int64), np.empty(0),
                np.empty(0, dtype=np.int64), 2, FusionHyper(),
            )


def _points(seed, p, k, m):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, m, size=(p, k)), rng.random(p),
        rng.integers(0, m, size=p),
    )


def _dense_reference(X, Y, hyper):
    """The training loop over a dense input and a dense one-hot target
    matrix, written out step by step in float32: the initial network, X
    and Y are rounded to float32 once, and every step keeps that dtype."""
    net = init_network(X.shape[1], Y.shape[1], hyper)
    for name in ("W", "c", "w", "b"):
        setattr(net, name, getattr(net, name).astype(np.float32))
    X, Y = X.astype(np.float32), Y.astype(np.float32)
    rng = np.random.default_rng(hyper.seed + 1)
    trace = []
    for _ in range(hyper.epochs):
        order = rng.permutation(X.shape[0])
        costs = []
        for start in range(0, X.shape[0], hyper.batch):
            idx = order[start : start + hyper.batch]
            cost, grads = cost_and_gradients(net, X[idx], Y[idx])
            for name in ("W", "c", "w", "b"):
                getattr(net, name)[...] -= hyper.lr * grads[name]
            costs.append(cost)
        trace.append(float(np.mean(costs)))
    for name in ("W", "c", "w", "b"):
        assert getattr(net, name).dtype == np.float32
    return net, trace


def _redundant_points(seed, p, k, m, zero_counts=False, n_rows=30):
    """p points drawn from n_rows distinct (prediction row, count) pairs,
    with uint8 predictions as train_ensemble passes them."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=(n_rows, k)).astype(np.uint8)
    row_counts = np.zeros(n_rows) if zero_counts else rng.random(n_rows)
    at = rng.integers(0, n_rows, size=p)
    return rows[at], row_counts[at], rng.integers(0, m, size=p)


class TestPointsEntry:
    @pytest.mark.parametrize("points, all_distinct", [
        (_points(4, 1000, 5, 6), True),                    # 1000 = 15*64 + 40
        (_redundant_points(9, 3000, 5, 6), False),         # 3000 = 46*64 + 56
        (_redundant_points(10, 3000, 5, 6, zero_counts=True), False),
    ], ids=["distinct", "redundant", "redundant-zero-counts"])
    def test_bit_identical_to_the_dense_matrix(self, points, all_distinct):
        preds, counts, targets = points
        hyper = FusionHyper(hidden_width=9, lr=0.2, l2=1e-3, epochs=3,
                            batch=64, seed=7)
        # the training table holds one row per distinct (row, count) pair
        distinct = np.unique(
            np.column_stack([preds, counts.astype(np.float32)]), axis=0
        )
        table, _, _, cols, _ = fusion._row_table(preds, counts, 6)
        assert table.shape[0] == distinct.shape[0]
        assert (distinct.shape[0] == preds.shape[0]) == all_distinct
        # the distinct rows set the same columns as all the points
        assert np.array_equal(cols, fusion._set_columns(preds, counts, 6))
        X = encode_batch(preds, counts, 6)
        grouped, grouped_trace = oracles.train_fusion_grouped(
            preds, counts, targets, 6, hyper
        )
        trained = (
            train_fusion_points(preds, counts, targets, 6, hyper),
            train_fusion_arrays(X, targets, 6, hyper),
        )
        for net, trace in trained:
            assert trace == grouped_trace
            for name, ref in zip(("W", "c", "w", "b"), grouped):
                assert np.array_equal(getattr(net, name), ref)
        ref, ref_trace = _dense_reference(
            X, oracles.one_hot_targets(targets, 6), hyper
        )
        net, trace = trained[0]
        if all_distinct:
            # every minibatch's grouping is the identity: the per-point step
            assert trace == ref_trace
            for name in ("W", "c", "w", "b"):
                assert np.array_equal(getattr(net, name), getattr(ref, name))
        else:
            # a row's gradient sums its points before the products, so the
            # float32 sums round otherwise; the bounds of
            # TestCompactColumns.test_close_to_the_dense_reference
            np.testing.assert_allclose(trace, ref_trace, rtol=1e-6, atol=0)
            for name in ("W", "c", "w", "b"):
                np.testing.assert_allclose(
                    getattr(net, name), getattr(ref, name), rtol=0, atol=1e-6
                )

    def test_bits_do_not_depend_on_the_table_row_order(self):
        preds, counts, targets = _redundant_points(9, 3000, 5, 6)
        hyper = FusionHyper(hidden_width=9, lr=0.2, l2=1e-3, epochs=3,
                            batch=64, seed=7)
        table, row_counts, inverse, cols, width = fusion._row_table(
            *fusion._checked_points(preds, counts, 6), 6
        )
        perm = np.random.default_rng(0).permutation(table.shape[0])
        moved_to = np.argsort(perm)             # old table row -> new row
        a, a_trace = fusion._train(table, row_counts, inverse, cols, width,
                                   targets, 6, hyper)
        b, b_trace = fusion._train(table[perm], row_counts[perm],
                                   moved_to[inverse], cols, width, targets,
                                   6, hyper)
        assert np.array(a_trace).tobytes() == np.array(b_trace).tobytes()
        for name in ("W", "c", "w", "b"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_never_builds_the_dense_matrix(self):
        p, k, m = 50_000, 8, 19
        preds, counts, targets = _points(5, p, k, m)
        hyper = FusionHyper(epochs=1, batch=512, seed=0)
        tracemalloc.start()
        try:
            train_fusion_points(preds, counts, targets, m, hyper)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p * (k * m + 1) * 8 / 4

    def test_row_table_memory_does_not_grow_with_points(self):
        # besides the (P,) index, the search holds one chunk of keys and the
        # distinct keys so far, at any P; one np.unique over all 400k keys
        # (20 bytes each) would hold about 4 * PREDICT_BYTES
        k, m = 16, 19
        for p in (50_000, 400_000):
            preds, counts, _ = _redundant_points(11, p, k, m, n_rows=3000)
            tracemalloc.start()
            try:
                table, _, inverse, cols, _ = fusion._row_table(
                    preds, counts, m
                )
                peak = tracemalloc.get_traced_memory()[1] - inverse.nbytes
            finally:
                tracemalloc.stop()
            assert np.array_equal(cols, fusion._set_columns(preds, counts, m))
            assert table.shape == (3000, cols.size)
            assert peak <= 2 * fusion.PREDICT_BYTES, (p, peak)

    @pytest.mark.parametrize("bad", [
        {"preds": [[3, 0], [1, 1]]},
        {"preds": [[0, 0], [-1, 1]]},
        {"counts": [0.5, 1.5]},
        {"counts": [-0.1, 0.2]},
        {"counts": [np.nan, 0.2]},
        {"counts": [0.5, 0.2, 0.1]},
        {"targets": [0, 3]},
        {"targets": [-1, 0]},
        {"targets": [0, 1, 2]},
    ])
    def test_range_checks(self, bad):
        args = {"preds": [[1, 0], [2, 1]], "counts": [0.5, 0.2],
                "targets": [0, 2], **bad}
        with pytest.raises(DomainError):
            train_fusion_points(
                np.array(args["preds"]), np.array(args["counts"]),
                np.array(args["targets"]), 3, FusionHyper(epochs=1),
            )

    def test_fused_predictions_match_one_dense_pass(self):
        rows = fusion.PREDICT_BYTES // (8 * (4 * 5 + 1))      # one chunk
        preds, counts, _ = _points(6, 2 * rows + 100, 4, 5)  # three chunks
        net = init_network(4 * 5 + 1, 5, FusionHyper(hidden_width=7, seed=2))
        whole = forward_batch(net, encode_batch(preds, counts, 5))
        np.testing.assert_array_equal(
            fused_predictions(net, preds, counts, 5), np.argmax(whole, axis=1)
        )
        with pytest.raises(DomainError):
            fused_predictions(net, preds, counts + 1.0, 5)

    def test_fused_predictions_memory_does_not_grow_with_points(self):
        # besides the (P,) result, one chunk's buffer of about PREDICT_BYTES
        # and its small per-chunk arrays, at any P
        k, m = 16, 19
        net = init_network(k * m + 1, m, FusionHyper(hidden_width=8, seed=2))
        peaks = []
        for p in (20_000, 160_000):
            preds, counts, _ = _points(7, p, k, m)
            preds = preds.astype(np.uint8)
            tracemalloc.start()
            try:
                got = fused_predictions(net, preds, counts, m)
                peaks.append(tracemalloc.get_traced_memory()[1] - got.nbytes)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.5 * fusion.PREDICT_BYTES, peaks
        assert peaks[1] - peaks[0] <= 0.05 * fusion.PREDICT_BYTES, peaks


def _sparse_points(seed, p, k, m, zero_counts=False):
    """Points where each model predicts only 2-3 of the m symbols, so most
    one-hot input columns are never set; with zero_counts neither is the
    count column."""
    rng = np.random.default_rng(seed)
    preds = np.stack([
        rng.choice(rng.choice(m, size=rng.integers(2, 4), replace=False), p)
        for _ in range(k)
    ], axis=1)
    counts = np.zeros(p) if zero_counts else rng.random(p)
    return preds, counts, rng.integers(0, m, size=p)


class TestCompactColumns:
    """Training and prediction multiply only the input columns some point
    sets; the never-set ones are zero in every encoded row."""

    K, M = 5, 6
    HYPER = dict(hidden_width=9, lr=0.2, l2=1e-3, epochs=3, batch=64, seed=7)

    @pytest.mark.parametrize("zero_counts", [False, True])
    def test_points_and_arrays_entries_agree(self, zero_counts):
        preds, counts, targets = _sparse_points(4, 1000, self.K, self.M,
                                                zero_counts)
        hyper = FusionHyper(**self.HYPER)
        X = encode_batch(preds, counts, self.M)
        set_cols = np.flatnonzero(X.any(axis=0))
        assert set_cols.size <= self.K * 3 + 1
        np.testing.assert_array_equal(
            fusion._set_columns(preds, counts, self.M), set_cols
        )
        (a, a_trace), (b, b_trace) = (
            train_fusion_points(preds, counts, targets, self.M, hyper),
            train_fusion_arrays(X, targets, self.M, hyper),
        )
        assert a_trace == b_trace
        for name in ("W", "c", "w", "b"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("zero_counts", [False, True])
    def test_never_set_rows_only_decay(self, zero_counts):
        preds, counts, targets = _sparse_points(5, 1000, self.K, self.M,
                                                zero_counts)
        hyper = FusionHyper(**self.HYPER)
        unset = ~encode_batch(preds, counts, self.M).any(axis=0)
        assert unset[-1] == zero_counts
        net, _ = train_fusion_points(preds, counts, targets, self.M, hyper)
        # the float32 step: the initial rows rounded once, then decayed
        decayed = init_network(
            self.K * self.M + 1, self.M, hyper
        ).W[unset].astype(np.float32)
        for _ in range(hyper.epochs * -(-1000 // hyper.batch)):
            decayed -= hyper.lr * (hyper.l2 * decayed)
        assert decayed.dtype == np.float32
        assert np.array_equal(net.W[unset], decayed)

    @pytest.mark.parametrize("zero_counts", [False, True])
    def test_fused_predictions_match_the_dense_forward(self, zero_counts):
        preds, counts, targets = _sparse_points(6, 3000, self.K, self.M,
                                                zero_counts)
        net, _ = train_fusion_points(preds, counts, targets, self.M,
                                     FusionHyper(**self.HYPER))
        whole = forward_batch(net, encode_batch(preds, counts, self.M))
        np.testing.assert_array_equal(
            fused_predictions(net, preds, counts, self.M),
            np.argmax(whole, axis=1),
        )

    @pytest.mark.parametrize("zero_counts", [False, True])
    def test_close_to_the_dense_reference(self, zero_counts):
        # leaving zero columns out changes the products' shapes, so BLAS may
        # round them differently; the float32 net may move by float32
        # rounding only: 1e-6 is about 8 float32 epsilons (1.19e-7), on
        # weights of at most about 0.35
        preds, counts, targets = _sparse_points(7, 1000, self.K, self.M,
                                                zero_counts)
        hyper = FusionHyper(**self.HYPER)
        X = encode_batch(preds, counts, self.M)
        Y = oracles.one_hot_targets(targets, self.M)
        ref, ref_trace = _dense_reference(X, Y, hyper)
        net, trace = train_fusion_points(preds, counts, targets, self.M, hyper)
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-6, atol=0)
        for name in ("W", "c", "w", "b"):
            np.testing.assert_allclose(
                getattr(net, name), getattr(ref, name), rtol=0, atol=1e-6
            )


def _copy_first_points(seed, p, k=3, m=4):
    """Points whose target is the first model's prediction."""
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, m, size=(p, k))
    return preds, rng.random(p), preds[:, 0].copy()


class TestFloat32Training:
    """The float32 loop stays within the float64 loop's reach."""

    @pytest.mark.parametrize("case", [
        # (points, targets), their alphabet, held-out points, hyper
        (_copy_first_points(42, 5000), 4, _copy_first_points(43, 500)[:2],
         dict(hidden_width=30, lr=0.1, l2=0.0, epochs=60, batch=64, seed=1)),
        (_sparse_points(4, 3000, 5, 6), 6, _sparse_points(104, 1000, 5, 6)[:2],
         dict(hidden_width=9, lr=0.2, l2=1e-3, epochs=30, batch=64, seed=7)),
    ], ids=["copy-first-model", "sparse"])
    def test_close_to_the_float64_oracle(self, case):
        (preds, counts, targets), m, (held_preds, held_counts), hyper = case
        hyper = FusionHyper(**hyper)
        net, trace = train_fusion_points(preds, counts, targets, m, hyper)
        ref, ref_trace = oracles.train_fusion_float64(
            preds, counts, targets, m, hyper
        )
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-4, atol=0)
        agree = fused_predictions(net, held_preds, held_counts, m) == (
            oracles.fused_argmax(ref, held_preds, held_counts, m)
        )
        assert agree.mean() >= 0.99

    def test_weights_are_float32_values_held_as_float64(self):
        preds, counts, targets = _points(8, 500, 3, 5)
        hyper = FusionHyper(hidden_width=7, lr=0.05, l2=1e-3, epochs=2)
        net, trace = train_fusion_points(preds, counts, targets, 5, hyper)
        # numpy float64 rates would turn float32 products into float64 ones
        hyper.lr, hyper.l2 = np.float64(hyper.lr), np.float64(hyper.l2)
        again, again_trace = train_fusion_points(preds, counts, targets, 5,
                                                 hyper)
        assert again_trace == trace
        for name in ("W", "c", "w", "b"):
            weights = getattr(net, name)
            assert weights.dtype == np.float64
            assert np.array_equal(
                weights.astype(np.float32).astype(np.float64), weights
            )
            assert np.array_equal(getattr(again, name), weights)


class TestFeatureImportance:
    def test_report_rows_and_determinism(self):
        rng = np.random.default_rng(21)
        k, m = 2, 3
        preds = rng.integers(0, m, size=(400, k))
        counts = rng.random(400)
        targets = preds[:, 1].copy()
        hyper = FusionHyper(hidden_width=6, epochs=8, seed=5)
        rows1 = feature_importance(
            preds, counts, targets, m, hyper, ["hmm_4", "hmm_9"], n_retrain=3
        )
        rows2 = feature_importance(
            preds, counts, targets, m, hyper, ["hmm_4", "hmm_9"], n_retrain=3
        )
        assert [(r.name, r.weight, r.std) for r in rows1] == [
            (r.name, r.weight, r.std) for r in rows2
        ]
        names = {r.name for r in rows1}
        assert names == {"hmm_4", "hmm_9", "count"}
        assert all(r.std >= 0 for r in rows1)
        report = format_importance_report(rows1)
        assert "count" in report and "±" in report

    def test_one_preparation_serves_every_retraining(self, monkeypatch):
        preds, counts, targets = _redundant_points(13, 600, 3, 4)
        hyper = FusionHyper(hidden_width=5, epochs=4, batch=16, seed=9)
        calls = []
        row_table = fusion._row_table

        def counted(*args):
            calls.append(args)
            return row_table(*args)

        monkeypatch.setattr(fusion, "_row_table", counted)
        rows = feature_importance(preds, counts, targets, 4, hyper,
                                  ["a", "b", "c"], n_retrain=3)
        assert len(calls) == 1
        # the same rows as three separate trainings on the points
        stacked = np.stack([
            input_block_weights(train_fusion_points(
                preds, counts, targets, 4, replace(hyper, seed=9 + i)
            )[0], 3, 4)
            for i in range(3)
        ])
        expected = sorted(
            zip(["a", "b", "c", "count"],
                stacked.mean(axis=0).tolist(), stacked.std(axis=0).tolist()),
            key=lambda r: (-r[1], r[0]),
        )
        assert [(r.name, r.weight, r.std) for r in rows] == expected

    @pytest.mark.parametrize("n_retrain", [0, -1])
    def test_rejects_fewer_than_one_retraining(self, n_retrain):
        preds, counts, targets = _points(12, 50, 2, 3)
        with pytest.raises(DomainError, match="n_retrain"):
            feature_importance(preds, counts, targets, 3, FusionHyper(),
                               ["hmm_4", "hmm_9"], n_retrain=n_retrain)

    def test_block_weights_shape(self):
        net = init_network(2 * 3 + 1, 3, FusionHyper(hidden_width=4, seed=0))
        masses = input_block_weights(net, k=2, n_obs=3)
        assert masses.shape == (3,)
        assert (masses >= 0).all()


class TestSerialization:
    def test_round_trip(self):
        net = init_network(7, 3, FusionHyper(hidden_width=4, seed=2))
        doc = fusion_to_doc(net)
        back = fusion_from_doc(doc)
        for name in ("W", "c", "w", "b"):
            assert np.array_equal(getattr(net, name), getattr(back, name))
        assert back.l2 == net.l2
