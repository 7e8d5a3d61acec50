import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fhmm
from fhmm import ensemble

from fhmm.config import RunConfig
from fhmm.ensemble import (
    EnsembleModel,
    _fused_point_predictions,
    evaluate,
    feature_importance_report,
    load_ensemble,
    predict,
    prediction_correlation,
    report_to_doc,
    save_ensemble,
    split_sessions,
    stage2_arrays,
    sweep_k,
    train_ensemble,
    write_confusion_csv,
    write_per_state_csv,
    write_sweep_csv,
)
from fhmm.errors import DomainError
from fhmm.fusion import FusionHyper, init_network
from fhmm.hmm import HmmModel, predict_next, random_model
from fhmm.ingest import (
    GeneratorSpec,
    LengthDistribution,
    SynthSpec,
    read_sessions,
    synth_corpus,
    write_sessions,
)
from fhmm.markov import fit_markov
from fhmm.partition import PartitionPlan
from fhmm.sequences import StateSequence

from conftest import make_seq


def _cycle_model(symbols, n_obs=6, noise=1e-9):
    """Near-deterministic ring over the given emission symbols.

    A hair of emission mass everywhere keeps foreign symbols scoreable, the
    same guarantee trained models get from the emission floor.
    """
    n = len(symbols)
    A = np.zeros((n, n))
    for p in range(n):
        A[p, (p + 1) % n] = 1.0
    B = np.full((n, n_obs), noise / (n_obs - 1))
    for p, s in enumerate(symbols):
        B[p, s] = 1.0 - noise
    pi = np.zeros(n)
    pi[0] = 1.0
    return HmmModel(n_hidden=n, n_obs=n_obs, A=A, B=B, pi=pi)


def _small_corpus(seed=0, n=240):
    """Two alternating generators on disjoint symbols, two length bands."""
    gen_a = GeneratorSpec(
        model=_cycle_model([0, 1]), weight=0.5,
        lengths=LengthDistribution(min_len=4, mean_extra=2.0, max_len=8),
        name="a",
    )
    gen_b = GeneratorSpec(
        model=_cycle_model([3, 4, 5]), weight=0.5,
        lengths=LengthDistribution(min_len=9, mean_extra=3.0, max_len=15),
        name="b",
    )
    return synth_corpus(SynthSpec(generators=[gen_a, gen_b], n_sessions=n, seed=seed))


def _small_config(**overrides):
    base = dict(
        k=2, n_hidden=4, n_obs=6, min_support=5, hidden_width=16,
        lr=0.05, l2=0.0, epochs=40, batch=32, base_seed=3, stride=1,
        tol=1e-6, max_iters=60,
    )
    base.update(overrides)
    return RunConfig(**base)


# Trains in parallel under the spawn start method, whose workers inherit no
# module state from the parent: argv[1] holds the sessions and the config.
SPAWN_TRAIN = """
import json, multiprocessing, sys
from pathlib import Path

from fhmm.config import RunConfig
from fhmm.ensemble import save_ensemble, train_ensemble
from fhmm.ingest import read_sessions

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    root = Path(sys.argv[1])
    config = RunConfig(**json.loads((root / "config.json").read_text()))
    model = train_ensemble(read_sessions(root / "sessions.tsv"), config)
    save_ensemble(model, root / "spawn")
"""


@pytest.fixture(scope="module")
def small_ensemble():
    corpus = _small_corpus()
    config = _small_config()
    model = train_ensemble(corpus.sessions, config)
    return corpus, config, model


class TestTrainEnsemble:
    def test_models_match_selected_lengths(self, small_ensemble):
        _, _, model = small_ensemble
        assert sorted(model.models) == sorted(model.selected_lengths)
        assert len(model.selected_lengths) == 2
        for m in model.models.values():
            assert m.n_obs == model.n_obs

    def test_seed_derivation_is_base_xor_length(self, small_ensemble):
        _, config, model = small_ensemble
        for length, m in model.models.items():
            assert m.seed == config.base_seed ^ length

    def test_timings_recorded(self, small_ensemble):
        _, _, model = small_ensemble
        assert set(model.timings) == {
            "partition", "hmm_training", "stage2", "fusion", "total",
        }

    def test_parallel_matches_sequential_bitwise(self, tmp_path):
        corpus = _small_corpus(seed=5)
        seq_model = train_ensemble(corpus.sessions, _small_config())
        par_model = train_ensemble(
            corpus.sessions, _small_config(parallel=True, workers=2)
        )
        save_ensemble(seq_model, tmp_path / "seq")
        save_ensemble(par_model, tmp_path / "par")
        for name in sorted(p.name for p in (tmp_path / "seq").iterdir()):
            a = (tmp_path / "seq" / name).read_bytes()
            b = (tmp_path / "par" / name).read_bytes()
            assert a == b, f"{name} differs between parallel and sequential"

    def test_parallel_under_spawn_matches_sequential_bytes(self, tmp_path):
        sessions = _small_corpus(seed=6).sessions
        write_sessions(tmp_path / "sessions.tsv", sessions)
        config = _small_config(parallel=True, workers=2)
        (tmp_path / "config.json").write_text(json.dumps(config.to_doc()))
        (tmp_path / "train.py").write_text(SPAWN_TRAIN)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(fhmm.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        subprocess.run(
            [sys.executable, str(tmp_path / "train.py"), str(tmp_path)],
            env=env, check=True, timeout=300,
        )
        sequential = train_ensemble(
            read_sessions(tmp_path / "sessions.tsv"), _small_config()
        )
        save_ensemble(sequential, tmp_path / "seq")
        names = sorted(p.name for p in (tmp_path / "seq").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "spawn").iterdir())
        for name in names:
            a = (tmp_path / "seq" / name).read_bytes()
            b = (tmp_path / "spawn" / name).read_bytes()
            assert a == b, f"{name} differs between spawn and sequential"

    def test_k1_fusion_tracks_single_hmm(self):
        # when the lone specialist is near-perfect on deterministic data,
        # convergent fusion matches its accuracy within one example
        gen = GeneratorSpec(
            model=_cycle_model([0, 1]), weight=1.0,
            lengths=LengthDistribution(min_len=4, mean_extra=3.0, max_len=10),
        )
        corpus = synth_corpus(SynthSpec(generators=[gen], n_sessions=200, seed=7))
        sessions = [s for s in corpus.sessions]
        config = _small_config(k=1, epochs=150)
        model = train_ensemble(sessions, config)
        length = model.selected_lengths[0]
        hmm = model.models[length]
        rep_fused = evaluate(model, sessions, stride=1)
        rep_hmm = evaluate(hmm, sessions, stride=1)
        diff = abs(
            rep_fused.overall_accuracy - rep_hmm.overall_accuracy
        ) * rep_fused.n_points
        assert diff <= 1.0

    def test_empty_sessions_rejected(self):
        with pytest.raises(DomainError):
            train_ensemble([], _small_config())


class TestFitSelected:
    def test_deal_spreads_costliest_over_equal_shares(self):
        shares = ensemble._deal([5, 40, 7, 30, 12, 9], 3)
        assert shares == [[1, 5], [3, 2], [4, 0]]
        assert ensemble._deal([3, 1], 4) == [[0], [1]]

    def test_pool_never_exceeds_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)
        assert ensemble._pool_size(4) == 2
        assert ensemble._pool_size(1) == 1
        assert ensemble._pool_size(0) == 2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_deal_matches_one_pass(self, workers, monkeypatch):
        # enough CPUs that the groups are dealt into `workers` shares
        monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 8)
        sessions = _small_corpus(seed=4, n=300).sessions
        counts: dict[int, int] = {}
        for s in sessions:
            counts[len(s)] = counts.get(len(s), 0) + 1
        lengths = sorted(counts, key=lambda length: -counts[length])[:5]
        config = _small_config(max_iters=30)
        want, no_preds = ensemble._fit_selected(sessions, lengths, config)
        assert no_preds is None
        got, preds = ensemble._fit_selected(
            sessions, lengths,
            dataclasses.replace(config, parallel=True, workers=workers),
            stage2_sessions=sessions,
        )
        assert [row[0] for row in got] == lengths
        for (_, model, converged, iters), (_, ref, ref_conv, ref_iters) in zip(
            got, want
        ):
            assert (converged, iters) == (ref_conv, ref_iters)
            for name in ("A", "B", "pi"):
                np.testing.assert_array_equal(
                    getattr(model, name), getattr(ref, name)
                )
        want_preds, _, _ = stage2_arrays(
            [ref for _, ref, _, _ in want], sessions, config.stride,
            max(len(s) for s in sessions),
        )
        assert preds.dtype == want_preds.dtype == np.uint8
        np.testing.assert_array_equal(preds, want_preds)


class TestCollectStage2:
    def test_enumeration_of_points(self):
        models = [_cycle_model([0, 1]), _cycle_model([1, 2])]
        session = make_seq([0, 1, 2], "s")
        preds, counts, targets = stage2_arrays(models, [session], 1, 4)
        assert targets.size == 2
        assert targets.tolist() == [1, 2]
        assert preds.shape == (2, 2)
        assert counts[0] == pytest.approx(1 / 4)

    def test_stride_halves_point_count(self):
        models = [_cycle_model([0, 1])]
        sessions = [make_seq([0, 1] * 5, f"s{i}") for i in range(4)]
        _, _, full = stage2_arrays(models, sessions, 1, 10)
        _, _, half = stage2_arrays(models, sessions, 2, 10)
        assert full.size == 4 * 9
        assert abs(full.size / 2 - half.size) <= 4  # +-1 point per session

    def test_targets_match_next_symbol_distribution(self):
        rng = np.random.default_rng(3)
        sessions = [
            make_seq(rng.integers(0, 4, size=rng.integers(2, 8)), f"s{i}")
            for i in range(60)
        ]
        models = [_cycle_model([0, 1], n_obs=4)]
        _, _, targets = stage2_arrays(
            models, sessions, 1, max(len(s) for s in sessions)
        )
        expected = np.concatenate([s.symbols[1:] for s in sessions])
        counts_got = np.bincount(targets, minlength=4)
        counts_expected = np.bincount(expected, minlength=4)
        np.testing.assert_array_equal(counts_got, counts_expected)

    def test_preds_match_predict_next(self):
        models = [_cycle_model([0, 1]), _cycle_model([3, 4, 5])]
        sessions = [make_seq([0, 1, 0, 1, 0], "x")]
        preds, _, _ = stage2_arrays(models, sessions, 1, 5)
        for t, row in enumerate(preds, start=1):
            prefix = StateSequence(sessions[0].symbols[:t])
            for k, model in enumerate(models):
                expected, _ = predict_next(model, prefix)
                assert row[k] == expected

    def test_short_sessions_rejected(self):
        with pytest.raises(DomainError):
            stage2_arrays([_cycle_model([0, 1])], [make_seq([0])], 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 40), max_size=30),
        stride=st.integers(1, 5),
        max_len=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_meta_equals_the_per_session_loop(
        self, lengths, stride, max_len, seed
    ):
        rng = np.random.default_rng(seed)
        sessions = [make_seq(rng.integers(0, 7, size=n)) for n in lengths]
        offsets, counts, targets = ensemble._stage2_meta(
            sessions, stride, max_len
        )
        # one session at a time, the positions each point predicts
        want_counts, want_targets = [], []
        for s in sessions:
            pos = np.arange(1, len(s), stride)
            want_counts.append(np.minimum(pos / max_len, 1.0))
            want_targets.append(s.symbols[pos])
        np.testing.assert_array_equal(
            offsets, np.cumsum([0] + [c.size for c in want_counts])
        )
        want_counts = np.concatenate([np.empty(0)] + want_counts)
        want_targets = np.concatenate(
            [np.empty(0, dtype=np.int64)] + want_targets
        )
        assert counts.dtype == want_counts.dtype
        assert counts.tobytes() == want_counts.tobytes()
        assert targets.dtype == want_targets.dtype
        np.testing.assert_array_equal(targets, want_targets)

    @pytest.mark.parametrize("n_obs, dtype", [(6, np.uint8), (300, np.uint16)])
    def test_parallel_matches_sequential_dtype_and_values(
        self, n_obs, dtype, monkeypatch
    ):
        # enough CPUs that the sessions are dealt into three chunks
        monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 8)
        sessions = _small_corpus(seed=6, n=120).sessions
        models = [random_model(3, n_obs, seed=s) for s in range(3)]
        want = stage2_arrays(models, sessions, 2, 15)
        got = stage2_arrays(models, sessions, 2, 15, parallel=True, workers=3)
        assert got[0].dtype == want[0].dtype == dtype
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestPredict:
    def test_agreeing_models_win_after_training(self):
        # both specialists perfectly predict the same deterministic stream
        gen = GeneratorSpec(
            model=_cycle_model([0, 1]), weight=1.0,
            lengths=LengthDistribution(min_len=6, mean_extra=2.0, max_len=10),
        )
        corpus = synth_corpus(SynthSpec(generators=[gen], n_sessions=120, seed=2))
        config = _small_config(k=2, min_support=2, epochs=80)
        model = train_ensemble(corpus.sessions, config)
        out = predict(model, make_seq([0, 1, 0]))
        assert out.symbol == 1
        assert set(out.per_model.values()) == {1}
        assert out.scores.shape == (6,)

    def test_pure_function_of_inputs(self, small_ensemble):
        _, _, model = small_ensemble
        prefix = make_seq([3, 4, 5, 3])
        a = predict(model, prefix)
        b = predict(model, prefix)
        assert a.symbol == b.symbol
        assert a.per_model == b.per_model
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_diagnostics_cover_every_model(self, small_ensemble):
        _, _, model = small_ensemble
        out = predict(model, make_seq([0, 1]))
        assert sorted(out.per_model) == sorted(model.selected_lengths)

    def test_stacks_the_models_once(self, small_ensemble):
        _, _, model = small_ensemble
        fresh = dataclasses.replace(model)
        with mock.patch.object(
            ensemble, "stack_models", wraps=ensemble.stack_models
        ) as spy:
            outs = [predict(fresh, make_seq(p)) for p in ([0, 1], [3, 4, 5])]
        assert spy.call_count == 1
        for out, p in zip(outs, ([0, 1], [3, 4, 5])):
            assert out.per_model == {
                length: predict_next(model.models[length], make_seq(p))[0]
                for length in model.selected_lengths
            }

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 4),
        lengths=st.lists(st.integers(2, 40), min_size=1, max_size=5),
        repeats=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_evaluate_at_every_point(self, k, lengths, repeats, seed):
        n_obs = 5
        rng = np.random.default_rng(seed)
        keys = list(range(2, 2 + k))
        model = EnsembleModel(
            plan=PartitionPlan(
                groups=[], freq_arrays=[], distances=np.zeros((0, 0)),
                ranks={}, selected_lengths=keys, coverage=1.0,
            ),
            models={key: random_model(3, n_obs, seed + key) for key in keys},
            fusion=init_network(
                k * n_obs + 1, n_obs, FusionHyper(hidden_width=8, seed=seed)
            ),
            n_obs=n_obs, alphabet=[], base_seed=0, max_len=40,
        )
        sessions = [
            make_seq(rng.integers(0, n_obs, size=n), f"s{i}")
            for i, n in enumerate(rng.permutation(lengths * repeats))
        ]
        fused, per_model, _ = _fused_point_predictions(model, sessions, 1)
        p = 0
        for s in sessions:
            for t in range(1, len(s)):
                out = predict(model, StateSequence(s.symbols[:t]))
                assert out.symbol == fused[p]
                assert list(out.per_model.values()) == list(per_model[p])
                p += 1


class TestEvaluate:
    def test_perfect_predictor_on_deterministic_data(self):
        sessions = [make_seq([0, 1] * 4, f"d{i}") for i in range(10)]
        model = _cycle_model([0, 1])
        report = evaluate(model, sessions, stride=1)
        assert report.overall_accuracy == 1.0
        off_diag = report.confusion.copy()
        np.fill_diagonal(off_diag, 0)
        assert off_diag.sum() == 0

    def test_uniform_random_predictor_near_chance(self):
        rng = np.random.default_rng(0)
        m = 19
        sessions = [
            make_seq(rng.integers(0, m, size=6), f"r{i}") for i in range(2200)
        ]
        # one uniform draw per point, 5 points per session
        uniform = np.random.default_rng(99).integers(0, m, size=5 * len(sessions))
        report = evaluate(uniform, sessions, stride=1, n_obs=m)
        assert report.n_points >= 10_000
        assert abs(report.overall_accuracy - 1 / m) < 0.02

    def test_absent_state_reported_as_nan(self):
        sessions = [make_seq([0, 1, 0, 1], "x")]
        model = _cycle_model([0, 1], n_obs=3)
        report = evaluate(model, sessions, stride=1)
        assert np.isnan(report.per_state_accuracy[2])
        assert not np.isnan(report.per_state_accuracy[1])

    def test_confusion_rows_equal_support(self):
        rng = np.random.default_rng(4)
        sessions = [
            make_seq(rng.integers(0, 5, size=7), f"c{i}") for i in range(40)
        ]
        model = _cycle_model([0, 1], n_obs=5)
        report = evaluate(model, sessions, stride=1)
        targets = np.concatenate([s.symbols[1:] for s in sessions])
        support = np.bincount(targets, minlength=5)
        np.testing.assert_array_equal(report.confusion.sum(axis=1), support)

    def test_external_predictions_array(self):
        sessions = [make_seq([0, 1, 0], "x"), make_seq([1, 0], "y")]
        external = np.array([1, 0, 0])   # canonical order: x@1, x@2, y@1
        report = evaluate(external, sessions, stride=1, n_obs=2)
        assert report.overall_accuracy == 1.0
        with pytest.raises(DomainError):
            evaluate(np.array([1, 0]), sessions, stride=1, n_obs=2)

    @pytest.mark.parametrize("predictor", [lambda prefix: 0, [1, 0, 0]])
    def test_unsupported_predictor_rejected(self, predictor):
        sessions = [make_seq([0, 1, 0], "x"), make_seq([1, 0], "y")]
        with pytest.raises(DomainError, match="unsupported predictor"):
            evaluate(predictor, sessions, stride=1, n_obs=2)

    def test_identical_runs_identical_reports(self, small_ensemble):
        corpus, _, model = small_ensemble
        a = evaluate(model, corpus.sessions[:50], stride=2)
        b = evaluate(model, corpus.sessions[:50], stride=2)
        assert a.overall_accuracy == b.overall_accuracy
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_markov_baseline_evaluates(self, small_ensemble):
        corpus, _, _ = small_ensemble
        markov = fit_markov(corpus.sessions, n_obs=6, smoothing=1.0)
        report = evaluate(markov, corpus.sessions[:40], stride=1)
        assert 0.0 <= report.overall_accuracy <= 1.0


class TestPredictionCorrelation:
    def test_self_agreement_is_one(self):
        model = _cycle_model([0, 1])
        sessions = [make_seq([0, 1, 0, 1], f"s{i}") for i in range(5)]
        corr = prediction_correlation([model, model], sessions)
        np.testing.assert_array_equal(corr, np.ones((2, 2)))

    def test_disjoint_generators_zero_agreement(self):
        a = _cycle_model([0, 1])
        b = _cycle_model([3, 4, 5])
        sessions = [make_seq([0, 1, 0, 1, 0, 1], f"s{i}") for i in range(5)]
        corr = prediction_correlation([a, b], sessions)
        assert corr[0, 1] == 0.0
        assert corr[1, 0] == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        sessions = [
            make_seq(rng.integers(0, 6, size=9), f"s{i}") for i in range(12)
        ]
        models = [_cycle_model([0, 1]), _cycle_model([1, 2]), _cycle_model([3, 4, 5])]
        corr = prediction_correlation(models, sessions)
        np.testing.assert_array_equal(corr, corr.T)
        np.testing.assert_array_equal(np.diag(corr), np.ones(3))

    def test_needs_two_models(self):
        with pytest.raises(DomainError):
            prediction_correlation([_cycle_model([0, 1])], [make_seq([0, 1])])


class TestSweepK:
    def test_matches_independent_training(self):
        corpus = _small_corpus(seed=9, n=300)
        config = _small_config(epochs=25)
        curve = sweep_k(corpus.sessions, [1, 2], config)
        assert [k for k, _ in curve] == [1, 2]
        # independent pipeline for each k must give identical errors
        train, test = split_sessions(
            corpus.sessions, config.train_frac, config.base_seed
        )
        for k, error in curve:
            cfg_k = _small_config(epochs=25, k=k)
            model = train_ensemble(train, cfg_k)
            report = evaluate(model, test, stride=config.stride)
            assert error == pytest.approx(1.0 - report.overall_accuracy, abs=1e-12)

    def test_duplicate_or_unsorted_k_rejected(self):
        corpus = _small_corpus(seed=1, n=60)
        with pytest.raises(DomainError):
            sweep_k(corpus.sessions, [2, 2], _small_config())
        with pytest.raises(DomainError):
            sweep_k(corpus.sessions, [2, 1], _small_config())

    def test_curve_rows_monotone_k(self, tmp_path):
        corpus = _small_corpus(seed=2, n=300)
        curve = sweep_k(corpus.sessions, [1, 2], _small_config(epochs=10))
        ks = [k for k, _ in curve]
        assert ks == sorted(ks)
        path = tmp_path / "curve.csv"
        write_sweep_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[1] == "k,error_rate"
        assert len(lines) == 2 + len(curve)


class TestSplit:
    def test_split_is_session_level_and_deterministic(self):
        sessions = [make_seq([0, 1], f"s{i}") for i in range(100)]
        train1, test1 = split_sessions(sessions, 0.8, seed=4)
        train2, test2 = split_sessions(sessions, 0.8, seed=4)
        assert [s.session_id for s in train1] == [s.session_id for s in train2]
        assert len(train1) == 80 and len(test1) == 20
        ids = {s.session_id for s in train1} | {s.session_id for s in test1}
        assert len(ids) == 100


class TestSerializationAndReports:
    def test_save_load_round_trip(self, small_ensemble, tmp_path):
        corpus, _, model = small_ensemble
        save_ensemble(model, tmp_path / "model")
        loaded = load_ensemble(tmp_path / "model")
        assert loaded.selected_lengths == model.selected_lengths
        assert loaded.max_len == model.max_len
        prefix = make_seq([3, 4, 5])
        a = predict(model, prefix)
        b = predict(loaded, prefix)
        assert a.symbol == b.symbol
        np.testing.assert_array_equal(a.scores, b.scores)
        # re-saving a loaded model reproduces the original bytes
        save_ensemble(loaded, tmp_path / "model2")
        for name in sorted(p.name for p in (tmp_path / "model").iterdir()):
            assert (tmp_path / "model" / name).read_bytes() == (
                tmp_path / "model2" / name
            ).read_bytes()

    def test_report_docs_and_csvs(self, small_ensemble, tmp_path):
        corpus, _, model = small_ensemble
        report = evaluate(model, corpus.sessions[:40], stride=1)
        doc = report_to_doc(report, "fhmm")
        assert doc["schema"] == "fhmm-eval/1"
        assert 0.0 <= float(doc["overall_accuracy"]) <= 1.0
        assert doc["per_model_accuracy"] is not None
        write_confusion_csv(report, tmp_path / "confusion.csv")
        write_per_state_csv(report, tmp_path / "per_state.csv", model.alphabet)
        confusion_lines = (tmp_path / "confusion.csv").read_text().splitlines()
        assert confusion_lines[0] == "# fhmm-confusion/1"
        assert len(confusion_lines) == 2 + model.n_obs
        per_state = (tmp_path / "per_state.csv").read_text()
        assert "state,name,support,accuracy" in per_state

    def test_absent_state_renders_dash(self, tmp_path):
        sessions = [make_seq([0, 1, 0, 1], "x")]
        model = _cycle_model([0, 1], n_obs=3)
        report = evaluate(model, sessions, stride=1)
        write_per_state_csv(report, tmp_path / "ps.csv")
        rows = (tmp_path / "ps.csv").read_text().splitlines()
        assert rows[-1].endswith(",-")


class TestFeatureImportanceReport:
    def test_rows_cover_models_and_count(self, small_ensemble):
        corpus, config, model = small_ensemble
        rows = feature_importance_report(
            model, corpus.sessions[:80], config, n_retrain=2
        )
        names = {r.name for r in rows}
        expected = {f"hmm_{length}" for length in model.selected_lengths}
        expected.add("count")
        assert names == expected
