"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s` or in the
captured output of a failure) and enforces its runtime cap.  The heavy
criteria share one session-scoped standard-benchmark fixture.
"""

import itertools
import time

import numpy as np
import pytest

from fhmm.benchmark import standard_benchmark, standard_config, standard_generators
from fhmm.ensemble import (
    evaluate,
    feature_importance_report,
    save_ensemble,
    sweep_k,
    train_ensemble,
)
from fhmm.fusion import FusionHyper, cost_and_gradients, init_network
from fhmm.hmm import (
    HmmModel,
    baum_welch_fit,
    forward_backward,
    predict_next,
    random_model,
    sample_batch,
    score,
)
from fhmm.ingest import parse_logs, render_cowrie_lines, synth_corpus, SynthSpec
from fhmm.markov import fit_markov
from fhmm.partition import frequency_array
from fhmm.sequences import StateSequence

from conftest import draw
import oracles


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert passed, f"criterion {number} failed: {name} {suffix}"


@pytest.fixture(scope="session")
def benchmark_data():
    return standard_benchmark()


@pytest.fixture(scope="session")
def trained_pair(benchmark_data, tmp_path_factory):
    """Sequential and parallel trainings of the standard ensemble, timed
    twice each; byte-identity and wall times feed criteria 5, 6 and 10."""
    root = tmp_path_factory.mktemp("acceptance-models")
    times = {"sequential": [], "parallel": []}
    models = {}
    for _ in range(2):
        t0 = time.perf_counter()
        models["sequential"] = train_ensemble(
            benchmark_data.train, standard_config()
        )
        times["sequential"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        models["parallel"] = train_ensemble(
            benchmark_data.train, standard_config(workers=4)
        )
        times["parallel"].append(time.perf_counter() - t0)
    save_ensemble(models["sequential"], root / "sequential")
    save_ensemble(models["parallel"], root / "parallel")
    return models, times, root


class TestCriterion1EmMonotonicity:
    def test_em_traces_non_decreasing(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        cases = list(itertools.product((2, 3, 5), (4, 19)))
        for fit_index in range(50):
            n_hidden, n_obs = cases[fit_index % len(cases)]
            gen = random_model(n_hidden, n_obs, seed=int(rng.integers(1 << 30)))
            n_seqs = int(rng.integers(20, 201))
            lengths = rng.integers(8, 16, size=n_seqs)
            seqs = [
                StateSequence(o, f"c1-{fit_index}-{i}")
                for i, o in enumerate(sample_batch(gen, lengths, rng))
            ]
            _, trace = baum_welch_fit(
                seqs, n_hidden=n_hidden, n_obs=n_obs,
                seed=int(rng.integers(1 << 30)),
            )
            diffs = np.diff(trace)
            if diffs.size:
                worst = min(worst, float(diffs.min()))
            assert (diffs >= -1e-8).all(), (
                f"fit {fit_index} (N={n_hidden}, M={n_obs}): "
                f"worst step {diffs.min():.3e}"
            )
        elapsed = time.perf_counter() - start
        _report(
            1, "EM monotonicity over 50 seeded fits",
            elapsed < 120.0, f"worst step {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2InferenceOracle:
    def test_forward_backward_and_prediction_match_oracles(self):
        start = time.perf_counter()
        worst_ll = 0.0
        for case in range(100):
            n_hidden = 1 + case % 3
            n_obs = 2 + case % 3
            T = 1 + case % 8
            model = random_model(n_hidden, n_obs, seed=5000 + case)
            seq = draw(model, T, seed=6000 + case)
            ws = forward_backward(model, seq)
            expected = oracles.enumerate_log_likelihood(
                model.A, model.B, model.pi, seq.symbols
            )
            worst_ll = max(worst_ll, abs(ws.log_likelihood - expected))
            assert abs(ws.log_likelihood - expected) < 1e-9

            prefix = draw(model, max(T, 2), seed=7000 + case)
            got, _ = predict_next(model, prefix)
            brute = oracles.brute_force_predict(
                lambda ext: score(model, StateSequence(ext)),
                prefix.symbols, n_obs,
            )
            assert got == brute, f"case {case}: {got} != brute-force {brute}"
        elapsed = time.perf_counter() - start
        _report(
            2, "inference matches exhaustive enumeration and brute force",
            elapsed < 60.0, f"worst |dll| {worst_ll:.2e}, {elapsed:.1f}s",
        )


class TestCriterion3NormalizationSuite:
    def test_all_distributions_normalized(self):
        worst = 0.0
        rng = np.random.default_rng(31)
        for case in range(30):
            n_hidden = 2 + case % 3
            n_obs = 3 + case % 4
            model = random_model(n_hidden, n_obs, seed=100 + case)
            seq = draw(model, 3 + case % 10, seed=200 + case)
            ws = forward_backward(model, seq)
            worst = max(worst, float(np.abs(ws.gamma.sum(axis=1) - 1).max()))
            if len(seq) > 1:
                worst = max(
                    worst, float(np.abs(ws.digamma.sum(axis=(1, 2)) - 1).max())
                )
            seqs = [
                StateSequence(o, f"c3-{case}-{i}")
                for i, o in enumerate(
                    sample_batch(model, rng.integers(4, 12, size=25), rng)
                )
            ]
            fit, _ = baum_welch_fit(
                seqs, n_hidden=n_hidden, n_obs=n_obs, seed=case, max_iters=30
            )
            worst = max(worst, float(np.abs(fit.A.sum(axis=1) - 1).max()))
            worst = max(worst, float(np.abs(fit.B.sum(axis=1) - 1).max()))
            worst = max(worst, float(abs(fit.pi.sum() - 1)))
            fa = frequency_array(seqs, n_obs)
            worst = max(worst, float(abs(fa.probs.sum() - 1)))
        _report(
            3, "gamma/digamma/A/B/pi/frequency normalization within 1e-9",
            worst <= 1e-9, f"worst deviation {worst:.2e}",
        )


class TestCriterion4FusionGradients:
    def test_backprop_matches_central_differences(self):
        start = time.perf_counter()
        eps = 1e-5
        overall = 0.0
        for case in range(20):
            rng = np.random.default_rng(9000 + case)
            k, m = 2 + case % 3, 3 + case % 3
            hyper = FusionHyper(hidden_width=4 + case % 5, seed=case, l2=1e-3)
            net = init_network(k * m + 1, m, hyper)
            X = rng.random((4, k * m + 1))
            Y = oracles.one_hot_targets(rng.integers(0, m, size=4), m)
            _, grads = cost_and_gradients(net, X, Y)
            for name in ("W", "c", "w", "b"):
                flat = getattr(net, name).ravel()
                probe = rng.choice(flat.size, size=min(8, flat.size), replace=False)
                for idx in probe:
                    def cost_at(v, idx=idx, flat=flat):
                        old = flat[idx]
                        flat[idx] = v
                        c, _ = cost_and_gradients(net, X, Y)
                        flat[idx] = old
                        return c

                    numeric = oracles.central_difference(cost_at, flat[idx], eps)
                    analytic = grads[name].ravel()[idx]
                    rel = abs(numeric - analytic) / max(
                        abs(numeric), abs(analytic), 1e-8
                    )
                    overall = max(overall, rel)
        elapsed = time.perf_counter() - start
        _report(
            4, "fusion gradients match finite differences (rel < 1e-4)",
            overall < 1e-4 and elapsed < 30.0,
            f"max rel {overall:.2e}, {elapsed:.1f}s",
        )


class TestCriterion5ParallelEquivalence:
    def test_byte_identical_and_faster(self, trained_pair):
        models, times, root = trained_pair
        seq_dir = root / "sequential"
        par_dir = root / "parallel"
        names_seq = sorted(p.name for p in seq_dir.iterdir())
        names_par = sorted(p.name for p in par_dir.iterdir())
        identical = names_seq == names_par and all(
            (seq_dir / name).read_bytes() == (par_dir / name).read_bytes()
            for name in names_seq
        )
        t_seq = min(times["sequential"])
        t_par = min(times["parallel"])
        total = sum(times["sequential"]) + sum(times["parallel"])
        _report(
            5, "parallel == sequential bytes, parallel strictly faster",
            identical and t_par < t_seq and total < 600.0,
            f"seq {t_seq:.1f}s vs par {t_par:.1f}s, {len(names_seq)} files",
        )


class TestCriterion6AccuracyOrdering:
    def test_markov_below_hmm_below_fhmm(self, benchmark_data, trained_pair):
        start = time.perf_counter()
        config = standard_config()
        models, _, _ = trained_pair
        fhmm_model = models["sequential"]

        markov = fit_markov(benchmark_data.train, n_obs=19, smoothing=1.0)
        acc_markov = evaluate(
            markov, benchmark_data.test, stride=config.stride
        ).overall_accuracy
        single, _ = baum_welch_fit(
            benchmark_data.train, n_hidden=config.n_hidden, n_obs=19,
            seed=config.base_seed, tol=config.tol, max_iters=config.max_iters,
        )
        acc_hmm = evaluate(
            single, benchmark_data.test, stride=config.stride
        ).overall_accuracy
        acc_fhmm = evaluate(
            fhmm_model, benchmark_data.test, stride=config.stride
        ).overall_accuracy
        elapsed = time.perf_counter() - start
        ordered = acc_markov < acc_hmm < acc_fhmm
        gap = acc_fhmm - acc_hmm
        _report(
            6, "accuracy ordering markov < single HMM < FHMM (gap >= 5pp)",
            ordered and gap >= 0.05 and elapsed < 900.0,
            f"markov {acc_markov:.4f} < hmm {acc_hmm:.4f} < fhmm {acc_fhmm:.4f}, "
            f"gap {100 * gap:.1f}pp, {elapsed:.0f}s",
        )


class TestCriterion7SweepPlateau:
    def test_error_drops_then_plateaus(self, benchmark_data):
        start = time.perf_counter()
        sessions = benchmark_data.train + benchmark_data.test
        curve = sweep_k(sessions, [1, 2, 4, 8, 16, 24, 32], standard_config())
        errors = dict(curve)
        elapsed = time.perf_counter() - start
        big_drop = errors[32] <= errors[1] - 0.03
        plateau = abs(errors[32] - errors[24]) <= 0.01
        _report(
            7, "sweep error drops >= 3pp by k=32 and plateaus after k=24",
            big_drop and plateau and elapsed < 1800.0,
            f"err(1)={errors[1]:.4f} err(24)={errors[24]:.4f} "
            f"err(32)={errors[32]:.4f}, {elapsed:.0f}s",
        )


class TestCriterion8GeneratorRecovery:
    def test_two_state_transitions_recovered(self):
        start = time.perf_counter()
        gen = HmmModel(
            n_hidden=2, n_obs=3,
            A=np.array([[0.85, 0.15], [0.25, 0.75]]),
            B=np.array([[0.90, 0.10, 0.00], [0.05, 0.15, 0.80]]),
            pi=np.array([0.6, 0.4]),
        )
        rng = np.random.default_rng(77)
        seqs = [
            StateSequence(o, f"c8-{i}")
            for i, o in enumerate(sample_batch(gen, np.full(500, 20), rng))
        ]
        fit, _ = baum_welch_fit(seqs, n_hidden=2, n_obs=3, seed=5)
        best = min(
            float(np.abs(fit.A[np.ix_(perm, perm)] - gen.A).max())
            for perm in (
                [list(p) for p in itertools.permutations(range(2))]
            )
        )
        elapsed = time.perf_counter() - start
        _report(
            8, "2-state generator transition recovery within 0.1",
            best < 0.1 and elapsed < 60.0,
            f"max-abs {best:.4f} (best permutation), {elapsed:.1f}s",
        )


class TestCriterion9IngestionRoundTrip:
    def test_render_parse_identity_and_accounting(self):
        start = time.perf_counter()
        corpus = synth_corpus(SynthSpec(
            generators=standard_generators(), n_sessions=1000, seed=404,
        ))
        truth = corpus.sessions
        lines = render_cowrie_lines(truth)
        sessions, report = parse_logs(lines)
        identical = len(sessions) == len(truth) and all(
            got.session_id == want.session_id
            and np.array_equal(got.symbols, want.symbols)
            for got, want in zip(sessions, truth)
        )
        clean_accounting = (
            report.total_lines == len(lines)
            and report.mapped_events == len(lines)
            and report.unmapped_events == 0
            and not report.malformed_lines
        )

        # dirty variant: every fate still accounted for, line by line
        dirty = list(lines[:500])
        dirty.insert(10, "{broken json")
        dirty.insert(99, '{"eventid": "cowrie.who.knows", "session": "x", '
                         '"timestamp": "2017-04-01T00:00:00Z"}')
        dirty.append('{"eventid": "cowrie.login.failed", "session": "lonely", '
                     '"timestamp": "2017-04-02T00:00:00Z"}')
        parsed, dirty_report = parse_logs(dirty)
        exact = (
            dirty_report.total_lines == len(dirty)
            and len(dirty_report.malformed_lines) + dirty_report.unmapped_events
            + dirty_report.mapped_events == dirty_report.total_lines
            and dirty_report.kept_events == sum(len(s) for s in parsed)
            and dirty_report.short_sessions_dropped >= 1
        )
        elapsed = time.perf_counter() - start
        _report(
            9, "1,000-session render/parse identity with exact accounting",
            identical and clean_accounting and exact and elapsed < 30.0,
            f"{len(truth)} sessions, {len(lines)} events, {elapsed:.1f}s",
        )


class TestCriterion10FeatureImportance:
    def test_report_shape_and_determinism(self, benchmark_data, trained_pair):
        start = time.perf_counter()
        models, _, _ = trained_pair
        model = models["sequential"]
        config = standard_config()
        rows = feature_importance_report(
            model, benchmark_data.train, config, n_retrain=5
        )
        rows_again = feature_importance_report(
            model, benchmark_data.train, config, n_retrain=5
        )
        names = {r.name for r in rows}
        expected = {f"hmm_{length}" for length in model.selected_lengths}
        expected.add("count")
        deterministic = [
            (r.name, r.weight, r.std) for r in rows
        ] == [(r.name, r.weight, r.std) for r in rows_again]
        shape_ok = (
            names == expected
            and len(rows) == model.k + 1
            and all(r.std >= 0.0 for r in rows)
        )
        elapsed = time.perf_counter() - start
        _report(
            10, "feature-importance table: count + one row per HMM, "
            "deterministic per seed set",
            shape_ok and deterministic and elapsed < 1200.0,
            f"{len(rows)} rows, top feature {rows[0].name}, {elapsed:.0f}s",
        )
