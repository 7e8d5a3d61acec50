"""The benchmark's own tests: every workload at a tiny scale, every check
against a corrupted output, and the attempted/failed accounting.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from checks import (
    Ledger,
    bigram_accuracy,
    forward_log_likelihood,
    non_decreasing,
    point_count,
)
from speed import Speed
from tracing import Tracer
from fhmm.benchmark import standard_benchmark
from fhmm.ensemble import evaluate
from fhmm.hmm import HmmModel, baum_welch_fit, score
from fhmm.markov import fit_markov
from fhmm.sequences import StateSequence

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def tiny_ctx(tmp_path, trace=False):
    return workloads.Context(
        scale=workloads.TINY, seed=5, seconds=0, work=tmp_path,
        run_py=BENCH / "run.py", ledger=Ledger(), speed=Speed(),
        tracer=Tracer() if trace else None,
    )


def run_workload(name, tmp_path, trace=False):
    ctx = tiny_ctx(tmp_path, trace)
    values = getattr(workloads, f"{name}_workload")(ctx)
    return ctx.ledger, values


# ---------------------------------------------------------------------------
# Every workload end to end, through the command line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["train", "baseline", "replay"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_every_check(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert not [k for k in details["extra"] if "." in k], details["extra"]
    assert details["machine"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli("--workload", "train", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_served_sessions_follow_the_generator_mix_and_length_histogram():
    data = standard_benchmark(200, 2000, 1)
    first = workloads.draw_served(data, 20, 1)
    assert [s.session_id for s in first] == [
        s.session_id for s in workloads.draw_served(data, 20, 1)
    ]
    generator = dict(zip((s.session_id for s in data.test), data.test_labels))
    served: dict[str, list[int]] = {}
    for s in first:
        served.setdefault(generator[s.session_id], []).append(len(s))
    # shares by the mixture weights 0.40 / 0.35 / 0.25
    assert {g: len(v) for g, v in served.items()} == {
        "short-probe": 8, "scripted-loop": 7, "persistent": 5,
    }
    # within a generator, the middle session of each of its equal strata
    for g, lengths in served.items():
        pool = sorted(len(s) for s, h in zip(data.test, data.test_labels) if h == g)
        n = len(lengths)
        assert sorted(lengths) == [
            pool[(2 * i + 1) * len(pool) // (2 * n)] for i in range(n)
        ]
    # another seed picks other sessions of the same lengths
    other = workloads.draw_served(data, 20, 2)
    assert sorted(map(len, other)) == sorted(map(len, first))
    assert {s.session_id for s in other} != {s.session_id for s in first}


# ---------------------------------------------------------------------------
# Each check fails on a corrupted output
# ---------------------------------------------------------------------------

def corrupt_call(monkeypatch, name, change, which=1):
    """Replace workloads.<name> so that the output of its `which`-th call,
    or of every call when `which` is None, is changed."""
    real = getattr(workloads, name)
    calls = []

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(1)
        return change(out) if which in (None, len(calls)) else out

    monkeypatch.setattr(workloads, name, patched)


def problems_after(workload, tmp_path, trace=False):
    ledger, _ = run_workload(workload, tmp_path, trace)
    assert not ledger.correct
    assert ledger.failed >= 1
    return " | ".join(ledger.problems)


def test_point_count_check(monkeypatch, tmp_path):
    corrupt_call(monkeypatch, "evaluate",
                       lambda r: dataclasses.replace(r, n_points=r.n_points + 1))
    assert "evaluation points" in problems_after("train", tmp_path)


def test_bigram_margin_check(monkeypatch, tmp_path):
    corrupt_call(monkeypatch, "evaluate",
                       lambda r: dataclasses.replace(r, overall_accuracy=0.1))
    assert "above the bigram" in problems_after("train", tmp_path)


def test_reload_check(monkeypatch, tmp_path):
    def nudge(model):
        model.fusion.b[0] += 10.0
        return model
    corrupt_call(monkeypatch, "load_ensemble", nudge, which=None)
    assert "reloaded model evaluates differently" in problems_after(
        "train", tmp_path
    )


def flip_one_prediction(monkeypatch, name, call_index=3):
    """Make the call_index-th call of workloads.<name> predict another
    symbol."""
    real = getattr(workloads, name)
    calls = []

    def patched(*args):
        out = real(*args)
        calls.append(1)
        if len(calls) != call_index:
            return out
        if name == "predict":
            return dataclasses.replace(out, symbol=(out.symbol + 1) % 19)
        if name == "forward":
            return out[0], (out[1] + 1) % 19
        return (out[0] + 1) % 19, out[1]

    monkeypatch.setattr(workloads, name, patched)


def test_serve_check_single_hmm(monkeypatch):
    data = standard_benchmark(300, 400, 4)
    hmm, _ = baum_welch_fit(data.train, n_hidden=4, n_obs=19, seed=1, max_iters=3)
    sessions = workloads.draw_served(data, 6, 4)
    flip_one_prediction(monkeypatch, "predict_next")
    ledger = Ledger()
    workloads.serve(ledger, Speed(), 0, sessions, hmm)
    assert ledger.failed == 1
    assert "differ from evaluate at stride 1" in ledger.problems[0]


def test_train_and_baseline_count_the_served_sessions(tmp_path):
    for name in ("train", "baseline"):
        (tmp_path / name).mkdir()
        ledger, _ = run_workload(name, tmp_path / name)
        assert ledger.correct, ledger.problems
        # set-ups, job steps (train or fit, evaluate, reload), the served
        # sessions' evaluate, one pass of served sessions
        assert ledger.attempted == (
            workloads.TINY.setups + 3 + 1 + workloads.TINY.served
        )


def test_serve_check_replay(monkeypatch, tmp_path):
    flip_one_prediction(monkeypatch, "predict")
    ledger, _ = run_workload("replay", tmp_path)
    assert ledger.failed == 1
    assert "differ from evaluate at stride 1" in ledger.problems[0]


def test_traced_pipeline_must_save_the_same_directory(monkeypatch, tmp_path):
    def nudge(out):
        net, trace = out
        net.W[0, 0] += 1e-9
        return net, trace
    corrupt_call(monkeypatch, "train_fusion_arrays", nudge)
    assert "saved a different model directory" in problems_after(
        "train", tmp_path, trace=True
    )


def test_traced_replay_must_match_predict(monkeypatch, tmp_path):
    flip_one_prediction(monkeypatch, "forward")
    assert "traced predictions differ" in problems_after(
        "replay", tmp_path, trace=True
    )


def change_trace(monkeypatch, change, which=None):
    """Change the EM trace of the `which`-th fit, or of every fit."""
    corrupt_call(monkeypatch, "baum_welch_fit",
                 lambda out: (out[0], change(list(out[1]))), which=which)


def test_em_trace_must_not_decrease(monkeypatch, tmp_path):
    change_trace(monkeypatch, lambda t: [t[0], t[0] - 1.0, *t[2:]])
    assert "EM trace decreases" in problems_after("baseline", tmp_path)


def test_final_log_likelihood_must_match_reference(monkeypatch, tmp_path):
    change_trace(monkeypatch, lambda t: [*t[:-1], t[-1] * (1 - 1e-7)])
    assert "reference forward pass" in problems_after("baseline", tmp_path)


def test_em_must_end_on_the_budget(monkeypatch, tmp_path):
    change_trace(monkeypatch, lambda t: t[:-1])
    assert "EM stopped after" in problems_after("baseline", tmp_path)


def test_hmm_must_beat_markov(monkeypatch, tmp_path):
    corrupt_call(monkeypatch, "evaluate",
                       lambda r: dataclasses.replace(r, overall_accuracy=0.0),
                       which=None)
    assert "does not exceed Markov" in problems_after("baseline", tmp_path)


def test_reloaded_hmm_check(monkeypatch, tmp_path):
    def nudge(model):
        model.B = model.B[:, ::-1].copy()
        return model
    corrupt_call(monkeypatch, "load_model", nudge, which=None)
    assert "reloaded model evaluates differently" in problems_after(
        "baseline", tmp_path
    )


# ---------------------------------------------------------------------------
# Attempted and failed operations
# ---------------------------------------------------------------------------

def last_result(capsys):
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_raised_error_is_a_failed_operation(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(workloads, "evaluate", boom)
    code = run.main(["--workload", "train", "--seed", "2", "--seconds", "0",
                     "--scale", "tiny"])
    result = last_result(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == workloads.TINY.setups + 2   # setups, train, evaluate


def test_failed_check_is_a_failed_operation(monkeypatch, capsys):
    flip_one_prediction(monkeypatch, "predict")
    code = run.main(["--workload", "replay", "--seed", "2", "--seconds", "0",
                     "--scale", "tiny"])
    result = last_result(capsys)
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == 1
    # set-ups, training and loading the served model, the served sessions'
    # evaluate, one per replayed session
    assert result["attempted"] == workloads.TINY.setups + 3 + workloads.TINY.served


def test_ledger_counts_an_operation_once():
    ledger = Ledger()
    with ledger.op("a"):
        ledger.check(False, "one")
        ledger.check(False, "two")
    with ledger.op("b"):
        ledger.check(True, "fine")
    with pytest.raises(ValueError):
        with ledger.op("c"):
            raise ValueError("x")
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert not ledger.correct


# ---------------------------------------------------------------------------
# The references agree with the library where both are right
# ---------------------------------------------------------------------------

def test_references_agree_with_the_package():
    data = standard_benchmark(300, 100, 4)
    hmm, trace = baum_welch_fit(data.train, n_hidden=4, n_obs=19, seed=1,
                                max_iters=4)
    ours = forward_log_likelihood(hmm.A, hmm.B, hmm.pi, data.train)
    assert ours == pytest.approx(sum(score(hmm, s) for s in data.train), rel=1e-12)
    assert non_decreasing(trace)
    markov = evaluate(fit_markov(data.train, 19), data.test, stride=3)
    assert bigram_accuracy(data.train, data.test, 3, 19) == markov.overall_accuracy
    assert point_count(data.test, 3) == markov.n_points


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("bench.job") as job:
        with tr.span("hmm.fit") as fit:
            pass
    self_times = tr.self_times()
    assert self_times["hmm"] == pytest.approx(fit["end"] - fit["start"])
    assert self_times["bench"] == pytest.approx(
        (job["end"] - job["start"]) - (fit["end"] - fit["start"])
    )
    assert tr.total("hmm.fit", under="bench.job") == tr.total("hmm.fit")
    assert np.isclose(tr.total("hmm.fit", under="other"), 0.0)


def test_a_tied_symbol_other_than_the_batched_one_fails(monkeypatch):
    B = np.full((2, 5), 0.1)
    B[:, 3] = B[:, 4] = 0.3                      # symbols 3 and 4 always tie
    hmm = HmmModel(n_hidden=2, n_obs=5, A=np.full((2, 2), 0.5), B=B,
                   pi=np.array([0.5, 0.5]))
    session = StateSequence(np.array([0, 1, 2, 3]), session_id="tie")
    [batched] = workloads.batched_predictions(hmm, [session])
    assert list(batched) == [3, 3, 3]
    ledger = Ledger()
    workloads.serve(ledger, Speed(), 0, [session], hmm)
    assert ledger.correct, ledger.problems

    def other_tied_symbol(model, prefix):
        return 7 - int(batched[len(prefix) - 1]), None
    monkeypatch.setattr(workloads, "predict_next", other_tied_symbol)
    ledger = Ledger()
    workloads.serve(ledger, Speed(), 0, [session], hmm)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.problems == [
        "serve tie: online predictions differ from evaluate at stride 1 "
        "after prefixes of length [1, 2, 3]"
    ]


def test_every_pass_is_checked(monkeypatch):
    data = standard_benchmark(300, 400, 4)
    hmm, _ = baum_welch_fit(data.train, n_hidden=4, n_obs=19, seed=1, max_iters=3)
    sessions = workloads.draw_served(data, 6, 4)
    calls_per_pass = sum(len(s) - 1 for s in sessions)
    flip_one_prediction(monkeypatch, "predict_next", calls_per_pass + 1)
    ledger = Ledger()
    workloads.serve(ledger, Speed(), 2.0, sessions, hmm)
    assert ledger.failed == 1
    assert ledger.attempted >= 1 + 2 * len(sessions)
    assert "differ from evaluate at stride 1" in ledger.problems[0]


def test_traced_train_evaluate_must_match(monkeypatch, tmp_path):
    corrupt_call(monkeypatch, "forward_batch",
                 lambda scores: np.roll(scores, 1, axis=1), which=None)
    assert "traced evaluate scores differently" in problems_after(
        "train", tmp_path, trace=True
    )


def test_traced_baseline_fit_must_match(monkeypatch, tmp_path):
    change_trace(monkeypatch, lambda t: [*t[:-1], t[-1] + 1.0], which=2)
    assert "traced fit differs" in problems_after("baseline", tmp_path, trace=True)


def test_traced_baseline_evaluate_must_match(monkeypatch, tmp_path):
    # the job evaluates the HMM and Markov pair BASELINE_EVALUATIONS times;
    # the call after those is the traced HMM evaluate
    corrupt_call(monkeypatch, "evaluate",
                 lambda r: dataclasses.replace(r, overall_accuracy=0.0),
                 which=2 * workloads.BASELINE_EVALUATIONS + 1)
    assert "traced evaluate scores differently" in problems_after(
        "baseline", tmp_path, trace=True
    )
