import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhmm.cli import main
from fhmm.config import RunConfig, parse_config_text
from fhmm.ensemble import load_ensemble
from fhmm.errors import ConfigError, DomainError
from fhmm.hmm import random_model, save_model
from fhmm.ingest import read_sessions, render_cowrie_lines, write_sessions

from conftest import make_seq


class TestConfigParsing:
    def test_defaults(self):
        config = parse_config_text("")
        assert config.k == 38
        assert config.n_hidden == 5
        assert config.stride == 1

    def test_values_and_comments(self):
        text = """
        # pipeline settings
        k = 6
        workers = 2
        lr = 0.05      # learning rate
        stride = 3
        """
        config = parse_config_text(text)
        assert config.k == 6
        assert config.workers == 2
        assert config.lr == pytest.approx(0.05)
        assert config.stride == 3

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("knn = 3")
        assert "knn" in str(err.value)
        # the fusion cost is fixed; files that still set it fail by name
        with pytest.raises(ConfigError) as err:
            parse_config_text("loss = quadratic")
        assert "unknown config key 'loss'" in str(err.value)
        # `workers` alone picks in-process or pooled training
        with pytest.raises(ConfigError) as err:
            parse_config_text("parallel = true")
        assert "unknown config key 'parallel'" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("k = 2\nk = 3")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            parse_config_text("k = many")

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            parse_config_text("train_frac = 1.5")
        with pytest.raises(ConfigError):
            parse_config_text("lr = 0")

    def test_to_doc_round_trips_all_fields(self):
        doc = RunConfig().to_doc()
        rebuilt = RunConfig(**doc)
        assert rebuilt == RunConfig()


def write_small_sessions(directory):
    rng = np.random.default_rng(0)
    sessions = []
    for i in range(160):
        length = int(rng.integers(4, 10))
        # alternating pattern with occasional flip noise
        base = np.arange(length) % 2
        sessions.append(make_seq(base, f"s{i}"))
    path = directory / "sessions.tsv"
    write_sessions(path, sessions)
    return path


def write_config(directory):
    path = directory / "run.cfg"
    path.write_text(
        "k = 2\nn_hidden = 3\nn_obs = 2\nmin_support = 5\n"
        "hidden_width = 8\nepochs = 10\nbase_seed = 4\nmax_iters = 40\n"
    )
    return path


@pytest.fixture()
def small_sessions_file(tmp_path):
    return write_small_sessions(tmp_path)


@pytest.fixture()
def config_file(tmp_path):
    return write_config(tmp_path)


class TestCli:
    def test_ingest_round_trip(self, tmp_path, capsys):
        truth = [make_seq([13, 14, 4, 15], "sess-a"), make_seq([16, 13], "sess-b")]
        log = tmp_path / "cowrie.json"
        log.write_text("\n".join(render_cowrie_lines(truth)) + "\n")
        out = tmp_path / "sessions.tsv"
        code = main([
            "ingest", "--logs", str(log), "--out", str(out),
            "--alphabet-out", str(tmp_path / "alphabet.tsv"),
        ])
        assert code == 0
        sessions = read_sessions(out)
        assert len(sessions) == 2
        np.testing.assert_array_equal(sessions[0].symbols, [13, 14, 4, 15])
        skip = json.loads((tmp_path / "sessions.tsv.skip.json").read_text())
        assert skip["total_lines"] == 6
        assert skip["mapped_events"] == 6

    def test_synth_writes_sessions_and_labels(self, tmp_path):
        out = tmp_path / "synth.tsv"
        labels = tmp_path / "labels.tsv"
        code = main([
            "synth", "--out", str(out), "--n", "50", "--seed", "3",
            "--labels-out", str(labels),
        ])
        assert code == 0
        assert len(read_sessions(out)) == 50
        assert len(labels.read_text().strip().splitlines()) == 50

    def test_partition_report(self, tmp_path, small_sessions_file, config_file):
        out = tmp_path / "plan.json"
        code = main([
            "partition", "--sessions", str(small_sessions_file),
            "--out", str(out), "--config", str(config_file),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "fhmm-plan/1"
        assert len(doc["selected_lengths"]) == 2

    def test_train_twice_is_byte_identical(self, tmp_path, small_sessions_file,
                                           config_file):
        out1 = tmp_path / "model1"
        out2 = tmp_path / "model2"
        for out in (out1, out2):
            code = main([
                "train", "--sessions", str(small_sessions_file),
                "--out", str(out), "--config", str(config_file),
            ])
            assert code == 0
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_parallel_flag_changes_no_artifacts(self, tmp_path,
                                                small_sessions_file, config_file):
        out_seq = tmp_path / "model_seq"
        out_par = tmp_path / "model_par"
        assert main([
            "train", "--sessions", str(small_sessions_file),
            "--out", str(out_seq), "--config", str(config_file),
        ]) == 0
        assert main([
            "train", "--sessions", str(small_sessions_file),
            "--out", str(out_par), "--config", str(config_file),
            "--workers", "2",
        ]) == 0
        for name in sorted(p.name for p in out_seq.iterdir()):
            assert (out_seq / name).read_bytes() == (out_par / name).read_bytes()

    def test_parallel_flag_is_gone(self, tmp_path, small_sessions_file,
                                   capsys):
        with pytest.raises(SystemExit) as exit_:
            main([
                "train", "--sessions", str(small_sessions_file),
                "--out", str(tmp_path / "m"), "--parallel",
            ])
        assert exit_.value.code == 2
        assert "--parallel" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_invalid_config_key_exits_2(self, tmp_path, small_sessions_file,
                                        capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("k = 2\nwat = 9\n")
        code = main([
            "train", "--sessions", str(small_sessions_file),
            "--out", str(tmp_path / "m"), "--config", str(bad),
        ])
        assert code == 2
        assert "wat" in capsys.readouterr().err

    def test_predict_known_next_state(self, tmp_path, small_sessions_file,
                                      config_file, capsys):
        model_dir = tmp_path / "model"
        main([
            "train", "--sessions", str(small_sessions_file),
            "--out", str(model_dir), "--config", str(config_file),
        ])
        capsys.readouterr()
        code = main(["predict", "--model", str(model_dir), "--prefix", "0,1,0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["prediction"] == 1
        assert all(key.startswith("hmm_") for key in doc["per_model"])
        assert len(doc["per_model"]) == 2

    def test_predict_malformed_prefix_exits_2(self, tmp_path,
                                              small_sessions_file, config_file):
        model_dir = tmp_path / "model"
        main([
            "train", "--sessions", str(small_sessions_file),
            "--out", str(model_dir), "--config", str(config_file),
        ])
        assert main(["predict", "--model", str(model_dir),
                     "--prefix", "0,x,1"]) == 2

    def test_evaluate_with_baselines_and_external(self, tmp_path,
                                                  small_sessions_file,
                                                  config_file, capsys):
        model_dir = tmp_path / "model"
        main([
            "train", "--sessions", str(small_sessions_file),
            "--out", str(model_dir), "--config", str(config_file),
        ])
        # perfect external predictions for the alternating corpus
        sessions = read_sessions(small_sessions_file)
        external = np.concatenate([s.symbols[1:] for s in sessions])
        ext_path = tmp_path / "external.txt"
        np.savetxt(ext_path, external, fmt="%d")
        out = tmp_path / "report"
        code = main([
            "evaluate", "--model", str(model_dir),
            "--sessions", str(small_sessions_file), "--out", str(out),
            "--baselines", "markov,hmm",
            "--train-sessions", str(small_sessions_file),
            "--external", str(ext_path), "--external-name", "lstm",
            "--config", str(config_file),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        models = summary["models"]
        assert set(models) == {"fhmm", "markov", "hmm", "lstm"}
        for doc in models.values():
            assert 0.0 <= float(doc["overall_accuracy"]) <= 1.0
        assert float(models["lstm"]["overall_accuracy"]) == 1.0
        assert (out / "confusion_fhmm.csv").exists()
        assert (out / "per_state_markov.csv").exists()

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_evaluate_external_out_of_range_exits_2(self, tmp_path,
                                                     small_sessions_file,
                                                     config_file, capsys, bad):
        model_dir = tmp_path / "model"
        main([
            "train", "--sessions", str(small_sessions_file),
            "--out", str(model_dir), "--config", str(config_file),
        ])
        # the perfect predictions of the alternating corpus, one of them
        # outside the two symbols of config_file
        sessions = read_sessions(small_sessions_file)
        external = np.concatenate([s.symbols[1:] for s in sessions])
        external[5] = bad
        ext_path = tmp_path / "external.txt"
        np.savetxt(ext_path, external, fmt="%d")
        capsys.readouterr()
        code = main([
            "evaluate", "--model", str(model_dir),
            "--sessions", str(small_sessions_file),
            "--out", str(tmp_path / "rep"), "--config", str(config_file),
            "--external", str(ext_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: external prediction outside")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["abc\n", "1.5\n"])
    def test_evaluate_malformed_external_file_exits_2(
        self, tmp_path, small_sessions_file, config_file, capsys, text
    ):
        model_dir = tmp_path / "model"
        main([
            "train", "--sessions", str(small_sessions_file),
            "--out", str(model_dir), "--config", str(config_file),
        ])
        ext_path = tmp_path / "external.txt"
        ext_path.write_text(text)
        capsys.readouterr()
        code = main([
            "evaluate", "--model", str(model_dir),
            "--sessions", str(small_sessions_file),
            "--out", str(tmp_path / "rep"), "--config", str(config_file),
            "--external", str(ext_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: malformed external predictions in {ext_path}"
        )
        assert "Traceback" not in err

    def test_evaluate_external_target_outside_the_config_exits_2(
        self, tmp_path, small_sessions_file, config_file, capsys
    ):
        # a model of three symbols evaluated under config_file's two: the
        # model takes symbol 2, the external alphabet of the config does not
        three = tmp_path / "three.cfg"
        three.write_text(config_file.read_text().replace(
            "n_obs = 2", "n_obs = 3"
        ))
        model_dir = tmp_path / "model"
        main([
            "train", "--sessions", str(small_sessions_file),
            "--out", str(model_dir), "--config", str(three),
        ])
        test_path = tmp_path / "test.tsv"
        write_sessions(test_path, [make_seq([0, 1, 0], "a"),
                                   make_seq([0, 2, 1], "b")])
        ext_path = tmp_path / "external.txt"
        np.savetxt(ext_path, [1, 0, 1, 0], fmt="%d")
        capsys.readouterr()
        code = main([
            "evaluate", "--model", str(model_dir),
            "--sessions", str(test_path),
            "--out", str(tmp_path / "rep"), "--config", str(config_file),
            "--external", str(ext_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sequence 'b' contains symbol 2")
        assert "Traceback" not in err

    def test_evaluate_baselines_require_train_sessions(self, tmp_path,
                                                       small_sessions_file,
                                                       config_file):
        model_dir = tmp_path / "model"
        main([
            "train", "--sessions", str(small_sessions_file),
            "--out", str(model_dir), "--config", str(config_file),
        ])
        code = main([
            "evaluate", "--model", str(model_dir),
            "--sessions", str(small_sessions_file),
            "--out", str(tmp_path / "rep"), "--baselines", "markov",
            "--config", str(config_file),
        ])
        assert code == 2

    def test_evaluate_correlation_matrix(self, tmp_path, small_sessions_file,
                                         config_file):
        model_dir = tmp_path / "model"
        main([
            "train", "--sessions", str(small_sessions_file),
            "--out", str(model_dir), "--config", str(config_file),
        ])
        corr_path = tmp_path / "correlation.csv"
        code = main([
            "evaluate", "--model", str(model_dir),
            "--sessions", str(small_sessions_file),
            "--out", str(tmp_path / "rep"), "--config", str(config_file),
            "--correlation-out", str(corr_path),
        ])
        assert code == 0
        lines = corr_path.read_text().strip().splitlines()
        assert lines[0] == "# fhmm-correlation/1"
        assert len(lines) == 2 + 2  # header rows + one per model

    @pytest.mark.parametrize("text, message", [
        ("{not json", "Expecting property name"),
        ('{"rules": []}', "missing field 'alphabet'"),
    ], ids=["not-json", "no-alphabet"])
    def test_bad_mapping_file_exits_2(self, tmp_path, capsys, text, message):
        log = tmp_path / "cowrie.json"
        log.write_text("\n".join(render_cowrie_lines(
            [make_seq([13, 14], "s")]
        )) + "\n")
        mapping = tmp_path / "mapping.json"
        mapping.write_text(text)
        code = main([
            "ingest", "--logs", str(log), "--mapping", str(mapping),
            "--out", str(tmp_path / "out.tsv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {mapping}: " in err and message in err
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("states, message", [
        ("1,-2,1", "symbols must be non-negative"),
        ("1,99999999999999999999", "too large"),
    ], ids=["negative", "beyond-int64"])
    def test_bad_symbol_names_its_line_and_exits_2(self, tmp_path, capsys,
                                                   states, message):
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(f"# fhmm-sessions/1\na\t0,1,0\nb\t{states}\n")
        code = main([
            "partition", "--sessions", str(sessions),
            "--out", str(tmp_path / "plan.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {sessions}:3: " in err and message in err

    def test_missing_log_file_exits_1(self, tmp_path):
        code = main([
            "ingest", "--logs", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out.tsv"),
        ])
        assert code == 1

    def test_sweep_csv_row_count(self, tmp_path, small_sessions_file,
                                 config_file):
        out = tmp_path / "curve.csv"
        code = main([
            "sweep", "--sessions", str(small_sessions_file),
            "--ks", "1,2", "--out", str(out), "--config", str(config_file),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 + 2

    @pytest.mark.parametrize("ks", ["-1,2", "0,2"])
    def test_sweep_k_below_one_exits_2(self, tmp_path, small_sessions_file,
                                       config_file, capsys, ks):
        out = tmp_path / "curve.csv"
        code = main([
            "sweep", "--sessions", str(small_sessions_file),
            f"--ks={ks}", "--out", str(out), "--config", str(config_file),
        ])
        assert code == 2
        assert "at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_without_a_test_session_exits_2(self, tmp_path, capsys):
        # train_frac 0.8 of two sessions rounds to two training sessions
        sessions = tmp_path / "sessions.tsv"
        write_sessions(sessions, [make_seq([0, 1, 0, 1], "a"),
                                  make_seq([1, 0, 1, 0], "b")])
        config = tmp_path / "run.cfg"
        config.write_text("k = 1\nn_hidden = 2\nn_obs = 2\nmin_support = 1\n"
                          "hidden_width = 4\nepochs = 2\nmax_iters = 5\n")
        out = tmp_path / "curve.csv"
        code = main([
            "sweep", "--sessions", str(sessions), "--ks", "1",
            "--out", str(out), "--config", str(config),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "train_frac" in err and "of 2" in err
        assert not out.exists()

    def test_sweep_without_a_training_session_exits_2(self, tmp_path, capsys):
        # train_frac 0.1 of two sessions rounds to no training session
        sessions = tmp_path / "sessions.tsv"
        write_sessions(sessions, [make_seq([0, 1, 0, 1], "a"),
                                  make_seq([1, 0, 1, 0], "b")])
        config = tmp_path / "run.cfg"
        config.write_text("k = 1\nn_hidden = 2\nn_obs = 2\nmin_support = 1\n"
                          "hidden_width = 4\nepochs = 2\nmax_iters = 5\n"
                          "train_frac = 0.1\n")
        out = tmp_path / "curve.csv"
        code = main([
            "sweep", "--sessions", str(sessions), "--ks", "1",
            "--out", str(out), "--config", str(config),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "train_frac 0.1 leaves no training session of 2" in err
        assert not out.exists()

    def test_train_importance_report(self, tmp_path, small_sessions_file,
                                     config_file):
        out = tmp_path / "model"
        table = tmp_path / "importance.tsv"
        code = main([
            "train", "--sessions", str(small_sessions_file), "--out", str(out),
            "--config", str(config_file), "--importance-out", str(table),
        ])
        assert code == 0
        text = table.read_text()
        assert "count" in text
        assert "hmm_" in text


class TestLoadValidation:
    """A damaged or mismatched model directory exits 2 with a message that
    names the file and the field, before any prediction runs."""

    def _train(self, tmp_path, sessions, config, name="model", k=None):
        out = tmp_path / name
        args = ["train", "--sessions", str(sessions), "--out", str(out),
                "--config", str(config)]
        if k is not None:
            args += ["--k", str(k)]
        assert main(args) == 0
        return out

    def _predict_error(self, model_dir, capsys):
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model_dir), "--prefix", "0,1,0"]
        )
        return code, capsys.readouterr().err

    def test_missing_key_exits_2(self, tmp_path, small_sessions_file,
                                 config_file, capsys):
        model_dir = self._train(tmp_path, small_sessions_file, config_file)
        path = model_dir / "ensemble.json"
        doc = json.loads(path.read_text())
        del doc["max_len"]
        path.write_text(json.dumps(doc))
        code, err = self._predict_error(model_dir, capsys)
        assert code == 2
        assert "ensemble.json" in err and "max_len" in err

    def test_fusion_from_another_k_exits_2(self, tmp_path, small_sessions_file,
                                           config_file, capsys):
        model_dir = self._train(tmp_path, small_sessions_file, config_file)
        other = self._train(tmp_path, small_sessions_file, config_file,
                            name="k1", k=1)
        (model_dir / "fusion.json").write_bytes(
            (other / "fusion.json").read_bytes()
        )
        code, err = self._predict_error(model_dir, capsys)
        assert code == 2
        assert "fusion.json" in err and "'W'" in err

    def test_hmm_alphabet_mismatch_exits_2(self, tmp_path, small_sessions_file,
                                           config_file, capsys):
        model_dir = self._train(tmp_path, small_sessions_file, config_file)
        length = json.loads(
            (model_dir / "ensemble.json").read_text()
        )["selected_lengths"][0]
        path = model_dir / f"hmm_{length}.json"
        doc = json.loads(path.read_text())
        # a valid three-symbol model in a two-symbol ensemble
        doc["n_obs"] = 3
        doc["b"] = [row + ["0"] for row in doc["b"]]
        path.write_text(json.dumps(doc))
        code, err = self._predict_error(model_dir, capsys)
        assert code == 2
        assert path.name in err and "n_obs" in err

    def test_hmm_hidden_state_mismatch_exits_2(self, tmp_path,
                                               small_sessions_file,
                                               config_file, capsys):
        model_dir = self._train(tmp_path, small_sessions_file, config_file)
        first, second = json.loads(
            (model_dir / "ensemble.json").read_text()
        )["selected_lengths"]
        # a valid two-state model beside the three-state models of
        # config_file
        path = model_dir / f"hmm_{second}.json"
        save_model(random_model(2, 2, seed=0), path)
        code, err = self._predict_error(model_dir, capsys)
        assert code == 2
        assert path.name in err and "n_hidden" in err
        assert f"hmm_{first}.json" in err

    @pytest.mark.parametrize("name, field", [("hmm", "a"), ("hmm", "pi"),
                                             ("fusion", "W"), ("fusion", "b")])
    def test_non_finite_parameter_exits_2(self, tmp_path, small_sessions_file,
                                          config_file, capsys, name, field):
        model_dir = self._train(tmp_path, small_sessions_file, config_file)
        if name == "hmm":
            length = json.loads(
                (model_dir / "ensemble.json").read_text()
            )["selected_lengths"][-1]
            name = f"hmm_{length}"
        path = model_dir / f"{name}.json"
        doc = json.loads(path.read_text())
        entries = doc[field] if isinstance(doc[field][0], list) else [doc[field]]
        entries[0][0] = "NaN"
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match=path.name):
            load_ensemble(model_dir)
        code, err = self._predict_error(model_dir, capsys)
        assert code == 2
        assert path.name in err and "non-finite" in err

    def test_damaged_file_exits_2(self, tmp_path, small_sessions_file,
                                  config_file, capsys):
        model_dir = self._train(tmp_path, small_sessions_file, config_file)
        fusion = model_dir / "fusion.json"
        text = fusion.read_text()
        fusion.write_text(text[: len(text) // 2])
        code, err = self._predict_error(model_dir, capsys)
        assert code == 2
        assert "fusion.json" in err
        fusion.write_text(text)

        length = json.loads(
            (model_dir / "ensemble.json").read_text()
        )["selected_lengths"][0]
        path = model_dir / f"hmm_{length}.json"
        doc = json.loads(path.read_text())
        doc["b"][0][1] = "half"
        path.write_text(json.dumps(doc))
        code, err = self._predict_error(model_dir, capsys)
        assert code == 2
        assert path.name in err and "half" in err

        # a missing file stays an I/O failure
        path.unlink()
        code, err = self._predict_error(model_dir, capsys)
        assert code == 1
        assert path.name in err

    @pytest.mark.parametrize("field, value, message", [
        ("max_len", 0, "below 1"),
        ("selected_lengths", "repeat", "repeats a length"),
        ("alphabet", ["state_0"], "names 1 symbols, n_obs is 2"),
    ])
    def test_inconsistent_ensemble_json_exits_2(
        self, tmp_path, small_sessions_file, config_file, capsys, field,
        value, message,
    ):
        model_dir = self._train(tmp_path, small_sessions_file, config_file)
        path = model_dir / "ensemble.json"
        doc = json.loads(path.read_text())
        if value == "repeat":
            value = doc[field][:1] * 2
        doc[field] = value
        path.write_text(json.dumps(doc))
        code, err = self._predict_error(model_dir, capsys)
        assert code == 2
        assert "ensemble.json" in err and field in err and message in err


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    out = root / "model"
    assert main(["train", "--sessions", str(write_small_sessions(root)),
                 "--out", str(out), "--config", str(write_config(root))]) == 0
    return out


def leaf_paths(doc, path=()):
    """The key paths of every value in `doc` that is not a dict or list."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [p for key, value in items for p in leaf_paths(value, path + (key,))]


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# One kind of damage to one file: "nan" and "type" replace one value,
# "ragged" gives one row of a matrix an extra entry, "truncate" cuts the
# file short.  plan.json is drawn only for structural damage: its arrays
# are not checked for finite values, and its "projection_2d" is a report
# that loading does not read.
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_model_directory_fails_closed(saved_model, data):
    names = sorted(p.name for p in saved_model.glob("*.json"))
    name = data.draw(st.sampled_from(names), label="file")
    text = (saved_model / name).read_text()
    doc = json.loads(text)
    kinds = ["type", "ragged", "truncate"]
    if name != "plan.json":
        kinds.append("nan")
    leaves = [p for p in leaf_paths(doc) if p[0] != "projection_2d"]
    rows = [p[:-1] for p in leaves
            if len(p) >= 2 and isinstance(at(doc, p[:-2]), list)
            and len(at(doc, p[:-2])) >= 2]
    if not rows:
        kinds.remove("ragged")
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "truncate":
        cut = data.draw(st.integers(0, len(text.rstrip()) - 1), label="cut")
        damaged = text[:cut]
    else:
        if kind == "ragged":
            row = at(doc, data.draw(st.sampled_from(rows), label="row"))
            row.append(row[-1])
        else:
            path = data.draw(st.sampled_from(leaves), label="field")
            at(doc, path[:-1])[path[-1]] = (
                float("nan") if kind == "nan" else {"damaged": True}
            )
        damaged = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        model_dir = Path(tmp) / "model"
        shutil.copytree(saved_model, model_dir)
        (model_dir / name).write_text(damaged)
        with pytest.raises(DomainError, match=name):
            load_ensemble(model_dir)
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["predict", "--model", str(model_dir),
                         "--prefix", "0,1,0"])
        assert code == 2
        assert name in err.getvalue()
