import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhmm.errors import DomainError
from fhmm.hmm import HmmModel
from fhmm.ingest import (
    COMMAND_CLASSES,
    EventMapping,
    GeneratorSpec,
    LengthDistribution,
    MappingRule,
    SynthSpec,
    classify_command,
    default_mapping,
    parse_logs,
    read_sessions,
    render_cowrie_lines,
    synth_corpus,
    write_alphabet,
    write_sessions,
)

from conftest import make_seq


def _event(eventid, session, ts, **extra):
    record = {"eventid": eventid, "session": session, "timestamp": ts}
    record.update(extra)
    return json.dumps(record)


class TestClassifyCommand:
    @pytest.mark.parametrize("text,expected", [
        ("rm -rf /tmp/x", "delete"),
        ("unlink /etc/passwd", "delete"),
        ("SHRED -u secrets", "delete"),
        ("cd /root", "dir-sudo"),
        ("sudo su", "dir-sudo"),
        ("chmod 777 x", "dir-sudo"),
        ("uname -a", "system"),
        ("ps aux", "system"),
        ("cat /proc/cpuinfo", "system"),
        ("echo hello > /tmp/f", "write"),
        ("cat x > y", "write"),
        ("wget -O /tmp/payload http://evil", "write"),
        ("touch /tmp/marker", "write"),
        ("tee /var/log/x", "write"),
        ("cat /etc/passwd", "other"),
        ("wget http://mirror/x", "other"),
        ("curl example.com", "other"),
    ])
    def test_rule_table(self, text, expected):
        assert classify_command(text) == expected

    @given(st.text(min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_total_partition(self, text):
        assert classify_command(text) in COMMAND_CLASSES


class TestEventMapping:
    def test_default_covers_all_states(self):
        mapping = default_mapping()
        assert len(mapping.alphabet) == 19
        assert mapping.alphabet[0] == "client.size"
        assert mapping.alphabet[18] == "session.input"

    def test_prefix_stripping(self):
        mapping = default_mapping()
        assert mapping.map_event("cowrie.login.failed", None) == 13
        assert mapping.map_event("login.failed", None) == 13

    def test_command_dispatch(self):
        mapping = default_mapping()
        assert mapping.map_event("cowrie.command.input", "rm -rf /") == 3
        assert mapping.map_event("cowrie.command.input", "ls") == 4
        assert mapping.map_event("cowrie.command.input", "blah") == 5
        assert mapping.map_event("cowrie.command.input", "uname") == 6
        assert mapping.map_event("cowrie.command.input", "touch x") == 7

    def test_unknown_event_is_none(self):
        assert default_mapping().map_event("cowrie.weird.thing", None) is None

    def test_incomplete_mapping_rejected(self):
        with pytest.raises(DomainError):
            EventMapping(
                rules=[MappingRule(event="x", state=0)],
                alphabet=["s"] * 19,
            )


class TestParseLogs:
    def test_two_events_one_session(self):
        lines = [
            _event("cowrie.login.failed", "abc", "2017-04-01T10:00:00Z"),
            _event("cowrie.login.success", "abc", "2017-04-01T10:00:05Z"),
        ]
        sessions, report = parse_logs(lines)
        assert len(sessions) == 1
        np.testing.assert_array_equal(sessions[0].symbols, [13, 14])
        assert sessions[0].session_id == "abc"
        assert report.mapped_events == 2

    def test_two_sessions(self):
        lines = [
            _event("cowrie.login.failed", "a", "2017-04-01T10:00:00Z"),
            _event("cowrie.login.failed", "b", "2017-04-01T10:00:01Z"),
            _event("cowrie.session.closed", "a", "2017-04-01T10:00:02Z"),
            _event("cowrie.session.closed", "b", "2017-04-01T10:00:03Z"),
        ]
        sessions, _ = parse_logs(lines)
        assert [s.session_id for s in sessions] == ["a", "b"]

    def test_timestamp_ordering_with_stable_ties(self):
        lines = [
            _event("cowrie.session.closed", "a", "2017-04-01T10:00:09Z"),
            _event("cowrie.login.failed", "a", "2017-04-01T10:00:01Z"),
            _event("cowrie.login.success", "a", "2017-04-01T10:00:01Z"),
        ]
        sessions, _ = parse_logs(lines)
        np.testing.assert_array_equal(sessions[0].symbols, [13, 14, 15])

    def test_malformed_and_unmapped_accounting(self):
        lines = [
            "{not json",
            _event("cowrie.login.failed", "a", "2017-04-01T10:00:00Z"),
            _event("cowrie.unknown.event", "a", "2017-04-01T10:00:01Z"),
            _event("cowrie.login.success", "a", "2017-04-01T10:00:02Z"),
            json.dumps({"eventid": "cowrie.login.failed"}),  # missing session
            _event("cowrie.login.failed", "solo", "2017-04-01T10:00:03Z"),
            json.dumps({"session": "a"}),                    # missing eventid
        ]
        sessions, report = parse_logs(lines)
        assert report.total_lines == 7
        assert report.malformed_lines == [1]
        assert report.unmapped_events == 3
        assert report.unmapped_by_event == {
            "cowrie.login.failed": 1,
            "cowrie.unknown.event": 1,
            "<missing>": 1,
        }
        assert report.mapped_events == 3
        assert report.short_sessions_dropped == 1
        assert report.short_session_events == 1
        assert len(sessions) == 1
        # every input line lands in exactly one bucket
        assert (
            len(report.malformed_lines) + report.unmapped_events
            + report.mapped_events == report.total_lines
        )
        assert report.kept_events == sum(len(s) for s in sessions)

    @pytest.mark.parametrize("field, value, key", [
        ("input", 5, "cowrie.command.input"),
        ("eventid", 7, "7"),
        ("session", ["a"], "cowrie.command.input"),
    ], ids=["input", "eventid", "session"])
    def test_wrongly_typed_field_is_unmapped(self, field, value, key):
        bad = {"eventid": "cowrie.command.input", "session": "a",
               "timestamp": "2017-04-01T10:00:01Z", "input": "ls"}
        bad[field] = value
        lines = [
            _event("cowrie.login.failed", "a", "2017-04-01T10:00:00Z"),
            json.dumps(bad),
            _event("cowrie.login.success", "a", "2017-04-01T10:00:02Z"),
        ]
        sessions, report = parse_logs(lines)
        assert report.unmapped_events == 1
        assert report.unmapped_by_event == {key: 1}
        assert report.mapped_events == 2
        assert (
            len(report.malformed_lines) + report.unmapped_events
            + report.mapped_events == report.total_lines == 3
        )
        assert [s.symbols.tolist() for s in sessions] == [[13, 14]]
        # the report still sorts and serializes
        json.dumps(report.to_doc())

    def test_round_trip_with_ground_truth(self):
        rng = np.random.default_rng(6)
        truth = [
            make_seq(rng.integers(0, 19, size=rng.integers(2, 9)), f"gt-{i}")
            for i in range(40)
        ]
        lines = render_cowrie_lines(truth)
        assert len(lines) == sum(len(s) for s in truth)
        sessions, report = parse_logs(lines)
        assert len(sessions) == len(truth)
        for got, expected in zip(sessions, truth):
            assert got.session_id == expected.session_id
            np.testing.assert_array_equal(got.symbols, expected.symbols)
        assert report.unmapped_events == 0
        assert report.malformed_lines == []


class TestSynthCorpus:
    def _two_generators(self):
        left = HmmModel(
            n_hidden=1, n_obs=4, A=np.array([[1.0]]),
            B=np.array([[1.0, 0, 0, 0]]), pi=np.array([1.0]),
        )
        right = HmmModel(
            n_hidden=1, n_obs=4, A=np.array([[1.0]]),
            B=np.array([[0, 0, 0, 1.0]]), pi=np.array([1.0]),
        )
        short = LengthDistribution(min_len=2, mean_extra=3.0, max_len=12)
        return left, right, short

    def test_deterministic_generator_repeats_pattern(self):
        left, _, short = self._two_generators()
        spec = SynthSpec(
            generators=[GeneratorSpec(model=left, weight=1.0, lengths=short)],
            n_sessions=3, seed=1,
        )
        corpus = synth_corpus(spec)
        assert len(corpus.sessions) == 3
        for s in corpus.sessions:
            assert (s.symbols == 0).all()

    def test_same_seed_same_corpus(self):
        left, right, short = self._two_generators()
        spec = SynthSpec(
            generators=[
                GeneratorSpec(model=left, weight=0.5, lengths=short, name="l"),
                GeneratorSpec(model=right, weight=0.5, lengths=short, name="r"),
            ],
            n_sessions=50, seed=33,
        )
        a = synth_corpus(spec)
        b = synth_corpus(spec)
        assert a.labels == b.labels
        for x, y in zip(a.sessions, b.sessions):
            np.testing.assert_array_equal(x.symbols, y.symbols)

    def test_mixture_weights_respected(self):
        left, right, short = self._two_generators()
        spec = SynthSpec(
            generators=[
                GeneratorSpec(model=left, weight=0.7, lengths=short, name="l"),
                GeneratorSpec(model=right, weight=0.3, lengths=short, name="r"),
            ],
            n_sessions=10_000, seed=5,
        )
        corpus = synth_corpus(spec)
        share = corpus.labels.count("l") / len(corpus.labels)
        assert abs(share - 0.7) < 0.02

    def test_invalid_weights_rejected(self):
        left, _, short = self._two_generators()
        spec = SynthSpec(
            generators=[GeneratorSpec(model=left, weight=-1.0, lengths=short)],
            n_sessions=5, seed=0,
        )
        with pytest.raises(DomainError):
            synth_corpus(spec)

    def test_length_distribution_bounds_and_atoms(self):
        rng = np.random.default_rng(0)
        dist = LengthDistribution(
            min_len=2, mean_extra=10.0, max_len=40,
            atoms=[(30, 1.0)], atom_mass=0.5,
        )
        lengths = dist.sample(rng, 5000)
        assert lengths.min() >= 2
        assert lengths.max() <= 40
        assert (lengths == 30).mean() > 0.4


class TestSessionsFile:
    def test_write_read_round_trip(self, tmp_path):
        sessions = [make_seq([0, 5, 18], "one"), make_seq([3, 3], "two")]
        path = tmp_path / "sessions.tsv"
        write_sessions(path, sessions)
        back = read_sessions(path)
        assert [s.session_id for s in back] == ["one", "two"]
        np.testing.assert_array_equal(back[0].symbols, [0, 5, 18])
        assert path.read_text().startswith("# fhmm-sessions/1")

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# fhmm-sessions/1\nnot-a-session-line\n")
        with pytest.raises(DomainError):
            read_sessions(path)

    def test_alphabet_file(self, tmp_path):
        path = tmp_path / "alphabet.tsv"
        write_alphabet(path, default_mapping().alphabet)
        text = path.read_text()
        assert "0\tclient.size" in text
        assert "18\tsession.input" in text
