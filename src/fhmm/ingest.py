"""Honeypot log ingestion and synthetic corpus generation.

Converts Cowrie-style line-delimited JSON event logs into per-session state
sequences over a 19-state alphabet, and provides a seeded synthetic session
generator (with optional log rendering) for desk-scale experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DomainError
from .hmm import HmmModel, sample_batch
from .sequences import StateSequence
from . import serialize

N_STATES = 19

COMMAND_CLASSES = ("delete", "dir-sudo", "other", "system", "write")

_DELETE_TOKENS = {"rm", "unlink", "shred"}
_DIR_SUDO_TOKENS = {"cd", "ls", "mkdir", "sudo", "chmod", "chown"}
_WRITE_TOKENS = {"touch", "tee"}
_SYSTEM_TOKENS = {"uname", "ps", "whoami", "ifconfig"}


def classify_command(text: str) -> str:
    """Bucket a shell command into one of the five command.input sub-states.

    First-match ordered rules keyed on the case-insensitive leading token;
    anything unmatched falls through to "other".
    """
    tokens = text.strip().split()
    if not tokens:
        return "other"
    lead = tokens[0].lower()
    if lead in _DELETE_TOKENS:
        return "delete"
    if lead in _DIR_SUDO_TOKENS:
        return "dir-sudo"
    if lead in _WRITE_TOKENS:
        return "write"
    if lead in ("echo", "cat") and (">" in text):
        return "write"
    if lead == "wget" and "-O" in tokens[1:]:
        return "write"
    if lead in _SYSTEM_TOKENS:
        return "system"
    if lead == "cat" and len(tokens) > 1 and tokens[1].startswith("/proc"):
        return "system"
    return "other"


@dataclass
class MappingRule:
    event: str
    state: int
    command_class: str | None = None


@dataclass
class EventMapping:
    """Ordered event-id to state rules plus the state alphabet."""

    rules: list[MappingRule]
    alphabet: list[str]

    def __post_init__(self):
        if len(self.alphabet) != N_STATES:
            raise DomainError(f"alphabet must have {N_STATES} states")
        covered = {rule.state for rule in self.rules}
        if covered != set(range(N_STATES)):
            missing = sorted(set(range(N_STATES)) - covered)
            raise DomainError(f"mapping does not cover states {missing}")

    def map_event(self, eventid: str, command: str | None) -> int | None:
        """First matching rule wins; None when nothing matches."""
        if eventid.startswith("cowrie."):
            eventid = eventid[len("cowrie."):]
        cls = None
        for rule in self.rules:
            if rule.event != eventid:
                continue
            if rule.command_class is None:
                return rule.state
            if command is None:
                continue
            if cls is None:
                cls = classify_command(command)
            if cls == rule.command_class:
                return rule.state
        return None


def load_mapping(path: str | Path) -> EventMapping:
    """The mapping file at `path`; one that is not a mapping document raises
    DomainError naming the file."""
    return serialize.read_checked(path, _mapping_from_doc)


def _mapping_from_doc(doc: dict) -> EventMapping:
    rules = [
        MappingRule(
            event=r["event"],
            state=int(r["state"]),
            command_class=r.get("command_class"),
        )
        for r in doc["rules"]
    ]
    return EventMapping(rules=rules, alphabet=list(doc["alphabet"]))


def default_mapping() -> EventMapping:
    text = resources.files("fhmm.data").joinpath("cowrie_mapping.json").read_text()
    return _mapping_from_doc(json.loads(text))


@dataclass
class SkipReport:
    """Exact accounting of every input line's fate."""

    total_lines: int = 0
    malformed_lines: list[int] = field(default_factory=list)
    unmapped_events: int = 0
    unmapped_by_event: dict[str, int] = field(default_factory=dict)
    mapped_events: int = 0
    short_sessions_dropped: int = 0
    short_session_events: int = 0

    @property
    def kept_events(self) -> int:
        return self.mapped_events - self.short_session_events

    def to_doc(self) -> dict:
        return {
            "schema": "fhmm-skip-report/1",
            "total_lines": self.total_lines,
            "malformed_lines": self.malformed_lines,
            "malformed_count": len(self.malformed_lines),
            "unmapped_events": self.unmapped_events,
            "unmapped_by_event": dict(sorted(self.unmapped_by_event.items())),
            "mapped_events": self.mapped_events,
            "short_sessions_dropped": self.short_sessions_dropped,
            "short_session_events": self.short_session_events,
            "kept_events": self.kept_events,
        }


def _parse_timestamp(ts: str) -> datetime | None:
    try:
        return datetime.fromisoformat(ts.replace("Z", "+00:00"))
    except (ValueError, TypeError, AttributeError):
        return None


def parse_logs(
    lines, mapping: EventMapping | None = None
) -> tuple[list[StateSequence], SkipReport]:
    """Parse line-delimited JSON events into per-session state sequences.

    Events are grouped by session id and ordered by timestamp (ties keep
    input order).  Unmappable events (a wrongly typed eventid, session or
    input among them) and malformed lines are counted in the skip report,
    never fatal.  Sessions shorter than two events are dropped and
    reported.
    """
    mapping = mapping or default_mapping()
    report = SkipReport()
    # session -> list of (timestamp, arrival index, state)
    buckets: dict[str, list[tuple[datetime, int, int]]] = {}
    order: list[str] = []
    for line_no, line in enumerate(lines, start=1):
        report.total_lines += 1
        text = line.strip()
        if not text:
            report.malformed_lines.append(line_no)
            continue
        try:
            record = json.loads(text)
            if not isinstance(record, dict):
                raise ValueError("not an object")
        except ValueError:
            report.malformed_lines.append(line_no)
            continue
        eventid = record.get("eventid") or ""
        session = record.get("session") or ""
        command = record.get("input")
        ts = _parse_timestamp(record.get("timestamp", ""))
        state = None
        typed = (isinstance(eventid, str) and isinstance(session, str)
                 and (command is None or isinstance(command, str)))
        if typed and eventid and session and ts is not None:
            state = mapping.map_event(eventid, command)
        if state is None:
            report.unmapped_events += 1
            # a wrongly typed id counts under its JSON text
            key = eventid if isinstance(eventid, str) else json.dumps(eventid)
            key = key or "<missing>"
            report.unmapped_by_event[key] = report.unmapped_by_event.get(key, 0) + 1
            continue
        report.mapped_events += 1
        if session not in buckets:
            buckets[session] = []
            order.append(session)
        buckets[session].append((ts, line_no, state))

    sessions: list[StateSequence] = []
    for session_id in order:
        events = sorted(buckets[session_id], key=lambda e: (e[0], e[1]))
        if len(events) < 2:
            report.short_sessions_dropped += 1
            report.short_session_events += len(events)
            continue
        sessions.append(
            StateSequence(
                np.array([e[2] for e in events], dtype=np.int64),
                session_id=session_id,
            )
        )
    return sessions, report


def parse_log_files(
    paths: list[str | Path], mapping: EventMapping | None = None
) -> tuple[list[StateSequence], SkipReport]:
    """Parse several files as one stream, in the given file order."""

    def stream():
        for path in paths:
            with open(path, "r") as fh:
                yield from fh

    return parse_logs(stream(), mapping)


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

@dataclass
class LengthDistribution:
    """Session-length law: optional fixed atoms plus a capped geometric tail.

    With probability `atom_mass` a length is drawn from `atoms` (weights
    proportional to the second tuple entries); otherwise min_len plus a
    geometric draw with the given mean, capped at max_len.
    """

    min_len: int = 2
    mean_extra: float = 28.0
    max_len: int = 1400
    atoms: list[tuple[int, float]] = field(default_factory=list)
    atom_mass: float = 0.0

    def __post_init__(self):
        if self.min_len < 1 or self.max_len < self.min_len:
            raise DomainError("invalid length bounds")
        if not 0.0 <= self.atom_mass <= 1.0:
            raise DomainError("atom_mass must lie in [0, 1]")
        if self.atom_mass > 0 and not self.atoms:
            raise DomainError("atom_mass requires atoms")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        p = min(1.0, 1.0 / max(self.mean_extra, 1.0))
        lengths = self.min_len + rng.geometric(p, size=size) - 1
        lengths = np.minimum(lengths, self.max_len)
        if self.atom_mass > 0.0:
            use_atom = rng.random(size) < self.atom_mass
            atom_lengths = np.array([a for a, _ in self.atoms])
            weights = np.array([w for _, w in self.atoms], dtype=float)
            weights /= weights.sum()
            picks = rng.choice(atom_lengths.size, size=size, p=weights)
            lengths = np.where(use_atom, atom_lengths[picks], lengths)
        return lengths.astype(np.int64)


def default_length_distribution() -> LengthDistribution:
    """Long-tail law spanning 2 to ~1400 steps, heavy on short sessions."""
    return LengthDistribution(min_len=2, mean_extra=28.0, max_len=1400)


@dataclass
class GeneratorSpec:
    model: HmmModel
    weight: float
    lengths: LengthDistribution = field(default_factory=default_length_distribution)
    name: str = ""


@dataclass
class SynthSpec:
    generators: list[GeneratorSpec]
    n_sessions: int
    seed: int = 0

    def validate(self) -> None:
        if not self.generators:
            raise DomainError("need at least one generator")
        if self.n_sessions < 1:
            raise DomainError("n_sessions must be at least 1")
        weights = np.array([g.weight for g in self.generators])
        if (weights < 0).any() or weights.sum() <= 0:
            raise DomainError("mixture weights must be non-negative, sum > 0")
        sizes = {g.model.n_obs for g in self.generators}
        if len(sizes) != 1:
            raise DomainError("generators must share one alphabet")


@dataclass
class SynthCorpus:
    sessions: list[StateSequence]
    labels: list[str]           # generator name per session
    n_obs: int


def synth_corpus(spec: SynthSpec) -> SynthCorpus:
    """Sample sessions from the generator mixture, deterministic per seed."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    weights = np.array([g.weight for g in spec.generators], dtype=float)
    weights /= weights.sum()
    choice = rng.choice(len(spec.generators), size=spec.n_sessions, p=weights)

    sessions: list[StateSequence] = [None] * spec.n_sessions  # type: ignore
    labels: list[str] = [""] * spec.n_sessions
    for gi, gen in enumerate(spec.generators):
        idx = np.nonzero(choice == gi)[0]
        if idx.size == 0:
            continue
        lengths = gen.lengths.sample(rng, idx.size)
        drawn = sample_batch(gen.model, lengths, rng)
        name = gen.name or f"gen-{gi}"
        for j, session_pos in enumerate(idx):
            sessions[session_pos] = StateSequence(
                drawn[j], session_id=f"synth-{session_pos:06d}"
            )
            labels[session_pos] = name
    return SynthCorpus(
        sessions=sessions, labels=labels, n_obs=spec.generators[0].model.n_obs
    )


# ---------------------------------------------------------------------------
# Cowrie-format rendering (inverse of the default mapping, for round-trips)
# ---------------------------------------------------------------------------

_RENDER_TABLE = {
    0: ("cowrie.client.size", None),
    1: ("cowrie.client.version", None),
    2: ("cowrie.command.failed", None),
    3: ("cowrie.command.input", "rm -rf /tmp/target"),
    4: ("cowrie.command.input", "cd /var/tmp"),
    5: ("cowrie.command.input", "qwe123"),
    6: ("cowrie.command.input", "uname -a"),
    7: ("cowrie.command.input", "echo pwned > /tmp/x"),
    8: ("cowrie.command.success", None),
    9: ("cowrie.direct-tcpip.data", None),
    10: ("cowrie.direct-tcpip.request", None),
    11: ("cowrie.log.closed", None),
    12: ("cowrie.log.open", None),
    13: ("cowrie.login.failed", None),
    14: ("cowrie.login.success", None),
    15: ("cowrie.session.closed", None),
    16: ("cowrie.session.connect", None),
    17: ("cowrie.session.file_download", None),
    18: ("cowrie.session.input", None),
}


def render_cowrie_lines(sessions: list[StateSequence]) -> list[str]:
    """Render sessions as Cowrie-style JSON lines that parse back exactly."""
    base = datetime(2017, 4, 1, tzinfo=timezone.utc)
    lines = []
    tick = 0
    for seq in sessions:
        for state in seq.symbols:
            eventid, command = _RENDER_TABLE[int(state)]
            record = {
                "eventid": eventid,
                "session": seq.session_id,
                "timestamp": (base + timedelta(seconds=tick)).isoformat(),
                "src_ip": "203.0.113.7",
            }
            if command is not None:
                record["input"] = command
            lines.append(json.dumps(record, sort_keys=True))
            tick += 1
    return lines


# ---------------------------------------------------------------------------
# Sessions / alphabet file formats
# ---------------------------------------------------------------------------

SESSIONS_HEADER = "# fhmm-sessions/1"
ALPHABET_HEADER = "# fhmm-alphabet/1"


def write_sessions(path: str | Path, sessions: list[StateSequence]) -> None:
    """One session per line: session id, a tab, comma-separated states."""
    with open(path, "w") as fh:
        fh.write(SESSIONS_HEADER + "\n")
        for seq in sessions:
            states = ",".join(str(int(s)) for s in seq.symbols)
            fh.write(f"{seq.session_id}\t{states}\n")


def read_sessions(path: str | Path) -> list[StateSequence]:
    sessions = []
    with open(path, "r") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                session_id, states = text.split("\t", 1)
                symbols = np.array(
                    [int(tok) for tok in states.split(",")], dtype=np.int64
                )
                sessions.append(StateSequence(symbols, session_id=session_id))
            # a DomainError from StateSequence is a ValueError
            except (ValueError, OverflowError) as exc:
                raise DomainError(
                    f"{path}:{line_no}: malformed session line: {exc}"
                ) from exc
    if not sessions:
        raise DomainError(f"{path}: no sessions found")
    return sessions


def write_alphabet(path: str | Path, alphabet: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(ALPHABET_HEADER + "\n")
        for i, name in enumerate(alphabet):
            fh.write(f"{i}\t{name}\n")
