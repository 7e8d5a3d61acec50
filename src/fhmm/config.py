"""Run configuration: one flat key-value file, strict keys, full defaulting.

Every tunable the pipeline consumes lives here so a single file pins an
entire reproducible run.  Unknown keys are rejected by name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError


@dataclass
class RunConfig:
    k: int = 38
    n_hidden: int = 5
    n_obs: int = 19
    min_support: int = 10
    hidden_width: int = 60
    lr: float = 0.01
    l2: float = 1e-4
    epochs: int = 50
    batch: int = 32
    base_seed: int = 0
    workers: int = 1                    # 0 = every usable CPU
    stride: int = 1
    train_frac: float = 0.8
    tol: float = 1e-6
    max_iters: int = 200
    smoothing: float = 1.0

    def validate(self) -> None:
        checks = [
            (self.k >= 1, "k must be at least 1"),
            (self.n_hidden >= 1, "n_hidden must be at least 1"),
            (self.n_obs >= 2, "n_obs must be at least 2"),
            (self.min_support >= 1, "min_support must be at least 1"),
            (self.hidden_width >= 1, "hidden_width must be at least 1"),
            (self.lr > 0, "lr must be positive"),
            (self.l2 >= 0, "l2 must be non-negative"),
            (self.epochs >= 1, "epochs must be at least 1"),
            (self.batch >= 1, "batch must be at least 1"),
            (self.workers >= 0, "workers must be non-negative"),
            (self.stride >= 1, "stride must be at least 1"),
            (0.0 < self.train_frac < 1.0, "train_frac must lie in (0, 1)"),
            (self.tol > 0, "tol must be positive"),
            (self.max_iters >= 1, "max_iters must be at least 1"),
            (self.smoothing >= 0, "smoothing must be non-negative"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    def to_doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(RunConfig)}


def _convert(name: str, text: str, target_type: type):
    text = text.strip()
    try:
        return target_type(text)
    except ValueError as exc:
        raise ConfigError(
            f"config key {name!r}: cannot parse {text!r} as {target_type.__name__}"
        ) from exc


def parse_config_text(text: str) -> RunConfig:
    """`key = value` lines; # starts a comment; unknown keys rejected."""
    known = {f.name: f.type for f in fields(RunConfig)}
    types = {"int": int, "float": float}
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        name, _, value = line.partition("=")
        name = name.strip()
        if name not in known:
            raise ConfigError(f"unknown config key {name!r}")
        if name in values:
            raise ConfigError(f"duplicate config key {name!r}")
        values[name] = _convert(name, value, types[str(known[name])])
    config = RunConfig(**values)
    config.validate()
    return config


def load_config(path: str | Path) -> RunConfig:
    return parse_config_text(Path(path).read_text())
