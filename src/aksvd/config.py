"""Run configuration: defaults, key=value files, env vars, flag overrides.

Precedence, lowest to highest: built-in defaults, config file, AKSVD_*
environment variables, command-line flags. Every key is dotted
(``kernel.gamma``); the matching env var is the upper-cased key with dots
replaced by underscores and an AKSVD_ prefix (``AKSVD_KERNEL_GAMMA``).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_opt(parser):
    def inner(raw: str):
        if raw.strip().lower() in ("", "none"):
            return None
        return parser(raw)
    return inner


@dataclass(frozen=True)
class Key:
    default: object
    parse: object
    choices: tuple | None = None


KNOWN: dict[str, Key] = {
    "dataset.path": Key(None, _parse_opt(str)),
    "dataset.format": Key("synth", str, ("edge_list", "csv", "synth")),
    "dataset.directed": Key(True, _parse_bool),
    "dataset.node_count": Key(None, _parse_opt(int)),
    "dataset.labels": Key(None, _parse_opt(str)),
    "dataset.target": Key(None, _parse_opt(str)),
    "dataset.task": Key("classification", str,
                        ("classification", "regression")),
    "dataset.zscore": Key(False, _parse_bool),
    "dataset.synth_kind": Key("two_block", str,
                              ("cycle", "two_block", "random_dag")),
    "dataset.synth_n": Key(100, int),
    "dataset.synth_seed": Key(None, _parse_opt(int)),
    "kernel.family": Key("sne", str, ("rbf", "sne", "linear")),
    "kernel.gamma": Key(None, _parse_opt(float)),
    "kernel.gamma_k": Key(1.0, float),
    "compat.mode": Key("auto", str, ("auto", "identity", "a0", "a1", "a2")),
    "compat.seed": Key(None, _parse_opt(int)),
    "rank": Key(4, int),
    "center": Key(True, _parse_bool),
    "solver": Key("exact", str, ("exact", "truncated", "randomized",
                                 "nystrom")),
    "solver.tol": Key(1e-10, float),
    "solver.oversample": Key(10, int),
    "solver.power_iters": Key(2, int),
    "solver.seed": Key(None, _parse_opt(int)),
    "nystrom.n": Key(None, _parse_opt(int)),
    "nystrom.m": Key(None, _parse_opt(int)),
    "nystrom.epsilon": Key(0.1, float),
    "nystrom.growth": Key(2.0, float),
    "features.sides": Key("auto", str, ("auto", "both", "left", "right")),
    "method": Key("ksvd", str, ("ksvd", "kpca", "svd", "pca")),
    "split.seed": Key(None, _parse_opt(int)),
    "split.test_fraction": Key(0.2, float),
    "eval.gamma_reg": Key(1.0, float),
    "bench.solvers": Key("tsvd,rsvd,asym_nystrom", str),
    "bench.epsilons": Key("0.1", str),
    "bench.repeats": Key(3, int),
    "sweep.gamma_scales": Key("0.25,0.5,1.0,2.0,4.0", str),
    "sweep.seeds": Key(5, int),
    "seed": Key(0, int),
    "out": Key("aksvd_out", str),
}

ENV_PREFIX = "AKSVD_"


def env_name(key: str) -> str:
    return ENV_PREFIX + key.upper().replace(".", "_")


_ENV_TO_KEY = {env_name(k): k for k in KNOWN}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def get(self, key: str, fallback_key: str | None = None):
        """Value for key; optionally fall back to another key when None."""
        val = self.values[key]
        if val is None and fallback_key is not None:
            return self.values[fallback_key]
        return val

    def manifest(self) -> dict:
        return {k: self.values[k] for k in sorted(self.values)}


def _coerce(key: str, raw) -> object:
    meta = KNOWN[key]
    if isinstance(raw, str):
        try:
            value = meta.parse(raw)
        except ValueError as err:
            raise ConfigError(f"bad value for {key}: {err}") from None
    else:
        value = raw
    if meta.choices is not None and value is not None \
            and value not in meta.choices:
        raise ConfigError(
            f"{key} must be one of {meta.choices}, got {value!r}")
    return value


def parse_config_file(path) -> dict:
    """key = value lines; # comments and blanks ignored; unknown keys error."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    out = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path.name}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KNOWN:
            raise ConfigError(f"{path.name}:{lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value.strip())
    return out


def env_overrides(environ=None) -> dict:
    environ = os.environ if environ is None else environ
    out = {}
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = _ENV_TO_KEY.get(name)
        if key is None:
            raise ConfigError(f"unrecognized environment variable {name}")
        out[key] = _coerce(key, raw)
    return out


def build_config(config_path=None, environ=None, overrides=None) -> RunConfig:
    """Merge the four layers into a resolved RunConfig."""
    values = {k: meta.default for k, meta in KNOWN.items()}
    if config_path is not None:
        values.update(parse_config_file(config_path))
    values.update(env_overrides(environ))
    for key, raw in (overrides or {}).items():
        if key not in KNOWN:
            raise ConfigError(f"unknown config key {key!r}")
        values.update({key: _coerce(key, raw)})
    cfg = RunConfig(values=values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for key in ("rank", "bench.repeats", "sweep.seeds"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {cfg[key]}")
    if cfg["dataset.format"] != "synth":
        path = cfg["dataset.path"]
        if path is None:
            raise ConfigError("dataset.path is required unless "
                              "dataset.format = synth")
        if not Path(path).exists():
            raise ConfigError(f"dataset file not found: {path}")
    labels = cfg["dataset.labels"]
    if labels is not None and not Path(labels).exists():
        raise ConfigError(f"label file not found: {labels}")


def parse_floats(raw: str, key: str) -> tuple:
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated numbers, "
                          f"got {raw!r}") from None
    if not values:
        raise ConfigError(f"{key} is empty")
    return values


def parse_names(raw: str, key: str, choices: tuple) -> tuple:
    names = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if not names:
        raise ConfigError(f"{key} is empty")
    for name in names:
        if name not in choices:
            raise ConfigError(
                f"{key} entries must be from {choices}, got {name!r}")
    return names
