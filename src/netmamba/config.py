"""Plain-text run configuration: ``key = value`` lines, '#' comments.

The config dataclasses define the keys: every field of ``ReprConfig``,
``ModelConfig`` and ``TrainConfig`` is a key of its annotated type, except
``seq_len`` and ``num_classes``, which the sample file fixes. ``EXTRA_KEYS``
adds the few keys that only ``extract`` reads. Unknown keys are rejected and
every value is type-checked at load time. Precedence is resolved by
``merge``: command-line flags override file values, which override built-in
defaults.
"""

from __future__ import annotations

import typing
from dataclasses import fields, replace
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig
from .traffic import ReprConfig
from .train import TrainConfig

DATA_FIXED = ("seq_len", "num_classes")

EXTRA_KEYS: dict[str, type] = {
    # extract
    "min_packets": int,
    "limit_lower": int,
    "limit_upper": int,
    "train_ratio": float,
    "val_ratio": float,
    "test_ratio": float,
}


def _field_types(cls) -> dict[str, type]:
    """Field name -> type, reading ``T | None`` as ``T``."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        kinds = [k for k in typing.get_args(hints[f.name]) if k is not type(None)]
        out[f.name] = kinds[0] if kinds else hints[f.name]
    return out


SCHEMA: dict[str, type] = {
    key: kind
    for cls in (ReprConfig, ModelConfig, TrainConfig)
    for key, kind in _field_types(cls).items()
    if key not in DATA_FIXED
} | EXTRA_KEYS

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def parse_value(key: str, raw: str):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    kind = SCHEMA[key]
    raw = raw.strip()
    if kind is bool:
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{key}: {raw!r} is not a boolean")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: {raw!r} is not a valid {kind.__name__}") from None


def load_config(path) -> dict:
    values: dict = {}
    if path is None:
        return values
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file ({exc.reason} "
                          f"at byte {exc.start})") from None
    first: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key in first:
            raise ConfigError(f"{path}:{lineno}: {key} is set again, first on line "
                              f"{first[key]}")
        first[key], values[key] = lineno, parse_value(key, raw)
    return values


def merge(*layers: dict) -> dict:
    """Later layers win; None values never override."""
    out: dict = {}
    for layer in layers:
        for key, value in layer.items():
            if value is not None:
                out[key] = value
    return out


def build(base, values: dict, **fixed):
    """The config dataclass ``base`` with every field that ``values`` or the
    sample file (``fixed``) names replaced; a key that both name with
    different values is refused."""
    for key, value in fixed.items():
        if values.get(key, value) != value:
            raise ConfigError(f"{key} = {values[key]} is set, but the sample "
                              f"file fixes {key} = {value}")
    names = {f.name for f in fields(base)}
    return replace(base, **{**{k: v for k, v in values.items() if k in names},
                            **fixed})
