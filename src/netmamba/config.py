"""Plain-text run configuration: ``key = value`` lines, '#' comments.

Unknown keys are rejected and every value is type-checked at load time.
Precedence is resolved by ``merge``: command-line flags override file values,
which override built-in defaults.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError

SCHEMA: dict[str, type] = {
    # representation
    "packets_per_flow": int,
    "header_bytes": int,
    "payload_bytes": int,
    "stride_len": int,
    "anonymize_ips": bool,
    "include_header": bool,
    "include_payload": bool,
    "drop_dhcp": bool,
    "min_packets": int,
    "limit_lower": int,
    "limit_upper": int,
    "train_ratio": float,
    "val_ratio": float,
    "test_ratio": float,
    # model
    "d_enc": int,
    "e_enc": int,
    "depth_enc": int,
    "d_dec": int,
    "e_dec": int,
    "depth_dec": int,
    "state_dim": int,
    "dt_rank": int,
    "conv_kernel": int,
    "mask_ratio": float,
    "use_pos_embed": bool,
    "use_state_skip": bool,
    "patch_split": bool,
    # training
    "batch_size": int,
    "lr": float,
    "steps": int,
    "epochs": int,
    "weight_decay": float,
    "warmup_frac": float,
    "schedule": str,
    "grad_clip": float,
    "seed": int,
    "log_every": int,
    "early_stop_val_acc": float,
}

REPR_KEYS = ("packets_per_flow", "header_bytes", "payload_bytes", "stride_len",
             "anonymize_ips", "include_header", "include_payload", "drop_dhcp")
MODEL_KEYS = ("stride_len", "d_enc", "e_enc", "depth_enc", "d_dec", "e_dec",
              "depth_dec", "state_dim", "dt_rank", "conv_kernel", "mask_ratio",
              "use_pos_embed", "use_state_skip")
TRAIN_KEYS = ("batch_size", "lr", "steps", "epochs", "weight_decay",
              "warmup_frac", "schedule", "grad_clip", "seed", "log_every",
              "early_stop_val_acc")

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
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        values[key.strip()] = parse_value(key.strip(), raw)
    return values


def merge(*layers: dict) -> dict:
    """Later layers win; None values never override."""
    out: dict = {}
    for layer in layers:
        for key, value in layer.items():
            if value is not None:
                out[key] = value
    return out


def subset(values: dict, keys) -> dict:
    return {k: values[k] for k in keys if k in values}
