"""Config-file parsing: typing, comments, unknown keys, precedence, building
the config dataclasses, and the README's list of keys."""

import re
from pathlib import Path

import pytest

from netmamba.config import SCHEMA, build, load_config, merge, parse_value
from netmamba.errors import ConfigError
from netmamba.model import ModelConfig
from netmamba.train import finetune_defaults

README = Path(__file__).resolve().parents[1] / "README.md"


def test_load_config_types_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# representation\n"
        "packets_per_flow = 5\n"
        "mask_ratio = 0.9   # ratio of masked strides\n"
        "anonymize_ips = false\n"
        "lr = 2.5e-4\n"
        "\n"
    )
    values = load_config(path)
    assert values == {"packets_per_flow": 5, "mask_ratio": 0.9,
                      "anonymize_ips": False, "lr": 2.5e-4}


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ConfigError, match="warp_speed"):
        load_config(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("batch_size = many\n")
    with pytest.raises(ConfigError, match="batch_size"):
        load_config(path)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path)


@pytest.mark.parametrize("raw,expected", [
    ("true", True), ("1", True), ("Yes", True),
    ("false", False), ("0", False), ("off", False),
])
def test_bool_parsing(raw, expected):
    assert parse_value("drop_dhcp", raw) is expected


def test_bool_parsing_rejects_junk():
    with pytest.raises(ConfigError):
        parse_value("drop_dhcp", "maybe")


def test_merge_precedence_three_layers():
    defaults = {"lr": 1e-3, "batch_size": 128, "seed": 0}
    file_vals = {"lr": 5e-4, "batch_size": 64}
    flags = {"lr": 2e-3, "batch_size": None}  # None never overrides
    merged = merge(defaults, file_vals, flags)
    assert merged["lr"] == 2e-3        # flag wins
    assert merged["batch_size"] == 64  # file wins over default
    assert merged["seed"] == 0         # default survives


def test_build_takes_named_fields_and_lets_fixed_values_win():
    values = {"lr": 5e-4, "d_enc": 8, "stride_len": 2, "min_packets": 3}
    tcfg = build(finetune_defaults(), values)
    assert (tcfg.lr, tcfg.batch_size) == (5e-4, 64)
    cfg = build(ModelConfig(), values, seq_len=9, stride_len=4)
    assert (cfg.d_enc, cfg.seq_len, cfg.stride_len) == (8, 9, 4)


def test_readme_documents_every_config_key():
    text = README.read_text()
    section = re.search(r"^### Configuration$(.*?)^## ", text, re.M | re.S)
    documented = set(re.findall(r"`(\w+)`", section.group(1)))
    assert set(SCHEMA) <= documented, sorted(set(SCHEMA) - documented)
