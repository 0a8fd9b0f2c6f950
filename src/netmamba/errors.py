"""Exception types shared across the package.

A ``Refusal`` reaches the user: the CLI prints its ``label`` and message
and exits with its ``exit_code``. The other types mean a program bug or are
caught inside extraction.
"""


class Refusal(Exception):
    """A failure the CLI reports as ``label: message`` with ``exit_code``."""

    exit_code = 2
    label = "error"


class ParseError(Refusal, ValueError):
    """Malformed or truncated capture file; message names the byte offset."""


class UnsupportedFormatError(Refusal, ValueError):
    """Capture format we deliberately do not read (unknown magic, link type)."""


class MalformedPacketError(ValueError):
    """Packet bytes shorter than their declared headers, or a bad IP version."""


class ConfigError(Refusal, ValueError):
    """Invalid configuration value, unknown key, or inconsistent settings."""


class ShapeError(ValueError):
    """Tensor operands with incompatible shapes; message names both shapes."""


class ContractError(ValueError):
    """Caller violated an operation precondition (non-scalar loss, bad label)."""


class DataError(Refusal, ValueError):
    """Dataset-level problem such as an out-of-range label; names the sample."""


class NumericFaultError(Refusal, ArithmeticError):
    """Non-finite value detected during forward/backward/optimizer step."""

    exit_code = 4
    label = "numeric fault"


class CheckpointMismatchError(Refusal, ValueError):
    """Checkpoint contents disagree with the expected tensor set; names the tensor."""

    exit_code = 3
    label = "checkpoint mismatch"


def check_min(key: str, value: float, low: float = 1) -> None:
    """Refuse a config value below ``low``, or NaN, naming the key."""
    if not value >= low:
        raise ConfigError(f"{key} must be >= {low}, got {value}")


def check_unit(key: str, value: float) -> None:
    """Refuse a config value outside [0, 1], naming the key and the value."""
    if not 0 <= value <= 1:
        raise ConfigError(f"{key} must lie in [0, 1], got {value}")
