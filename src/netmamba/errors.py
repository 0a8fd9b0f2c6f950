"""Exception types shared across the package, plus the CLI exit-code map."""


class ParseError(ValueError):
    """Malformed or truncated capture file; message names the byte offset."""


class UnsupportedFormatError(ValueError):
    """Capture format we deliberately do not read (unknown magic, link type)."""


class MalformedPacketError(ValueError):
    """Packet bytes shorter than their declared headers, or a bad IP version."""


class ConfigError(ValueError):
    """Invalid configuration value, unknown key, or inconsistent settings."""


class ShapeError(ValueError):
    """Tensor operands with incompatible shapes; message names both shapes."""


class ContractError(ValueError):
    """Caller violated an operation precondition (non-scalar loss, bad label)."""


class DataError(ValueError):
    """Dataset-level problem such as an out-of-range label; names the sample."""


class NumericFaultError(ArithmeticError):
    """Non-finite value detected during forward/backward/optimizer step."""


class CheckpointMismatchError(ValueError):
    """Checkpoint contents disagree with the expected tensor set; names the tensor."""


def check_min(key: str, value: float, low: float = 1) -> None:
    """Refuse a config value below ``low`` with a ConfigError naming the key."""
    if value < low:
        raise ConfigError(f"{key} must be >= {low}, got {value}")


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECKPOINT = 3
EXIT_NUMERIC = 4
