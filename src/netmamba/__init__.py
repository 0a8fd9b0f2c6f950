"""netmamba: pcap flows -> stride samples -> selective-SSM traffic classifier.

Submodules are imported explicitly (``from netmamba import model``); the top
level stays import-light so the CLI can configure thread limits before numpy
loads.
"""

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "bench",
    "checkpoint",
    "cli",
    "config",
    "data",
    "errors",
    "fileio",
    "metrics",
    "model",
    "optim",
    "pcap",
    "ssm",
    "traffic",
    "train",
]
