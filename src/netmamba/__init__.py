"""netmamba: pcap flows -> stride samples -> selective-SSM traffic classifier.

Submodules are imported explicitly (``from netmamba import model``); the top
level imports none of them, so a tool that needs one module (the pcap reader,
say) does not load numpy and the model code with it.
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
