"""Atomic file output for every artifact the pipeline writes."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Yield a file opened on a temporary path beside ``path`` and rename it
    over ``path`` once the block exits cleanly. If the block raises, the
    temporary file is removed and any previous file at ``path`` is left as
    it was. There is no fsync: the rename is atomic against a crashed
    process, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
