"""Process-wide malloc tuning for tape-heavy workloads (glibc only)."""

import ctypes
import os

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_THRESHOLD = 1 << 30

_done = False


def tune_allocator() -> bool:
    """Raise glibc's mmap/trim thresholds so large short-lived arrays reuse heap pages.

    No-op (returns False) off glibc or when WFLOW_MALLOC_TUNE=0.
    """
    global _done
    if _done:
        return True
    if os.environ.get("WFLOW_MALLOC_TUNE", "1").lower() in ("0", "false", "off"):
        return False
    try:
        libc = ctypes.CDLL("libc.so.6")
        ok = libc.mallopt(_M_MMAP_THRESHOLD, _THRESHOLD) == 1
        ok = libc.mallopt(_M_TRIM_THRESHOLD, _THRESHOLD) == 1 and ok
    except OSError:
        return False
    _done = ok
    return ok
