"""Keep freed heap memory mapped, so NumPy temporaries reuse warm pages.

The simulator allocates and frees multi-MiB NumPy temporaries on every
access it analyzes.  Under glibc's default dynamic thresholds each of
them goes back to the kernel when freed: a block of 32 MiB or more is
always served by its own ``mmap`` and ``munmap``'d on free, and free
space above the heap top past twice the last freed mapping's size is
trimmed.  The next temporary then faults every page back in,
zero-filled: one Table I regeneration at the benchmark's sizes took
about 400k minor faults.

:func:`retain_freed_memory` fixes both thresholds, which also turns off
glibc's adjustment of them, so freed blocks stay in the heap for the
next allocation to reuse.  ``repro.__main__.main`` calls it once per
command; a plain ``import repro`` changes nothing.
"""

from __future__ import annotations

import ctypes
import sys

__all__ = ["retain_freed_memory"]

M_TRIM_THRESHOLD = -1  #: glibc ``mallopt`` parameter numbers
M_MMAP_THRESHOLD = -3

#: blocks below this come from the heap; the default-size Table I
#: matrices (int64 over 4M lanes) are 32 MiB each
MMAP_THRESHOLD = 64 << 20
#: free space at the heap top is kept up to this much
TRIM_THRESHOLD = 256 << 20


def retain_freed_memory() -> None:
    """Make this process (and the workers it forks) reuse freed heap
    memory instead of returning it to the kernel.

    Sets glibc's ``M_MMAP_THRESHOLD`` to 64 MiB and ``M_TRIM_THRESHOLD``
    to 256 MiB through ``mallopt``.  Both are needed: setting either
    one switches glibc's threshold adjustment off, which pins the other
    at its 128 KiB default, and the faults come back.  Does nothing
    where ``mallopt`` cannot be found (outside Linux, or a C library
    without it).
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
