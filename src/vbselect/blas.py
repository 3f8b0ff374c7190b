"""numpy's bundled OpenBLAS: what it is, and a pin to one thread.

numpy's wheels ship OpenBLAS with a ``scipy_openblas_`` symbol prefix and a
``64_`` suffix. Its thread-count getter and setter, config string and core
type are looked up through
numpy's own extension module, whose dependencies include the library, and
called with ctypes: threadpoolctl's route, without the dependency. A numpy
built against another BLAS lacks these symbols; then ``blas_info`` returns
None and ``one_blas_thread`` pins nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

__all__ = ["blas_info", "one_blas_thread", "usable_cpus"]

# The thread count is process-global, so the pin's bookkeeping is too: how
# many blocks hold it now, and the count the first of them found.
_lock = threading.Lock()
_holders = 0
_saved_threads = 0


@functools.cache
def _openblas():
    """(get_threads, set_threads, get_config, get_corename) of numpy's
    OpenBLAS, or None."""
    try:
        from numpy._core import _multiarray_umath as extension
        library = ctypes.CDLL(extension.__file__)
        get_threads = library.scipy_openblas_get_num_threads64_
        set_threads = library.scipy_openblas_set_num_threads64_
        get_config = library.scipy_openblas_get_config64_
        get_corename = library.scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    get_corename.argtypes, get_corename.restype = [], ctypes.c_char_p
    return get_threads, set_threads, get_config, get_corename


def blas_info() -> tuple[str, str, int, str] | None:
    """(name, version, thread count, core type) of numpy's OpenBLAS, or None.

    For example ("OpenBLAS", "0.3.31.188.0", 2, "SkylakeX"). The core type
    is the CPU kernel set a DYNAMIC_ARCH build chose for this host (or that
    ``OPENBLAS_CORETYPE`` forced). None where the library is not found.
    """
    library = _openblas()
    if library is None:
        return None
    get_threads, _, get_config, get_corename = library
    name, version = get_config().decode("ascii", "replace").split()[:2]
    return name, version, get_threads(), get_corename().decode("ascii", "replace")


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread inside the block.

    Yields True if it could and False where the library's setter is missing.
    The count is process-global: every thread's BLAS calls run on one thread
    while any block holds the pin. Nested and concurrent blocks share it; the
    first to enter saves the caller's count and the last to leave restores
    it, whether the block succeeds or raises.
    """
    global _holders, _saved_threads
    library = _openblas()
    if library is None:
        yield False
        return
    get_threads, set_threads = library[:2]
    with _lock:
        if _holders == 0:
            _saved_threads = get_threads()
            set_threads(1)
        _holders += 1
    try:
        yield True
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                set_threads(_saved_threads)
