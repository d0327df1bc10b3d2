"""Working-set measurement for tests that bound a function's memory."""

import tracemalloc

# Allowance for what is not a dim^2 array: array headers, O(dim) vectors and
# small reduced states.  Far below one 1024^2 array (8 or 16 MiB).
BOOKKEEPING = 2 ** 20


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that ``fn(*args, **kwargs)`` held above what was live before.

    Counted by ``tracemalloc``, which sees numpy array buffers but not the
    private workspace of LAPACK calls.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
