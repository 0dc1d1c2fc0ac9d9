"""The three names the benchmark harness in ``bench/`` reads, and nothing else.

Every sweep runs in one thread as blocked array code and the library reads
no environment variable, so ``thread_cap()`` is always 1 and ``pmap`` is a
plain ordered map.  ``bench/`` records ``THREADS_ENV`` and ``thread_cap()``
and times ``pmap``; no library code calls either function.
"""

THREADS_ENV = "CHANNEL_LAB_THREADS"


def thread_cap() -> int:
    return 1


def pmap(fn, items):
    return [fn(x) for x in items]
