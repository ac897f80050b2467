"""Worker count of the package's computations.

Every computation runs on the calling thread; a thread pool over the
per-class maps measured no faster than one thread.
"""


def worker_count():
    """Number of threads the transforms use: always 1."""
    return 1
