"""Functions the service_stream library ships to workers.

Kept in a module of their own, with no imports at module level, so a
library instance that loads them by reference imports nothing else of
the benchmark.
"""


def part(seed: int, index: int, size: int) -> bytes:
    """Seeded ballast: one by-reference map result."""
    import random

    return random.Random(seed * 1_000_003 + index).randbytes(size)


def digest(parts) -> str:
    """Reduce over upstream results (proxies materialize at the worker)."""
    import hashlib

    h = hashlib.md5()
    for p in parts:
        h.update(p)
    return h.hexdigest()
