"""Wire protocol: message framing, message kinds, and function and
argument serialization.

:mod:`~repro.protocol.serialization` is bound on the package when it is
imported, so ``repro.protocol.serialization`` reads as an attribute
without an import of its own (the benchmark's adapter reads it so).
Every process that speaks the protocol loads it anyway.
"""

from repro.protocol import serialization  # noqa: F401
