"""Injectable time and randomness sources.

Everything nondeterministic flows through these two seams so scenario
runs are byte-reproducible under a fixed seed and logical clock start.
"""

import os

from .errors import ConfigError
from .serialization import MAX_INT, sha256


class LogicalClock:
    """Monotone integer clock in [0, 2^64-1]; tick() advances and returns the new value."""

    def __init__(self, start: int = 0):
        if not 0 <= start <= MAX_INT:
            raise ConfigError(f"logical clock start {start} is outside [0, 2^64-1]")
        self.value = start

    def tick(self) -> int:
        if self.value >= MAX_INT:
            raise ConfigError("logical clock cannot tick past 2^64-1")
        self.value += 1
        return self.value

    def now(self) -> int:
        return self.value


class SystemRng:
    """OS randomness for normal use."""

    def randbytes(self, n: int) -> bytes:
        return os.urandom(n)


class DeterministicRng:
    """Counter-mode SHA-256 byte stream, stable across platforms and runs."""

    def __init__(self, seed: bytes):
        self._seed = bytes(seed)
        self._counter = 0

    def randbytes(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            out += sha256(self._seed + self._counter.to_bytes(8, "big"))
            self._counter += 1
        return bytes(out[:n])
