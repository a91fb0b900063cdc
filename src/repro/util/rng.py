"""Seeded random-number helpers.

Simulation components must never reach for module-level :mod:`random`; each
stochastic model owns a :class:`SeededRng` derived from the experiment seed
so that every run is reproducible packet-for-packet.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")

#: The type of :attr:`SeededRng.generator`.
Generator = random.Random


class SeededRng:
    """A thin, explicit wrapper over :class:`random.Random`.

    Provides only the draws the simulator needs, plus :meth:`fork` to derive
    independent sub-streams (e.g. one per network link) that stay stable when
    unrelated components are added to an experiment.
    """

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._rng = random.Random(self._seed)

    def fork(self, label: str) -> "SeededRng":
        """Derive an independent stream keyed by ``label``.

        Uses a stable hash of the label (not Python's randomized ``hash``)
        so forks are identical across interpreter runs.
        """
        h = 0
        for ch in label:
            h = (h * 131 + ord(ch)) & 0xFFFFFFFF
        return SeededRng((self._seed * 1_000_003 + h) & 0x7FFFFFFF)

    @property
    def generator(self) -> Generator:
        """The underlying generator, for a caller that draws in a hot loop:
        ``generator.random()`` is the draw :meth:`random` makes, without the
        wrapper's frame."""
        return self._rng

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def random(self) -> float:
        return self._rng.random()

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def bytes(self, n: int) -> bytes:
        return bytes(self._rng.getrandbits(8) for _ in range(n))

    def sample(self, seq: Sequence[T], k: int) -> list:
        return self._rng.sample(seq, k)

    def jittered(self, base: float, jitter: float, floor: float = 0.0) -> float:
        """``base`` plus symmetric uniform jitter, clamped below at ``floor``."""
        return max(floor, base + self._rng.uniform(-jitter, jitter))


__all__ = ["Generator", "SeededRng"]
