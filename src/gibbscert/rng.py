"""Reproducible multi-stream random number generation.

Every stochastic routine in this package takes an explicit :class:`RngStream`.
A stream is identified by ``(seed, stream_id)``; re-creating a stream with the
same pair replays the identical draw sequence bit for bit, no matter how the
surrounding work is scheduled.  Replicated experiments assign one stream per
replica chunk (``stream_id`` = chunk index), which makes results independent
of the worker count.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(z: int) -> int:
    """One round of the splitmix64 mixer (public-domain constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(seed: int, stream_id: int) -> int:
    """Derive a 64-bit sub-seed for ``stream_id`` from a master ``seed``.

    The mapping is fixed so that replica streams are reproducible regardless
    of creation order or execution interleaving.
    """
    return splitmix64(splitmix64(seed & _MASK64) ^ splitmix64((stream_id & _MASK64) + 0xA5A5A5A5A5A5A5A5))


@dataclass
class RngStream:
    """A counted, seedable stream of random draws.

    Distinct ``(seed, stream_id)`` pairs give statistically independent
    streams that are safe to use concurrently; a single stream must not be
    shared by concurrent callers.

    Attributes
    ----------
    seed : int
        Master seed (64-bit unsigned).
    stream_id : int
        Replica / chunk index mixed into the seed.
    position : int
        Number of variates drawn so far; advances with every draw.
    """

    seed: int
    stream_id: int = 0
    position: int = field(default=0, compare=False)

    def __post_init__(self):
        self._gen = np.random.Generator(np.random.PCG64(mix_seed(self.seed, self.stream_id)))

    def gamma(self, shape, size=None):
        """Unit-rate gamma draws; exact for every shape > 0."""
        out = self._gen.standard_gamma(shape, size=size)
        self.position += int(np.size(out))
        return out

    def uniform(self, size=None):
        out = self._gen.random(size=size)
        self.position += int(np.size(out))
        return out
