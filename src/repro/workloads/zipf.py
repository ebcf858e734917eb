"""Inverse-CDF Zipf sampling — the one shared implementation.

Every Zipfian consumer in the tree (the serving feeder's synth path,
:class:`repro.net.flows.TrafficGenerator`, the workload generators here)
draws flow ranks through :class:`ZipfSampler`, so million-flow
populations cost one cumulative-weight table built once plus a binary
search per packet, and the draw formula is identical everywhere.

This module is deliberately import-free of the rest of the package so
``repro.net.flows`` can depend on it without a cycle.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect
from itertools import accumulate
from typing import Iterator, List


def _normalised(n: int, exponent: float) -> Iterator[float]:
    """The Zipf frequencies, streamed: two passes over ``1/i^exponent``
    (one for the total, one to divide), never a list of them."""
    if n <= 0:
        raise ValueError("need at least one flow")
    total = sum(1.0 / (i ** exponent) for i in range(1, n + 1))
    return (1.0 / (i ** exponent) / total for i in range(1, n + 1))


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    """Normalised Zipf frequencies f_i ∝ 1/i^exponent for i = 1..n.

    With ``exponent == 1`` this is the distribution of Appendix A.1,
    where P_i = 1/(i·ln(N)) (the paper approximates the harmonic sum
    with ln N).
    """
    return list(_normalised(n, exponent))


class ZipfSampler:
    """Zipfian rank sampler over ``0 .. n-1``, heaviest rank first.

    One uniform draw plus one binary search per sample; the draw matches
    ``random.choices(cum_weights=...)`` bit-for-bit (same ``random() *
    total`` then right-bisect with ``hi = n - 1``), so call sites that
    migrated here kept their exact packet sequences. The cumulative
    table is a packed ``array('d')`` filled from a generator — 8 bytes a
    flow and no transient lists — because every ``frames()`` pass
    rebuilds it, so its transient size is what a million-flow run adds
    to the process's peak RSS.
    """

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        self.n = n
        self.exponent = exponent
        self._cum = array("d", accumulate(_normalised(n, exponent)))
        self._total = self._cum[-1]
        self._hi = n - 1

    def sample(self, rng: random.Random) -> int:
        """Draw one rank using ``rng``'s next uniform variate."""
        return bisect(self._cum, rng.random() * self._total, 0, self._hi)


class UniformSampler:
    """Uniform rank sampler with the :class:`ZipfSampler` interface."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("need at least one flow")
        self.n = n

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.n)


def make_sampler(n: int, distribution: str = "zipf", exponent: float = 1.0):
    """A sampler for a named distribution (``uniform`` | ``zipf``)."""
    if distribution == "uniform":
        return UniformSampler(n)
    if distribution == "zipf":
        return ZipfSampler(n, exponent)
    raise ValueError(f"unknown distribution {distribution!r}")
