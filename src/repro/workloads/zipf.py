"""Inverse-CDF Zipf sampling — the one shared implementation.

Every Zipfian consumer in the tree (the serving feeder's synth path,
:class:`repro.net.flows.TrafficGenerator`, the workload generators here)
draws flow ranks through :class:`ZipfSampler`, so million-flow
populations cost one cumulative-weight table built once *per process*
(interned per ``(n, exponent)``: at most :data:`MAX_TABLES` = 4 tables
alive, 8 B/flow each) plus a binary search per packet, and the draw
formula is identical everywhere.

This module is deliberately import-free of the rest of the package so
``repro.net.flows`` can depend on it without a cycle.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Iterator, List

#: Cumulative tables kept alive at once (8 B/flow each, so four
#: million-flow populations pin 32 MB); the least recently used goes.
MAX_TABLES = 4


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


@lru_cache(maxsize=MAX_TABLES)
def cumulative_table(n: int, exponent: float) -> array:
    """The cumulative-weight table of one population: a packed
    ``array('d')`` filled from a generator (8 bytes a flow, no
    transient lists), built once and shared read-only by every sampler
    of that population — the 1M-flow build is 2M ``pow`` calls, far
    more than the 10–20k draws a trace then makes from it."""
    return array("d", accumulate(_normalised(n, exponent)))


class ZipfSampler:
    """Zipfian rank sampler over ``0 .. n-1``, heaviest rank first.

    One uniform draw plus one binary search per sample; the draw matches
    ``random.choices(cum_weights=...)`` bit-for-bit (same ``random() *
    total`` then right-bisect with ``hi = n - 1``), so call sites that
    migrated here kept their exact packet sequences. Samplers of one
    ``(n, exponent)`` share one interned table (:func:`cumulative_table`),
    so constructing a sampler per ``frames()`` pass is free after the
    first.
    """

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        self.n = n
        self.exponent = exponent
        self._cum = cumulative_table(n, exponent)
        self._total = self._cum[-1]
        self._hi = n - 1

    def sample(self, rng: random.Random) -> int:
        """Draw one rank using ``rng``'s next uniform variate."""
        return bisect(self._cum, rng.random() * self._total, 0, self._hi)

    def ranks(self, rng: random.Random) -> Iterator[int]:
        """The endless stream of ranks repeated :meth:`sample` calls
        would draw, bit for bit, iterated at C level (no Python call
        per packet): ``total * random()`` into a right-bisect."""
        scaled = map(self._total.__mul__, iter(rng.random, None))
        return map(bisect, repeat(self._cum), scaled, repeat(0),
                   repeat(self._hi))


class UniformSampler:
    """Uniform rank sampler with the :class:`ZipfSampler` interface."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("need at least one flow")
        self.n = n

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.n)

    def ranks(self, rng: random.Random) -> Iterator[int]:
        return map(rng.randrange, repeat(self.n))


def make_sampler(n: int, distribution: str = "zipf", exponent: float = 1.0):
    """A sampler for a named distribution (``uniform`` | ``zipf``)."""
    if distribution == "uniform":
        return UniformSampler(n)
    if distribution == "zipf":
        return ZipfSampler(n, exponent)
    raise ValueError(f"unknown distribution {distribution!r}")
