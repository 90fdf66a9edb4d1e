"""Counter-based splittable random streams and the one replica loop.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  An index-addressed Monte Carlo estimate takes a
``path`` of integers and runs its replicas through :func:`replicate`, which
hands replica ``i`` the stream ``stream(*path, i)``; its result is therefore
a function of ``(path, i)`` alone, whatever order or process computes it.
The audit loops that draw their replicas in sequence from one shared
generator (``poincare_audit``, ``osss_audit``, ``mecke_check``, the
stopping-set checks and others) keep it until block sampling changes the
stream scheme (ROADMAP open item 7): moving them to per-replica streams
moves every draw.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

# Philox keys are 128 bits.  Each path index is mixed in as key * _MIX +
# index + 1, which is linear, so distinct (seed, path) tuples can share a
# key: stream(0, i) == stream(i + 1), for one.  Keying from
# numpy.random.SeedSequence(seed, spawn_key=path) would keep them apart but
# move every pinned draw; that change is ROADMAP open item 7.
_MASK = (1 << 128) - 1
_MIX = 0x9E3779B97F4A7C15F39CC0605CEDC835


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, *path)``.

    ``stream(s, i)`` is the stream of replica ``i``; deeper paths
    (``stream(s, i, j)``) address further substreams.  The same tuple
    always yields the same stream, but two different tuples may too (see
    the note on ``_MIX``).
    """
    key = int(seed) & _MASK
    for idx in path:
        if idx < 0:
            raise ValueError("stream path indices must be nonnegative")
        key = (key * _MIX + int(idx) + 1) & _MASK
    return np.random.Generator(np.random.Philox(key=key))


def replicate(
    path: tuple[int, ...], samples: int, trial: Callable[[np.random.Generator], T]
) -> list[T]:
    """``trial(stream(*path, i))`` for every i < samples, in index order.

    The contract of every index-addressed estimate: replica ``i`` draws from
    ``stream(*path, i)`` and from nothing else, so it depends only on
    ``(path, i)``.
    """
    return [trial(stream(*path, i)) for i in range(samples)]
