"""Counter-based splittable random streams.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  Monte Carlo drivers derive one stream per
replica from ``(master_seed, replica_index, ...)`` so results are
bit-reproducible no matter how replicas are scheduled.
"""

from __future__ import annotations

import numpy as np

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

