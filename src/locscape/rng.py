"""Counter-based random streams.

Every stochastic routine in the package derives its randomness from a Philox
generator selected by its 128-bit key, so stream ``i`` of an ensemble is
reproducible on its own, with no sequential dependence between trials; that
makes trial-parallel execution and partial reruns exact.

* Untagged streams, ``stream(seed, i)``, are keyed ``[seed ^ i, 0]``.  Potentials,
  ensemble trials and the other draws of the package use them.
* Tagged streams, ``stream(seed, i, tag)`` with ``tag >= 1`` and ``0 <= i < 2**32``,
  are keyed ``[seed, tag * 2**32 + i]``.  Their second key word is non-zero, so they never
  coincide with an untagged stream, with a stream of another tag, or with a
  stream of another seed.  ``TAG_WALK`` selects the lanes of the walk
  estimators (``locscape.stochastic``).
"""

import numpy as np

_MASK64 = (1 << 64) - 1

TAG_WALK = 1


def stream(seed: int, index: int = 0, tag: int = 0) -> np.random.Generator:
    """Independent generator for trial/path ``index`` of an ensemble seeded by ``seed``.

    ``tag`` names the purpose of a family of streams; see the module docstring for the keys.
    """
    if tag:
        key = (int(seed) & _MASK64) | ((int(tag) << 32) + int(index)) << 64
    else:
        key = (int(seed) ^ int(index)) & _MASK64
    return np.random.Generator(np.random.Philox(key=key))
