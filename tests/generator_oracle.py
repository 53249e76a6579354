"""Operator draws made through numpy's ``Generator``: the oracle for the
lab's raw-word sampler.

``srhtlab.srht.draw_integers`` reads PCG64's raw words itself and applies
numpy's bounded-integer rule.  These helpers make the same draws the way the
lab used to, with ``Generator.integers`` on ``derived_rng(seed)``, so a test
can require the two to agree bit for bit.  They are test code only: nothing
in the package calls a ``Generator`` method to draw an operator.
"""

import numpy as np

from srhtlab.srht import derived_rng


def integers(seed, highs):
    """One ``Generator.integers(0, highs)`` call on ``derived_rng(seed)``."""
    return derived_rng(seed).integers(0, np.asarray(highs))


def signs(n, seed, rng=None):
    """n signs as one ``integers(0, 2, size=n)`` call makes them."""
    rng = derived_rng(seed) if rng is None else rng
    return 2.0 * rng.integers(0, 2, size=n).astype(np.float64) - 1.0


def subset(n, ell, seed, rng=None):
    """The sorted ell-subset of one ``integers(0, n - arange(ell))`` call,
    shuffled over a whole index array (the O(n) Fisher-Yates shuffle)."""
    rng = derived_rng(seed) if rng is None else rng
    idx = np.arange(n, dtype=np.int64)
    for i, off in enumerate(rng.integers(0, n - np.arange(ell))):
        j = i + off
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:ell])


def operator_draw(n, ell, seed):
    """(signs, indices) of one operator: the sign call, then the offsets
    call, on one generator."""
    rng = derived_rng(seed)
    return signs(n, None, rng), subset(n, ell, None, rng)
