"""The Arikan transforms over ordered particle pairs: the tests' oracle for ``bidmc.polar``.

``bidmc.polar`` builds each unordered pair {i, j} once, with the mass of a
pair off the diagonal doubled.  These are the n^2 transforms it replaced:
they build (i, j) and (j, i) apart and leave merging the two to
``canonicalize``.  Their results agree to round-off, not bit for bit.
"""

import numpy as np

from bidmc import Channel, canonicalize, diamond, star


def arikan_minus(w: Channel) -> Channel:
    """Minus transform: star mixture over all n^2 ordered pairs."""
    s, p = w.sigmas, w.weights
    sig = star(s[:, None], s[None, :])
    mass = p[:, None] * p[None, :]
    return canonicalize(np.column_stack((sig.ravel(), mass.ravel())))


def arikan_plus(w: Channel) -> Channel:
    """Plus transform: diamond mixture over all n^2 ordered pairs.

    Pair (i, j) contributes a good and a bad output, in that order, each
    only when its mass factor is nonzero.
    """
    si, sj = w.sigmas[:, None], w.sigmas[None, :]
    mass = w.weights[:, None] * w.weights[None, :]
    good = star(1.0 - si, sj)
    # [i, j, 0] is the good output of pair (i, j), [i, j, 1] the bad one.
    sig = diamond(np.stack((si, 1.0 - si), axis=-1), sj[..., None])
    mass = np.stack((mass * good, mass * (1.0 - good)), axis=-1)
    keep = np.stack((good > 0.0, good < 1.0), axis=-1)
    return canonicalize(np.stack((sig, mass), axis=-1)[keep])


def transform(w: Channel, bit: str) -> Channel:
    """The stand-in for ``bidmc.polar._transform``: bit "0" is minus, "1" plus."""
    return arikan_minus(w) if bit == "0" else arikan_plus(w)
