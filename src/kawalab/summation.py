"""Deterministic accumulation for lattice sums.

``ordered_sum`` reduces each chunk of a lattice sum with ``np.sum``
(pairwise, deterministic for a fixed shape) and combines the chunk
partials in their given order with ``math.fsum``, which rounds their
exact total once, so results are bit-identical across runs and across
worker counts.
"""

import math

import numpy as np

__all__ = ["ordered_sum", "fsum_complex"]


def fsum_complex(values):
    """Exact (fsum-based) total of an iterable of real/complex scalars."""
    vals = [complex(v) for v in values]
    re = math.fsum(v.real for v in vals)
    im = math.fsum(v.imag for v in vals)
    return re if im == 0.0 else complex(re, im)


def ordered_sum(chunks):
    """Combine an ordered iterable of array chunks into one scalar.

    Each chunk is reduced with ``np.sum`` (pairwise, deterministic for a
    fixed shape); the chunk partials are then combined exactly with fsum.
    """
    partials = []
    for chunk in chunks:
        arr = np.asarray(chunk)
        if arr.size:
            partials.append(arr.sum())
    if not partials:
        return 0.0
    return fsum_complex(partials)
