"""The planted generator as one ``from_edges`` call: the reference for
``instance.generate_planted``.

:func:`generate_planted` lists every edge in draw order, the planted blocks
then each decoy's unsorted picks, renames the sets by the seeded
permutation and lets ``CoverageInstance.from_edges`` sort the packed keys.
The library lays out the set view directly; the tests hold it equal to this
one, both views and the planted ids.
"""

import numpy as np

from coversketch import CoverageInstance
from coversketch.instance import _decoy_size


def generate_planted(k, m, k_prime, eps, seed):
    if k < 1 or m < 1 or k_prime < 0:
        raise ValueError("k, m must be positive; k_prime nonnegative")
    if m % k != 0:
        raise ValueError("k must divide m so planted sets partition evenly")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    block = m // k
    decoy_size = _decoy_size(block, eps)
    if k_prime and decoy_size > m:
        raise ValueError("decoy sets larger than the ground set")
    rng = np.random.default_rng(seed)
    set_chunks = [np.repeat(np.arange(k, dtype=np.int64), block)]
    elem_chunks = [np.arange(m, dtype=np.int64)]
    for i in range(k_prime):
        picks = rng.choice(m, size=decoy_size, replace=False)
        set_chunks.append(np.full(decoy_size, k + i, dtype=np.int64))
        elem_chunks.append(np.asarray(picks, dtype=np.int64))
    perm = rng.permutation(k + k_prime).astype(np.int64)
    inst = CoverageInstance.from_edges(
        k + k_prime, m, perm[np.concatenate(set_chunks)],
        np.concatenate(elem_chunks))
    return inst, sorted(int(s) for s in perm[:k])
