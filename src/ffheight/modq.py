"""Batched Gauss-Jordan elimination mod a prime q.

One kernel serves both mod-q eliminations: the census fiber loop, which
reduces a chunk of [M | G] stacks at a time, and the determinant method's
residue ranks, which bound the rank over K from below by the ranks mod
t - a.  Entries must be in [0, q) with products of two residues inside
int64, so q <= census.MAX_Q.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def _inverses(q):
    """inv[x] = x^-1 mod q and inv[0] = 0, built on first use for each q and
    read-only, since every caller shares it."""
    inv = np.array([0] + [pow(x, -1, q) for x in range(1, q)], dtype=np.int64)
    inv.flags.writeable = False
    return inv


def gauss_jordan(aug, ncols, q):
    """Reduce a stack of matrices mod q, in place, to RREF on the first
    ncols columns; the other columns follow the row operations.

    aug has shape (fibers, rows, width) with entries in [0, q).  Returns
    the rank of each matrix's first ncols columns.  Pivot rows are
    normalised and their columns cleared above and below, so the result is
    the unique reduced echelon form, with the zero rows at the bottom.
    """
    inv = _inverses(q)
    nf, nrows, _ = aug.shape
    idx = np.arange(nf)
    rows = np.arange(nrows)
    rank = np.zeros(nf, dtype=np.int64)
    for c in range(ncols):
        cand = (aug[:, :, c] != 0) & (rows >= rank[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        r = np.minimum(rank, nrows - 1)
        piv = np.where(has, cand.argmax(axis=1), r)
        # rows from the rank down are zero left of c, so only columns c..
        # take part in the swap and the elimination
        top, low = aug[idx, r, c:], aug[idx, piv, c:]
        prow = np.where(has[:, None], low * inv[low[:, 0]][:, None] % q, 0)
        aug[idx, piv, c:] = top
        aug[idx, r, c:] = np.where(has[:, None], prow, top)
        f = aug[:, :, c].copy()
        f[idx, r] = 0
        right = aug[:, :, c:]
        right -= f[:, :, None] * prow[:, None, :]
        right %= q
        rank += has
        if rank.min() == nrows:
            break
    return rank
