"""A word over the generators as operator algebra, as a test oracle.

The package reads a word's entries straight off the generators
(``rep_l2.word_entries``, and ``rep_l2.pi_hat`` as their operator view).
This module builds the same word from :class:`SparseOp`'s ``@``, ``add``
and ``scale`` alone, so the relations suite, ``pi_hat`` and perfbench's
reference operators are checked against code they do not share.
"""

import numpy as np

from diraclab.linop import SparseOp


def chained(w, space, ops):
    """The word w, a tuple of (weight, symbols) terms, as the chained sum
    t1 + t2.scale(w2) + ...: each term a product from the left, each sum
    canonicalised on its own."""
    out = SparseOp.zero(space)
    for weight, syms in w:
        term = SparseOp.diagonal(space, np.ones(space.dim))
        for s in syms:
            term = term @ ops[s]
        out = out.add(term.scale(weight))
    return out
