"""Tensor contractions over optional leading batch axes.

Every invariant is a complete contraction written in index notation.  An
operand whose term starts with ``...`` may carry leading batch axes (a
stack of states or of stencil points); the structure tensors never do.  The
pairwise contraction order of each subscript string is searched once and
reused for every later call and every batch size, including none (path
search and reuse as in opt_einsum: Smith & Gray, JOSS 3(26):753, 2018).
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np

# Batch size the contraction orders are planned for.  The order does not
# depend on the batch of the call, so results do not depend on which call
# came first.
PLAN_BATCH = 64


@lru_cache(maxsize=None)
def _path(spec, core_shapes):
    terms = spec.split("->")[0].split(",")
    operands = [np.broadcast_to(0.0, ((PLAN_BATCH,) if t.startswith("...") else ()) + s)
                for t, s in zip(terms, core_shapes)]
    # no cap on intermediate size: the default cap (the largest operand)
    # forbids every pairwise order of the higher-degree invariants
    return np.einsum_path(spec, *operands, optimize=("greedy", sys.maxsize))[0]


def contract(spec, *operands):
    """``np.einsum(spec, *operands)`` along the cached contraction order."""
    terms = spec.split("->")[0].split(",")
    core_shapes = tuple(op.shape[op.ndim - len(t.lstrip(".")):]
                        for t, op in zip(terms, operands))
    return np.einsum(spec, *operands, optimize=_path(spec, core_shapes))


def per_state(value, operand):
    """``value`` as a Python float when it was computed from one matrix
    ``operand`` (no batch axes), or unchanged as the array over the batch."""
    return float(value) if operand.ndim == 2 else value
