"""Tensor contractions over optional leading batch axes.

Every invariant is a complete contraction written in index notation.  An
operand whose term starts with ``...`` may carry leading batch axes (a
stack of states or of stencil points); the structure tensors never do.  The
pairwise order of each subscript string and core shapes is searched once and
compiled into transposes, reshapes and one matrix product per pair, run by
every later call at any batch size (opt_einsum's contraction expressions:
Smith & Gray, JOSS 3(26):753, 2018).  A step with no batch axis on either
operand (every step of a single state's call) runs that transpose, reshape
and product alone, with no batch to place.  The products are the ones
``np.einsum`` makes along that order: with at most one batch axis, the
results are bit-for-bit equal.
"""

import sys
from bisect import bisect_left
from functools import lru_cache
from math import prod

import numpy as np

# Batch size the contraction orders are planned for.  The order does not
# depend on the batch of the call, so results do not depend on which call
# came first.
PLAN_BATCH = 64


@lru_cache(maxsize=None)
def _core_ndims(spec):
    return tuple(len(t.lstrip(".")) for t in spec.split("->")[0].split(","))


@lru_cache(maxsize=None)
def _plan(spec, core_shapes):
    inputs, out = spec.split("->")
    terms = inputs.split(",")
    cores = [t.lstrip(".") for t in terms]
    letters = "".join(cores) + out.lstrip(".")
    # every index is summed between two terms or kept from one: no traces,
    # no sums inside one term, no index of three terms, no batch summed away
    if (len(cores) < 2 or any(len(set(c)) < len(c) for c in cores)
            or any(letters.count(c) != 2 for c in letters)
            or ("..." in inputs) != out.startswith("...")):
        raise ValueError(f"contract does not support the subscripts {spec!r}")
    size = dict(zip("".join(cores), sum(core_shapes, ())))
    operands = [np.broadcast_to(0.0, ((PLAN_BATCH,) if t.startswith("...") else ()) + s)
                for t, s in zip(terms, core_shapes)]
    # no cap on intermediate size: the default cap (the largest operand)
    # forbids every pairwise order of the higher-degree invariants
    path = np.einsum_path(spec, *operands, optimize=("greedy", sys.maxsize))[0][1:]
    # numpy's index order of each operand fixes the summation order and the
    # order of the rows and columns; an intermediate's indices, its batch
    # among them, are sorted by size
    orders, fresh, steps = list(cores), len(cores), []  # operands below fresh are terms
    for j, i in map(sorted, path):  # the later operand is the left factor
        a, b = cores[i], cores[j]
        summed = [c for c in orders[i] if c in b]
        left = [c for c in orders[i] if c not in b]
        right = [c for c in orders[j] if c not in a]
        steps.append(((i, j), tuple(map(a.index, left + summed)),
                      tuple(map(b.index, summed + right)), len(left), len(summed),
                      *(prod(size[c] for c in g) for g in (left, summed, right)),
                      tuple(size[c] for c in left + right),
                      *(tuple(size[c] for c in g) if n >= fresh else ()
                        for n, g in ((i, left), (j, right)))))
        fresh -= (i < fresh) + (j < fresh)
        cores, orders = ([x for n, x in enumerate(v) if n not in (i, j)] for v in (cores, orders))
        cores.append("".join(left + right))
        orders.append("".join(sorted(left + right, key=lambda c: (size[c], c))))
    return tuple(steps), tuple(map(cores[0].index, out.lstrip(".")))


def _moved(x, perm, at):
    """``x`` with its core axes permuted by ``perm`` and its leading batch
    axes moved to position ``at`` among them."""
    nb = x.ndim - len(perm)
    if not nb:
        return x.transpose(perm)
    core = tuple(p + nb for p in perm)
    return x.transpose(core[:at] + tuple(range(nb)) + core[at:])


def _pair(a, b, perm_a, perm_b, n_left, n_summed, l, k, r, shape, rows, cols):
    """One step: a batch of both operands stays a stack of matrix products, a
    batch of one is fused into its rows or columns, placed by their sizes."""
    product = np.matmul if k > 1 else np.multiply  # nothing summed: elementwise
    na, nb = a.ndim - len(perm_a), b.ndim - len(perm_b)
    if not (na or nb):
        return product(a.transpose(perm_a).reshape(l, k),
                       b.transpose(perm_b).reshape(k, r)).reshape(shape)
    if na and nb:
        c = product(_moved(a, perm_a, 0).reshape(a.shape[:na] + (l, k)),
                    _moved(b, perm_b, 0).reshape(b.shape[:nb] + (k, r)))
        return c.reshape(c.shape[:-2] + shape)
    batch = a.shape[:na] + b.shape[:nb]
    at_a, at_b = (bisect_left(g, prod(batch)) for g in (rows, cols))
    c = product(_moved(a, perm_a, at_a).reshape(-1, k),
                _moved(b, perm_b, n_summed + at_b).reshape(k, -1))
    at = at_a if na else n_left + at_b
    c = c.reshape(shape[:at] + batch + shape[at:])
    return np.moveaxis(c, range(at, at + len(batch)), range(len(batch)))


def contract(spec, *operands):
    """``np.einsum(spec, *operands)`` along the compiled contraction plan."""
    core_shapes = tuple(op.shape[op.ndim - n:] for n, op in zip(_core_ndims(spec), operands))
    steps, final = _plan(spec, core_shapes)
    operands = list(operands)
    for (i, j), *step in steps:  # i > j: popping i leaves j in place
        operands.append(_pair(operands.pop(i), operands.pop(j), *step))
    return _moved(operands[0], final, 0)


def per_state(value, operand):
    """``value`` as a Python float when it was computed from one matrix
    ``operand`` (no batch axes), or unchanged as the array over the batch."""
    return float(value) if operand.ndim == 2 else value
