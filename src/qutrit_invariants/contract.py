"""Tensor contractions over optional leading batch axes.

Every invariant is a complete contraction written in index notation.  An
operand whose term starts with ``...`` may carry leading batch axes (a
stack of states or of stencil points); the structure tensors never do.  The
pairwise order of each subscript string and core shapes is searched once.
A table of terms, each a subscript string over named operands, is compiled
once per full operand shapes, batch axes included: each term's order
becomes a transpose and a reshape of both operands, one matrix product and
the product's reshape and transpose per pair (opt_einsum's contraction
expressions: Smith & Gray, JOSS 3(26):753, 2018).  The terms' steps form
one program, in which a step that repeats an earlier one runs once and each
intermediate is dropped right after its last use; COMPILED_CALLS programs
are kept.  ``contract_all`` runs a table, ``contract`` the table of its one
term; a call looks up its shapes and runs only those steps.  A batch of
both operands stays a stack of matrix products; a batch of one is fused
into its rows or columns, placed among them by size as numpy places it.
The products are the ones ``np.einsum`` makes along that order: with at
most one batch axis and contiguous operands, the results are bit-for-bit
equal.
"""

import sys
from bisect import bisect_left
from functools import lru_cache
from math import prod
from operator import attrgetter

import numpy as np

# Batch size the contraction orders are planned for.  The order does not
# depend on the batch of the call, so results do not depend on which call
# came first.
PLAN_BATCH = 64

# The most stencil points or coordinate matrices one stacked kernel call
# evaluates.  Slices of 32 keep the kernels' temporaries (32 x 729 doubles
# in the cubic kernel) in the heap that malloc reuses; stacks of 64 or of
# 64 x 3 matrices crossed its mmap and trim thresholds and faulted fresh
# pages on every call.
STACK = 32

# Compiled tables kept, one per table of terms (a subscript string for one
# term) and full operand shapes.
COMPILED_CALLS = 1024

_shape = attrgetter("shape")


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


def _compiled(spec, shapes):
    """The steps of ``np.einsum(spec, *operands)`` for operands of these
    full shapes: per step the pair it takes, each operand's transpose and
    reshape into a matrix (or a stack of them), the product, the product's
    reshape and the transpose that brings its batch axes to the front; then
    the final transpose into the output order."""
    ndims = [len(t.lstrip(".")) for t in spec.split("->")[0].split(",")]
    plan, final = _plan(spec, tuple(s[len(s) - n:] for n, s in zip(ndims, shapes)))
    batches = [s[:len(s) - n] for n, s in zip(ndims, shapes)]
    steps = []
    for (i, j), perm_a, perm_b, n_left, n_summed, l, k, r, shape, rows, cols in plan:
        ba, bb = batches.pop(i), batches.pop(j)
        if bool(ba) == bool(bb):  # a stack of matrix products, or one product
            batch = np.broadcast_shapes(ba, bb) if ba else ()
            at_a = at_b = at = 0
            sa, sb, sc = ba + (l, k), bb + (k, r), batch + shape
        else:  # a batch of one operand is fused into its rows or columns
            batch = ba + bb
            at_a, at_b = (bisect_left(g, prod(batch)) for g in (rows, cols))
            at = at_a if ba else n_left + at_b
            sa, sb = (prod(ba) * l, k), (k, prod(bb) * r)
            sc = shape[:at] + batch + shape[at:]
            at_b += n_summed  # the summed indices come first in b
        steps.append((i, j, _batch_at(perm_a, len(ba), at_a), sa,
                      _batch_at(perm_b, len(bb), at_b), sb,
                      np.matmul if k > 1 else np.multiply,  # nothing summed: elementwise
                      sc, (*range(at, at + len(batch)), *range(at),
                           *range(at + len(batch), len(sc)))))
        batches.append(batch)
    return tuple(steps), _batch_at(final, len(batches[0]), 0)


def _batch_at(perm, n, at):
    """The transpose of an array with ``n`` leading batch axes that permutes
    its other axes by ``perm`` and puts the batch axes at position ``at``
    among them."""
    if not n:
        return perm
    core = [p + n for p in perm]
    return (*core[:at], *range(n), *core[at:])


@lru_cache(maxsize=COMPILED_CALLS)
def _table(terms, shapes, names=None):
    """The program of ``terms``, each (label, spec, operand names), on
    operands of these names and full shapes; a bare spec is the one term on
    the operands in order.  Registers hold the operands, then each step's
    result.  Each term's compiled steps are taken in turn, and a step that
    repeats an earlier one (the same registers, transposes, reshapes and
    product) is not added again.  Each step lists the registers whose last
    use it is, unless they are operands or results; each term ends in its
    result register and final transpose."""
    if names is None:
        names = tuple(range(len(shapes)))
        terms = ((None, terms, names),)
    steps, outputs = {}, []
    for _, spec, ops in terms:
        compiled, final = _compiled(spec, tuple(shapes[names.index(n)] for n in ops))
        regs = [names.index(n) for n in ops]
        for i, j, *step in compiled:  # i > j: popping i leaves j in place
            step = (regs.pop(i), regs.pop(j), *step)
            regs.append(steps.setdefault(step, len(names) + len(steps)))
        outputs.append((regs[0], final))
    kept = {r for r, _ in outputs}
    last = {r: n for n, step in enumerate(steps) for r in step[:2]
            if r >= len(names) and r not in kept}
    return (tuple((*step, tuple(r for r in step[:2] if last.get(r) == n))
                  for n, step in enumerate(steps)), tuple(outputs))


def _run(program, operands):
    """The value of each term of a compiled table on these operands."""
    steps, outputs = program
    regs = [*operands]
    for a, b, ta, sa, tb, sb, product, sc, tc, dead in steps:
        c = product(regs[a].transpose(ta).reshape(sa), regs[b].transpose(tb).reshape(sb))
        regs.append(c.reshape(sc).transpose(tc))
        for r in dead:  # an intermediate is dropped right after its last use
            regs[r] = None
    values = []
    for r, final in outputs:
        values.append(regs[r].transpose(final))
    return values


def contract_all(terms, **operands):
    """``{label: np.einsum(spec, *(operands[n] for n in names))}`` for each
    (label, spec, names) of the tuple ``terms``, along the compiled plans of
    the terms; a step that two terms share runs once."""
    values = _run(_table(terms, tuple(map(_shape, operands.values())), tuple(operands)),
                  operands.values())
    return {label: v for (label, _, _), v in zip(terms, values)}


def contract(spec, *operands):
    """``np.einsum(spec, *operands)`` along the compiled contraction plan:
    the table of this one term."""
    return _run(_table(spec, tuple(map(_shape, operands))), operands)[0]


def per_state(value, operand):
    """``value`` as a Python float when it was computed from one matrix
    ``operand`` (no batch axes), or unchanged as the array over the batch."""
    return float(value) if operand.ndim == 2 else value
