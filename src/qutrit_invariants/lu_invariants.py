"""Local-unitary invariant polynomials of two-qutrit mixed states.

Invariants are labeled K<pqs> by their multidegree in the one-sided octet
vectors r, rbar and the correlation tensor R; variant contractions at the
same grading get a suffix.  All of them are complete tensor contractions
against f, d and delta, except the pure-R quartics, which are evaluated as
index chains of the correlation tensor embedded in the defining
representation (one superscript/subscript pair per factor and side).
"""

from __future__ import annotations

import numpy as np

from . import tensors
from .checks import integer
from .contract import contract, contract_all, per_state
from .numdiff import numerical_rank
from .numdiff import poly_jacobian  # noqa: F401  (the benchmark traces it here)
from .states import StateCoords, jacobian_rank, require_dims

# Every label is K<pqs>: its (p, q, s) multidegree, with a suffix for the
# variant contractions at one grading.  The exact scaling law under
# r -> t r, rbar -> u rbar, R -> v R is t^p u^q v^s.  Each contraction is a
# row (label, subscripts, operand names) over r, rbar, R, the products
# RtR = R^T R (bar-bar) and RRt = R R^T (plain-plain), the embedded T and
# the structure tensors d and f.
_TERMS = tuple((label, spec, tuple(names.split())) for label, spec, names in (
    ("K200", '...a,...a->...', "r r"),
    ("K020", '...a,...a->...', "rbar rbar"),
    ("K002", '...ab,...ab->...', "R R"),
    ("K300", 'abc,...a,...b,...c->...', "d r r r"),
    ("K030", 'abc,...a,...b,...c->...', "d rbar rbar rbar"),
    ("K111", '...a,...ab,...b->...', "r R rbar"),
    ("K102", 'abc,...a,...bd,...cd->...', "d r R R"),
    ("K012", 'abc,...a,...db,...dc->...', "d rbar R R"),
    ("K003d", 'abc,xyz,...ax,...by,...cz->...', "d d R R R"),
    # one r, three R: the delta-coupled and the f/d-coupled chain
    ("K103", 'abc,...ab,...dc,...d->...', "d RtR R r"),
    ("K103p", 'ABC,...aA,...bB,...cC,...d,abe,ecd->...', "f R R R r f d"),
    ("K013", 'abc,...ab,...cd,...d->...', "d RRt R rbar"),
    # K003f sits just before K013p, which reuses its f.R product, so that
    # product is not held through the rows between them
    ("K003f", 'abc,xyz,...ax,...by,...cz->...', "f f R R R"),
    ("K013p", 'abc,...aA,...bB,...cC,...D,ABE,ECD->...', "f R R R rbar f d"),
    # two r (or rbar), two R: delta- and d-coupled pairings
    ("K202a", '...a,...ab,...b->...', "r RRt r"),
    ("K202b", 'abc,...b,...c,ade,...de->...', "d r r d RRt"),
    ("K022a", '...a,...ab,...b->...', "rbar RtR rbar"),
    ("K022b", 'abc,...b,...c,ade,...de->...', "d rbar rbar d RtR"),
    # one r, one rbar, two R: both sides coupled by d or both by f
    ("K112d", 'abc,ABC,...a,...A,...bB,...cC->...', "d d r rbar R R"),
    ("K112f", 'abc,ABC,...a,...A,...bB,...cC->...', "f f r rbar R R"),
    # single invariants at mixed cubic-like gradings
    ("K121", 'ABC,...A,...B,...c,...cC->...', "d rbar rbar r R"),
    ("K211", 'abc,...a,...b,...C,...cC->...', "d r r rbar R"),
    # The pure-R quartics as index chains of T: label (m, n) closes the
    # superscript of factor 1 on the subscript of factor m and its
    # subscript on the superscript of factor n; the bar-side indices always
    # run in one cycle.  Their twelve pair products of T with T are five
    # distinct ones.
    ("K004_33", '...ipjq,...kqlr,...jris,...lskp->...', "T T T T"),
    ("K004_24", '...ipjq,...kqir,...mrks,...jsmp->...', "T T T T"),
    ("K004_42", '...ipjq,...jqkr,...krls,...lsip->...', "T T T T"),
    ("K004_22", '...ipjq,...jqir,...krls,...lskp->...', "T T T T"),
    ("K004_32", '...ipjq,...jqnr,...mris,...nsmp->...', "T T T T"),
    ("K004_x22", '...ipjq,...jqlp,...lrns,...nsir->...', "T T T T"),
))

# K000 is the constant 1, the trace of the normalized state.
LABELS = ("K000", *(label for label, _, _ in _TERMS))
GRADINGS = {l: (int(l[1]), int(l[2]), int(l[3])) for l in LABELS}

LOW_DEGREE_LABELS = [l for l in LABELS if sum(GRADINGS[l]) <= 3]
ALL_QUARTIC_LABELS = [l for l in LABELS if sum(GRADINGS[l]) == 4]

# The seventeen independent connected quartics.  At grading 004 the single
# bar-cycle chains satisfy the measured relation
#   K004_32 = (K004_33 - K004_24 - K004_42 + 2 K004_22) / 4,
# so the fifth independent direction is the crossed topology K004_x22 (two
# bar-side 2-cycles closed by one plain-side 4-cycle).  K004_32 is still
# evaluated and reported.
QUARTIC_LABELS = [l for l in ALL_QUARTIC_LABELS if l != "K004_32"]


def _embedded(R):
    """Correlation tensor in the defining representation, T[..., i, p, j, q]
    carrying (superscript, superscript-bar, subscript, subscript-bar)."""
    lam = tensors.build_structure_tensors(3).lambdas
    return contract('...ab,aij,bpq->...ipjq', R, lam, lam)


def _blocks(labels, r, rbar, R):
    """The labelled invariants of r, rbar (..., 8) and R (..., 8, 8) with
    shared leading batch axes, as one contraction table over only the
    operands its rows name: a dict of arrays over the batch axes, or of
    floats for a single state's blocks."""
    terms = tuple(row for row in _TERMS if row[0] in labels)
    names = {n for _, _, ops in terms for n in ops}
    t = tensors.build_structure_tensors(3)
    operands = {"r": r, "rbar": rbar, "R": R, "d": t.d, "f": t.f}
    if "RtR" in names:
        operands["RtR"] = R.swapaxes(-1, -2) @ R
    if "RRt" in names:
        operands["RRt"] = R @ R.swapaxes(-1, -2)
    if "T" in names:
        operands["T"] = _embedded(R)
    vals = contract_all(terms, **{n: v for n, v in operands.items() if n in names})
    vals["K000"] = np.ones(R.shape[:-2])
    return {l: per_state(vals[l].real, R) for l in labels}


def low_degree_blocks(r, rbar, R):
    """Degree <= 3 invariants of r, rbar (..., 8) and R (..., 8, 8) with
    shared leading batch axes: a dict of arrays over the batch axes, or of
    floats for a single state's blocks."""
    return _blocks(LOW_DEGREE_LABELS, r, rbar, R)


def quartic_blocks(r, rbar, R):
    """The connected quartics of r, rbar (..., 8) and R (..., 8, 8) with
    shared leading batch axes: a dict of arrays over the batch axes, or of
    floats for a single state's blocks."""
    return _blocks(ALL_QUARTIC_LABELS, r, rbar, R)


def all_blocks(r, rbar, R):
    return _blocks(LABELS, r, rbar, R)


def low_degree_invariants(coords):
    """Degree <= 3 invariants (the connected quadratics and cubics)."""
    require_dims(coords, 3)
    return low_degree_blocks(coords.r, coords.rbar, coords.R)


def all_invariants(coords):
    require_dims(coords, 3)
    return all_blocks(coords.r, coords.rbar, coords.R)


# ---------------------------------------------------------------------------
# Independence diagnostics

def _label_values(labels, coords):
    """Stacked values (..., len(labels)) of the labelled invariants of a
    coordinate stack, from one table of exactly those labels."""
    # contiguous copies of the ext views contract a little faster
    blocks = [np.ascontiguousarray(b) for b in (coords.r, coords.rbar, coords.R)]
    vals = _blocks(labels, *blocks)
    return np.stack([vals[l] for l in labels], axis=-1)


def independence_test(states, labels, jacobian_points=2):
    """Linear and algebraic independence evidence for a set of invariants.

    Returns the numerical rank of the values matrix over the sample and the
    Jacobian rank of the invariant map at the first ``jacobian_points``
    sampled states (``states.jacobian_rank``: stencil differentiation along
    a fixed sketch of directions, exact for these degree <= 4 polynomials).
    More Jacobian points than states are refused.  Degenerate samples are
    reported, not silently accepted.
    """
    states = list(states)
    labels = list(labels)
    if not labels:
        raise ValueError("independence_test needs at least one label, got an empty list")
    unknown = [l for l in labels if l not in GRADINGS]
    if unknown:
        raise ValueError(f"unknown invariant labels: {unknown}")
    jacobian_points = integer(jacobian_points, "jacobian_points", 0)
    if jacobian_points > len(states):
        raise ValueError(f"jacobian_points must be at most the {len(states)} states, "
                         f"got {jacobian_points}")
    if len(states) < len(labels) + 5:
        raise ValueError("sample must exceed the label count by at least 5")
    for st in states:
        require_dims(st.coords, 3)

    values = _label_values(labels, StateCoords(3, 3, np.stack([st.coords.ext for st in states])))
    col = np.linalg.norm(values, axis=0, keepdims=True)
    degenerate = [labels[i] for i in range(len(labels)) if col[0, i] == 0]
    colsafe = np.where(col == 0, 1.0, col)
    value_rank = numerical_rank(values / colsafe)

    degree = max(1, max(sum(GRADINGS[l]) for l in labels))
    jac_ranks = [jacobian_rank(st.coords, lambda c: _label_values(labels, c), degree,
                               k=len(labels))
                 for st in states[:jacobian_points]]

    return {
        "labels": labels,
        "value_rank": value_rank,
        "jacobian_ranks": jac_ranks,
        "jacobian_rank": max(jac_ranks) if jac_ranks else None,
        "degenerate_labels": degenerate,
    }
