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
# r -> t r, rbar -> u rbar, R -> v R is t^p u^q v^s.
LABELS = ("K000", "K200", "K020", "K002", "K300", "K030", "K111", "K102", "K012",
          "K003d", "K003f", "K103", "K103p", "K013", "K013p", "K202a", "K202b",
          "K022a", "K022b", "K112d", "K112f", "K121", "K211", "K004_33",
          "K004_24", "K004_42", "K004_22", "K004_32", "K004_x22")
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


# The pure-R quartics as one contraction table over the embedded T: the
# twelve pair products of T with T in their plans are five distinct ones.
# Label (m, n): the superscript of factor 1 closes on the subscript of
# factor m, its subscript on the superscript of factor n; the bar-side
# indices always run in one cycle.
_CHAINS = tuple((label, spec, ("T",) * 4) for label, spec in (
    ("K004_33", '...ipjq,...kqlr,...jris,...lskp->...'),
    ("K004_24", '...ipjq,...kqir,...mrks,...jsmp->...'),
    ("K004_42", '...ipjq,...jqkr,...krls,...lsip->...'),
    ("K004_22", '...ipjq,...jqir,...krls,...lskp->...'),
    ("K004_32", '...ipjq,...jqnr,...mris,...nsmp->...'),
    ("K004_x22", '...ipjq,...jqlp,...lrns,...nsir->...'),
))


def _result(vals, R):
    """Arrays over the batch axes, or plain floats for a single state."""
    return {k: per_state(v, R) for k, v in vals.items()}


def _embedded(R):
    """Correlation tensor in the defining representation, T[..., i, p, j, q]
    carrying (superscript, superscript-bar, subscript, subscript-bar)."""
    lam = tensors.build_structure_tensors(3).lambdas
    return contract('...ab,aij,bpq->...ipjq', R, lam, lam)


def low_degree_blocks(r, rbar, R):
    """Degree <= 3 invariants of r, rbar (..., 8) and R (..., 8, 8) with
    shared leading batch axes: a dict of arrays over the batch axes, or of
    floats for a single state's blocks."""
    t = tensors.build_structure_tensors(3)
    d, f = t.d, t.f
    vals = {
        "K000": np.ones(R.shape[:-2]),
        "K200": contract('...a,...a->...', r, r),
        "K020": contract('...a,...a->...', rbar, rbar),
        "K002": contract('...ab,...ab->...', R, R),
        "K300": contract('abc,...a,...b,...c->...', d, r, r, r),
        "K030": contract('abc,...a,...b,...c->...', d, rbar, rbar, rbar),
        "K111": contract('...a,...ab,...b->...', r, R, rbar),
        "K102": contract('abc,...a,...bd,...cd->...', d, r, R, R),
        "K012": contract('abc,...a,...db,...dc->...', d, rbar, R, R),
        "K003d": contract('abc,xyz,...ax,...by,...cz->...', d, d, R, R, R),
        "K003f": contract('abc,xyz,...ax,...by,...cz->...', f, f, R, R, R),
    }
    return _result(vals, R)


def quartic_blocks(r, rbar, R):
    """The connected quartics of r, rbar (..., 8) and R (..., 8, 8) with
    shared leading batch axes: a dict of arrays over the batch axes, or of
    floats for a single state's blocks."""
    t = tensors.build_structure_tensors(3)
    d, f = t.d, t.f
    Rt = R.swapaxes(-1, -2)
    RtR = Rt @ R    # bar-bar
    RRt = R @ Rt    # plain-plain
    vals = {
        # one r, three R: the delta-coupled and the f/d-coupled chain
        "K103": contract('abc,...ab,...dc,...d->...', d, RtR, R, r),
        "K103p": contract('ABC,...aA,...bB,...cC,...d,abe,ecd->...', f, R, R, R, r, f, d),
        "K013": contract('abc,...ab,...cd,...d->...', d, RRt, R, rbar),
        "K013p": contract('abc,...aA,...bB,...cC,...D,ABE,ECD->...', f, R, R, R, rbar, f, d),
        # two r (or rbar), two R: delta- and d-coupled pairings
        "K202a": contract('...a,...ab,...b->...', r, RRt, r),
        "K202b": contract('abc,...b,...c,ade,...de->...', d, r, r, d, RRt),
        "K022a": contract('...a,...ab,...b->...', rbar, RtR, rbar),
        "K022b": contract('abc,...b,...c,ade,...de->...', d, rbar, rbar, d, RtR),
        # one r, one rbar, two R: both sides coupled by d or both by f
        "K112d": contract('abc,ABC,...a,...A,...bB,...cC->...', d, d, r, rbar, R, R),
        "K112f": contract('abc,ABC,...a,...A,...bB,...cC->...', f, f, r, rbar, R, R),
        # single invariants at mixed cubic-like gradings
        "K121": contract('ABC,...A,...B,...c,...cC->...', d, rbar, rbar, r, R),
        "K211": contract('abc,...a,...b,...C,...cC->...', d, r, r, rbar, R),
    }
    T = _embedded(R)
    vals.update((k, v.real) for k, v in contract_all(_CHAINS, T=T).items())
    return _result(vals, R)


def all_blocks(r, rbar, R):
    out = low_degree_blocks(r, rbar, R)
    out.update(quartic_blocks(r, rbar, R))
    return out


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
    coordinate stack, from only the block families the labels need."""
    # contiguous copies of the ext views contract a little faster
    blocks = [np.ascontiguousarray(b) for b in (coords.r, coords.rbar, coords.R)]
    vals = {}
    if not set(labels).isdisjoint(LOW_DEGREE_LABELS):
        vals.update(low_degree_blocks(*blocks))
    if not set(labels).isdisjoint(ALL_QUARTIC_LABELS):
        vals.update(quartic_blocks(*blocks))
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
