"""Independent reference for the degree-6 SLOCC invariant C6.

One direct ``np.einsum`` over all eight tensors, with any matching of the
bar-side legs, so it shares no code with the staged contraction of
``lsl_qutrit.sextic_invariant``.
"""

import numpy as np

from qutrit_invariants.tensors import build_structure_tensors

_DT = build_structure_tensors(3).dtilde


def sextic_by_matching(ext, first_group):
    """Degree-6 contraction with an arbitrary matching: the bar-side
    partners of the plain-side legs listed in ``first_group`` (three of
    0..5) feed the first bar-side tensor, the rest the second.  Used to
    check that all connected matchings agree and the aligned ones
    degenerate to the square of the cubic invariant."""
    first_group = tuple(first_group)
    if len(first_group) != 3 or not all(0 <= i < 6 for i in first_group):
        raise ValueError("first_group must name three of the six legs")
    # legs abcdef on the plain side, their partners uvwxyz on the bar side
    groups = (first_group, [i for i in range(6) if i not in first_group])
    spec = 'abc,def,au,bv,cw,dx,ey,fz,' + ','.join(''.join('uvwxyz'[i] for i in g)
                                                   for g in groups) + '->'
    return float(np.einsum(spec, _DT, _DT, *[ext] * 6, _DT, _DT, optimize=True))
