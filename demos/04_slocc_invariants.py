"""The local special-linear group on qutrit coordinates.

Shows the induced real 9x9 action and its 3:1 kernel, certifies the
sixteen-dimensional Lie algebra, and demonstrates that the cubic and
sextic invariants survive non-unitary local maps while the local-unitary
invariants do not.  Ends with the cubic invariant's exact expansion in
local-unitary invariants.
"""

import numpy as np

from qutrit_invariants import (
    all_invariants,
    build_algebra,
    cubic_expansion_residual,
    cubic_invariant,
    induce_map,
    random_local_sl,
    random_state,
    sextic_invariant,
)

A = random_local_sl(3, seed=5)
m = induce_map(A)
print("induced map is real 9x9; preserves the symmetric tensor:")
from qutrit_invariants.lsl_qutrit import dtilde_preservation_residual
print("  residual:", f"{dtilde_preservation_residual(m):.2e}")

omega = np.exp(2j * np.pi / 3)
print("  3:1 kernel: |induce(omega A) - induce(A)| =",
      f"{np.abs(induce_map(omega * A) - m).max():.2e}")

gen, cert = build_algebra(seed=0, trials=10)
print("\nalgebra certificate:")
for key in ("span_dimension", "linearized_preservation_residual",
            "commutator_residual_9x9", "commutator_residual_3x3",
            "homomorphism_residual"):
    print(f"  {key}: {cert[key]}")

st = random_state(3, 3, seed=6)
c3 = cubic_invariant(st.coords.ext)
c6 = sextic_invariant(st.coords.ext)
print("\nC3 =", c3, " C6 =", c6)

mA = induce_map(random_local_sl(3, seed=11))
mB = induce_map(random_local_sl(3, seed=12))
ext2 = mA @ st.coords.ext @ mB.T
print("after a non-unitary local map (no renormalization):")
print("  C3 drift:", f"{abs(cubic_invariant(ext2) - c3) / abs(c3):.2e}")
print("  C6 drift:", f"{abs(sextic_invariant(ext2) - c6) / abs(c6):.2e}")

base = all_invariants(st.coords)
print("  but e.g. the quadratic K002 is not preserved:",
      f"{base['K002']:.4f} -> ", end="")
from qutrit_invariants.states import StateCoords
print(f"{all_invariants(StateCoords(3, 3, ext2))['K002']:.4f}")

print("\ncubic expansion residual on this state:",
      f"{cubic_expansion_residual(st):.2e}")
print("on the maximally mixed state both sides equal 1/324.")
