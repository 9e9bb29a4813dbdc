"""Standard Hermitian bases and their structure constants.

Builds the qutrit basis, prints a few f and d entries, checks the quartet
identities those coefficients satisfy, and measures the proportionality
between the extended symmetric cubic form and the matrix determinant.
"""

import numpy as np

from qutrit_invariants import build_structure_tensors, cyclic_identity_check, det_from_dtilde
from qutrit_invariants.states import to_single_coords

t = build_structure_tensors(3)

print("Tr(l_a l_b) = 2 delta_ab residual:",
      np.abs(np.einsum('aij,bji->ab', t.lam_ext[1:], t.lam_ext[1:]) - 2 * np.eye(8)).max())

print("\nSome antisymmetric coefficients (1-based indices):")
for (a, b, c) in [(1, 2, 3), (1, 4, 7), (4, 5, 8), (6, 7, 8)]:
    print(f"  f_{a}{b}{c} = {t.f[a-1, b-1, c-1]:+.6f}")

print("\nSome symmetric coefficients:")
for (a, b, c) in [(1, 1, 8), (1, 4, 6), (8, 8, 8)]:
    print(f"  d_{a}{b}{c} = {t.d[a-1, b-1, c-1]:+.6f}")

print("\nExtended symmetric tensor entries:")
print("  dtilde_000 =", t.dtilde[0, 0, 0])
print("  dtilde_011 =", t.dtilde[0, 1, 1])

print("\nOnce-contracted quartet identities (max residuals):")
for name, val in cyclic_identity_check().items():
    print(f"  {name}: {val:.2e}")

# The cubic form of dtilde is proportional to the determinant; the constant
# is 3/2 under these conventions, measured rather than assumed.
rng = np.random.default_rng(0)
ratios = []
for _ in range(5):
    H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = (H + H.conj().T) / 2
    cubic, det = det_from_dtilde(to_single_coords(H, 3))
    ratios.append(cubic / det)
print("\ncubic/determinant ratios on random Hermitian matrices:")
print(" ", np.round(ratios, 12))
