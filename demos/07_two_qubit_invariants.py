"""The two-qubit case: Lorentz-type transfer matrix and its invariants.

Computes the trace invariants and the coordinate determinant on a random
two-qubit state, verifies their block expansions and the epsilon-epsilon
determinant identity, exhibits the polynomial dependence of Q8, and runs
qubit monotone trials.
"""

import numpy as np

from qutrit_invariants import q_invariants, random_state, run_trials, w_matrix
from qutrit_invariants.qubit import (
    dependence_jacobian_rank,
    expansion_residuals,
    q8_relation_residual,
    w_matrix_bar,
)

st = random_state(2, 2, seed=3)
ext = st.coords.ext

w = w_matrix(ext)
print("transfer matrix spectrum:", np.round(np.sort(np.linalg.eigvals(w).real), 6))
print("bar-side partner is isospectral:",
      np.abs(np.sort(np.linalg.eigvals(w).real)
             - np.sort(np.linalg.eigvals(w_matrix_bar(ext)).real)).max())

q = q_invariants(ext)
print("\ninvariants:")
for k in ("Q2", "Q4", "Q6", "Q8", "Q4t"):
    print(f"  {k} = {q[k]:+.6e}")
print("  epsilon-contraction form of Q4t agrees to",
      f"{abs(q['Q4t'] - q['Q4t_eps']):.2e}")
print("  (the density-matrix determinant is a different quantity:",
      f"{np.linalg.det(st.rho).real:.6e})")

res = expansion_residuals(st.coords, q)
print("\nblock-expansion residuals:", {k: f"{v:.1e}" for k, v in res.items()})

print("\nQ8 dependence:")
print("  polynomial relation residual:", f"{q8_relation_residual(ext):.2e}")
print("  jacobian rank of (Q2, Q4, Q6, Q8, Q4t):",
      dependence_jacobian_rank(st.coords), "(four independent)")

print("\nqubit monotone trials (300 each):")
for name in ("Q2", "Q4", "Q4t", "Q6"):
    rep = run_trials(name, trials=300, seed=5)
    print(f"  |{name}|^(1/deg): min margin {rep['min_margin']:.3e}, "
          f"violations {len(rep['violations'])}")
