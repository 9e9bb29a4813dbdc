"""Polynomial invariants and entanglement monotones for mixed two-qutrit
and two-qubit states, plus an exact symmetric-function engine that
reproduces the invariant counts combinatorially."""

__version__ = "0.1.0"

from .counting import (
    CountReport,
    count_graded_quartics,
    count_lsl,
    count_lu_mixed,
    count_lu_pure,
)
from .lsl_qutrit import (
    AlgebraGenerators,
    build_algebra,
    cubic_expansion_residual,
    cubic_invariant,
    induce_map,
    sextic_invariant,
)
from .lu_invariants import (
    GRADINGS,
    LOW_DEGREE_LABELS,
    QUARTIC_LABELS,
    all_invariants,
    independence_test,
    low_degree_invariants,
)
from .monotones import (
    MeasurementPair,
    apply_measurement,
    concavity_trial,
    monotone_functional,
    run_trials,
    sample_measurement,
    scalar_inequality_scan,
    wrong_exponent_counterexample,
)
from .qubit import q_invariants, w_matrix
from .states import (
    BipartiteState,
    StateCoords,
    apply_local,
    from_coords,
    load_state,
    random_local_sl,
    random_local_unitary,
    random_state,
    save_state,
    to_coords,
)
from .symfunc import (
    S,
    SchurExpr,
    format_expr,
    kronecker,
    outer,
    parse_expr,
    plethysm,
    plethysm_series,
    sun_modify,
)
from .tensors import (
    StructureTensors,
    build_structure_tensors,
    cyclic_identity_check,
    det_from_dtilde,
)

