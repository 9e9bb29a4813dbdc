"""Each certificate against an injected defect: a row gives the certificate,
the defect (a monkeypatch) and the outcome the certificate must give.  A
certificate that cannot fail certifies nothing.

Every kernel reads f, d and d-tilde through `tensors.build_structure_tensors`
at call time, so a defect in them is one monkeypatch of that function.  The
cached tensors are read-only: a defect is a copy.

`verify expansion` does not see a 1e-7 defect in d or in d-tilde: over
200 states its cubic residual reads 7.6e-11 under the d defect below and
6.9e-11 under the d-tilde defect (9.1e-11 and 6.9e-11 over the default
1000), against its bound 1e-10, and the run exits 0.  Its row here is a
defect in the expansion's constant term.  The classical slice of
`tests/test_lsl_qutrit.py`, C3 = (3/8) perm(P), reads no d-tilde and finds
each d-tilde defect of its table, three of which `verify expansion` passes;
the closed form of C6 on the same slice finds each of them too.

The exact readers of `symfunc` (`class_sum` and through it `hall_norm`,
`_p_to_schur`, `_poly_to_schur`) divide through the one `symfunc._exact`.
Their defect is an input that is not a virtual character: one coefficient
off, so that the division leaves a remainder and `_exact` raises.

The library controls (the quartet identities, the Kronecker oracle, the
Jacobian rank and the monotone exponent) are rows of one more table: each
check reports nothing on its clean input and names the injected defect.
Their original tests stay where they were.
"""

import dataclasses
import json
import re
from itertools import permutations

import numpy as np
import pytest

from qutrit_invariants import cli, lsl_qutrit, monotones, states, symfunc, tensors

from bruteforce import oracle_kron
from test_lsl_qutrit import (CLASSICAL_C3_TOL, CLASSICAL_C6_TOL, classical_c3_deviation,
                             classical_c6_deviation)


def _raise_entries(monkeypatch, name, index):
    """The qutrit tensor ``name`` with the entries on the symmetric orbit of
    ``index`` (each once) raised by 1e-7, through the one patch point."""
    build = tensors.build_structure_tensors
    t3 = build(3)
    raised = getattr(t3, name).copy()
    for entry in set(permutations(index)):
        raised[entry] += 1e-7
    wrong = dataclasses.replace(t3, **{name: raised})
    monkeypatch.setattr(tensors, "build_structure_tensors",
                        lambda dim: wrong if dim == 3 else build(dim))


def _raise_dtilde_123(monkeypatch):
    """d-tilde with its six (1, 2, 3) entries raised by 1e-7."""
    _raise_entries(monkeypatch, "dtilde", (1, 2, 3))


def _raise_d_146(monkeypatch):
    """d with its six 0-based (0, 3, 5) entries, d_146 = 1/2, raised by 1e-7;
    d-tilde keeps its clean copy of d."""
    _raise_entries(monkeypatch, "d", (0, 3, 5))


def _raise_cubic_constant_term(monkeypatch):
    """The constant term of the cubic expansion times (1 + 1e-6)."""
    monkeypatch.setattr(lsl_qutrit, "CUBIC_CONSTANT_TERM",
                        lsl_qutrit.CUBIC_CONSTANT_TERM * (1 + 1e-6))


def _drop_c3_root(monkeypatch):
    """The C3 functional without its cube root, as the C3_raw control is."""
    dim, invariant, _ = monotones.MONOTONE_FUNCTIONALS["C3"]
    monkeypatch.setitem(monotones.MONOTONE_FUNCTIONALS, "C3", (dim, invariant, None))


# certificate (a verify command line), defect, exit code, the certificate
# entries that leave their bounds
ROWS = [
    (["verify", "tensors", "--trials", "20"], _raise_dtilde_123, cli.EXIT_VIOLATION,
     {"cubic_determinant_ratio_deviation_from_1.5": cli.VERIFY_TOL}),
    (["verify", "algebra", "--trials", "5"], _raise_dtilde_123, cli.EXIT_VIOLATION,
     {"linearized_preservation_residual": cli.ALGEBRA_TIGHT_TOL,
      "dtilde_preservation_residual": cli.ALGEBRA_LOOSE_TOL}),
    (["verify", "tensors", "--trials", "20"], _raise_d_146, cli.EXIT_VIOLATION,
     {"df": cli.VERIFY_TOL, "dd_minus_deltadelta": cli.VERIFY_TOL}),
    (["verify", "algebra", "--trials", "5"], _raise_d_146, cli.EXIT_VIOLATION,
     {"linearized_preservation_residual": cli.ALGEBRA_TIGHT_TOL,
      "commutator_residual_9x9": cli.ALGEBRA_TIGHT_TOL,
      "derivative_match_residual": cli.ALGEBRA_TIGHT_TOL}),
    (["verify", "expansion", "--trials", "20"], _raise_cubic_constant_term, cli.EXIT_VIOLATION,
     {"max_cubic_expansion_residual": cli.VERIFY_TOL}),
    # no margin leaves its bound: a functional with no root degree fails by rule
    (["verify", "monotone", "--trials", "20"], _drop_c3_root, cli.EXIT_VIOLATION, {}),
]


@pytest.mark.parametrize("argv,defect,code,exceeded", ROWS,
                         ids=[f"{row[0][1]}-{row[1].__name__.lstrip('_')}" for row in ROWS])
def test_certificate_fails_on_its_injected_defect(argv, defect, code, exceeded, monkeypatch,
                                                   tmp_path):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    clean = json.loads(out.read_text())["certificate"]
    defect(monkeypatch)
    assert cli.main([*argv, "--out", str(out)]) == code
    report = json.loads(out.read_text())
    assert report["passed"] is False
    for key, bound in exceeded.items():
        assert clean[key] <= bound < report["certificate"][key], key


# a d-tilde orbit raised by 1e-7, and the exit code of `verify expansion`
# under it: 0 (passed) for all but (0, 0, 0)
CLASSICAL_ROWS = [((1, 2, 3), cli.EXIT_OK), ((1, 4, 6), cli.EXIT_OK), ((3, 8, 8), cli.EXIT_OK),
                  ((0, 0, 0), cli.EXIT_VIOLATION)]


@pytest.mark.parametrize("index,expansion_code", CLASSICAL_ROWS,
                         ids=["dtilde_%d%d%d" % row[0] for row in CLASSICAL_ROWS])
def test_classical_slice_fails_on_a_dtilde_defect(index, expansion_code, monkeypatch, tmp_path):
    assert classical_c3_deviation() <= CLASSICAL_C3_TOL
    _raise_entries(monkeypatch, "dtilde", index)
    assert classical_c3_deviation() > CLASSICAL_C3_TOL
    argv = ["verify", "expansion", "--trials", "20", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == expansion_code


@pytest.mark.parametrize("index", [row[0] for row in CLASSICAL_ROWS],
                         ids=["dtilde_%d%d%d" % row[0] for row in CLASSICAL_ROWS])
def test_classical_c6_fails_on_a_dtilde_defect(index, monkeypatch):
    assert classical_c6_deviation() <= CLASSICAL_C6_TOL
    _raise_entries(monkeypatch, "dtilde", index)
    assert classical_c6_deviation() > CLASSICAL_C6_TOL


# exact reader, its arguments on a virtual character and the value it reads
# there, the same arguments with the defect, and the place the division
# names when it fails
EXACT_ROWS = [
    # chi^{2,1} squared averages to 1; the identity class alone to 1/6
    (symfunc.class_sum, (3, lambda rho: symfunc.character((2, 1), rho) ** 2), 1,
     (3, lambda rho: rho == (1, 1, 1)), "the class sum over S_3"),
    # p_1^2 = {2} + {1,1} has norm 2; half of it has norm 1/2
    (symfunc.hall_norm, ({(1, 1): 2},), 2, ({(1, 1): 1},), "the class sum over S_2"),
    (symfunc._p_to_schur, ({(1, 1): 2},), symfunc.S(2) + symfunc.S(1, 1),
     ({(1, 1): 1},), "(2,)"),
    # m_{1,1} = x1 x2 = {1,1} in two variables, x^(1, 1) packed in base 6
    (symfunc._poly_to_schur, ({7: 2}, 2, 2, 6), symfunc.S(1, 1),
     ({7: 1}, 2, 2, 6), "(1, 1)"),
]


@pytest.mark.parametrize("reader,clean,value,defect,where", EXACT_ROWS,
                         ids=[row[0].__name__.lstrip("_") for row in EXACT_ROWS])
def test_exact_reader_fails_on_a_non_virtual_input(reader, clean, value, defect, where):
    assert reader(*clean) == value
    with pytest.raises(ArithmeticError, match=re.escape(where)) as raised:
        reader(*defect)
    assert raised.traceback[-1].name == "_exact"


def _identities_past_1e_4(structure):
    """The quartet identities whose residual exceeds 1e-4 with ``structure``
    substituted for the qutrit tensors."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensors, "build_structure_tensors", lambda dim: structure)
        return sorted(k for k, v in tensors.cyclic_identity_check().items() if v > 1e-4)


def _d_raised_at_0_0_7():
    """The qutrit tensors with the one entry d[0, 0, 7] raised by 1e-3."""
    t3 = tensors.build_structure_tensors(3)
    d = t3.d.copy()
    d[0, 0, 7] += 1e-3
    return dataclasses.replace(t3, d=d)


def _kronecker_disagreements(kron):
    """The pairs of partitions of weight <= 6 where ``kron`` differs from the
    brute-force oracle."""
    return [(lam, mu) for n in range(1, 7) for lam in symfunc.partitions(n)
            for mu in symfunc.partitions(n)
            if kron(symfunc.S(*lam), symfunc.S(*mu)).terms != oracle_kron(lam, mu)]


def _kronecker_one_off(a, b):
    """`kronecker`, with g((3,2,1), (3,2,1), (3,2,1)) = 5 reported as 4."""
    out = symfunc.kronecker(a, b)
    if a.terms == b.terms == {(3, 2, 1): 1}:
        out = out - symfunc.S(3, 2, 1)
    return out


def _dependent_outputs(outputs):
    """The number of outputs less the Jacobian rank of the map that takes a
    two-qubit state to ``outputs(x, y, z)`` of three entries of its ext."""
    def fn(c):
        return np.stack(outputs(c.ext[..., 0, 1], c.ext[..., 1, 0], c.ext[..., 2, 2]), axis=-1)

    k = len(outputs(0.0, 0.0, 0.0))
    return k - states.jacobian_rank(states.random_state(2, 2, 4).coords, fn, degree=2, k=k)


def _control_violates(exponent):
    """Whether the cubic functional with the ``exponent`` ("proper" or "raw")
    violates concavity at the wrong-exponent control's state."""
    return monotones.wrong_exponent_counterexample()[f"{exponent}_margin"] < -1e-9


# library check, its clean input, the input with the defect, and what the
# check reports on the defect (it reports nothing on the clean input)
CONTROL_ROWS = [
    (_identities_past_1e_4, tensors.build_structure_tensors(3), _d_raised_at_0_0_7(),
     ["dd_minus_deltadelta", "df"]),
    (_kronecker_disagreements, symfunc.kronecker, _kronecker_one_off, [((3, 2, 1), (3, 2, 1))]),
    # x + y depends on x and y: the rank stays 3 of 4
    (_dependent_outputs, lambda x, y, z: [x, y, x * z], lambda x, y, z: [x, y, x + y, x * z], 1),
    (_control_violates, "proper", "raw", True),
]


@pytest.mark.parametrize("check,clean,defect,found", CONTROL_ROWS,
                         ids=[row[0].__name__.lstrip("_") for row in CONTROL_ROWS])
def test_library_control_finds_its_injected_defect(check, clean, defect, found):
    assert not check(clean)
    assert check(defect) == found
