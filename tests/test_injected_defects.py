"""Each certificate against an injected defect: a row gives the certificate,
the defect (a monkeypatch) and the outcome the certificate must give.  A
certificate that cannot fail certifies nothing."""

import dataclasses
import json
from itertools import permutations

import pytest

from qutrit_invariants import cli, lsl_qutrit, tensors


def _raise_dtilde_123(monkeypatch):
    """d-tilde with its six (1, 2, 3) entries raised by 1e-7, wherever the
    suites read it.  The cached tensor is read-only: the defect is a copy."""
    t3 = tensors.build_structure_tensors(3)
    dt = t3.dtilde.copy()
    for index in permutations((1, 2, 3)):
        dt[index] += 1e-7
    build = tensors.build_structure_tensors
    wrong = dataclasses.replace(t3, dtilde=dt)
    monkeypatch.setattr(tensors, "build_structure_tensors",
                        lambda dim: wrong if dim == 3 else build(dim))
    for name, value in (("_DT", dt), ("_DT_FLAT", dt.reshape(-1)),
                        ("_DT_1_2", dt.reshape(9, 81)), ("_DT_2_1", dt.reshape(81, 9))):
        monkeypatch.setattr(lsl_qutrit, name, value)


# certificate (a verify command line), defect, exit code, the certificate
# entries that leave their bounds
ROWS = [
    (["verify", "tensors", "--trials", "20"], _raise_dtilde_123, cli.EXIT_VIOLATION,
     {"cubic_determinant_ratio_deviation_from_1.5": cli.VERIFY_TOL}),
    (["verify", "algebra", "--trials", "5"], _raise_dtilde_123, cli.EXIT_VIOLATION,
     {"linearized_preservation_residual": cli.ALGEBRA_TIGHT_TOL,
      "dtilde_preservation_residual": cli.ALGEBRA_LOOSE_TOL}),
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
