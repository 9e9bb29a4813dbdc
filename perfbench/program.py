"""Import the package under test from this checkout's ``src/`` and nowhere else.

The BLAS thread pin is set before numpy is first imported: the ``verify``
workload runs a two-worker pool on a two-core machine, and each worker
must keep to one BLAS thread so busy threads stay at or below ``nproc``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "qutrit_invariants"

if not (PACKAGE_DIR / "__init__.py").is_file():
    raise ImportError(f"no package source at {PACKAGE_DIR}")
sys.path.insert(0, str(SRC))

import qutrit_invariants  # noqa: E402
from qutrit_invariants import (  # noqa: E402
    cli,
    counting,
    lsl_qutrit,
    lu_invariants,
    monotones,
    numdiff,
    qubit,
    states,
    symfunc,
    tensors,
)

if Path(qutrit_invariants.__file__).resolve().parent != PACKAGE_DIR:
    raise ImportError(f"qutrit_invariants was imported from "
                      f"{qutrit_invariants.__file__}, not from {PACKAGE_DIR}")

# The memoized tables whose sizes and hit rates the benchmark reports; the
# symfunc ones are emptied before every counts pass.
MEMO_TABLES = {
    "symfunc.character": symfunc.character,
    "symfunc._lr_product": symfunc._lr_product,
    "symfunc._schur_term_to_p": symfunc._schur_term_to_p,
    "symfunc.partitions": symfunc.partitions,
    "tensors.build_structure_tensors": tensors.build_structure_tensors,
}
