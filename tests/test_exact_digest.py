"""One digest over the exact engine's outputs: every count table the CLI
prints and writes, and the Schur expansions behind them.

A change to the symmetric-function plumbing must leave all of these
byte-identical; the digest below was taken before the power-sum
expansions moved from rationals to integer class functions.
"""

import hashlib
from contextlib import redirect_stdout
from io import StringIO

from qutrit_invariants.cli import main
from qutrit_invariants.counting import GRADED_COLUMNS
from qutrit_invariants.symfunc import S, kronecker, partitions, plethysm, plethysm_series

DIGEST = "96ee6c4d6dde1f989015f106b4a833d2b458ce8a191e08753568e9ef10b4f543"

COUNT_TABLES = [
    ["lsl", "--dim", "3", "--max", "12"],
    ["lsl", "--dim", "3", "--max", "12", "--nonzero"],
    ["lsl", "--dim", "2", "--max", "12"],
    ["graded"],
    ["lu", "--dim", "2", "--max", "8"],
    ["lu", "--dim", "3", "--max", "5"],
] + [["graded", "--pqs", "".join(map(str, pqs))] for pqs in GRADED_COLUMNS]


def engine_outputs(tmp_path):
    out = tmp_path / "report.json"
    for argv in COUNT_TABLES:
        stdout = StringIO()
        with redirect_stdout(stdout):
            assert main(["count", *argv, "--out", str(out)]) == 0
        yield " ".join(argv)
        yield stdout.getvalue()
        yield out.read_text()
    for n in range(8):
        for lam in partitions(n):
            for mu in partitions(n):
                yield repr(kronecker(S(*lam), S(*mu)))
    for inner in range(1, 4):
        for outer in range(1, 5):
            for lam in partitions(outer):
                for mu in partitions(inner):
                    yield repr(plethysm(S(*lam), S(*mu)))
    for k in (1, 2, 3):
        yield repr(plethysm_series(k, 12))


def test_engine_outputs_match_the_pinned_digest(tmp_path):
    h = hashlib.sha256()
    for piece in engine_outputs(tmp_path):
        h.update(piece.encode())
        h.update(b"\0")
    assert h.hexdigest() == DIGEST
