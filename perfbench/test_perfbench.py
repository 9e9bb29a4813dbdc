"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import program
import spans
import workloads

HERE = Path(__file__).resolve().parent


class SmallVerify(workloads.Verify):
    FLOWS = [(label, suite, 12, workers)
             for label, suite, _, workers in workloads.Verify.FLOWS]


def make(cls, seed, path):
    path.mkdir(parents=True, exist_ok=True)
    return cls(seed, path)


def outcomes(result):
    return sorted((c.label, c.failed, c.wrong) for c in result.calls)


def package_attributes():
    return {(m.__name__, k): id(v) for m in sys.modules.values()
            if m is not None and m.__name__.startswith("qutrit_invariants")
            for k, v in list(vars(m).items())}


def test_same_seed_makes_identical_inputs(tmp_path):
    for cls in (SmallVerify, workloads.Invariants, workloads.Rank, workloads.Counts):
        a = make(cls, 7, tmp_path / cls.name / "a").inputs()
        b = make(cls, 7, tmp_path / cls.name / "b").inputs()
        assert a == b, cls.name


def test_other_seed_makes_other_inputs_with_same_outcomes(tmp_path):
    # counts has fixed inputs and is left out
    for cls in (SmallVerify, workloads.Invariants, workloads.Rank):
        a = make(cls, 7, tmp_path / cls.name / "a")
        b = make(cls, 8, tmp_path / cls.name / "b")
        assert a.inputs() != b.inputs(), cls.name
        assert outcomes(a.run_pass(0)) == outcomes(b.run_pass(0)), cls.name


def test_invariants_failures_are_the_documented_defects(tmp_path):
    wl = make(workloads.Invariants, 3, tmp_path)
    failed = sorted(c.label for c in wl.run_pass(0).calls if c.failed)
    assert failed == sorted(["nan33", "posinf33", "neginf22"] + ["trace33"] * 4)
    assert not any(c.wrong for c in wl.run_pass(0).calls)


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    for cls in (SmallVerify, workloads.Invariants, workloads.Counts):
        wl = make(cls, 4, tmp_path / cls.name)
        plain = wl.run_pass(0)
        tracer = spans.Tracer(program.qutrit_invariants)
        with tracer.installed():
            traced = wl.run_pass(0)
        assert tracer.spans, cls.name
        outputs = [c.output for c in plain.calls if c.output]
        assert outputs and outputs == [c.output for c in traced.calls if c.output], cls.name


def test_wrappers_sit_where_callers_look_and_are_restored():
    before = package_attributes()
    tracer = spans.Tracer(program.qutrit_invariants)
    with tracer.installed():
        # the importing modules see the same wrapper as the defining one
        assert program.monotones.random_state is program.states.random_state
        assert program.counting.plethysm is program.symfunc.plethysm
        assert program.lu_invariants.poly_jacobian is program.numdiff.poly_jacobian
        for module, name in [("monotones", "random_state"), ("counting", "plethysm"),
                             ("lu_invariants", "poly_jacobian"), ("cli", "main")]:
            assert hasattr(getattr(getattr(program, module), name), "__wrapped__")
        program.lu_invariants.low_degree_invariants(
            program.states.BipartiteState.from_rho(
                workloads.bank_state((3, 3), 0), 3, 3).coords)
    assert package_attributes() == before
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"states.to_coords", "lu_invariants.low_degree_blocks"} <= names


def test_self_time_subtracts_children():
    spans_ = [["outer", -1, 0.0, 10.0], ["inner", 0, 1.0, 4.0], ["inner", 0, 5.0, 6.0],
              ["leaf", 1, 2.0, 3.0]]
    totals = spans.layer_totals(spans_)
    assert totals == {"outer": (1, 6.0), "inner": (2, 3.0), "leaf": (1, 1.0)}
    assert spans.top_level_seconds(spans_) == 10.0
    assert spans.children_of(spans_, "outer") == 2


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "counts",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert not any(line.startswith("{") for line in res.stdout.splitlines())


def test_counts_run_prints_the_result_line(tmp_path):
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "counts",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert last["correct"] is True and last["failed"] == 0
