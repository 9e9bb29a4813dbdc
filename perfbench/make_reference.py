"""Write reference.json: the ``invariants`` report values of every bank state.

    python3 perfbench/make_reference.py

The ``invariants`` workload checks each normalized file against the values
stored here, so regenerate them only at a commit whose reports are
trusted; the stored file was made at the commit that added the benchmark.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads


def main():
    ref = {}
    with tempfile.TemporaryDirectory(dir=workloads.REFERENCE.parent) as tmp:
        path, out = Path(tmp) / "state.json", Path(tmp) / "report.json"
        for dims, size in workloads.BANK_SIZE.items():
            entries = []
            for k in range(size):
                rho = workloads.bank_state(dims, k)
                path.write_text(json.dumps(workloads.state_payload(rho, dims)))
                _, _, rc, _, exc = workloads.run_cli(["invariants", str(path),
                                                      "--out", str(out)])
                if exc is not None or rc != 0:
                    raise RuntimeError(f"bank state {dims} #{k}: exit {rc}, {exc!r}")
                report = workloads.strict_json(out.read_text())
                entries.append({"sha256": workloads.bank_digest(rho),
                                "values": workloads.report_values(report)})
            ref[f"{dims[0]}x{dims[1]}"] = entries
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
