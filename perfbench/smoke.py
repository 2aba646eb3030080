"""Smoke run of the benchmark: every workload at tiny sizes, in about a minute.

    python3 perfbench/smoke.py

Runs run.py --smoke on each workload, untraced and traced, and asserts
that each run exits 0, that every check passes, that the JSON line holds
exactly the metrics BENCHMARK.json names with their units, and that the
human-readable lines print each end-to-end name of the workload with
its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS


def _require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"smoke failed: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            text = proc.stdout
            _require(proc.returncode == 0, (workload, trace, proc.returncode, text, proc.stderr))
            result = json.loads(text.strip().splitlines()[-1])
            _require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                     (workload, trace, text))
            _require("FAILED" not in text, text)
            wanted = spec["per_layer" if trace else "end_to_end"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            _require(got == {m["name"]: m["unit"] for m in wanted}, (workload, trace, got))
            printed = {(line.split()[0], line.split()[-1]) for line in text.splitlines()
                       if line.startswith("  ") and len(line.split()) == 3}
            names = [(m["name"], m["unit"]) for m in wanted] + [("failed_share", "ratio")]
            if not trace:
                names.append(WORKLOADS[workload]["throughput"])
            missing = [n for n in names if n not in printed]
            _require(not missing, (workload, trace, "not printed", missing))
            print(f"smoke {workload} trace {trace}: ok, {len(result['metrics'])} metrics")
    return 0

if __name__ == "__main__":
    sys.exit(main())
