#!/usr/bin/env python3
"""End-to-end acceptance run: every release criterion through the CLI
and study layer, with reports written under --out (default ./acceptance_out).

This drives the same checks as tests/test_acceptance.py but leaves the
full CSV/SVG/Markdown artifact trail behind for inspection.  It runs
from a checkout: the package is imported from ./src, here and in the
CLI processes it starts.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path[:0] = [SRC, str(REPO / "tests")]

from conftest import mixed_cubic_points  # noqa: E402

PARABOLA = {"preset": {"name": "parabola", "c": 1.0}}


def run_cli(args):
    t0 = time.time()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "limitshape"] + args,
                          capture_output=True, text=True, env=env)
    print(f"  limitshape {' '.join(args[:2])}... -> exit {proc.returncode} "
          f"({time.time() - t0:.1f}s)")
    if proc.stderr.strip():
        print(f"  stderr: {proc.stderr.strip()[:300]}")
    return proc.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="acceptance_out")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--full", action="store_true",
                    help="run the full-size statistical studies (slow)")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def cfg_file(name, body):
        path = out / f"{name}.json"
        path.write_text(json.dumps(body, indent=2))
        return str(path)

    codes = {}

    codes["calibrate"] = run_cli([
        "calibrate", "--config",
        cfg_file("cal", {"mode": "calibrate", "curve": PARABOLA, "n1_list": [1000],
                         "out_dir": str(out / "calibrate")})])

    n1s = [1000, 10_000, 100_000] if args.full else [300, 1000]
    reps = 200 if args.full else 40
    codes["verify"] = run_cli([
        "verify", "--config",
        cfg_file("ver", {"mode": "verify", "curve": PARABOLA, "n1_list": n1s,
                         "replicates": reps, "seed": args.seed,
                         "workers": args.workers, "out_dir": str(out / "verify")})])

    tab = {"tabulated": {"points": mixed_cubic_points().tolist(), "k0": 0.1}}
    codes["verify_tab"] = run_cli([
        "verify", "--config",
        cfg_file("vtab", {"mode": "verify", "curve": tab, "n1_list": n1s,
                          "replicates": reps, "seed": args.seed,
                          "workers": args.workers,
                          "out_dir": str(out / "verify_tabulated")})])

    codes["profile"] = run_cli([
        "profile", "--config",
        cfg_file("prof", {"mode": "profile", "curve": PARABOLA,
                          "n1_list": n1s + ([1_000_000] if args.full else []),
                          "out_dir": str(out / "profile")})])

    codes["condition"] = run_cli([
        "condition", "--n1", "100", "--curve", "parabola:1.0",
        "--replicates", "5", "--seed", str(args.seed),
        "--max-attempts", "2000000", "--out", str(out / "condition")])

    codes["oracle"] = run_cli([
        "oracle", "--config",
        cfg_file("orc", {"mode": "oracle", "curve": PARABOLA, "seed": args.seed,
                         "out_dir": str(out / "oracle")})])

    print(f"\nexit codes: {codes}")
    print(f"reports under {out}/")
    hard_errors = [k for k, v in codes.items() if v == 1]
    return 1 if hard_errors else 0


if __name__ == "__main__":
    sys.exit(main())
