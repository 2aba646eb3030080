"""Benchmark command: one workload, end-to-end or traced per-layer figures.

    python3 perfbench/run.py --workload shape_tab --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Every step (a set-up or a study call) runs in a fresh process started
by this one, and the next starts when it ends (a closed loop, one
client).  Study calls use workers = min(2, nproc).

--trace 0  A set-up, then study calls on the seed, each followed by a
           set-up, while the next call still fits in --seconds (at
           least one).  Each set-up process repeats the set-up for
           SETUP_REPEAT_SECONDS.  Reports the end-to-end metrics as
           medians over the calls and the set-up repeats.
--trace 1  One traced set-up, then the study three times on the same
           seed: workers=2 untraced, workers=1 untraced, workers=1
           traced.  Reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is the
JSON result.  A result file (and, when traced, a span dump) goes to
perfbench/out/.  The exit code is 1 when any output check fails, and 2,
without a result, outside a checkout that holds the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEAT_SECONDS = 3.0  # cheap set-ups repeat in a process, so their median is steadier
WORKERS = min(2, os.cpu_count() or 1)
DEADLINE_S = 170.0  # a run must end within 180 s

from workloads import WORKLOADS, items_per_call


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(args) -> dict:
    """Machine, toolchain and input facts recorded in every result file."""
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = got.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "cache_l2": caches.get("L2", "unknown"),
            "cache_l3": caches.get("L3", "unknown"), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_commit": commit,
            "seed": args.seed, "workers": WORKERS, "workload": args.workload,
            "trace": args.trace, "seconds": args.seconds, "size": args.size}


class Runner:
    """Starts each step in a fresh process group and always reaps it."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.steps = 0

    def step(self, phase: str, workers: int = WORKERS, trace: bool = False) -> dict:
        self.steps += 1
        req = {"phase": phase, "workload": self.args.workload, "size": self.args.size,
               "seed": self.args.seed, "workers": workers, "trace": trace,
               "repeat_seconds": SETUP_REPEAT_SECONDS,
               "run_id": f"{phase}-{self.steps}-w{workers}{'-traced' if trace else ''}"}
        proc = subprocess.Popen([sys.executable, str(HERE / "call.py"), json.dumps(req)],
                                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            out = b""
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # pool workers left behind, if any
            except ProcessLookupError:
                pass
            proc.wait()
        lines = out.decode().strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"error": f"{req['run_id']}: no result (exit {proc.returncode})"}
        res["req"] = req
        return res


def _failed(res: dict) -> bool:
    return "error" in res or not all(ok for _, ok, _ in res.get("checks", []))


def _summarise_checks(studies: list, setups: list) -> list:
    """Each call's own checks, plus: every call on the seed gives the same rows."""
    checks = []
    for res in setups + studies:
        if "error" in res:
            checks.append(("call_completed", False, res["error"].strip().splitlines()[-1]))
    for res in studies:
        for name, ok, detail in res.get("checks", []):
            checks.append((f"{name}[{res['req']['run_id']}]", ok, detail))
    done = [r for r in studies if "error" not in r]
    if len(done) > 1:
        ref = done[0]
        same = all(r["digest_rows"] == ref["digest_rows"]
                   and r["digest_details"] == ref["digest_details"] for r in done)
        runs = ", ".join(r["req"]["run_id"] for r in done)
        checks.append(("rows_identical_across_calls", same, runs))
    return checks


def run_untraced(runner: Runner, seconds: float):
    """Set-ups alternate with study calls, so that both sample the same
    stretch of the machine's load."""
    setups, studies = [runner.step("setup")], []
    start = time.monotonic()
    while True:
        studies.append(runner.step("study"))
        setups.append(runner.step("setup"))
        if any(map(_failed, setups + studies)) or \
                time.monotonic() - start + studies[-1]["study_s"] > seconds:
            return setups, studies


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(setups: list, studies: list) -> dict:
    setups = [s for s in setups if "error" not in s]
    studies = [s for s in studies if "error" not in s]
    return {
        "setup_s": _median([t for s in setups for t in s["repeats_s"]]),
        "items_per_s": _median([s["items"] / s["study_s"] for s in studies]),
        "peak_rss_mb": max(_median([s["rss_mb"] for s in setups]),
                           _median([s["rss_mb"] for s in studies])),
    }


def per_layer(setup: dict, w2: dict, w1: dict, w1t: dict) -> dict:
    m = {}
    for res in (setup, w1t):
        m.update(res.get("layer", {}))
    if all("study_s" in r for r in (w2, w1, w1t)):
        m["studies.parallel_speedup"] = w1["study_s"] / w2["study_s"]
        m["trace_overhead"] = w1t["study_s"] / w1["study_s"] - 1.0
    return m


def predictions(workload: str, w1t: dict, layer: dict) -> list:
    """The traced split against the predictions made before measuring."""
    if "self_by_name" not in w1t:
        return []
    study_s = w1t["study_s"]
    setup_share = layer.get("studies.worker_setup_s", 0.0) / study_s
    out = [("worker_setup_share", setup_share,
            "major" if workload == "shape_tab" else "negligible (< 0.05)",
            setup_share > 0.2 if workload == "shape_tab" else setup_share < 0.05)]
    if workload == "shape_tab":
        replicate = {k: v for k, v in w1t["self_by_name"].items()
                     if k.startswith(("sampler.", "metrics."))}
        top = max(replicate, key=replicate.get)
        out.append(("largest_replicate_self_time", top, "metrics.hausdorff",
                    top == "metrics.hausdorff"))
    if workload == "lclt":
        share = w1t["total_by_name"].get("sampler.sample_endpoints", 0.0) / study_s
        out.append(("sample_endpoints_share", share, ">= 0.90", share >= 0.9))
    return out


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for smoke.py")
    args = ap.parse_args(argv)
    args.size = "smoke" if args.smoke else ("trace" if args.trace else "full")
    if not (ROOT / "src" / "limitshape" / "__init__.py").is_file():
        print(f"run.py: no package at {ROOT / 'src' / 'limitshape'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    runner = Runner(args)
    item_name, item_unit = WORKLOADS[args.workload]["throughput"]

    if args.trace:
        setup = runner.step("setup", trace=True)
        w2 = runner.step("study")
        w1 = runner.step("study", workers=1)
        w1t = runner.step("study", workers=1, trace=True)
        setups, studies = [setup], [w2, w1, w1t]
        values = per_layer(setup, w2, w1, w1t)
        wanted = spec["per_layer"]
        preds = predictions(args.workload, w1t, values)
    else:
        setups, studies = run_untraced(runner, args.seconds)
        values = end_to_end(setups, studies)
        wanted = spec["end_to_end"]
        preds = []

    checks = _summarise_checks(studies, setups)
    per_call = items_per_call(args.workload, args.size)
    attempted = per_call * len(studies)
    # A failed set-up or a failed check across calls fails every item.
    across_ok = all(ok for name, ok, _ in checks if name == "rows_identical_across_calls")
    failed = attempted if any("error" in s for s in setups) or not across_ok \
        else per_call * sum(map(_failed, studies))
    values["failed_share"] = failed / attempted if attempted else 1.0
    correct = all(ok for _, ok, _ in checks)

    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  workers {WORKERS}  "
          f"trace {args.trace}  set-ups {len(setups)} "
          f"({sum(len(s.get('repeats_s', [])) for s in setups)} repeats)  "
          f"study calls {len(studies)}")
    for m in wanted:
        v = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:<40} {_fmt(v):>14} {m['unit']}")
    if not args.trace:
        print(f"  {item_name:<40} {_fmt(values['items_per_s']):>14} {item_unit}")
    if not any(m["name"] == "failed_share" for m in wanted):
        print(f"  {'failed_share':<40} {_fmt(values['failed_share']):>14} ratio")
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for r in studies:
        if "digest_rows" in r:
            print(f"digest {r['req']['run_id']}: rows {r['digest_rows'][:16]} "
                  f"details {r['digest_details'][:16]}")
    for name, value, expected, holds in preds:
        print(f"prediction {name}: {_fmt(value)} (predicted {expected}): "
              f"{'holds' if holds else 'differs'}")
    if args.trace and "self_by_name" in studies[-1]:
        print("self time by span, traced workers=1 study [s]:")
        for name, v in studies[-1]["self_by_name"].items():
            print(f"  {name:<40} {v:>10.4f}")

    _write_files(args, setups, studies, values, checks, preds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _write_files(args, setups, studies, values, checks, preds) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    prov = provenance(args)
    spans = [s for r in setups + studies for s in r.pop("spans", [])]
    result = {"provenance": prov, "metrics": values,
              "checks": [list(c) for c in checks],
              "predictions": [list(p) for p in preds],
              "steps": setups + studies}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if spans:
        (OUT / f"{stem}-spans.json").write_text(json.dumps({"provenance": prov, "spans": spans}))


if __name__ == "__main__":
    sys.exit(main())
