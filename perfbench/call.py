"""One step of the benchmark in a fresh process: a set-up or a study call.

run.py starts this script once per step, so caches and peak RSS start
empty each time:

    python3 perfbench/call.py '{"phase": "study", "workload": "lclt", ...}'

The last line of standard output is one JSON object with the timings,
peak RSS, output checks, result digests and, when traced, the spans and
the per-layer figures computed from them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer, self_by_name, self_times  # noqa: E402
from workloads import WORKLOADS, canonical, check, items_per_call, make_config, sizes  # noqa: E402

MAX_REPEATS = 200
_ACTIVE_Z = 1e-12


def _peak_rss_mb() -> float:
    """Larger ru_maxrss of this process and its reaped workers (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _duration(s: dict) -> float:
    return s["end"] - s["start"]


def _wrap_field_build(tracer: Tracer, exponents: list | None = None) -> None:
    """Spans around the direction-field build; exponents, when given,
    receives the exponent array of each build."""
    from limitshape import lattice, measure

    tracer.wrap(measure.MeasureParams, "for_endpoint", "measure.for_endpoint")
    tracer.wrap(measure, "expected_endpoint", "measure.expected_endpoint")
    tracer.wrap(lattice, "direction_arrays", "lattice.direction_arrays",
                lambda rec, a, k, r: rec.update(directions=int(r[0].size)))
    tracer.wrap(measure, "direction_exponent", "measure.direction_exponent",
                None if exponents is None else lambda rec, a, k, r: exponents.append(r))
    # measure imports slope_inverse by name; the field build calls it
    # once over the in-window slopes of every enumerated direction.
    tracer.wrap(measure, "slope_inverse", "curve.slope_inverse")


def run_setup(req: dict) -> dict:
    """Curve spec -> MeasureParams.for_endpoint -> first expected_endpoint,
    which builds the direction field; summed over the workload's n1.

    Untraced, the set-up repeats until the process has spent
    req["repeat_seconds"] on it (at least once, at most MAX_REPEATS
    times).  Every repeat builds a new curve and new parameter objects,
    which miss the package's identity-keyed caches, so each pays the
    whole build.  setup_s is the median repeat; rss_mb is read after
    the first, so that it does not grow with the number of repeats.
    """
    from limitshape import measure
    from limitshape.config import curve_from_spec

    name = req["workload"]
    n1s = sizes(name, req["size"])["n1_list"]
    tracer = Tracer(req["run_id"]) if req["trace"] else None
    exponents = []
    if tracer:
        _wrap_field_build(tracer, exponents)
    repeats = []
    rss_mb = 0.0
    try:
        start = time.perf_counter()
        while not repeats or (not tracer and len(repeats) < MAX_REPEATS and
                              time.perf_counter() - start < req["repeat_seconds"]):
            t0 = time.perf_counter()
            curve = curve_from_spec(WORKLOADS[name]["curve"])
            params = []
            for n1 in n1s:
                p = measure.MeasureParams.for_endpoint(curve, n1)
                measure.expected_endpoint(p)
                params.append(p)
            repeats.append(time.perf_counter() - t0)
            rss_mb = rss_mb or _peak_rss_mb()
    finally:
        if tracer:
            tracer.restore()
    out = {"setup_s": float(np.median(repeats)), "repeats_s": repeats,
           "rss_mb": rss_mb}
    if tracer:
        out["spans"] = tracer.spans
        out["layer"] = _setup_layer(tracer.spans, params, exponents)
    return out


def _setup_layer(spans: list, params: list, exponents: list) -> dict:
    own = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    exp_ids = {s["id"] for s in by["measure.direction_exponent"]}
    directions = sum(s["directions"] for s in by["lattice.direction_arrays"])
    active = 0
    for p, e in zip(params, exponents):
        with np.errstate(over="ignore"):
            z = np.exp(-p.alpha_n * e)
        active += int(np.count_nonzero(z > _ACTIVE_Z))
    last = params[-1]
    from limitshape import measure

    # The set-up built one field per parameter set, and the field cache
    # still holds them, so this reads the arrays rather than rebuilding.
    field_bytes = sum(v.nbytes for p in params for v in vars(measure._field(p)).values()
                      if isinstance(v, np.ndarray))

    return {
        "curve.slope_inverse_s": sum(_duration(s) for s in by["curve.slope_inverse"]
                                     if s["parent"] in exp_ids),
        "lattice.direction_arrays_s": sum(_duration(s) for s in by["lattice.direction_arrays"]),
        "lattice.directions": directions,
        "measure.direction_exponent_s": sum(own[i] for i in exp_ids),
        "measure.field_build_s": sum(_duration(s) for s in by["measure.expected_endpoint"]),
        "measure.directions_active": active,
        "measure.active_ratio": active / directions if directions else 0.0,
        "measure.truncation_radius": last.truncation_radius,
        "measure.certified_tail": measure.certified_tail(last.curve, last.rho_n, last.alpha_n,
                                                         last.truncation_radius),
        "measure.expected_edges": float(np.sum(np.exp(-last.alpha_n * exponents[-1]))),
        "measure.field_mb_computed": field_bytes / 1e6,
    }


def _install_study_wrappers(tracer: Tracer) -> None:
    from limitshape import metrics, sampler

    _wrap_field_build(tracer)
    tracer.wrap(sampler, "sample_configuration", "sampler.sample_configuration",
                lambda rec, a, k, r: rec.update(n1=int(a[0].n1)))
    tracer.wrap(sampler, "assemble", "sampler.assemble",
                lambda rec, a, k, r: rec.update(edges=len(a[0].support)))
    tracer.wrap(sampler, "sample_endpoints", "sampler.sample_endpoints",
                lambda rec, a, k, r: rec.update(n1=int(a[0].n1), count=int(a[1])))
    tracer.wrap(sampler, "condition_on_endpoint", "sampler.condition_on_endpoint",
                lambda rec, a, k, r: rec.update(n1=int(a[0].n1), attempts=int(r.attempts)))
    tracer.wrap(metrics, "distance_report", "metrics.distance_report",
                lambda rec, a, k, r: rec.update(vertices=int(a[0].vertices.shape[0])))
    tracer.wrap(metrics, "hausdorff", "metrics.hausdorff")


def run_study(req: dict) -> dict:
    from limitshape import studies

    name = req["workload"]
    w = WORKLOADS[name]
    cfg = make_config(name, req["size"], req["seed"], req["workers"])
    study = getattr(studies, w["study"])
    tracer = Tracer(req["run_id"]) if req["trace"] else None
    if tracer:
        _install_study_wrappers(tracer)
    try:
        t0 = time.perf_counter()
        with tracer.span("studies." + w["study"]) if tracer else nullcontext():
            result = study(cfg)
        study_s = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.restore()
    thresholds = json.loads(Path(studies.__file__).with_name("thresholds.json").read_text())
    rows, details = canonical(result)
    out = {
        "study_s": study_s,
        "items": items_per_call(name, req["size"]),
        "rss_mb": _peak_rss_mb(),
        "checks": [list(c) for c in check(name, req["size"], result, thresholds)],
        "digest_rows": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        "digest_details": hashlib.sha256(json.dumps(details).encode()).hexdigest(),
    }
    if tracer:
        out["spans"] = tracer.spans
        out["layer"] = _study_layer(tracer.spans, w["primary"])
        out["self_by_name"] = self_by_name(tracer.spans)
        totals = defaultdict(float)
        for s in tracer.spans:
            totals[s["name"]] += _duration(s)
        out["total_by_name"] = dict(totals)
    return out


def _pct(vals: list, q: float, scale: float) -> float:
    return float(np.percentile(vals, q)) * scale if vals else 0.0


def _mean(vals: list) -> float:
    return float(np.mean(vals)) if vals else 0.0


def _study_layer(spans: list, primary: str) -> dict:
    own = self_times(spans)
    by = defaultdict(list)
    for s in sorted(spans, key=lambda s: s["start"]):
        by[s["name"]].append(s)
    m = {}
    for metric, name, scale, self_only in (
            ("sampler.sample_configuration_ms", "sampler.sample_configuration", 1e3, False),
            ("sampler.assemble_ms", "sampler.assemble", 1e3, False),
            ("sampler.condition_s", "sampler.condition_on_endpoint", 1.0, False),
            ("metrics.hausdorff_ms", "metrics.hausdorff", 1e3, False),
            ("metrics.distance_report_self_ms", "metrics.distance_report", 1e3, True)):
        vals = [own[s["id"]] if self_only else _duration(s) for s in by[name]
                if "error" not in s]
        m[metric + ".p50"] = _pct(vals, 50, scale)
        m[metric + ".p90"] = _pct(vals, 90, scale)
        m[metric + ".calls"] = len(vals)
    m["sampler.support_edges_mean"] = _mean([s["edges"] for s in by["sampler.assemble"]])

    endpoints = by["sampler.sample_endpoints"]
    ep_self = float(sum(own[s["id"]] for s in endpoints))
    draws = sum(s.get("count", 0) for s in endpoints)
    m["sampler.sample_endpoints_s"] = ep_self
    m["sampler.endpoint_draws"] = draws
    m["sampler.endpoint_draws_per_s"] = draws / ep_self if ep_self > 0 else 0.0

    accepted = [s for s in by["sampler.condition_on_endpoint"] if "error" not in s]
    accepted_ids = {s["id"] for s in accepted}
    attempts = sum(s["attempts"] for s in accepted)
    cond_draws = sum(s.get("count", 0) for s in endpoints if s["parent"] in accepted_ids)
    m["sampler.attempts_per_accepted"] = attempts / len(accepted) if accepted else 0.0
    m["sampler.draw_efficiency"] = attempts / cond_draws if cond_draws else 0.0
    m["sampler.exhausted"] = sum(1 for s in by["sampler.condition_on_endpoint"]
                                 if s.get("error") == "Exhausted")

    m["metrics.path_vertices_mean"] = _mean([s["vertices"] for s in by["metrics.distance_report"]])

    root = next(s for s in spans if s["parent"] is None and s["name"].startswith("studies."))
    m["studies.self_s"] = own[root["id"]]
    # Each process builds the field lazily on its first sampler call per
    # parameter set; the excess of that call over the median call is the
    # rebuild cost a worker pays.
    worker_setup = 0.0
    per_n1 = defaultdict(list)
    for s in by[primary]:
        if "n1" in s:
            per_n1[s["n1"]].append(_duration(s))
    for durs in per_n1.values():
        worker_setup += durs[0] - float(np.median(durs))
    m["studies.worker_setup_s"] = worker_setup
    return m


def main() -> int:
    req = json.loads(sys.argv[1])
    try:
        out = run_setup(req) if req["phase"] == "setup" else run_study(req)
    except Exception:  # reported to the parent as a failed call
        out = {"error": traceback.format_exc()}
    print(json.dumps(out, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
