"""The three study workloads: inputs, sizes and output checks.

shape_tab  run_limit_shape_study on the tabulated mixed cubic (u^2+u^3)/2
           (the c08 curve), free draws.  The one workload with a large
           direction field and long paths; Hausdorff dominates a replicate.
lclt       run_lclt_study on parabola(1), skip-sampled endpoint counts.
           Almost all of it is sample_endpoints; the field is tiny and no
           metric runs, so it bypasses field and metric changes.
condition  run_conditioned_study on parabola(1), exact rejection.  Uses
           the sampler with support collection, then rebuilds the
           accepted path: a second way through the sampler layer.
"""

from __future__ import annotations

import numpy as np

PARABOLA = {"preset": {"name": "parabola", "c": 1.0}}


def _mixed_cubic_spec(n: int = 64) -> dict:
    u = np.linspace(0.0, 1.0, n)
    points = np.column_stack([u, (u ** 2 + u ** 3) / 2.0])
    return {"tabulated": {"points": points.tolist(), "k0": 0.1}}


# "full" is what an untraced run measures, "trace" (where given) what a
# traced run measures, and "smoke" the few-second variant smoke.py runs.
# lclt needs >= 25 expected hits at the larger n1 (the study refuses
# fewer); 1.5e6 endpoints per n1 also keeps the n1=200 centre ratio 3.3
# standard errors inside the threshold band.  shape_tab's 50 replicates
# per n1 give the traced run 100 calls of each per-replicate function
# for p50/p90.  Rejection attempts per accepted path are geometric, so
# condition's work varies with the seed by about 1/sqrt(accepted): 250
# per n1 keeps the seed-to-seed spread of accepted_per_s near 5%.  Its
# traced run calls the study three times, once with one worker, so it
# uses 100 per n1, which still gives 200 conditioning calls.
# "primary" is the sampler function whose first call per parameter set
# builds the direction field in a study process; on condition it is the
# 8192-draw batch, whose cost varies far less than a whole rejection run.
WORKLOADS = {
    "shape_tab": {
        "study": "run_limit_shape_study", "mode": "verify",
        "curve": _mixed_cubic_spec(), "primary": "sampler.sample_configuration",
        "throughput": ("paths_per_s", "paths/s"),
        "full": {"n1_list": [1000, 10000], "replicates": 50},
        "smoke": {"n1_list": [100, 1000], "replicates": 6},
    },
    "lclt": {
        "study": "run_lclt_study", "mode": "verify",
        "curve": PARABOLA, "primary": "sampler.sample_endpoints",
        "throughput": ("endpoints_per_s", "endpoints/s"),
        "full": {"n1_list": [200, 400], "lclt_replicates": 1_500_000,
                 "lclt_batch": 250_000},
        "smoke": {"n1_list": [20, 40], "lclt_replicates": 100_000,
                  "lclt_batch": 25_000},
    },
    "condition": {
        "study": "run_conditioned_study", "mode": "condition",
        "curve": PARABOLA, "primary": "sampler.sample_endpoints",
        "throughput": ("accepted_per_s", "paths/s"),
        "full": {"n1_list": [100, 200], "accepted_target": 250,
                 "max_attempts": 5_000_000},
        "trace": {"n1_list": [100, 200], "accepted_target": 100,
                  "max_attempts": 5_000_000},
        "smoke": {"n1_list": [20, 40], "accepted_target": 6,
                  "max_attempts": 1_000_000},
    },
}


def sizes(name: str, size: str) -> dict:
    """Sizes for one profile ("full", "trace" or "smoke"); a workload
    without a "trace" entry traces at its full size."""
    w = WORKLOADS[name]
    return w.get(size, w["full"])


def make_config(name: str, size: str, seed: int, workers: int):
    from limitshape.config import ExperimentConfig

    w = WORKLOADS[name]
    extra = dict(sizes(name, size))
    if name == "condition":
        extra["conditioned_n1"] = extra["n1_list"]
    return ExperimentConfig(mode=w["mode"], curve_spec=w["curve"], seed=seed,
                            workers=workers, replicates=extra.pop("replicates", 1),
                            out_dir="unused", **extra)


def items_per_call(name: str, size: str) -> int:
    """Work items one study call completes: paths, endpoints or accepted paths."""
    s = sizes(name, size)
    per_n1 = {"shape_tab": s.get("replicates"), "lclt": s.get("lclt_replicates"),
              "condition": s.get("accepted_target")}[name]
    return per_n1 * len(s["n1_list"])


def check(name: str, size: str, result, thresholds: dict) -> list:
    """Output checks on one StudyResult: a list of (check, ok, detail)."""
    s = sizes(name, size)
    n1s = s["n1_list"]
    rows = {(r.n1, r.statistic): r for r in result.rows}
    out = []
    if name == "shape_tab":
        dist = np.array([(d[2], d[3]) for d in result.details], dtype=float)
        finite = dist.size > 0 and bool(np.all(np.isfinite(dist)))
        out.append(("distances_finite", finite, f"{dist.shape[0]} replicates"))
        med = [rows[(n1, "median_dL")].empirical for n1 in n1s]
        out.append(("median_dL_falls", med[1] < med[0],
                    f"median d_L {med[0]:.4f} at n1={n1s[0]} -> {med[1]:.4f} at n1={n1s[1]}"))
    elif name == "lclt":
        lo, hi = thresholds["lclt_center_ratio_lo"], thresholds["lclt_center_ratio_hi"]
        ratio = rows[(n1s[0], "lclt_center_ratio")].ratio
        out.append(("lclt_center_ratio_in_band", lo <= ratio <= hi,
                    f"{ratio:.4f} at n1={n1s[0]} (band [{lo}, {hi}])"))
    else:
        target = s["accepted_target"]
        got = [rows[(n1, "cond_accepted")].empirical for n1 in n1s]
        out.append(("cond_accepted_equals_target", all(g == target for g in got),
                    f"accepted {got} of {target} at n1={n1s}"))
    return out


def canonical(result) -> tuple[list, list]:
    """Result rows and details with every float written exactly (repr)."""
    def exact(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else v

    rows = [[r.n1, r.statistic] + [exact(getattr(r, f)) for f in
                                   ("empirical", "theoretical", "ratio", "stderr")]
            for r in result.rows]
    details = [[exact(v) for v in d] for d in result.details]
    return rows, details
