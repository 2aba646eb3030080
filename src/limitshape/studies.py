"""Convergence studies: limit shape, moment calibration, local CLT.

Each study fans replicates out over a process pool in fixed-size
chunks; every replicate (or batch) owns an RNG stream derived from the
master seed and its index, so results are bit-identical for any worker
count.  draw_path is the one per-replicate path draw, free or
endpoint-conditioned; the limit-shape and conditioned studies share its
chunk worker and fan-out (_path_records), and the CLI sample and
condition modes call it too.  Exact-sum studies need no replication
and run in-process.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import curve as _curve
from . import measure as _measure
from . import metrics as _metrics
from . import sampler as _sampler
from .config import curve_from_spec
from .errors import Exhausted, InsufficientReplicates

_DOMAIN_LIMIT_SHAPE = 1
_DOMAIN_CONDITION = 2
_DOMAIN_LCLT = 3

_KEEP_OVERLAY = 6


@dataclass(frozen=True)
class ConvergenceRow:
    n1: int
    statistic: str
    empirical: float
    theoretical: float
    ratio: float
    stderr: float


@dataclass
class StudyResult:
    rows: list = field(default_factory=list)
    details: list = field(default_factory=list)  # (replicate, n1, d_H, d_L, argmax_t)
    extras: dict = field(default_factory=dict)


def _replicate_rng(seed: int, domain: int, n1: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(domain, n1, index)))


@lru_cache(maxsize=1)  # one active parameter set per worker is enough
def _params_for(curve_key: str, n1: int) -> _measure.MeasureParams:
    return _measure.MeasureParams.for_endpoint(curve_from_spec(json.loads(curve_key)), n1)


def draw_path(params: _measure.MeasureParams, seed: int, rep: int,
              max_attempts: int | None = None):
    """Replicate rep of a path study: a free draw when max_attempts is
    None, else an endpoint-conditioned draw under that attempt budget.

    Returns (line, attempts); a free draw is one attempt.  The RNG
    stream depends only on the seed, the route, params.n1 and rep.
    """
    if max_attempts is None:
        rng = _replicate_rng(seed, _DOMAIN_LIMIT_SHAPE, params.n1, rep)
        return _sampler.assemble(_sampler.sample_configuration(params, rng)), 1
    rng = _replicate_rng(seed, _DOMAIN_CONDITION, params.n1, rep)
    res = _sampler.condition_on_endpoint(params, (params.n1, params.n2), max_attempts, rng)
    return res.line, res.attempts


def _path_chunk(task):
    curve_key, n1, start, count, seed, max_attempts = task
    params = _params_for(curve_key, n1)
    out = []
    for rep in range(start, start + count):
        try:
            line, attempts = draw_path(params, seed, rep, max_attempts)
        except Exhausted as exc:
            out.append((rep, exc.attempts, math.nan, math.nan, math.nan, None))
            continue
        report = _metrics.distance_report(line, 1.0 / n1, params.curve)
        verts = (line.vertices.astype(float) / n1).tolist() if rep < _KEEP_OVERLAY else None
        out.append((rep, attempts, report.d_hausdorff, report.d_length,
                    report.argmax_t, verts))
    return out


def _lclt_chunk(task):
    curve_key, n1, batch_idx, batch_size, seed, cells = task
    params = _params_for(curve_key, n1)
    rng = _replicate_rng(seed, _DOMAIN_LCLT, n1, batch_idx)
    xi = _sampler.sample_endpoints(params, batch_size, rng)
    # compare both coordinates exactly, on the rows whose x1 can match a cell
    first = [m1 for m1, _ in cells]
    near = xi[(xi[:, 0] >= min(first)) & (xi[:, 0] <= max(first))]
    return np.array([int(np.count_nonzero((near[:, 0] == m1) & (near[:, 1] == m2)))
                     for m1, m2 in cells], dtype=np.int64)


def _run_tasks(fn, tasks, workers: int):
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, tasks, chunksize=1))


def _chunk_ranges(total: int, chunk: int):
    return [(s, min(chunk, total - s)) for s in range(0, total, chunk)]


def _fraction_rows(n1: int, d_l: np.ndarray, epsilons, prefix: str) -> list:
    rows = []
    n = d_l.size
    for eps in epsilons:
        frac = float(np.mean(d_l <= eps)) if n else math.nan
        stderr = math.sqrt(max(frac * (1 - frac), 1e-12) / n) if n else math.nan
        rows.append(ConvergenceRow(n1=n1, statistic=f"{prefix}frac_dL_le_{eps:g}",
                                   empirical=frac, theoretical=1.0, ratio=frac,
                                   stderr=stderr))
    med = float(np.median(d_l)) if n else math.nan
    med_se = 1.2533 * float(np.std(d_l)) / math.sqrt(n) if n else math.nan
    rows.append(ConvergenceRow(n1=n1, statistic=f"{prefix}median_dL",
                               empirical=med, theoretical=0.0, ratio=math.nan,
                               stderr=med_se))
    return rows


def _decay_exponent(n1s, medians):
    x = np.log(np.asarray(n1s, dtype=float))
    y = np.log(np.asarray(medians, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum()))
    return float(slope), se


def _path_records(config, n1: int, count: int, max_attempts, result: StudyResult):
    """Replicates 0..count-1 of draw_path at size n1, fanned out over the
    pool; adds their details and overlay to result and returns the
    (attempts, d_L) arrays in replicate order (d_L is nan when exhausted)."""
    curve_key = json.dumps(config.curve_spec, sort_keys=True)
    chunk = max(1, count // max(config.workers * 4, 1))
    tasks = [(curve_key, n1, s, c, config.seed, max_attempts)
             for s, c in _chunk_ranges(count, chunk)]
    recs = sorted((r for out in _run_tasks(_path_chunk, tasks, config.workers) for r in out),
                  key=lambda r: r[0])
    for rep, _, d_h, d_l, argmax_t, verts in recs:
        result.details.append((rep, n1, d_h, d_l, argmax_t))
        if verts is not None:
            result.extras.setdefault("overlay", {}).setdefault(n1, []).append(verts)
    return (np.array([r[1] for r in recs], dtype=float),
            np.array([r[3] for r in recs]))


def run_limit_shape_study(config) -> StudyResult:
    """Distances of scaled sampled paths to the target, per path size."""
    result = StudyResult()
    medians = []
    for n1 in config.n1_list:
        _, d_l = _path_records(config, n1, config.replicates, None, result)
        result.rows.extend(_fraction_rows(n1, d_l, config.epsilons, ""))
        medians.append(float(np.median(d_l)))
    if len(config.n1_list) >= 2:
        slope, se = _decay_exponent(config.n1_list, medians)
        result.rows.append(ConvergenceRow(
            n1=config.n1_list[-1], statistic="median_dL_decay_exponent",
            empirical=slope, theoretical=math.nan, ratio=math.nan, stderr=se))
    return result


def run_conditioned_study(config) -> StudyResult:
    """Same distances under exact endpoint conditioning (rejection)."""
    result = StudyResult()
    per = config.accepted_target
    for n1 in config.conditioned_n1 or config.n1_list:
        attempts, d_l = _path_records(config, n1, per, config.max_attempts, result)
        accepted = d_l[np.isfinite(d_l)]
        result.rows.extend(_fraction_rows(n1, accepted, config.epsilons, "cond_"))
        result.rows.append(ConvergenceRow(
            n1=n1, statistic="cond_accepted", empirical=float(accepted.size),
            theoretical=float(per), ratio=accepted.size / per,
            stderr=0.0))
        mean_att = float(np.mean(attempts)) if attempts.size else math.nan
        result.rows.append(ConvergenceRow(
            n1=n1, statistic="cond_mean_attempts", empirical=mean_att,
            theoretical=math.nan, ratio=math.nan,
            stderr=float(np.std(attempts) / math.sqrt(max(attempts.size, 1)))))
    return result


def run_moment_study(config) -> StudyResult:
    """Exact-sum calibration gaps and covariance asymptotics (no MC)."""
    curve = curve_from_spec(config.curve_spec)
    result = StudyResult()
    kappa = _measure.KAPPA
    b = _measure.b_matrix(curve)
    bias_points = []
    for n1 in config.n1_list:
        params = _measure.MeasureParams.for_endpoint(curve, n1)
        f = _measure._field(params)
        result.rows.append(ConvergenceRow(
            n1=n1, statistic="length_sup_gap",
            empirical=_measure.mean_length_sup_gap(params),
            theoretical=0.0, ratio=math.nan, stderr=0.0))

        t32 = _curve.slope_grid(curve, 32)
        xi1_t = _measure.step_at(f.tau, np.cumsum(f.x1 * f.mean_nu), t32)
        gap_xi1 = float(np.max(np.abs(xi1_t / n1 - _curve.slope_inverse(curve, t32))))
        result.rows.append(ConvergenceRow(
            n1=n1, statistic="xi1_profile_max_gap", empirical=gap_xi1,
            theoretical=0.0, ratio=math.nan, stderr=0.0))

        a = _measure.expected_endpoint(params)
        scale = n1 ** (2.0 / 3.0)
        for j, nj in ((0, params.n1), (1, params.n2)):
            val = abs(float(a[j]) - nj) / scale
            result.rows.append(ConvergenceRow(
                n1=n1, statistic=f"endpoint_bias_scaled_{j + 1}", empirical=val,
                theoretical=math.nan, ratio=math.nan, stderr=0.0))
        bias_points.append((n1, abs(float(a[0]) - params.n1) / scale))

        K = _measure.covariance_matrix(params)
        asym = 3.0 / kappa * n1 ** (4.0 / 3.0) * b
        for (i, j), name in (((0, 0), "11"), ((0, 1), "12"), ((1, 1), "22")):
            result.rows.append(ConvergenceRow(
                n1=n1, statistic=f"cov_ratio_{name}",
                empirical=float(K[i, j]), theoretical=float(asym[i, j]),
                ratio=float(K[i, j] / asym[i, j]), stderr=0.0))
    if len(bias_points) >= 2:
        slope, se = _decay_exponent([p[0] for p in bias_points],
                                    [max(p[1], 1e-12) for p in bias_points])
        result.rows.append(ConvergenceRow(
            n1=config.n1_list[-1], statistic="endpoint_bias_loglog_slope",
            empirical=slope, theoretical=0.0, ratio=math.nan, stderr=se))
    return result


def _lclt_cells(params, half_width: int = 2):
    report = _measure.moment_report(params)
    center = np.rint(report.a_z).astype(int)
    cells = [(int(center[0] + i), int(center[1] + j))
             for i in range(-half_width, half_width + 1)
             for j in range(-half_width, half_width + 1)]
    return report, cells


def run_lclt_study(config) -> StudyResult:
    """Empirical endpoint hit frequencies against the Gaussian density."""
    curve_key = json.dumps(config.curve_spec, sort_keys=True)
    result = StudyResult()
    replicates = config.lclt_replicates
    batch = config.lclt_batch
    p_hat_at_n = {}
    for n1 in config.n1_list:
        params = _params_for(curve_key, n1)
        report, cells = _lclt_cells(params)
        target = (params.n1, params.n2)
        all_cells = cells + [target]
        density_target = _measure.gaussian_density_at(report, target)
        if density_target * replicates < 25:
            raise InsufficientReplicates(
                f"expected hits {density_target * replicates:.1f} < 25 at n1={n1}")
        n_batches = (replicates + batch - 1) // batch
        tasks = [(curve_key, n1, b_idx,
                  min(batch, replicates - b_idx * batch), config.seed,
                  tuple(all_cells))
                 for b_idx in range(n_batches)]
        counts = sum(_run_tasks(_lclt_chunk, tasks, config.workers))
        cell_counts = counts[:-1]
        target_count = int(counts[-1])

        freq = target_count / replicates
        se = math.sqrt(max(freq * (1 - freq), 1e-300) / replicates)
        result.rows.append(ConvergenceRow(
            n1=n1, statistic="lclt_center_ratio", empirical=freq,
            theoretical=density_target, ratio=freq / density_target,
            stderr=se / density_target))
        p_hat_at_n[n1] = freq

        chi2 = 0.0
        for (m, count) in zip(cells, cell_counts):
            expected = _measure.gaussian_density_at(report, m) * replicates
            chi2 += (count - expected) ** 2 / max(expected, 1e-300)
            result.details.append((n1, m[0], m[1], int(count), expected / replicates))
        result.rows.append(ConvergenceRow(
            n1=n1, statistic="lclt_chi2_25cells", empirical=chi2,
            theoretical=float(len(cells)), ratio=chi2 / len(cells), stderr=0.0))
    n1s = sorted(p_hat_at_n)
    for lo, hi in zip(n1s, n1s[1:]):
        if hi == 2 * lo and p_hat_at_n[hi] > 0:
            observed = p_hat_at_n[lo] / p_hat_at_n[hi]
            expected = 2.0 ** (4.0 / 3.0)
            result.rows.append(ConvergenceRow(
                n1=hi, statistic="lclt_scaling_ratio", empirical=observed,
                theoretical=expected, ratio=observed / expected,
                stderr=observed * math.sqrt(1.0 / max(p_hat_at_n[lo] * replicates, 1)
                                            + 1.0 / max(p_hat_at_n[hi] * replicates, 1))))
    return result
