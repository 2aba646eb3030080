"""Convergence studies: limit shape, moment calibration, local CLT.

Each study fans its work out over one process pool, created once per
study call: the tasks of every size go to it in size order, with no
barrier between sizes, and the results are split back by the size's
position.  Every path block and endpoint batch owns an RNG stream
derived from the master seed and its index, so results are
bit-identical for any worker count.  Path replicates come in blocks of
BLOCK, replicate r in block r // BLOCK, and a block is the one unit of
drawing, checking, measuring and fan-out.  draw_block is the one path
draw: a block takes one stream and one batched draw, a free batch
of BLOCK paths or a batched conditioned loop under the block's pooled
budget, and its paths are read out of the batch's support, checked and
assembled together (sampler.assemble_block).  The limit-shape and
conditioned studies hand the pool one task per block of each size
(_path_records), so the task list does not depend on the worker count,
and each task measures its paths in one metrics.distance_reports
call.  The CLI sample and condition modes draw through draw_block
too, so the CLI's replicate i is the study's for any total.  A path
study's workers build their own fields; the local-CLT study builds
every size's field in the parent, for its cells, and its forked
workers inherit them.  Exact-sum studies need no replication and run
in-process.
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
from .config import curve_from_spec, load_thresholds
from .errors import Exhausted, InsufficientReplicates

_DOMAIN_LIMIT_SHAPE = 1
_DOMAIN_CONDITION = 2
_DOMAIN_LCLT = 3

_KEEP_OVERLAY = 6
BLOCK = 64  # replicates per block of draw_block, whatever the worker count


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


@lru_cache(maxsize=_measure._FIELD_CACHE)
def _params_for(curve_key: str, n1: int) -> _measure.MeasureParams:
    """The measure of one study size, the same object for every task of
    the size in a process.  measure._field caches fields by that object,
    so the cache holds a study's sizes: a forked worker finds the
    fields its parent built before the fork, whatever the size of its
    next task."""
    return _measure.MeasureParams.for_endpoint(curve_from_spec(json.loads(curve_key)), n1)


def blocks(count: int) -> list:
    """(first, size) of each block of replicates 0 .. count - 1, in
    order; the last may be short."""
    return [(first, min(BLOCK, count - first)) for first in range(0, count, BLOCK)]


def draw_block(params: _measure.MeasureParams, seed: int, first: int, count: int,
               max_attempts: int | None = None) -> list:
    """Replicates first .. first + count - 1 of a path study as (line,
    attempts) pairs in replicate order: the first count paths of block
    first // BLOCK, which the replicates must start (count <= BLOCK),
    free when max_attempts is None, else endpoint-conditioned under a
    budget of count * max_attempts for the block.

    A block draws on its own RNG stream (seed, route, params.n1, block),
    sized for BLOCK paths whatever count is, so a replicate's path does
    not depend on how many the caller asks for: a free block is one
    sampler.sample_endpoints batch of BLOCK draws, one attempt each, and
    a conditioned block one sampler.conditioned_configurations call in
    batches sized for BLOCK paths, a path's attempts being the draws
    since the block's previous path (Exhausted propagates once the
    block's budget is spent).  The edge arrays are read out of the
    batch's support and assembled in one sampler.assemble_block call.
    """
    if first % BLOCK or not 0 < count <= BLOCK:
        raise ValueError(f"replicates {first}..{first + count - 1} "
                         f"are not the start of one block of {BLOCK}")
    domain = _DOMAIN_LIMIT_SHAPE if max_attempts is None else _DOMAIN_CONDITION
    rng = _replicate_rng(seed, domain, params.n1, first // BLOCK)
    if max_attempts is None:
        _, support = _sampler.sample_endpoints(params, BLOCK, rng, collect_support=True)
        edges = _sampler.configurations_of(params, support, np.arange(count))
        attempts = [1] * count
    else:
        n = (params.n1, params.n2)
        edges, attempts = _sampler.conditioned_configurations(
            params, n, count, _sampler.condition_batch(params, n, BLOCK), count * max_attempts,
            rng)
        attempts = attempts.tolist()
    return list(zip(_sampler.assemble_block(edges), attempts))


def _path_block(task):
    """(predicted attempts per path, nan for free draws; the block's
    records).  Every replicate of an exhausted block is recorded with
    max_attempts attempts and nan distances.  The block's paths are
    measured in one metrics.distance_reports call.  The prediction comes
    from the worker, which builds the direction field anyway, so the
    parent process never does."""
    curve_key, n1, first, size, seed, max_attempts = task
    params = _params_for(curve_key, n1)
    predicted = (math.nan if max_attempts is None
                 else _sampler.predicted_attempts(params, (params.n1, params.n2)))
    try:
        drawn = draw_block(params, seed, first, size, max_attempts)
    except Exhausted:
        return predicted, [(rep, max_attempts, math.nan, math.nan, math.nan, None)
                           for rep in range(first, first + size)]
    reports = _metrics.distance_reports([line for line, _ in drawn], 1.0 / n1, params.curve)
    out = []
    for rep, ((line, attempts), report) in enumerate(zip(drawn, reports), first):
        verts = (line.vertices.astype(float) / n1).tolist() if rep < _KEEP_OVERLAY else None
        out.append((rep, attempts, report.d_hausdorff, report.d_length, report.argmax_t, verts))
    return predicted, out


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
    """fn over tasks, in order: in-process on one worker, else on one
    pool, which takes every task of a study call and is made only when
    there are tasks."""
    if workers <= 1 or not tasks:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, tasks, chunksize=1))


def _fraction_rows(n1: int, d_l: np.ndarray, prefix: str) -> list:
    """The fraction of d_L <= eps at each of thresholds.json's
    limit_shape_epsilons, then the median d_L."""
    rows = []
    n = d_l.size
    for eps in load_thresholds()["limit_shape_epsilons"]:
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


def _path_records(config, n1s, count: int, max_attempts, result: StudyResult) -> list:
    """Replicates 0..count-1 of draw_block at each size of n1s, one pool
    task per block of each size; adds their details and overlay to
    result, size by size, and returns per size the (attempts, d_L)
    arrays in replicate order (d_L is nan when exhausted) and the
    predicted attempts per path (nan for free draws)."""
    curve_key = json.dumps(config.curve_spec, sort_keys=True)
    runs = blocks(count)
    tasks = [(curve_key, n1, first, size, config.seed, max_attempts)
             for n1 in n1s for first, size in runs]
    done = _run_tasks(_path_block, tasks, config.workers)
    out = []
    for i, n1 in enumerate(n1s):
        mine = done[i * len(runs):(i + 1) * len(runs)]
        recs = [r for _, records in mine for r in records]  # in replicate order
        for rep, _, d_h, d_l, argmax_t, verts in recs:
            result.details.append((rep, n1, d_h, d_l, argmax_t))
            if verts is not None:
                result.extras.setdefault("overlay", {}).setdefault(n1, []).append(verts)
        out.append((np.array([r[1] for r in recs], dtype=float),
                    np.array([r[3] for r in recs]), mine[0][0]))
    return out


def run_limit_shape_study(config) -> StudyResult:
    """Distances of scaled sampled paths to the target, per path size."""
    result = StudyResult()
    medians = []
    records = _path_records(config, config.n1_list, config.replicates, None, result)
    for n1, (_, d_l, _) in zip(config.n1_list, records):
        result.rows.extend(_fraction_rows(n1, d_l, ""))
        medians.append(float(np.median(d_l)))
    if len(config.n1_list) >= 2:
        slope, se = _decay_exponent(config.n1_list, medians)
        result.rows.append(ConvergenceRow(
            n1=config.n1_list[-1], statistic="median_dL_decay_exponent",
            empirical=slope, theoretical=math.nan, ratio=math.nan, stderr=se))
    return result


def run_conditioned_study(config) -> StudyResult:
    """Same distances under exact endpoint conditioning.  The theoretical
    value of cond_mean_attempts is sampler.predicted_attempts, the
    number that sizes the blocks' batches."""
    result = StudyResult()
    per = config.accepted_target
    records = _path_records(config, config.conditioned_n1, per, config.max_attempts, result)
    for n1, (attempts, d_l, predicted) in zip(config.conditioned_n1, records):
        accepted = d_l[np.isfinite(d_l)]
        result.rows.extend(_fraction_rows(n1, accepted, "cond_"))
        result.rows.append(ConvergenceRow(
            n1=n1, statistic="cond_accepted", empirical=float(accepted.size),
            theoretical=float(per), ratio=accepted.size / per,
            stderr=0.0))
        mean_att = float(np.mean(attempts)) if attempts.size else math.nan
        result.rows.append(ConvergenceRow(
            n1=n1, statistic="cond_mean_attempts", empirical=mean_att,
            theoretical=predicted, ratio=mean_att / predicted,
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


def run_lclt_study(config) -> StudyResult:
    """Empirical endpoint hit frequencies against the Gaussian density
    (measure.endpoint_density), at the 5 x 5 cells around the rounded
    expected endpoint and at n itself.  Every size's field is built
    here, for its cells, before the pool forks, so the workers draw
    from the fields they inherit."""
    curve_key = json.dumps(config.curve_spec, sort_keys=True)
    result = StudyResult()
    replicates = config.lclt_replicates
    batch = config.lclt_batch
    n_batches = (replicates + batch - 1) // batch
    sizes, tasks = [], []
    for n1 in config.n1_list:
        params = _params_for(curve_key, n1)
        center = np.rint(_measure.expected_endpoint(params)).astype(int)
        cells = [(int(center[0] + i), int(center[1] + j))
                 for i in range(-2, 3) for j in range(-2, 3)]
        target = (params.n1, params.n2)
        *densities, density_target = _measure.endpoint_density(params, cells + [target]).tolist()
        if density_target * replicates < 25:
            raise InsufficientReplicates(
                f"expected hits {density_target * replicates:.1f} < 25 at n1={n1}")
        sizes.append((n1, cells, densities, density_target))
        tasks.extend((curve_key, n1, b_idx, min(batch, replicates - b_idx * batch),
                      config.seed, tuple(cells + [target]))
                     for b_idx in range(n_batches))
    done = _run_tasks(_lclt_chunk, tasks, config.workers)
    p_hat_at_n = {}
    for i, (n1, cells, densities, density_target) in enumerate(sizes):
        counts = sum(done[i * n_batches:(i + 1) * n_batches])
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
        for m, count, density in zip(cells, cell_counts, densities):
            expected = density * replicates
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
