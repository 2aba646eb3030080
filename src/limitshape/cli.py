"""Command line front end.

    limitshape <calibrate|sample|condition|verify|profile|oracle>
               [--config FILE] [flags]

A mode reads the config keys that config.MODE_KEYS lists for it and
takes the flag of each such key that has one: --curve (curve),
--out (out_dir), --n1 (n1_list, one entry), --n2, --seed, --workers,
--replicates, --max-attempts.  Flags override the file's keys, and a
file's "mode" must be the subcommand.  Exit codes: 0 pass,
2 acceptance-threshold failure, 1 error (bad input included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import curve as _curve
from . import measure as _measure
from . import oracle as _oracle
from . import report as _report
from . import studies as _studies
from .config import MODE_KEYS, ExperimentConfig, curve_from_spec, load_thresholds
from .errors import LimitShapeError, ParameterOutOfRange


def _parse_curve_arg(text: str) -> dict:
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    if text.lstrip().startswith("{"):
        return json.loads(text)
    name, _, param = text.partition(":")
    spec: dict = {"name": name}
    if param:
        key = "c" if name == "parabola" else "p"
        spec[key] = float(param)
    return {"preset": spec}


# the flag of each config key that has one, and its argument type
_FLAGS = {"curve": ("--curve", str), "out_dir": ("--out", str), "n1_list": ("--n1", int),
          "n2": ("--n2", int), "seed": ("--seed", int), "workers": ("--workers", int),
          "replicates": ("--replicates", int), "max_attempts": ("--max-attempts", int)}


def _build_config(args) -> ExperimentConfig:
    """The config file's keys, if --config is given, with the flags laid over them."""
    data = {"mode": args.mode}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or data.setdefault("mode", args.mode) != args.mode:
            raise ValueError(f"{args.config} must hold a JSON object whose mode, "
                             f"if it has one, is {args.mode!r}")
    flags = {key: value for key, value in vars(args).items()
             if key in _FLAGS and value is not None}
    if "n1_list" in flags:
        flags["n1_list"] = [flags["n1_list"]]
    if "curve" in flags:
        flags["curve"] = _parse_curve_arg(flags["curve"])
    return ExperimentConfig.from_dict({**data, **flags})


def _params_from_config(cfg: ExperimentConfig):
    return _measure.MeasureParams.for_endpoint(curve_from_spec(cfg.curve_spec),
                                               cfg.n1_list[0], cfg.n2)


def _cmd_calibrate(cfg: ExperimentConfig, thresholds: dict) -> int:
    params = _params_from_config(cfg)
    curve = params.curve
    grid = _curve.slope_grid(curve, 64)
    d1, d2 = _measure.delta(curve, grid)
    bad = int(np.count_nonzero(~(np.isfinite(d1) & np.isfinite(d2))))
    if bad:
        raise ParameterOutOfRange(
            f"the tilt (delta1, delta2) of {curve.name} is not finite at {bad} of "
            f"{grid.size} calibration slopes; no calibration is written")
    resid = _measure.calibration_residual(curve, grid)
    _report.write_csv(os.path.join(cfg.out_dir, "calibration.csv"),
                      ["t", "delta1", "delta2", "residual"],
                      list(zip(grid, d1, d2, resid)))
    K = _measure.covariance_matrix(params)
    payload = {
        "n1": params.n1, "n2": params.n2,
        "alpha_n": params.alpha_n, "rho_n": params.rho_n,
        "kappa": _measure.KAPPA,
        "a_z": _measure.expected_endpoint(params).tolist(), "K": K.tolist(),
        "B": _measure.b_matrix(curve).tolist(), "detK": float(np.linalg.det(K)),
        "density_at_n": _measure.endpoint_density(params, (params.n1, params.n2)),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "moment_report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
    worst = float(np.max(np.abs(resid)))
    ok = _report.write_markdown_summary(
        os.path.join(cfg.out_dir, "summary.md"), "calibration",
        [("calibration_residual", worst < thresholds["calibration_residual_abs"],
          f"max |residual| = {worst:.3e}")])
    return 0 if ok else 2


def _cmd_sample(cfg: ExperimentConfig, thresholds: dict) -> int:
    conditioned = cfg.mode == "condition"
    params = _params_from_config(cfg)
    records = []
    overlay = [_curve.discretize(params.curve, 512) * params.n1]
    attempts_rows = []
    for first, size in _studies.blocks(cfg.replicates):
        drawn = _studies.draw_block(params, cfg.seed, first, size,
                                    cfg.max_attempts if conditioned else None)
        for rep_idx, (line, attempts) in enumerate(drawn, first):
            if conditioned:
                attempts_rows.append((rep_idx, attempts, 1.0 / attempts))
            records.append(_report.line_record(line, params.n1, rep_idx))
            if len(overlay) < 9:
                overlay.append(line.vertices.astype(float))
    _report.write_lines_jsonl(os.path.join(cfg.out_dir, "lines.jsonl"), records)
    _report.write_svg(os.path.join(cfg.out_dir, "overlay.svg"), overlay)
    if attempts_rows:
        _report.write_csv(os.path.join(cfg.out_dir, "acceptance.csv"),
                          ["replicate", "attempts", "acceptance_rate"], attempts_rows)
    return 0


def _cmd_verify(cfg: ExperimentConfig, thresholds: dict) -> int:
    result = _studies.run_limit_shape_study(cfg)
    _report.write_csv(os.path.join(cfg.out_dir, "verify.csv"),
                      ["replicate", "n1", "d_hausdorff", "d_length", "argmax_t"],
                      result.details)
    if cfg.conditioned_n1:
        cond = _studies.run_conditioned_study(cfg)
        _report.write_csv(os.path.join(cfg.out_dir, "verify_conditioned.csv"),
                          ["replicate", "n1", "d_hausdorff", "d_length", "argmax_t"],
                          cond.details)
        result.rows.extend(cond.rows)
        for n1, lines in cond.extras.get("overlay", {}).items():
            result.extras.setdefault("overlay", {}).setdefault(n1, []).extend(lines)
    _report.convergence_csv(os.path.join(cfg.out_dir, "limit_shape_rows.csv"),
                            result.rows)
    checks = []
    eps = thresholds["limit_shape_eps_main"]
    stat = f"frac_dL_le_{eps:g}"
    fracs = [(r.n1, r.empirical) for r in result.rows if r.statistic == stat]
    monotone = all(b[1] >= a[1] - 1e-12 for a, b in zip(fracs, fracs[1:]))
    checks.append((f"fraction(d_L<={eps}) non-decreasing", monotone, f"{fracs}"))
    bar = thresholds["limit_shape_fraction_final"]
    checks.append((f"final fraction >= {bar}", fracs[-1][1] >= bar,
                   f"final = {fracs[-1][1]:.3f}"))
    curve = curve_from_spec(cfg.curve_spec)
    overlay = [_curve.discretize(curve, 512)]
    for n1, lines in sorted(result.extras.get("overlay", {}).items()):
        overlay.extend(np.asarray(v) for v in lines[:3])
    _report.write_svg(os.path.join(cfg.out_dir, "overlay.svg"), overlay)
    ok = _report.write_markdown_summary(os.path.join(cfg.out_dir, "summary.md"),
                                        "limit shape verification", checks)
    return 0 if ok else 2


def _cmd_profile(cfg: ExperimentConfig, thresholds: dict) -> int:
    result = _studies.run_moment_study(cfg)
    _report.convergence_csv(os.path.join(cfg.out_dir, "moment_rows.csv"), result.rows)
    gaps = [(r.n1, r.empirical) for r in result.rows if r.statistic == "length_sup_gap"]
    checks = [("length_sup_gap decreasing",
               all(b[1] <= a[1] for a, b in zip(gaps, gaps[1:])), f"{gaps}"),
              ("final sup gap below threshold",
               bool(gaps and gaps[-1][1] < thresholds["mean_length_sup_gap_final"]),
               f"final = {gaps[-1][1]:.4f}" if gaps else "no data")]
    ratios = [r for r in result.rows if r.statistic.startswith("cov_ratio_")]
    final_n1 = cfg.n1_list[-1]
    band = (thresholds["covariance_ratio_lo"], thresholds["covariance_ratio_hi"])
    in_band = [band[0] <= r.ratio <= band[1] for r in ratios if r.n1 == final_n1]
    checks.append((f"cov ratios in {band} at n1={final_n1}",
                   bool(in_band) and all(in_band),
                   f"{[round(r.ratio, 4) for r in ratios if r.n1 == final_n1]}"))
    ok = _report.write_markdown_summary(os.path.join(cfg.out_dir, "summary.md"),
                                        "moment calibration", checks)
    return 0 if ok else 2


def _cmd_oracle(cfg: ExperimentConfig, thresholds: dict) -> int:
    check = _oracle.check_sampler(curve_from_spec(cfg.curve_spec), cfg.oracle_draws,
                                  cfg.max_attempts, cfg.seed)
    _report.write_csv(os.path.join(cfg.out_dir, "oracle.csv"),
                      ["instance", "line", "exact_p", "observed_freq", "z_score"],
                      check.rows)
    ok = _report.write_markdown_summary(
        os.path.join(cfg.out_dir, "summary.md"), "oracle agreement",
        [("all cells within sigma band", check.worst_z <= thresholds["oracle_sigma_band"],
          f"worst z = {check.worst_z:.2f}"),
         ("every sampled line in the oracle's support", not check.missing,
          f"{len(check.missing)} outside: {check.missing[:5]}")])
    return 0 if ok else 2


_COMMANDS = {"calibrate": _cmd_calibrate, "sample": _cmd_sample, "condition": _cmd_sample,
             "verify": _cmd_verify, "profile": _cmd_profile, "oracle": _cmd_oracle}


class _Parser(argparse.ArgumentParser):
    """A usage error ends like any other bad input: exit 1 and an error: line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(prog="limitshape", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, keys in MODE_KEYS.items():
        p = sub.add_parser(mode)
        p.add_argument("--config")
        for key, (flag, kind) in _FLAGS.items():
            if key in keys:
                p.add_argument(flag, dest=key, type=kind)
    try:
        cfg = _build_config(parser.parse_args(argv))
        return _COMMANDS[cfg.mode](cfg, load_thresholds())
    except (LimitShapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
