import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from limitshape import config as cfgmod
from limitshape import curve as cv
from limitshape import measure as ms
from limitshape import oracle as oc
from limitshape import report as rp
from limitshape import sampler as sp
from limitshape import studies as stu
from limitshape.cli import main as cli_main
from limitshape.errors import (
    InsufficientReplicates,
    IoFailure,
    LimitShapeError,
    StateSpaceTooLarge,
    UnreachableEndpoint,
)

PARABOLA_SPEC = {"preset": {"name": "parabola", "c": 1.0}}


def _config(**kw):
    base = dict(mode="verify", curve_spec=PARABOLA_SPEC, n1_list=[50, 120],
                replicates=12, seed=5, workers=1, out_dir="unused")
    base.update(kw)
    return cfgmod.ExperimentConfig(**base)


# --- configuration ---------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        _config(n1_list=[100, 100])
    with pytest.raises(ValueError):
        _config(mode="bogus")
    with pytest.raises(ValueError):
        _config(replicates=0)
    with pytest.raises(ValueError, match="lclt_batch"):
        _config(lclt_batch=0)
    with pytest.raises(ValueError):
        cfgmod.ExperimentConfig.from_dict({"mode": "verify", "curve_spec": PARABOLA_SPEC,
                                           "n1_list": [10], "frobnicate": 1})


# Every key a file may set, with a valid value; the table below says which
# keys each mode reads besides "curve" and "out_dir".
_VALID_KEYS = {"out_dir": "o", "n1_list": [20], "n2": 20, "replicates": 3, "seed": 1,
               "workers": 1, "conditioned_n1": [20], "accepted_target": 2,
               "max_attempts": 10, "lclt_replicates": 10, "lclt_batch": 10,
               "oracle_draws": 10}
_SAMPLE_KEYS = {"n1_list", "n2", "replicates", "seed"}
_READS = {"calibrate": {"n1_list", "n2"}, "sample": _SAMPLE_KEYS,
          "condition": _SAMPLE_KEYS | {"max_attempts"},
          "verify": {"n1_list", "replicates", "seed", "workers", "conditioned_n1",
                     "accepted_target", "max_attempts"},
          "profile": {"n1_list"},
          "oracle": {"oracle_draws", "max_attempts", "seed"}}


@pytest.mark.parametrize("mode", sorted(_READS))
def test_config_keys_per_mode(mode, capsys):
    # a file sets exactly the keys its mode reads, and the mode's flags are
    # those of these keys; the six modes read 34 keys in all.  The distance
    # levels and the oracle instances are fixed, so no mode reads them.
    reads = _READS[mode] | {"curve", "out_dir"}
    assert set(cfgmod.MODE_KEYS[mode]) == reads
    assert sum(map(len, cfgmod.MODE_KEYS.values())) == 34
    base = {"mode": mode, "curve": PARABOLA_SPEC}
    if "n1_list" in reads:
        base["n1_list"] = [20]
    for key, value in _VALID_KEYS.items():
        if key in reads:
            cfg = cfgmod.ExperimentConfig.from_dict(dict(base, **{key: value}))
            assert getattr(cfg, key) == value
        else:
            with pytest.raises(ValueError, match=f"does not read \\['{key}'\\]"):
                cfgmod.ExperimentConfig.from_dict(dict(base, **{key: value}))
    for key, value in (("epsilons", [0.1]),
                       ("oracle_instances", [{"n": [1, 1], "cap_radius": 2, "nu_cap": 2}])):
        with pytest.raises(ValueError, match=f"does not read \\['{key}'\\]"):
            cfgmod.ExperimentConfig.from_dict(dict(base, **{key: value}))
    with pytest.raises(SystemExit) as exc:
        cli_main([mode, "--help"])
    assert exc.value.code == 0
    flags = {"curve": "--curve", "out_dir": "--out", "n1_list": "--n1", "n2": "--n2",
             "seed": "--seed", "workers": "--workers", "replicates": "--replicates",
             "max_attempts": "--max-attempts"}
    shown = set(re.findall(r"(--[a-z0-9-]+)", capsys.readouterr().out)) - {"--help", "--config"}
    assert shown == {flags[k] for k in reads if k in flags}


def test_config_from_dict_curve_alias():
    cfg = cfgmod.ExperimentConfig.from_dict({"mode": "verify", "curve": PARABOLA_SPEC,
                                             "n1_list": [10]})
    assert cfg.curve_spec == PARABOLA_SPEC


def test_curve_from_spec_variants():
    c = cfgmod.curve_from_spec(PARABOLA_SPEC)
    assert c.c_gamma == 1.0
    u = np.linspace(0, 1, 32)
    tab = cfgmod.curve_from_spec(
        {"tabulated": {"points": np.column_stack([u, u ** 2]).tolist(), "k0": 0.05}})
    assert tab.c_gamma == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cfgmod.curve_from_spec({"nope": {}})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)
_NUMBER = st.integers() | st.floats()
_PRESET = st.fixed_dictionaries(
    {"name": st.sampled_from(["parabola", "circle_arc", "power", "ellipse"]) | _JSON},
    optional={"c": _NUMBER | _JSON, "p": _NUMBER | _JSON})
_U = np.linspace(0.0, 1.0, 9)
_TABULATED = st.fixed_dictionaries(
    {"points": st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=8, max_size=8)
               .map(lambda d: np.column_stack(
                   [_U, np.concatenate([[0.0], np.cumsum(np.cumsum(d))])]).tolist())
               | st.lists(st.lists(_NUMBER, max_size=3), max_size=9) | _JSON},
    optional={"k0": _NUMBER | _JSON})
_CURVE_SPEC = (st.fixed_dictionaries({"preset": _PRESET})
               | st.fixed_dictionaries({"tabulated": _TABULATED})
               | st.fixed_dictionaries({"preset": _JSON})
               | st.fixed_dictionaries({"tabulated": _JSON}) | _JSON)


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_CURVE_SPEC)
@example(spec={"preset": {"name": "parabola", "c": 4.4794894843556084e+102}})
@example(spec={"preset": {"name": "parabola", "c": 1e-300}})
def test_curve_from_spec_fuzz_is_curve_or_typed_error(spec):
    # any JSON-shaped spec gives a curve or a typed error, which the CLI
    # turns into exit 1 and an error: line
    try:
        curve = cfgmod.curve_from_spec(spec)
    except (ValueError, LimitShapeError):
        return
    assert isinstance(curve, cv.ConvexCurve)


# Numbers stay small so that any config that passes validation builds a small
# measure: n1 and n2 at most 60, curve parameters at most 8.
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.floats(-2.0, 8.0)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_CLI_CURVE = st.fixed_dictionaries({"preset": st.one_of(
    st.fixed_dictionaries({"name": st.just("parabola"), "c": st.floats(0.2, 4.0)}),
    st.fixed_dictionaries({"name": st.just("power"), "p": st.floats(1.1, 4.0)}),
    st.just({"name": "circle_arc"}))})


@st.composite
def _cli_configs(draw):
    """A valid calibrate config, then up to two keys dropped or set to
    arbitrary JSON, keys that calibrate does not read among them."""
    cfg = draw(st.fixed_dictionaries(
        {"mode": st.just("calibrate"), "curve": _CLI_CURVE,
         "n1_list": st.lists(st.integers(1, 60), min_size=1, max_size=1)},
        optional={"n2": st.integers(1, 60)}))
    keys = ["mode", "curve", "n1_list", "n2", "replicates", "seed", "workers",
            "accepted_target", "max_attempts", "conditioned_n1", "oracle_draws", "extra"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        if draw(st.booleans()):
            cfg.pop(key, None)
        else:
            cfg[key] = draw(_SMALL_JSON)
    return cfg


@settings(deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(cfg=_cli_configs() | _SMALL_JSON)
def test_cli_config_fuzz_exits_cleanly(tmp_path, capsys, cfg):
    # any JSON-shaped config ends in exit 0, 2 or a typed error (exit 1 and
    # an error: line); an uncaught exception fails the test
    if isinstance(cfg, dict):
        cfg["out_dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli_main(["calibrate", "--config", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error:")


# --- exact conditional oracle -------------------------------------------------------

def test_oracle_instance_caps_do_not_bind():
    # only caps that do not bind give the sampler's conditional law
    for n, cap_radius, nu_cap in oc.INSTANCES:
        assert cap_radius >= n[0] + n[1]
        assert nu_cap >= max(n)


def test_oracle_cap22_two_lines(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 1, 1)
    dist = oc.exact_conditional_oracle(params, 2, 2, (1, 1))
    keys = {k for k, _ in dist.entries}
    single = ((1, 1, 1),)
    double = ((0, 1, 1), (1, 0, 1))
    assert keys == {single, double}
    # weights by hand: p(line) proportional to exp(-alpha * sum nu * e(x))
    alpha = params.alpha_n
    e = lambda x1, x2: float(ms.direction_exponent(parabola1, params.rho_n,
                                                   np.array([float(x1)]),
                                                   np.array([float(x2)]))[0])
    w_single = math.exp(-alpha * e(1, 1))
    w_double = math.exp(-alpha * (e(1, 0) + e(0, 1)))
    expect = w_single / (w_single + w_double)
    assert dist.as_dict()[single] == pytest.approx(expect, rel=1e-12)
    assert sum(p for _, p in dist.entries) == pytest.approx(1.0, abs=1e-12)


def test_oracle_unreachable_flagged(power2):
    params = ms.MeasureParams.for_endpoint(power2, 3, 3)
    # at rho = 1 every route to (1,3) needs an edge steeper than t1 = 2
    with pytest.raises(UnreachableEndpoint):
        oc.exact_conditional_oracle(params, 4, 4, (1, 3))


def test_oracle_mass_sums_to_one(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 3, 2)
    dist = oc.exact_conditional_oracle(params, 5, 3, (3, 2))
    assert sum(p for _, p in dist.entries) == pytest.approx(1.0, abs=1e-12)


def test_oracle_state_space_guard(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 8, 8)
    with pytest.raises(StateSpaceTooLarge):
        oc.exact_conditional_oracle(params, 40, 12, (8, 8))


# --- report emission ------------------------------------------------------------------

def test_csv_empty_table(tmp_path):
    path = str(tmp_path / "empty.csv")
    rp.write_csv(path, ["a", "b"], [])
    with open(path, "rb") as fh:
        assert fh.read() == b"a,b\r\n"


def test_csv_rfc4180_quoting(tmp_path):
    path = str(tmp_path / "q.csv")
    rp.write_csv(path, ["name", "x"], [["with,comma", 1.5]])
    with open(path, "rb") as fh:
        data = fh.read()
    assert b'"with,comma",1.5\r\n' in data


def test_svg_path_count(tmp_path, parabola1):
    path = str(tmp_path / "o.svg")
    curve_pts = cv.discretize(parabola1, 128)
    lines = [np.array([[0, 0], [0.5, 0.2], [1, 1]]),
             np.array([[0, 0], [0.6, 0.3], [1, 1]]),
             np.array([[0, 0], [0.7, 0.35], [1, 1]])]
    rp.write_svg(path, [curve_pts] + lines)
    with open(path) as fh:
        text = fh.read()
    assert text.count("<path") == 4
    assert 'version="1.1"' in text


def test_markdown_summary(tmp_path):
    path = str(tmp_path / "s.md")
    ok = rp.write_markdown_summary(path, "t", [("a", True, "x"), ("b", False, "y")])
    assert not ok
    text = open(path).read()
    assert "FAIL" in text and "PASS" in text


def test_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        rp.write_csv(str(tmp_path), ["a"], [])  # path is a directory


def test_jsonl_lines(tmp_path, parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 40)
    line = sp.assemble(sp.sample_configuration(params, np.random.default_rng(0)))
    path = str(tmp_path / "lines.jsonl")
    rp.write_lines_jsonl(path, [rp.line_record(line, 40, 0)])
    rec = json.loads(open(path).readline())
    assert rec["endpoint"] == line.endpoint.tolist()
    assert rec["replicate"] == 0
    assert rec["length"] == pytest.approx(sp.total_length(line))


# --- studies ----------------------------------------------------------------------------

def test_limit_shape_study_rows_and_determinism():
    cfg = _config()
    r1 = stu.run_limit_shape_study(cfg)
    r2 = stu.run_limit_shape_study(cfg)
    assert r1.rows == r2.rows
    assert r1.details == r2.details
    med = [r for r in r1.rows if r.statistic == "median_dL"]
    assert all(r.stderr > 0 for r in med)


def test_limit_shape_rows_carry_the_threshold_levels():
    # the verify rows hold one fraction per level of limit_shape_epsilons,
    # the main level among them, and a larger level never holds fewer paths
    th = cfgmod.load_thresholds()
    levels = th["limit_shape_epsilons"]
    assert th["limit_shape_eps_main"] in levels
    rows = stu.run_limit_shape_study(_config()).rows
    for n1 in (50, 120):
        fracs = {r.statistic: r.empirical for r in rows
                 if r.n1 == n1 and r.statistic.startswith("frac_dL_le_")}
        assert list(fracs) == [f"frac_dL_le_{eps:g}" for eps in levels]
        by_eps = [fracs[f"frac_dL_le_{eps:g}"] for eps in sorted(levels)]
        assert all(a <= b for a, b in zip(by_eps, by_eps[1:]))


@pytest.mark.parametrize("study, kw", [
    (stu.run_limit_shape_study, dict(replicates=8)),
    (stu.run_conditioned_study, dict(mode="condition", n1_list=[30], conditioned_n1=[30],
                                     accepted_target=6, max_attempts=10 ** 6)),
], ids=["free", "conditioned"])
def test_limit_shape_study_worker_invariance(study, kw):
    r1 = study(_config(**kw))
    r2 = study(_config(workers=2, **kw))
    assert r1.rows == r2.rows
    assert r1.details == r2.details


def test_moment_study_rows():
    cfg = _config(mode="profile", n1_list=[200, 800])
    res = stu.run_moment_study(cfg)
    stats = {r.statistic for r in res.rows}
    assert {"length_sup_gap", "xi1_profile_max_gap", "cov_ratio_11",
            "endpoint_bias_scaled_1"} <= stats
    gaps = [r.empirical for r in res.rows if r.statistic == "length_sup_gap"]
    assert gaps[1] < gaps[0]


def test_conditioned_study_accepts():
    cfg = _config(mode="condition", n1_list=[30], conditioned_n1=[30],
                  accepted_target=6, max_attempts=10 ** 6)
    res = stu.run_conditioned_study(cfg)
    acc = [r for r in res.rows if r.statistic == "cond_accepted"]
    assert acc[0].empirical == 6.0


def _conditioned(**kw):
    base = dict(mode="condition", n1_list=[30], conditioned_n1=[30], max_attempts=10 ** 6)
    return _config(**{**base, **kw})


def test_conditioned_blocks_do_not_depend_on_the_total():
    """A replicate's path is the same whatever the study's total, for
    conditioned and free blocks alike: the first three of 3 and of
    BLOCK + 8 (block 0), replicates BLOCK and BLOCK + 1 of BLOCK + 2 and
    of 2 BLOCK (block 1); and 2 BLOCK + 6 replicates, which end in a
    short block, give the same rows and details on one worker and on
    two."""
    block = stu.BLOCK

    def conditioned(total, workers=1):
        return stu.run_conditioned_study(_conditioned(accepted_target=total, workers=workers))

    def free(total, workers=1):
        return stu.run_limit_shape_study(_config(n1_list=[30], replicates=total,
                                                 workers=workers))

    for study in (conditioned, free):
        small, large = study(3), study(block + 8)
        assert small.extras["overlay"][30] == large.extras["overlay"][30][:3]
        assert small.details == large.details[:3]
        assert study(block + 2).details[block:] == study(2 * block).details[block:block + 2]
        one, two = study(2 * block + 6), study(2 * block + 6, workers=2)
        assert [d[0] for d in one.details] == list(range(2 * block + 6))
        assert one.rows == two.rows
        assert one.details == two.details
    # a draw is the start of one block, or none
    params = ms.MeasureParams.for_endpoint(cv.make_preset("parabola"), 30)
    for first, count in ((5, 3), (block, 0), (0, block + 1)):
        with pytest.raises(ValueError, match="start of one block"):
            stu.draw_block(params, 5, first, count, 100)
    with pytest.raises(ValueError, match="start of one block"):
        stu.draw_block(params, 5, 5, 3)


def test_conditioned_mean_attempts_tracks_the_prediction():
    # per-path attempts are geometric with mean 1 / (acceptance rate), so
    # 256 paths give a standard error of about 6%; the prediction takes
    # P(xi = n) from the Gaussian density, about 3% below the exact pmf at
    # n1 = 100
    res = stu.run_conditioned_study(_conditioned(n1_list=[100], conditioned_n1=[100],
                                                 accepted_target=256))
    row = next(r for r in res.rows if r.statistic == "cond_mean_attempts")
    assert row.stderr > 0
    assert abs(row.empirical - row.theoretical) <= 4 * row.stderr


def test_conditioned_study_exhausted_block(monkeypatch):
    """A block whose budget runs out records all its replicates as
    exhausted, with nan distances and max_attempts attempts each; the
    other blocks keep their paths and attempts; the total ends in a
    short block."""
    block = stu.BLOCK
    total = 2 * block + 6
    cfg = _conditioned(accepted_target=total, max_attempts=2000)

    def records():
        res = stu.StudyResult()
        [(attempts, _, _)] = stu._path_records(cfg, [30], total, cfg.max_attempts, res)
        return attempts.tolist(), res.details

    clean_attempts, clean = records()
    draw = sp.sample_endpoints

    def block_one_misses(params, count, rng, collect_support=False):
        if rng.bit_generator.seed_seq.spawn_key == (stu._DOMAIN_CONDITION, 30, 1):
            return _endpoints_past(params, count, rng, collect_support)
        return draw(params, count, rng, collect_support)

    monkeypatch.setattr(sp, "sample_endpoints", block_one_misses)
    attempts, details = records()
    one = slice(block, 2 * block)
    assert attempts[one] == [2000.0] * block
    assert all(math.isnan(v) for d in details[one] for v in d[2:])
    assert (attempts[:block] + attempts[2 * block:]
            == clean_attempts[:block] + clean_attempts[2 * block:])
    assert details[:block] + details[2 * block:] == clean[:block] + clean[2 * block:]
    assert all(math.isfinite(d[3]) for d in clean)


def _endpoints_past(params, count, rng, collect_support=False):
    """sample_endpoints stand-in whose every draw ends past the target in
    both coordinates, with no rows (an all-zero head and an empty tail):
    the completing set, which only adds steps, never brings such a draw
    back to the target."""
    xi = np.tile(np.array([params.n1 + 1, params.n2 + 1], dtype=np.int64), (count, 1))
    head = np.zeros((ms._field(params).dense_head.size, count))
    return (xi, (head, (np.empty(0, np.int64),) * 3)) if collect_support else xi


def test_conditioned_study_with_no_accepted_replicate(monkeypatch):
    # no draw can be accepted, so every statistic of the accepted paths
    # is taken over an empty sample
    monkeypatch.setattr(sp, "sample_endpoints", _endpoints_past)
    cfg = _config(n1_list=[60], conditioned_n1=[60], accepted_target=4, max_attempts=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = stu.run_conditioned_study(cfg)
    rows = {r.statistic: r for r in res.rows}
    assert rows["cond_accepted"].empirical == 0.0
    assert rows["cond_mean_attempts"].empirical == 3.0
    assert math.isnan(rows["cond_median_dL"].empirical)
    assert math.isnan(rows["cond_median_dL"].stderr)
    assert all(math.isnan(r.stderr) for s, r in rows.items() if s.startswith("cond_frac"))


def test_lclt_insufficient_replicates():
    cfg = _config(mode="verify", n1_list=[200], lclt_replicates=1000)
    with pytest.raises(InsufficientReplicates):
        stu.run_lclt_study(cfg)


def test_lclt_chunk_large_coordinates(monkeypatch):
    # (1, 2^21) and (2, 0) shared a code when endpoints were packed as x1*2^21 + x2
    big = 1 << 21
    xi = np.array([[1, big], [2, 0], [2, 0], [1, big + 1]], dtype=np.int64)
    monkeypatch.setattr(stu._sampler, "sample_endpoints", lambda *a, **k: xi)
    cells = ((2, 0), (1, big), (1, big + 1), (3, 0))
    task = (json.dumps(PARABOLA_SPEC, sort_keys=True), 20, 0, len(xi), 0, cells)
    assert stu._lclt_chunk(task).tolist() == [2, 1, 1, 0]


def test_lclt_study_small():
    cfg = _config(mode="verify", n1_list=[24], lclt_replicates=200_000,
                  lclt_batch=50_000, workers=2)
    res = stu.run_lclt_study(cfg)
    center = [r for r in res.rows if r.statistic == "lclt_center_ratio"]
    assert len(center) == 1
    assert center[0].ratio == pytest.approx(1.0, abs=0.5)
    assert center[0].stderr > 0
    assert len(res.details) == 25


# Three sizes per study, with counts that are multiples of neither BLOCK
# nor any lclt batch.
_FAN_OUT = {
    "free": (stu.run_limit_shape_study, dict(n1_list=[30, 40, 50], replicates=29)),
    "conditioned": (stu.run_conditioned_study,
                    dict(mode="condition", n1_list=[20], conditioned_n1=[20, 30, 40],
                         accepted_target=70, max_attempts=10 ** 6)),
    "lclt": (stu.run_lclt_study, dict(n1_list=[20, 24, 28], lclt_replicates=100_003,
                                      lclt_batch=30_000)),
}


def _count_pools(monkeypatch):
    made = []

    class Counted(stu.ProcessPoolExecutor):
        def __init__(self, *args, **kw):
            made.append(kw.get("max_workers"))
            super().__init__(*args, **kw)

    monkeypatch.setattr(stu, "ProcessPoolExecutor", Counted)
    return made


@pytest.mark.parametrize("name", list(_FAN_OUT))
def test_study_runs_every_size_on_one_pool(name, monkeypatch):
    """A study call on several workers creates one pool for all of its
    sizes, and on one worker none; rows and details are identical at
    one, two and three workers."""
    study, kw = _FAN_OUT[name]
    made = _count_pools(monkeypatch)
    results = []
    for workers in (1, 2, 3):
        before = len(made)
        results.append(study(_config(workers=workers, **kw)))
        assert made[before:] == ([] if workers == 1 else [workers])
    one, *more = results
    assert len({d[1] if name != "lclt" else d[0] for d in one.details}) == 3
    for other in more:
        assert other.rows == one.rows
        assert other.details == one.details


@pytest.mark.parametrize("name", ["free", "conditioned"])
def test_path_studies_hand_the_pool_one_task_per_block(name, monkeypatch):
    """_path_records gives _run_tasks one task per block of each size, in
    size order, and the same task list at one, two and three workers."""
    study, kw = _FAN_OUT[name]
    run = stu._run_tasks
    seen = []

    def recorded(fn, tasks, workers):
        seen.append(list(tasks))
        return run(fn, tasks, 1)

    monkeypatch.setattr(stu, "_run_tasks", recorded)
    for workers in (1, 2, 3):
        study(_config(workers=workers, **kw))
    count, n1s, max_attempts = ((kw["replicates"], kw["n1_list"], None) if name == "free"
                                else (kw["accepted_target"], kw["conditioned_n1"], 10 ** 6))
    key = json.dumps(PARABOLA_SPEC, sort_keys=True)
    assert seen[0] == [(key, n1, first, min(stu.BLOCK, count - first), 5, max_attempts)
                       for n1 in n1s for first in range(0, count, stu.BLOCK)]
    assert seen == [seen[0]] * 3


def test_conditioned_study_without_sizes_makes_no_pool(monkeypatch):
    made = _count_pools(monkeypatch)
    res = stu.run_conditioned_study(_config(mode="condition", n1_list=[20], conditioned_n1=[],
                                            workers=2))
    assert made == []
    assert (res.rows, res.details) == ([], [])


def test_lclt_workers_inherit_the_parent_fields(tmp_path, monkeypatch):
    """The lclt parent builds each size's field for its cells before the
    pool forks, and no worker builds one again."""
    log = tmp_path / "builds"

    class Logged(ms._DirectionField):
        def __init__(self, params):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {params.n1}\n")
            super().__init__(params)

    monkeypatch.setattr(ms, "_DirectionField", Logged)
    stu._params_for.cache_clear()
    ms._field.cache_clear()
    made = _count_pools(monkeypatch)
    _, kw = _FAN_OUT["lclt"]
    stu.run_lclt_study(_config(workers=2, **kw))
    assert made == [2]
    assert log.read_text().split("\n")[:-1] == [f"{os.getpid()} {n1}" for n1 in kw["n1_list"]]


# --- CLI --------------------------------------------------------------------------------

def test_cli_sample_and_condition(tmp_path):
    out = str(tmp_path / "s")
    code = cli_main(["sample", "--n1", "60", "--curve", "parabola:1.0",
                     "--replicates", "3", "--seed", "2", "--out", out])
    assert code == 0
    lines = open(os.path.join(out, "lines.jsonl")).read().splitlines()
    assert len(lines) == 3
    assert os.path.exists(os.path.join(out, "overlay.svg"))

    out2 = str(tmp_path / "c")
    code = cli_main(["condition", "--n1", "25", "--curve", "parabola:1.0",
                     "--replicates", "2", "--seed", "2", "--out", out2,
                     "--max-attempts", "500000"])
    assert code == 0
    recs = [json.loads(line) for line in open(os.path.join(out2, "lines.jsonl"))]
    assert all(r["endpoint"] == [25, 25] for r in recs)
    assert os.path.exists(os.path.join(out2, "acceptance.csv"))


@pytest.mark.parametrize("mode, study, kw", [
    ("sample", stu.run_limit_shape_study, dict(n1_list=[40], replicates=stu.BLOCK + 8)),
    ("condition", stu.run_conditioned_study,
     dict(mode="condition", n1_list=[25], conditioned_n1=[25], accepted_target=stu.BLOCK + 8,
          max_attempts=500_000)),
], ids=["sample", "condition"])
def test_cli_and_study_draw_the_same_paths(tmp_path, mode, study, kw):
    # both go through studies.draw_block, so replicate i is the same path
    # whatever the total: 3 from the CLI, BLOCK + 8 (two blocks) in the study
    n1 = kw["n1_list"][0]
    out = str(tmp_path / mode)
    argv = [mode, "--n1", str(n1), "--curve", "parabola:1.0", "--replicates", "3",
            "--seed", "4", "--out", out]
    if mode == "condition":
        argv += ["--max-attempts", str(kw["max_attempts"])]
    assert cli_main(argv) == 0
    cli_verts = [(np.array(json.loads(line)["vertices"], dtype=float) / n1).tolist()
                 for line in open(os.path.join(out, "lines.jsonl"))]
    overlay = study(_config(seed=4, **kw)).extras["overlay"][n1]
    assert cli_verts == overlay[:3]


def test_cli_condition_exhausted_block_is_error(tmp_path, monkeypatch, capsys):
    # the three replicates share one block and its budget of 3 * 100 draws
    monkeypatch.setattr(sp, "sample_endpoints", _endpoints_past)
    assert cli_main(["condition", "--n1", "25", "--curve", "parabola:1.0",
                     "--replicates", "3", "--max-attempts", "100",
                     "--out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: accepted 0 of 3 within 300 attempts")


def test_cli_calibrate(tmp_path):
    cfg = {"mode": "calibrate", "curve": PARABOLA_SPEC, "n1_list": [100],
           "out_dir": str(tmp_path / "cal")}
    cfg_path = str(tmp_path / "cfg.json")
    json.dump(cfg, open(cfg_path, "w"))
    assert cli_main(["calibrate", "--config", cfg_path]) == 0
    header = open(os.path.join(str(tmp_path / "cal"), "calibration.csv")).readline()
    assert header.strip() == "t,delta1,delta2,residual"
    rep = json.load(open(os.path.join(str(tmp_path / "cal"), "moment_report.json")))
    assert rep["n1"] == 100 and "detK" in rep


def test_cli_calibrate_singular_covariance(tmp_path, capsys):
    # near-linear power curves: the slope inverse (t/p)^(1/(p-1)) underflows to
    # u = 0 on most of the slope grid, where g2 is infinite, so the tilt is
    # not finite there (power(1.0001) at n1 = 5 would also keep the single
    # direction (1, 1), a singular covariance).  calibrate refuses before it
    # writes anything, without a RuntimeWarning, which the suite turns into
    # an error
    for spec, n1, bad in (("power:1.0001", "5", 62), ("power:1.001", "50", 37)):
        out = tmp_path / spec.replace(":", "_")
        code = cli_main(["calibrate", "--curve", spec, "--n1", n1, "--out", str(out)])
        assert code == 1
        assert f"is not finite at {bad} of 64 calibration slopes" in capsys.readouterr().err
        assert not (out / "calibration.csv").exists()
        assert not (out / "moment_report.json").exists()


def test_cli_error_exit_code(tmp_path):
    assert cli_main(["sample", "--n1", "50", "--curve", "nonsense:xx",
                     "--out", str(tmp_path / "x")]) == 1


def test_cli_verify_exit_codes(tmp_path):
    cfg = {"mode": "verify", "curve": PARABOLA_SPEC, "n1_list": [40, 80],
           "replicates": 6, "seed": 1, "out_dir": str(tmp_path / "v"), "workers": 1}
    cfg_path = str(tmp_path / "cfg.json")
    json.dump(cfg, open(cfg_path, "w"))
    code = cli_main(["verify", "--config", cfg_path])
    assert code in (0, 2)  # tiny sizes may fail the final-fraction check
    assert os.path.exists(os.path.join(str(tmp_path / "v"), "verify.csv"))
    assert os.path.exists(os.path.join(str(tmp_path / "v"), "summary.md"))


def test_cli_profile(tmp_path):
    cfg = {"mode": "profile", "curve": PARABOLA_SPEC, "n1_list": [300, 900],
           "out_dir": str(tmp_path / "p")}
    cfg_path = str(tmp_path / "cfg.json")
    json.dump(cfg, open(cfg_path, "w"))
    code = cli_main(["profile", "--config", cfg_path])
    assert code in (0, 2)
    rows = open(os.path.join(str(tmp_path / "p"), "moment_rows.csv")).read()
    assert "length_sup_gap" in rows and "cov_ratio_11" in rows


def _run_oracle(tmp_path, **kw):
    # c09's defaults: seed 0 and 20 000 draws on each of oracle.INSTANCES
    cfg = {"mode": "oracle", "curve": PARABOLA_SPEC, "out_dir": str(tmp_path / "o"), **kw}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return cli_main(["oracle", "--config", str(cfg_path)])


def test_cli_oracle(tmp_path):
    assert _run_oracle(tmp_path) == 0
    table = open(os.path.join(str(tmp_path / "o"), "oracle.csv")).read()
    assert "exact_p" in table
    assert all(f'"{n}"' in table for n, _, _ in oc.INSTANCES)


def test_cli_oracle_attempt_budget(tmp_path, monkeypatch, capsys):
    # a sampler that never hits n must end in Exhausted (exit 1), not spin
    monkeypatch.setattr(sp, "sample_endpoints", _endpoints_past)
    assert _run_oracle(tmp_path, max_attempts=10_000) == 1
    assert "accepted 0 of 20000 within 10000 attempts" in capsys.readouterr().err


def test_cli_oracle_line_outside_support_fails(tmp_path, monkeypatch):
    # one sampled line off the oracle's support fails the run (exit 2),
    # though it moves no cell's z by much
    draw = sp.conditioned_configurations

    def one_stray(params, n, count, batch, max_attempts, rng):
        paths, attempts = draw(params, n, count, batch, max_attempts, rng)
        paths[0] = np.array([[2, 1, 1]], dtype=np.int64)
        return paths, attempts

    monkeypatch.setattr(sp, "conditioned_configurations", one_stray)
    assert _run_oracle(tmp_path) == 2
    summary = open(os.path.join(str(tmp_path / "o"), "summary.md")).read()
    assert "| every sampled line in the oracle's support | FAIL |" in summary
    assert "| all cells within sigma band | PASS |" in summary


# Each case keeps its number, and so its test id, when cases are cut.
_MALFORMED = {
    0: ("calibrate", {"n1_list": []}),
    1: ("calibrate", {"n1_list": [0]}),
    2: ("calibrate", {"n2": 0}),
    3: ("calibrate", {"curve": {"preset": {"c": 1.0}}}),
    4: ("oracle", {"oracle_instances": [{"n": [1, 1], "nu_cap": 2}]}),
    5: ("oracle", {"oracle_draws": 0}),
    6: ("calibrate", {"n1_list": ["20"]}),
    7: ("verify", {"replicates": "5"}),
    8: ("oracle", {"oracle_draws": "5"}),
    9: ("verify", {"epsilons": 0.1}),
    13: ("calibrate", {"curve": 5}),
    14: ("verify", {"curve": {"preset": 5}}),
    15: ("calibrate", {"curve": {"preset": {"name": "parabola", "c": [1]}}}),
    16: ("verify", {"curve": {"tabulated": {}}}),
    17: ("calibrate", {"curve": {"tabulated": {"points": [[0, 0], [1, 1]], "k0": None}}}),
    18: ("calibrate", {"out_dir": 5}),
    19: ("verify", {"conditioned_n1": [20], "accepted_target": 0}),
    20: ("verify", {"lclt_batch": 200_000}),
    23: ("verify", {"conditioned_n1": [20], "max_attempts": 0}),
    24: ("verify", {"conditioned_n1": [0]}),
    25: ("verify", {"conditioned_n1": [-5]}),
    26: ("verify", {"workers": 0}),
    27: ("verify", {"n2": 7}),
    28: ("profile", {"n2": 7}),
    30: ("oracle", {"n1_list": [20]}),
    31: ("verify", {"conditioned_n1": [20, 20]}),
}


@pytest.mark.parametrize("mode, bad", list(_MALFORMED.values()),
                         ids=[f"{mode}-bad{i}" for i, (mode, _) in _MALFORMED.items()])
def test_cli_malformed_config_is_typed_error(tmp_path, capsys, mode, bad):
    # in-process: an uncaught exception would fail the test, so exit 1 with an
    # error: line is the only way through; the oracle mode takes its sizes
    # from oracle.INSTANCES, not n1_list, and a file that sets the fixed
    # epsilons or oracle_instances fails on the unread key, whatever its value
    cfg = {"mode": mode, "curve": PARABOLA_SPEC, "out_dir": str(tmp_path / "out")}
    if mode != "oracle":
        cfg["n1_list"] = [20]
    cfg.update(bad)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main([mode, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flags", [["--workers", "0"], ["--replicates", "0"]])
def test_cli_flag_out_of_range_is_typed_error(tmp_path, capsys, flags):
    assert cli_main(["verify", "--n1", "20", "--curve", "parabola:1.0",
                     "--out", str(tmp_path / "o")] + flags) == 1
    assert capsys.readouterr().err.startswith("error:")


_CALIBRATE = {"mode": "calibrate", "curve": PARABOLA_SPEC, "n1_list": [20]}
_PROFILE = {"mode": "profile", "curve": PARABOLA_SPEC, "n1_list": [20, 40]}


@pytest.mark.parametrize("argv, file, says", [
    (["sample", "--n1", "abc", "--curve", "parabola"], None, "--n1: invalid int value"),
    (["sample", "--n1", "20", "--curve", "parabola", "--max-attempts", "3"], None,
     "unrecognized arguments: --max-attempts 3"),
    (["sample", "--curve", "parabola"], None, "lacks required keys: ['n1_list']"),
    (["sample", "--n1", "20"], None, "lacks required keys: ['curve']"),
    (["bogus"], None, "invalid choice: 'bogus'"),
    ([], None, "required: mode"),
    (["calibrate"], dict(_CALIBRATE, oracle_draws=5, lclt_batch=7, accepted_target=3,
                         workers=2, replicates=5, conditioned_n1=[20], epsilons=[0.1]),
     "calibrate mode does not read ['accepted_target', 'conditioned_n1', 'epsilons', "
     "'lclt_batch', 'oracle_draws', 'replicates', 'workers']"),
    (["calibrate"], dict(_PROFILE, mode="verify"), "whose mode, if it has one, is 'calibrate'"),
    (["calibrate"], dict(_CALIBRATE, n1_list=[100, 1000]), "reads one n1"),
    (["calibrate"], dict(_CALIBRATE, n1_list=None), "lacks required keys: ['n1_list']"),
    (["profile", "--workers", "3", "--seed", "5"], _PROFILE,
     "unrecognized arguments: --workers 3 --seed 5"),
    (["calibrate"], [1, 2], "must hold a JSON object"),
], ids=["bad-int", "unknown-flag", "no-n1", "no-curve", "no-such-mode", "no-mode",
        "unread-keys", "other-mode", "two-n1", "null-n1", "unread-flags", "not-an-object"])
def test_cli_usage_error_is_typed_error(tmp_path, capsys, argv, file, says):
    # usage errors end like bad config values: exit 1 and an error: line
    # (argparse alone would exit 2, the threshold-failure code)
    if file is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(file))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert cli_main(argv + (["--out", str(tmp_path / "o")] if argv else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert says in err


def test_cli_flags_override_the_file(tmp_path):
    cfg = {"mode": "sample", "curve": PARABOLA_SPEC, "n1_list": [30], "replicates": 2,
           "out_dir": str(tmp_path / "file")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "flags"
    assert cli_main(["sample", "--config", str(tmp_path / "cfg.json"), "--n1", "50",
                     "--curve", "circle_arc", "--out", str(out)]) == 0
    recs = [json.loads(line) for line in open(out / "lines.jsonl")]
    assert [r["n1"] for r in recs] == [50, 50]
    params = ms.MeasureParams.for_endpoint(cv.make_preset("circle_arc"), 50)
    assert [r["endpoint"] for r in recs] == [
        line.endpoint.tolist() for line, _ in stu.draw_block(params, 0, 0, 2)]
    assert not (tmp_path / "file").exists()


def test_cli_entry_point_subprocess(tmp_path):
    out = str(tmp_path / "ep")
    proc = subprocess.run(
        [sys.executable, "-m", "limitshape", "sample", "--n1", "40",
         "--curve", "parabola:1.0", "--replicates", "1", "--seed", "0",
         "--out", out],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "lines.jsonl"))


def test_public_callables_have_docstrings():
    # a dataclass without a docstring gets its signature as __doc__
    import limitshape

    public = [getattr(limitshape, name) for name in limitshape.__all__]
    bare = [obj.__name__ for obj in public if callable(obj)
            and (not (obj.__doc__ or "").strip() or obj.__doc__.startswith(f"{obj.__name__}("))]
    assert bare == []


# --- benchmark harness ------------------------------------------------------------------

def test_perfbench_wrappers_find_their_targets(monkeypatch):
    # perfbench/call.py wraps package functions by name in a traced run; a
    # renamed or removed one fails here rather than in the benchmark
    from limitshape import lattice, metrics

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    call = importlib.import_module("call")
    targets = [(ms.MeasureParams, "for_endpoint"), (ms, "expected_endpoint"),
               (lattice, "direction_arrays"), (ms, "direction_exponent"),
               (ms, "slope_inverse"), (sp, "sample_configuration"), (sp, "assemble"),
               (sp, "sample_endpoints"), (sp, "condition_on_endpoint"),
               (metrics, "distance_report"), (metrics, "hausdorff")]
    originals = [inspect.getattr_static(owner, attr) for owner, attr in targets]
    tracer = call.Tracer("test")
    call._install_study_wrappers(tracer)
    try:
        assert len(tracer._patches) == len(targets) == 11
        assert all(inspect.getattr_static(owner, attr) is not orig
                   for (owner, attr), orig in zip(targets, originals))
    finally:
        tracer.restore()
    assert all(inspect.getattr_static(owner, attr) is orig
               for (owner, attr), orig in zip(targets, originals))
