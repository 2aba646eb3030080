import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
    with pytest.raises(ValueError):
        cfgmod.ExperimentConfig.from_dict({"mode": "verify", "curve_spec": PARABOLA_SPEC,
                                           "n1_list": [10], "frobnicate": 1})


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
_CLI_VALID = {"replicates": st.integers(1, 60), "seed": st.integers(0, 60),
              "workers": st.integers(1, 4), "n2": st.integers(1, 60),
              "epsilons": st.lists(st.floats(0.01, 1.0), max_size=3)}


@st.composite
def _cli_configs(draw):
    """A valid calibrate config, then up to two keys dropped or set to
    arbitrary JSON, an unknown key among them."""
    cfg = draw(st.fixed_dictionaries(
        {"mode": st.just("calibrate"), "curve": _CLI_CURVE,
         "n1_list": st.lists(st.integers(1, 60), min_size=1, max_size=3,
                             unique=True).map(sorted)},
        optional=_CLI_VALID))
    keys = ["mode", "curve", "n1_list", "accepted_target", "max_attempts",
            "conditioned_n1", "oracle_instances", "oracle_draws", "extra", *_CLI_VALID]
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

def test_oracle_cap22_two_lines(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 1, 1)
    dist = oc.exact_conditional_oracle(params, 2, 2, (1, 1))
    assert dist.reachable
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
    dist = oc.exact_conditional_oracle(params, 4, 4, (1, 3))
    assert not dist.reachable
    assert dist.entries == ()


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
    cfg = _config(epsilons=(10.0, 0.1))
    r1 = stu.run_limit_shape_study(cfg)
    r2 = stu.run_limit_shape_study(cfg)
    assert r1.rows == r2.rows
    assert r1.details == r2.details
    huge = [r for r in r1.rows if r.statistic == "frac_dL_le_10"]
    assert all(r.empirical == 1.0 for r in huge)
    med = [r for r in r1.rows if r.statistic == "median_dL"]
    assert all(r.stderr > 0 for r in med)


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


def test_conditioned_study_with_no_accepted_replicate():
    # one attempt per replicate at n1 = 60 accepts none of them, so every
    # statistic of the accepted paths is taken over an empty sample
    cfg = _config(n1_list=[60], conditioned_n1=[60], accepted_target=4, max_attempts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = stu.run_conditioned_study(cfg)
    rows = {r.statistic: r for r in res.rows}
    assert rows["cond_accepted"].empirical == 0.0
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
    ("sample", stu.run_limit_shape_study, dict(n1_list=[40], replicates=3)),
    ("condition", stu.run_conditioned_study,
     dict(mode="condition", n1_list=[25], conditioned_n1=[25], accepted_target=3,
          max_attempts=500_000)),
], ids=["sample", "condition"])
def test_cli_and_study_draw_the_same_paths(tmp_path, mode, study, kw):
    # both go through studies.draw_path, so replicate i is the same path
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
    assert cli_verts == overlay


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


def test_cli_oracle(tmp_path):
    cfg = {"mode": "oracle", "curve": PARABOLA_SPEC, "n1_list": [2],
           "oracle_instances": [{"n": [1, 1], "cap_radius": 2, "nu_cap": 2},
                                 {"n": [2, 1], "cap_radius": 3, "nu_cap": 3}],
           "oracle_draws": 4000, "seed": 3, "out_dir": str(tmp_path / "o")}
    cfg_path = str(tmp_path / "cfg.json")
    json.dump(cfg, open(cfg_path, "w"))
    assert cli_main(["oracle", "--config", cfg_path]) == 0
    table = open(os.path.join(str(tmp_path / "o"), "oracle.csv")).read()
    assert "exact_p" in table


def test_cli_oracle_attempt_budget(tmp_path, monkeypatch):
    # a sampler that never hits n must end in Exhausted (exit 1), not spin
    def never_hits(params, count, rng, collect_support=False):
        empty = np.empty(0, np.int64)
        return np.zeros((count, 2), dtype=np.int64), (empty, empty, empty)

    monkeypatch.setattr(sp, "sample_endpoints", never_hits)
    cfg = {"mode": "oracle", "curve": PARABOLA_SPEC, "n1_list": [2],
           "oracle_instances": [{"n": [1, 1], "cap_radius": 2, "nu_cap": 2}],
           "oracle_draws": 4000, "max_attempts": 10_000, "seed": 3,
           "out_dir": str(tmp_path / "o")}
    cfg_path = str(tmp_path / "cfg.json")
    json.dump(cfg, open(cfg_path, "w"))
    assert cli_main(["oracle", "--config", cfg_path]) == 1


@pytest.mark.parametrize("mode, bad", [
    ("calibrate", {"n1_list": []}),
    ("calibrate", {"n1_list": [0]}),
    ("calibrate", {"n2": 0}),
    ("calibrate", {"curve": {"preset": {"c": 1.0}}}),
    ("oracle", {"oracle_instances": [{"n": [1, 1], "nu_cap": 2}]}),
    ("oracle", {"oracle_draws": 0}),
    ("calibrate", {"n1_list": ["20"]}),
    ("calibrate", {"replicates": "5"}),
    ("oracle", {"oracle_draws": "5"}),
    ("calibrate", {"epsilons": 0.1}),
    ("calibrate", {"epsilons": [[1]]}),
    ("oracle", {"oracle_instances": [{"n": "ab", "cap_radius": 2, "nu_cap": 2}]}),
    ("oracle", {"oracle_instances": [5]}),
    ("calibrate", {"curve": 5}),
    ("verify", {"curve": {"preset": 5}}),
    ("calibrate", {"curve": {"preset": {"name": "parabola", "c": [1]}}}),
    ("verify", {"curve": {"tabulated": {}}}),
    ("calibrate", {"curve": {"tabulated": {"points": [[0, 0], [1, 1]], "k0": None}}}),
    ("calibrate", {"out_dir": 5}),
    ("verify", {"conditioned_n1": [20], "accepted_target": 0}),
    ("verify", {"lclt_batch": 0}),
    ("oracle", {"oracle_instances": [{"n": [1, 1], "cap_radius": -1, "nu_cap": 2}]}),
    ("oracle", {"oracle_instances": [{"n": [2, 1], "cap_radius": 3, "nu_cap": 1}]}),
    ("verify", {"conditioned_n1": [20], "max_attempts": 0}),
    ("verify", {"conditioned_n1": [0]}),
    ("verify", {"conditioned_n1": [-5]}),
    ("calibrate", {"workers": 0}),
    ("verify", {"n2": 7}),
    ("profile", {"n2": 7}),
    ("oracle", {"n2": 7, "oracle_draws": 10,
                "oracle_instances": [{"n": [1, 1], "cap_radius": 2, "nu_cap": 2}]}),
])
def test_cli_malformed_config_is_typed_error(tmp_path, mode, bad):
    cfg = {"mode": mode, "curve": PARABOLA_SPEC, "n1_list": [20],
           "out_dir": str(tmp_path / "out")}
    cfg.update(bad)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run([sys.executable, "-m", "limitshape", mode, "--config",
                           str(cfg_path)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags", [["--workers", "0"], ["--replicates", "0"]])
def test_cli_flag_out_of_range_is_typed_error(tmp_path, flags):
    proc = subprocess.run(
        [sys.executable, "-m", "limitshape", "condition", "--n1", "20",
         "--curve", "parabola:1.0", "--out", str(tmp_path / "o")] + flags,
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_cli_entry_point_subprocess(tmp_path):
    out = str(tmp_path / "ep")
    proc = subprocess.run(
        [sys.executable, "-m", "limitshape", "sample", "--n1", "40",
         "--curve", "parabola:1.0", "--replicates", "1", "--seed", "0",
         "--out", out],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "lines.jsonl"))
