"""Experiment configuration: the keys each mode reads, curve-spec parsing
and the acceptance thresholds.

from_dict parses all outside input (a config file, CLI flags or both) and
rejects any key that MODE_KEYS does not list for its mode.  The constructor
takes every field, the study-only ones (lclt_replicates, lclt_batch) too.
Settings fixed by the verification itself are no config keys: the distance
levels are thresholds.json's limit_shape_epsilons (load_thresholds), and
the oracle's micro-lattice instances are oracle.INSTANCES."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .curve import ConvexCurve, make_preset, make_tabulated

# The keys each mode reads besides "curve" and "out_dir".  The modes that read
# n2 draw at one endpoint (n1, n2), so their n1_list holds one entry.
_SAMPLE_KEYS = ("n1_list", "n2", "replicates", "seed")
MODE_KEYS = {mode: ("curve", "out_dir") + keys for mode, keys in {
    "calibrate": ("n1_list", "n2"),
    "sample": _SAMPLE_KEYS,
    "condition": _SAMPLE_KEYS + ("max_attempts",),
    "verify": ("n1_list", "replicates", "seed", "workers", "conditioned_n1",
               "accepted_target", "max_attempts"),
    "profile": ("n1_list",),
    "oracle": ("oracle_draws", "max_attempts", "seed"),
}.items()}
_MODES = tuple(MODE_KEYS)
_INT_FIELDS = ("replicates", "seed", "workers", "accepted_target", "max_attempts",
               "lclt_replicates", "lclt_batch", "oracle_draws")


def load_thresholds() -> dict:
    """The acceptance thresholds and distance levels of thresholds.json."""
    with resources.files("limitshape").joinpath("thresholds.json").open("r") as fh:
        return json.load(fh)


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def curve_from_spec(spec: dict) -> ConvexCurve:
    """Build a curve from its config-file form.

    {"preset": {"name": "parabola", "c": 1.0}} or
    {"tabulated": {"points": [[u, g], ...], "k0": 0.1}}.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"curve spec must be an object, got {spec!r}")
    if "preset" in spec:
        preset = spec["preset"]
        if not isinstance(preset, dict) or "name" not in preset:
            raise ValueError(f"preset curve spec needs an object with a 'name', got {preset!r}")
        kwargs = dict(preset)
        name = kwargs.pop("name")
        return make_preset(name, **kwargs)
    if "tabulated" in spec:
        body = spec["tabulated"]
        if not isinstance(body, dict) or "points" not in body:
            raise ValueError(f"tabulated curve spec needs an object with 'points', got {body!r}")
        try:
            points = np.asarray(body["points"], dtype=float)
            k0 = float(body.get("k0", 1e-6))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"tabulated points and k0 must be numbers: {exc}") from None
        return make_tabulated(points, k0=k0)
    raise ValueError(f"curve spec needs 'preset' or 'tabulated', got {sorted(spec)}")


@dataclass
class ExperimentConfig:
    """One study run: curve, sizes, replication and output policy.

    The constructor checks each field's type and range; which fields a
    mode reads is the business of from_dict."""

    mode: str
    curve_spec: dict
    n1_list: list | None = None
    replicates: int = 200
    seed: int = 0
    out_dir: str = "out"
    workers: int = 1
    conditioned_n1: list = field(default_factory=list)
    accepted_target: int = 60
    max_attempts: int = 2_000_000
    lclt_replicates: int = 10_000_000
    lclt_batch: int = 200_000
    n2: int | None = None
    oracle_draws: int = 20_000

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in _INT_FIELDS:
            _require_int(name, getattr(self, name))
        if self.n2 is not None:
            _require_int("n2", self.n2)
        for name in ("conditioned_n1",) + (() if self.n1_list is None else ("n1_list",)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list of integers, got {values!r}")
            for v in values:
                _require_int(f"{name} entry", v)
        for name in ("replicates", "workers", "accepted_target", "max_attempts", "lclt_batch",
                     "oracle_draws"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if any(v < 1 for v in self.conditioned_n1):
            raise ValueError("conditioned_n1 entries must be >= 1")
        if any(b <= a for a, b in zip(self.conditioned_n1, self.conditioned_n1[1:])):
            raise ValueError("conditioned_n1 must be strictly increasing")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        if self.n1_list is not None:
            n1s = [int(v) for v in self.n1_list]
            if not n1s or n1s[0] < 1:
                raise ValueError("n1 list must be non-empty and start at n1 >= 1")
            if any(b <= a for a, b in zip(n1s, n1s[1:])):
                raise ValueError("n1 list must be strictly increasing")
            self.n1_list = n1s
        if self.n2 is not None and self.n2 < 1:
            raise ValueError("n2 must be >= 1")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        """Build a config from its JSON form: "mode" and the keys of
        MODE_KEYS[mode], where "curve" holds the curve spec.  "curve" and
        the mode's n1_list are required and not null; any other key is an error."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        mode = data.get("mode")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        keys = MODE_KEYS[mode]
        unread = set(data) - {"mode", *keys}
        if unread:
            raise ValueError(f"the {mode} mode does not read {sorted(unread)}; "
                             f"it reads {list(keys)}")
        missing = [k for k in ("curve", "n1_list") if k in keys and data.get(k) is None]
        if missing:
            raise ValueError(f"config lacks required keys: {missing}")
        cfg = ExperimentConfig(curve_spec=data["curve"],
                               **{k: v for k, v in data.items() if k != "curve"})
        if "n2" in keys and len(cfg.n1_list) > 1:
            raise ValueError(f"the {mode} mode draws at one endpoint and reads one n1, "
                             f"got n1_list {cfg.n1_list}")
        return cfg
