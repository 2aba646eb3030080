"""Experiment configuration: JSON schema and curve-spec parsing."""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field
from numbers import Real

import numpy as np

from .curve import ConvexCurve, make_preset, make_tabulated

_MODES = ("calibrate", "sample", "condition", "verify", "profile", "oracle")
_N2_MODES = ("calibrate", "sample", "condition")
_INT_FIELDS = ("replicates", "seed", "workers", "accepted_target", "max_attempts",
               "lclt_replicates", "lclt_batch", "oracle_draws")


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
    """One study run: curve, sizes, replication and output policy."""

    mode: str
    curve_spec: dict
    n1_list: list
    replicates: int = 200
    seed: int = 0
    out_dir: str = "out"
    workers: int = 1
    epsilons: tuple = (0.2, 0.1, 0.05)
    conditioned_n1: list = field(default_factory=list)
    accepted_target: int = 60
    max_attempts: int = 2_000_000
    lclt_replicates: int = 10_000_000
    lclt_batch: int = 200_000
    n2: int | None = None
    oracle_instances: list = field(default_factory=list)
    oracle_draws: int = 200_000

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in _INT_FIELDS:
            _require_int(name, getattr(self, name))
        if self.n2 is not None:
            _require_int("n2", self.n2)
        for name in ("n1_list", "conditioned_n1"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list of integers, got {values!r}")
            for v in values:
                _require_int(f"{name} entry", v)
        for name in ("replicates", "workers", "accepted_target", "max_attempts", "lclt_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if any(v < 1 for v in self.conditioned_n1):
            raise ValueError("conditioned_n1 entries must be >= 1")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        n1s = list(self.n1_list)
        if not n1s or n1s[0] < 1:
            raise ValueError("n1 list must be non-empty and start at n1 >= 1")
        if any(b <= a for a, b in zip(n1s, n1s[1:])):
            raise ValueError("n1 list must be strictly increasing")
        if self.n2 is not None and self.n2 < 1:
            raise ValueError("n2 must be >= 1")
        if self.n2 is not None and self.mode not in _N2_MODES:
            raise ValueError(f"n2 is read only by the {', '.join(_N2_MODES)} modes, "
                             f"not by {self.mode}")
        if self.oracle_draws < 1:
            raise ValueError("oracle_draws must be >= 1")
        if not isinstance(self.epsilons, (list, tuple)) or any(
                isinstance(e, bool) or not isinstance(e, Real) for e in self.epsilons):
            raise ValueError(f"epsilons must be a list of numbers, got {self.epsilons!r}")
        if not isinstance(self.oracle_instances, (list, tuple)):
            raise ValueError(f"oracle_instances must be a list, got {self.oracle_instances!r}")
        for inst in self.oracle_instances:
            if not isinstance(inst, dict):
                raise ValueError(f"oracle instance must be an object, got {inst!r}")
            missing = {"n", "cap_radius", "nu_cap"} - set(inst)
            if missing:
                raise ValueError(f"oracle instance {inst} lacks {sorted(missing)}")
            n = inst["n"]
            if not isinstance(n, (list, tuple)) or len(n) != 2:
                raise ValueError(f"oracle instance n must be a pair of integers, got {n!r}")
            for v in n:
                _require_int("oracle instance n entry", v)
                if v < 1:
                    raise ValueError(f"oracle instance n entries must be >= 1, got {n!r}")
            _require_int("cap_radius", inst["cap_radius"])
            _require_int("nu_cap", inst["nu_cap"])
            # only caps that do not bind give the sampler's conditional law
            if inst["cap_radius"] < n[0] + n[1] or inst["nu_cap"] < max(n):
                raise ValueError(f"oracle instance {inst} needs cap_radius >= n1 + n2 "
                                 "and nu_cap >= max(n)")
        self.n1_list = [int(v) for v in n1s]
        self.epsilons = tuple(float(e) for e in self.epsilons)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        """Build a config from its JSON form; "curve" is accepted as an
        alias of "curve_spec"."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        if "curve_spec" not in data and "curve" in data:
            data = dict(data)
            data["curve_spec"] = data.pop("curve")
        fields = ExperimentConfig.__dataclass_fields__.values()
        extra = set(data) - {f.name for f in fields}
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        missing = {f.name for f in fields if f.default is MISSING
                   and f.default_factory is MISSING} - set(data)
        if missing:
            raise ValueError(f"config lacks required keys: {sorted(missing)}")
        return ExperimentConfig(**data)

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh))
