"""Experiment configuration: JSON schema, validation, CLI overrides.

The dataclasses are the schema: their fields are the accepted keys and
their annotations the accepted types; ``_CASE_TYPES`` is the same for the
``case`` object.  The sampler and greedy settings take their defaults and
range checks from :class:`SVGDConfig` and :class:`AdaptiveConfig`.
"""

import copy
import json
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, fields

from .adaptive import AdaptiveConfig
from .cases import CaseConfig, _override, gaussian9_case, uniform4_case
from .svgd import SVGDConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


_CASE_TYPES = {"name": str, "n": int, "obs_grid": int, "noise_scale": float,
               "noise_sigma": float | None, "noise_seed": int, "data_noise": bool,
               "theta_ref": list[float] | None, "theta_data": list[float] | None,
               "coercivity_floor": float, "module": str}


@dataclass
class BackendConfig:
    kind: str = "hifi"              # hifi | rb-fixed | rb-adaptive
    tol: float = 1e-5               # greedy tolerance for rb-fixed
    eps0: float = AdaptiveConfig.eps0  # initial tolerance for rb-adaptive
    update_every: int | None = AdaptiveConfig.update_every
    rule: str = AdaptiveConfig.rule
    eps_min: float = AdaptiveConfig.eps_min
    max_basis: int = AdaptiveConfig.max_basis


@dataclass
class ExperimentConfig:
    case: dict = field(default_factory=lambda: {"name": "uniform4", "n": 16})
    particles: int = SVGDConfig.n_particles
    max_steps: int = SVGDConfig.max_steps
    svgd_tol: float = SVGDConfig.tol
    alpha_init: float = SVGDConfig.alpha_init
    max_backtracks: int = SVGDConfig.max_backtracks
    seed: int = SVGDConfig.seed
    backend: BackendConfig = field(default_factory=BackendConfig)
    output_dir: str = "runs/out"
    dump_matrices: bool = False
    save_rb: str | None = None
    load_rb: str | None = None

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError(f"a config is a JSON object, not {raw!r}")
        raw = copy.deepcopy(raw)
        version = raw.pop("schema_version", SCHEMA_VERSION)
        if not _accepts(int, version) or version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        if isinstance(raw.get("backend"), dict):
            _check(raw["backend"], _BACKEND_TYPES, "backend")
            raw["backend"] = BackendConfig(**raw["backend"])
        _check(raw, _TOP_TYPES, "config")
        cfg = cls(**raw)
        _validate(cfg)
        return cfg

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self):
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    def svgd_config(self):
        return SVGDConfig(n_particles=self.particles, max_steps=self.max_steps,
                          tol=self.svgd_tol, alpha_init=self.alpha_init,
                          max_backtracks=self.max_backtracks, seed=self.seed)

    def adaptive_config(self):
        b = self.backend
        return AdaptiveConfig(eps0=b.eps0, update_every=b.update_every, rule=b.rule,
                              eps_min=b.eps_min, max_basis=b.max_basis)

    def build_case(self):
        """The case the ``case`` keys name; every other key overrides its
        setting, for a custom module's case as for a built-in one."""
        case = dict(self.case)
        name = case.pop("name", "uniform4")
        if name == "custom":
            return _override(_load_custom_case(case.pop("module", None)), case)
        if "module" in case:
            raise ConfigError(f"case key 'module' applies only to a custom case, not to {name!r}")
        n = case.pop("n", 16)
        if name == "uniform4":
            return uniform4_case(n, **case)
        if name == "gaussian9":
            return gaussian9_case(n, **case)
        raise ConfigError(f"unknown case name {name!r}")


def _load_custom_case(path):
    if not path:
        raise ConfigError("custom case requires a 'module' path exposing build_case()")
    import importlib.util

    spec = importlib.util.spec_from_file_location("svrb_custom_case", path)
    if spec is None:
        raise ConfigError(f"cannot import custom case module {path}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except (OSError, SyntaxError, ImportError) as exc:
        raise ConfigError(f"cannot read custom case module {path}: {exc!r}") from exc
    if not hasattr(module, "build_case"):
        raise ConfigError(f"custom case module {path} has no build_case()")
    case = module.build_case()  # an error raised in there is the module's own and surfaces
    if not isinstance(case, CaseConfig):
        raise ConfigError(f"build_case() of {path} returned {case!r}, not a CaseConfig")
    if getattr(case.prior, "dim", None) is None:  # every run samples its particles from it
        raise ConfigError(f"build_case() of {path} returned a case whose prior "
                          f"{case.prior!r} has no dim to sample particles from")
    return case


_TOP_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_BACKEND_TYPES = {f.name: f.type for f in fields(BackendConfig)}


def _accepts(kind, value):
    """``isinstance`` for JSON values: an int counts as a float, a bool as
    neither, a number must be finite as a float, and ``list[float]`` checks
    each item."""
    if isinstance(kind, types.UnionType):
        return any(_accepts(k, value) for k in typing.get_args(kind))
    if typing.get_origin(kind) is list:
        (item,) = typing.get_args(kind)
        return isinstance(value, list) and all(_accepts(item, v) for v in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _check(values, schema, what):
    """Reject keys ``schema`` does not list and values of other types."""
    unknown = set(values) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in values.items():
        if not _accepts(schema[key], value):
            kind = getattr(schema[key], "__name__", schema[key])
            raise ConfigError(f"{what} key {key!r} must be {kind}, not {value!r}")


def _validate(cfg):
    """Reject keys, types and values no run can use; the CLI checks again
    after flag overrides."""
    _check(vars(cfg), _TOP_TYPES, "config")
    _check(vars(cfg.backend), _BACKEND_TYPES, "backend")
    _check(cfg.case, _CASE_TYPES, "case")
    try:
        cfg.svgd_config()
        cfg.adaptive_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    b, case = cfg.backend, cfg.case
    for ok, message in (
        (b.kind in ("hifi", "rb-fixed", "rb-adaptive"), f"unknown backend kind {b.kind!r}"),
        (b.tol >= 0, "backend tol must be >= 0"),
        (case.get("n", 1) >= 1, "case n must be >= 1"),
        (case.get("obs_grid", 1) >= 1, "case obs_grid must be >= 1"),
        (case.get("noise_seed", 0) >= 0, "case noise_seed must be >= 0"),
        (case.get("coercivity_floor", 0) >= 0, "case coercivity_floor must be >= 0"),
    ):
        if not ok:
            raise ConfigError(message)
