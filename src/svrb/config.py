"""Experiment configuration: JSON schema, validation, CLI overrides."""

import json
from dataclasses import dataclass, field

from .cases import gaussian9_case, uniform4_case

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


_CASE_KEYS = {"name", "n", "obs_grid", "noise_scale", "noise_sigma", "noise_seed",
              "data_noise", "theta_ref", "theta_data", "coercivity_floor", "module"}
_BACKEND_KEYS = {"kind", "tol", "eps0", "update_every", "rule", "eps_min", "max_basis"}
_TOP_KEYS = {"schema_version", "case", "particles", "max_steps", "svgd_tol",
             "alpha_init", "max_backtracks", "seed", "backend", "output_dir",
             "dump_matrices", "save_rb", "load_rb"}


@dataclass
class BackendConfig:
    kind: str = "hifi"              # hifi | rb-fixed | rb-adaptive
    tol: float = 1e-5               # greedy tolerance for rb-fixed
    eps0: float = 0.1               # initial tolerance for rb-adaptive
    update_every: int = 10
    rule: str = "normalized"
    eps_min: float = 1e-12
    max_basis: int = 500


@dataclass
class ExperimentConfig:
    case: dict = field(default_factory=lambda: {"name": "uniform4", "n": 16})
    particles: int = 64
    max_steps: int = 100
    svgd_tol: float = 1e-3
    alpha_init: float = 1.0
    max_backtracks: int = 20
    seed: int = 0
    backend: BackendConfig = field(default_factory=BackendConfig)
    output_dir: str = "runs/out"
    dump_matrices: bool = False
    save_rb: str = None
    load_rb: str = None

    @classmethod
    def from_dict(cls, raw):
        raw = dict(raw)
        version = raw.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls()
        if "case" in raw:
            case = dict(raw.pop("case"))
            bad = set(case) - _CASE_KEYS
            if bad:
                raise ConfigError(f"unknown case keys: {sorted(bad)}")
            cfg.case = case
        if "backend" in raw:
            backend = dict(raw.pop("backend"))
            bad = set(backend) - _BACKEND_KEYS
            if bad:
                raise ConfigError(f"unknown backend keys: {sorted(bad)}")
            cfg.backend = BackendConfig(**backend)
        for key, value in raw.items():
            setattr(cfg, key, value)
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
        return {
            "schema_version": SCHEMA_VERSION,
            "case": self.case,
            "particles": self.particles,
            "max_steps": self.max_steps,
            "svgd_tol": self.svgd_tol,
            "alpha_init": self.alpha_init,
            "max_backtracks": self.max_backtracks,
            "seed": self.seed,
            "backend": vars(self.backend),
            "output_dir": self.output_dir,
            "dump_matrices": self.dump_matrices,
            "save_rb": self.save_rb,
            "load_rb": self.load_rb,
        }

    def build_case(self):
        case = dict(self.case)
        name = case.pop("name", "uniform4")
        n = case.pop("n", 16)
        case.pop("module", None)
        if name == "uniform4":
            return uniform4_case(n, **case)
        if name == "gaussian9":
            return gaussian9_case(n, **case)
        if name == "custom":
            return _load_custom_case(dict(self.case))
        raise ConfigError(f"unknown case name {name!r}")


def _load_custom_case(case):
    path = case.get("module")
    if not path:
        raise ConfigError("custom case requires a 'module' path exposing build_case()")
    import importlib.util

    spec = importlib.util.spec_from_file_location("svrb_custom_case", path)
    if spec is None:
        raise ConfigError(f"cannot import custom case module {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "build_case"):
        raise ConfigError(f"custom case module {path} has no build_case()")
    return module.build_case()


def _validate(cfg):
    """Reject values no run can use; the CLI checks again after flag overrides."""
    if cfg.particles < 1:
        raise ConfigError("particles must be >= 1")
    if cfg.max_steps < 0:
        raise ConfigError("max_steps must be >= 0")
    if cfg.svgd_tol < 0:
        raise ConfigError("svgd_tol must be >= 0")
    if cfg.backend.tol < 0:
        raise ConfigError("backend tol must be >= 0")
    if cfg.backend.eps0 <= 0:
        raise ConfigError("eps0 must be positive")
    if cfg.backend.update_every is not None and cfg.backend.update_every < 1:
        raise ConfigError("update_every must be >= 1")
    if cfg.backend.kind not in ("hifi", "rb-fixed", "rb-adaptive"):
        raise ConfigError(f"unknown backend kind {cfg.backend.kind!r}")
    if cfg.backend.rule not in ("normalized", "absolute"):
        raise ConfigError(f"unknown tolerance rule {cfg.backend.rule!r}")
