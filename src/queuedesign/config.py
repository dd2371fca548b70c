"""Run configuration: one YAML file drives every experiment command.

The file mirrors the RunConfig blocks (cohort, mechanism, design,
estimation, execution); every field has a validated default so a minimal
config can be empty.  Validation errors always name the offending key as
``block.field`` so sweep scripts fail loudly and early.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np
import yaml

from .cohorts import DGP_TAGS, ESTIMATOR_METHODS as ESTIMATORS
from .design import OBJECTIVES, REGULARIZERS
from .estimation import NUISANCE_METHODS
from .mechanism import MODES, QueueSpec


class ConfigError(ValueError):
    """A configuration value failed validation; the message names the key."""


def _require(cond: Callable[[], bool], key: str, constraint: str):
    """Raise a ConfigError naming ``key`` unless ``cond()`` holds.

    A value the check cannot read, such as a string where a number belongs,
    fails it as well.
    """
    try:
        ok = bool(cond())
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"config key '{key}': {constraint}")


def _check(key: str, build):
    """Run a constructor that owns a rule; its ValueError names ``key``."""
    try:
        build()
    except ValueError as err:
        raise ConfigError(f"config key '{key}': {err}") from err


@dataclass(frozen=True)
class CohortConfig:
    n: int = 2000
    tau: int = 1
    psi: float = -0.1
    dgp: str = "bernoulli"

    def validate(self):
        _require(lambda: int(self.n) >= 1, "cohort.n", "must be a positive integer")
        _require(lambda: int(self.tau) >= 1, "cohort.tau", "must be a positive integer")
        _require(lambda: self.dgp in DGP_TAGS, "cohort.dgp", f"must be one of {DGP_TAGS}")
        _require(
            lambda: -0.1 - 1e-12 <= float(self.psi) <= 0.1 + 1e-12,
            "cohort.psi",
            "must keep h + psi inside [0, 1] for the default h law (|psi| <= 0.1)",
        )


@dataclass(frozen=True)
class MechanismConfig:
    k: int = 2
    p: tuple = (0.5, 0.5)
    beta: float = 0.5
    mode: str = "strict"
    budgets: Optional[tuple] = None  # None: spread round(beta*n) over periods
    alpha_target: Optional[tuple] = None  # rationed mode only

    def validate(self):
        _require(lambda: int(self.k) >= 1, "mechanism.k", "must be a positive integer")

        def is_share_vector():
            p = np.asarray(self.p, dtype=float)
            return p.shape == (int(self.k),) and np.all(p > 0) and abs(p.sum() - 1) <= 1e-9

        _require(
            is_share_vector,
            "mechanism.p",
            "must be a positive probability vector of length k",
        )
        _require(lambda: 0.0 < float(self.beta) < 1.0, "mechanism.beta", "must lie in (0, 1)")
        _require(lambda: self.mode in MODES, "mechanism.mode", f"must be one of {MODES}")

    def queue_spec(self, n: int, tau: int) -> QueueSpec:
        """The mechanism a run over n units and tau review periods allocates under."""
        target = None if self.alpha_target is None else np.asarray(self.alpha_target, float)
        shared = dict(k=int(self.k), p=np.asarray(self.p, float), beta=float(self.beta),
                      tau=int(tau), mode=self.mode, alpha_target=target)
        if self.budgets is None:
            return QueueSpec.auto(n, **shared)
        return QueueSpec(budgets=self.budgets, **shared)


@dataclass(frozen=True)
class DesignConfig:
    objective: str = "exogenous"
    c_grid_size: int = 10
    c_grid: Optional[tuple] = None  # explicit floors override the size
    kappa: Optional[float] = None  # None: 1e-3 * objective scale
    regularizer: str = "neg_entropy"
    switch_strengths: tuple = (0.25, 0.5, 0.75)
    greedy_scales: tuple = (0.5, 1.0, 2.0, 4.0, 8.0)
    greedy_cap: float = 1.0
    bias_arms: tuple = (  # (alpha_top, c_frac) pairs
        (0.6, 0.0), (0.6, 0.5), (0.6, 0.9),
        (0.8, 0.0), (0.8, 0.5), (0.8, 0.9),
        (0.95, 0.0), (0.95, 0.5), (0.95, 0.9),
    )

    def validate(self):
        _require(
            lambda: self.objective in OBJECTIVES, "design.objective", f"must be one of {OBJECTIVES}"
        )
        _require(
            lambda: self.regularizer in REGULARIZERS,
            "design.regularizer",
            f"must be one of {REGULARIZERS}",
        )
        _require(lambda: int(self.c_grid_size) >= 1, "design.c_grid_size", "must be >= 1")
        if self.c_grid is not None:
            _require(lambda: len(self.c_grid) >= 1, "design.c_grid", "must be nonempty")
            _require(
                lambda: all(np.isfinite(float(c)) for c in self.c_grid),
                "design.c_grid",
                "entries must be finite numbers",
            )
        if self.kappa is not None:
            _require(lambda: float(self.kappa) > 0, "design.kappa", "must be positive")
        for name in ("switch_strengths", "greedy_scales", "bias_arms"):
            vals = getattr(self, name)
            _require(lambda: len(vals) >= 1, f"design.{name}", "must be nonempty")
        _require(
            lambda: all(0.0 <= float(b) < 1.0 for b in self.switch_strengths),
            "design.switch_strengths",
            "entries must lie in [0, 1)",
        )
        _require(
            lambda: all(float(a) > 0 for a in self.greedy_scales),
            "design.greedy_scales",
            "entries must be positive",
        )
        _require(
            lambda: 0.0 < float(self.greedy_cap) <= 1.0, "design.greedy_cap", "must lie in (0, 1]"
        )
        for arm in self.bias_arms:
            _require(
                lambda: isinstance(arm, (tuple, list)) and len(arm) == 2,
                "design.bias_arms",
                "each arm must be an (alpha_top, c_frac) pair",
            )
            _require(
                lambda: 0.0 < float(arm[0]) < 1.0,
                "design.bias_arms",
                "alpha_top must lie in (0, 1)",
            )
            _require(
                lambda: 0.0 <= float(arm[1]) <= 1.0,
                "design.bias_arms",
                "c_frac must lie in [0, 1]",
            )


@dataclass(frozen=True)
class EstimationConfig:
    nuisance_method: str = "oracle"
    bins: int = 20
    degree: int = 3
    bootstrap_reps: int = 10_000
    gamma: float = 0.01
    relevance_floor: float = 1e-8
    estimators: tuple = ("dr_ate", "pliv", "iv_ratio")

    def validate(self):
        _require(
            lambda: self.nuisance_method in NUISANCE_METHODS,
            "estimation.nuisance_method",
            f"must be one of {NUISANCE_METHODS}",
        )
        _require(lambda: int(self.bins) >= 1, "estimation.bins", "must be >= 1")
        _require(lambda: int(self.degree) >= 0, "estimation.degree", "must be >= 0")
        _require(
            lambda: int(self.bootstrap_reps) >= 1, "estimation.bootstrap_reps", "must be >= 1"
        )
        _require(lambda: 0.0 <= float(self.gamma) < 0.5, "estimation.gamma", "must lie in [0, 0.5)")
        _require(
            lambda: float(self.relevance_floor) > 0, "estimation.relevance_floor", "must be > 0"
        )
        _require(lambda: len(self.estimators) >= 1, "estimation.estimators", "must be nonempty")
        for e in self.estimators:
            _require(
                lambda: e in ESTIMATORS, "estimation.estimators", f"entries must be in {ESTIMATORS}"
            )


@dataclass(frozen=True)
class ExecutionConfig:
    seed: int = 0
    bias_replications: int = 10_000
    propensity_reps: int = 200
    treated_mass_reps: int = 50
    n_grid: tuple = (500, 1000, 2000)
    threads: int = 1
    out_dir: str = "out"

    def validate(self):
        _require(lambda: int(self.seed) >= 0, "execution.seed", "must be a nonnegative integer")
        for name in ("bias_replications", "propensity_reps", "treated_mass_reps", "threads"):
            _require(lambda: int(getattr(self, name)) >= 1, f"execution.{name}", "must be >= 1")
        _require(lambda: len(self.n_grid) >= 1, "execution.n_grid", "must be nonempty")
        _require(
            lambda: all(int(n) == n and int(n) >= 1 for n in self.n_grid),
            "execution.n_grid",
            "entries must be positive integers",
        )
        _require(lambda: len(str(self.out_dir)) > 0, "execution.out_dir", "must be nonempty")


@dataclass(frozen=True)
class RunConfig:
    cohort: CohortConfig = field(default_factory=CohortConfig)
    mechanism: MechanismConfig = field(default_factory=MechanismConfig)
    design: DesignConfig = field(default_factory=DesignConfig)
    estimation: EstimationConfig = field(default_factory=EstimationConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def validate(self) -> "RunConfig":
        for block in fields(self):
            getattr(self, block.name).validate()
        # QueueSpec owns the rules that tie mechanism fields together; with
        # automatic budgets, whatever it rejects is about alpha_target
        mech, n, tau = self.mechanism, int(self.cohort.n), int(self.cohort.tau)
        _check("mechanism.alpha_target", lambda: replace(mech, budgets=None).queue_spec(n, tau))
        if mech.budgets is not None:
            _check("mechanism.budgets", lambda: mech.queue_spec(n, tau))
        return self


_BLOCKS = {
    "cohort": CohortConfig,
    "mechanism": MechanismConfig,
    "design": DesignConfig,
    "estimation": EstimationConfig,
    "execution": ExecutionConfig,
}


def _build_block(name: str, cls, data: dict):
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"config key '{name}.{key}': unknown field")
    coerced = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        coerced[key] = value
    try:
        return cls(**coerced)
    except TypeError as err:
        raise ConfigError(f"config block '{name}': {err}") from err


def config_from_dict(data: Optional[dict]) -> RunConfig:
    """Build and validate a RunConfig from nested dictionaries."""
    data = data or {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping of blocks")
    for key in data:
        if key not in _BLOCKS:
            raise ConfigError(f"config key '{key}': unknown block")
    blocks = {}
    for name, cls in _BLOCKS.items():
        block_data = data.get(name, {}) or {}
        if not isinstance(block_data, dict):
            raise ConfigError(f"config key '{name}': must be a mapping")
        blocks[name] = _build_block(name, cls, block_data)
    return RunConfig(**blocks).validate()


def load_config(path: Optional[str]) -> RunConfig:
    """Read a YAML config file; a missing path means all defaults."""
    if path is None:
        return RunConfig().validate()
    with open(path, "r") as fh:
        data = yaml.safe_load(fh)
    return config_from_dict(data)


def apply_overrides(
    config: RunConfig,
    seed: Optional[int] = None,
    out_dir: Optional[str] = None,
    threads: Optional[int] = None,
) -> RunConfig:
    """Apply the --seed/--out/--threads command-line overrides."""
    execu = config.execution
    if seed is not None:
        execu = replace(execu, seed=int(seed))
    if out_dir is not None:
        execu = replace(execu, out_dir=str(out_dir))
    if threads is not None:
        execu = replace(execu, threads=int(threads))
    cfg = replace(config, execution=execu)
    return cfg.validate()
