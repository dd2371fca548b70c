"""Run configuration: one YAML file drives every experiment command.

The file mirrors the RunConfig blocks (cohort, mechanism, design,
estimation, execution); every field has a validated default so a minimal
config can be empty.  Each field's annotation is its type rule, applied
once when a block is built: integer fields take integral numbers, float
fields take real numbers, neither takes a boolean or a string, and lists
become tuples of typed entries.  The block then checks its ranges, and a
RunConfig checks the rules that tie its blocks together, so every config
that exists holds the typed, checked values the drivers read.  Errors
always name the offending key as ``block.field`` so sweep scripts fail
loudly and early.
"""

import numbers
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Optional, Union, get_args, get_origin

import numpy as np
import yaml

from .cohorts import DGP_TAGS
from .design import OBJECTIVES
from .estimation import NUISANCE_METHODS
from .mechanism import MODES, QueueSpec


class ConfigError(ValueError):
    """A configuration value failed validation; the message names the key."""


def _require(ok: bool, key: str, constraint: str):
    """Raise a ConfigError naming ``key`` unless ``ok``."""
    if not ok:
        raise ConfigError(f"config key '{key}': {constraint}")


def _check(key: str, build):
    """Run a constructor that owns a rule; its ValueError names ``key``."""
    try:
        build()
    except ValueError as err:
        raise ConfigError(f"config key '{key}': {err}") from err


# what a scalar annotation accepts; booleans are refused before these run
_ACCEPTS = {
    int: lambda x: isinstance(x, numbers.Integral)
    or (isinstance(x, numbers.Real) and float(x).is_integer()),
    float: lambda x: isinstance(x, numbers.Real),
    str: lambda x: isinstance(x, str),
}


def _typed(key: str, hint, value):
    """``value`` as the annotation ``hint`` types it, or a ConfigError.

    ``Optional[X]`` keeps None; ``tuple[X, ...]`` and ``tuple[X, Y]`` take a
    list or tuple and type each entry.
    """
    args = get_args(hint)
    if get_origin(hint) is Union:
        return None if value is None else _typed(key, args[0], value)
    if tuple in (hint, get_origin(hint)):
        if isinstance(value, (list, tuple)):
            if args[-1] is Ellipsis:
                return tuple(_typed(key, args[0], v) for v in value)
            if len(args) == len(value):
                return tuple(_typed(key, a, v) for a, v in zip(args, value))
    elif not isinstance(value, bool) and _ACCEPTS[hint](value):
        return hint(value)
    name = hint if get_origin(hint) else hint.__name__
    raise ConfigError(f"config key '{key}': expected {name}, got {value!r}")


class _Block:
    """A config block whose fields are stored as their annotations type them,
    then checked by the block's ``_validate``."""

    block: ClassVar[str]

    def __post_init__(self):
        for f in fields(self):
            value = _typed(f"{self.block}.{f.name}", f.type, getattr(self, f.name))
            object.__setattr__(self, f.name, value)
        self._validate()


@dataclass(frozen=True)
class CohortConfig(_Block):
    block: ClassVar[str] = "cohort"
    n: int = 2000
    tau: int = 1
    psi: float = -0.1
    dgp: str = "bernoulli"

    def _validate(self):
        _require(self.n >= 1, "cohort.n", "must be a positive integer")
        _require(self.tau >= 1, "cohort.tau", "must be a positive integer")
        _require(self.dgp in DGP_TAGS, "cohort.dgp", f"must be one of {DGP_TAGS}")
        _require(
            -0.1 - 1e-12 <= self.psi <= 0.1 + 1e-12,
            "cohort.psi",
            "must keep h + psi inside [0, 1] for the default h law (|psi| <= 0.1)",
        )


@dataclass(frozen=True)
class MechanismConfig(_Block):
    block: ClassVar[str] = "mechanism"
    k: int = 2
    p: tuple[float, ...] = (0.5, 0.5)
    beta: float = 0.5
    mode: str = "strict"
    alpha_target: Optional[tuple[float, ...]] = None  # rationed mode only

    def _validate(self):
        _require(self.k >= 1, "mechanism.k", "must be a positive integer")
        p = np.asarray(self.p)
        _require(
            p.shape == (self.k,) and np.all(p > 0) and abs(p.sum() - 1) <= 1e-9,
            "mechanism.p",
            "must be a positive probability vector of length k",
        )
        _require(0.0 < self.beta < 1.0, "mechanism.beta", "must lie in (0, 1)")
        _require(self.mode in MODES, "mechanism.mode", f"must be one of {MODES}")

    def queue_spec(self, n: int, tau: int) -> QueueSpec:
        """The mechanism a run over n units and tau review periods allocates under."""
        return QueueSpec.auto(n, k=self.k, p=self.p, beta=self.beta, tau=tau, mode=self.mode,
                              alpha_target=self.alpha_target)


@dataclass(frozen=True)
class DesignConfig(_Block):
    block: ClassVar[str] = "design"
    objective: str = "exogenous"
    c_grid_size: int = 10
    c_grid: Optional[tuple[float, ...]] = None  # explicit floors override the size
    switch_strengths: tuple[float, ...] = (0.25, 0.5, 0.75)
    greedy_scales: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0)
    bias_arms: tuple[tuple[float, float], ...] = (  # (alpha_top, c_frac) pairs
        (0.6, 0.0), (0.6, 0.5), (0.6, 0.9),
        (0.8, 0.0), (0.8, 0.5), (0.8, 0.9),
        (0.95, 0.0), (0.95, 0.5), (0.95, 0.9),
    )

    def _validate(self):
        _require(self.objective in OBJECTIVES, "design.objective", f"must be one of {OBJECTIVES}")
        _require(self.c_grid_size >= 1, "design.c_grid_size", "must be >= 1")
        _require(
            self.c_grid is None or (len(self.c_grid) >= 1 and np.all(np.isfinite(self.c_grid))),
            "design.c_grid",
            "must be a nonempty list of finite numbers",
        )
        for name in ("switch_strengths", "greedy_scales", "bias_arms"):
            _require(len(getattr(self, name)) >= 1, f"design.{name}", "must be nonempty")
        _require(
            all(0.0 <= b < 1.0 for b in self.switch_strengths),
            "design.switch_strengths",
            "entries must lie in [0, 1)",
        )
        _require(
            all(a > 0 for a in self.greedy_scales),
            "design.greedy_scales",
            "entries must be positive",
        )
        _require(
            all(0.0 < top < 1.0 for top, _ in self.bias_arms),
            "design.bias_arms",
            "alpha_top must lie in (0, 1)",
        )
        _require(
            all(0.0 <= frac <= 1.0 for _, frac in self.bias_arms),
            "design.bias_arms",
            "c_frac must lie in [0, 1]",
        )


@dataclass(frozen=True)
class EstimationConfig(_Block):
    block: ClassVar[str] = "estimation"
    nuisance_method: str = "oracle"
    bootstrap_reps: int = 10_000
    relevance_floor: float = 1e-8

    def _validate(self):
        _require(
            self.nuisance_method in NUISANCE_METHODS,
            "estimation.nuisance_method",
            f"must be one of {NUISANCE_METHODS}",
        )
        _require(self.bootstrap_reps >= 1, "estimation.bootstrap_reps", "must be >= 1")
        _require(self.relevance_floor > 0, "estimation.relevance_floor", "must be > 0")


@dataclass(frozen=True)
class ExecutionConfig(_Block):
    block: ClassVar[str] = "execution"
    seed: int = 0
    bias_replications: int = 10_000
    propensity_reps: int = 200
    treated_mass_reps: int = 50
    n_grid: tuple[int, ...] = (500, 1000, 2000)
    threads: int = 1
    out_dir: str = "out"

    def _validate(self):
        _require(self.seed >= 0, "execution.seed", "must be a nonnegative integer")
        for name in ("bias_replications", "propensity_reps", "treated_mass_reps", "threads"):
            _require(getattr(self, name) >= 1, f"execution.{name}", "must be >= 1")
        _require(len(self.n_grid) >= 1, "execution.n_grid", "must be nonempty")
        _require(
            all(n >= 1 for n in self.n_grid),
            "execution.n_grid",
            "entries must be positive integers",
        )
        _require(len(self.out_dir) > 0, "execution.out_dir", "must be nonempty")


@dataclass(frozen=True)
class RunConfig:
    cohort: CohortConfig = field(default_factory=CohortConfig)
    mechanism: MechanismConfig = field(default_factory=MechanismConfig)
    design: DesignConfig = field(default_factory=DesignConfig)
    estimation: EstimationConfig = field(default_factory=EstimationConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self):
        # QueueSpec owns the rules that tie mechanism fields together; its
        # budgets are always automatic, so whatever it rejects is about alpha_target
        mech, n, tau = self.mechanism, self.cohort.n, self.cohort.tau
        _check("mechanism.alpha_target", lambda: mech.queue_spec(n, tau))


_BLOCKS = {f.name: f.type for f in fields(RunConfig)}


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
        known = {f.name for f in fields(cls)}
        for key in block_data:
            if key not in known:
                raise ConfigError(f"config key '{name}.{key}': unknown field")
        blocks[name] = cls(**block_data)
    return RunConfig(**blocks)


def load_config(path: Optional[str]) -> RunConfig:
    """Read a YAML config file; a missing path means all defaults."""
    if path is None:
        return RunConfig()
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
    given = dict(seed=seed, out_dir=out_dir, threads=threads)
    execu = replace(config.execution, **{k: v for k, v in given.items() if v is not None})
    return replace(config, execution=execu)
