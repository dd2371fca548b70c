"""Configuration loading, defaults, and per-key validation messages."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
import typing
from pathlib import Path

import pytest

import queuedesign
from queuedesign.config import (
    CohortConfig,
    ConfigError,
    MechanismConfig,
    RunConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)

from test_output_bytes import CONFIGS as PINNED

REPO_ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted(REPO_ROOT.glob("configs/*.yaml")) + sorted(
    REPO_ROOT.glob("bench/configs/*.yaml")
)

# the fields that no experiment sets away from its default, and why each
# stays a key rather than a constant
ONE_VALUE_IN_USE = {
    "cohort.psi": "the true effect that every CSV is measured against",
    "design.c_grid": "the only config route to the frontier's infeasible status",
    "execution.threads": "a deployment setting, overridden by --threads",
    "execution.out_dir": "a deployment setting, overridden by --out",
}

INTEGER_FIELDS = (
    "cohort.n", "cohort.tau", "mechanism.k", "design.c_grid_size",
    "estimation.bootstrap_reps", "execution.seed",
    "execution.bias_replications", "execution.propensity_reps",
    "execution.treated_mass_reps", "execution.threads",
)


class TestDefaults:
    def test_empty_config_is_valid(self):
        cfg = config_from_dict({})
        assert cfg.cohort.n == 2000
        assert cfg.mechanism.p == (0.5, 0.5)
        assert cfg.design.objective == "exogenous"
        assert cfg.estimation.nuisance_method == "oracle"
        assert cfg.execution.threads == 1

    def test_none_and_missing_blocks_are_defaults(self):
        assert config_from_dict(None) == RunConfig()
        assert config_from_dict({"cohort": None}) == RunConfig()

    def test_frozen(self):
        cfg = config_from_dict({})
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.cohort.n = 5


class TestValidationMessages:
    """Errors must name the offending key so sweeps fail loudly."""

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"cohort": {"n": 0}}, "cohort.n"),
            ({"cohort": {"dgp": "gaussian"}}, "cohort.dgp"),
            ({"cohort": {"psi": 0.3}}, "cohort.psi"),
            ({"mechanism": {"beta": 1.0}}, "mechanism.beta"),
            ({"mechanism": {"p": [0.7, 0.2]}}, "mechanism.p"),
            ({"mechanism": {"mode": "fifo"}}, "mechanism.mode"),
            ({"mechanism": {"mode": "rationed"}}, "mechanism.alpha_target"),
            ({"design": {"objective": "minimax"}}, "design.objective"),
            ({"design": {"switch_strengths": [1.0]}}, "design.switch_strengths"),
            ({"estimation": {"nuisance_method": "forest"}}, "estimation.nuisance_method"),
            ({"execution": {"threads": 0}}, "execution.threads"),
            ({"execution": {"seed": -1}}, "execution.seed"),
            # cross-field rules come from QueueSpec and AlphaVector
            ({"mechanism": {"alpha_target": [0.6, 0.4]}}, "mechanism.alpha_target"),
            ({"mechanism": {"mode": "rationed", "alpha_target": [0.4, 0.6]}},
             "mechanism.alpha_target"),
            ({"design": {"bias_arms": [[1.2, 0.5]]}}, "design.bias_arms"),
            ({"design": {"bias_arms": [[0.6, 1.5]]}}, "design.bias_arms"),
            ({"design": {"bias_arms": [0.6, 0.5]}}, "design.bias_arms"),
            # a value that is not a number is refused under its key
            ({"mechanism": {"beta": "abc"}}, "mechanism.beta"),
            ({"cohort": {"n": "abc"}}, "cohort.n"),
            ({"cohort": {"tau": None}}, "cohort.tau"),
            ({"mechanism": {"p": ["a", "b"]}}, "mechanism.p"),
            ({"design": {"bias_arms": [["x", 0.5]]}}, "design.bias_arms"),
            ({"estimation": {"bootstrap_reps": [10]}}, "estimation.bootstrap_reps"),
            # grid entries: a nan floor is not solved and labelled, a
            # fractional size is not truncated, and text is refused by key
            ({"design": {"c_grid": [float("nan")]}}, "design.c_grid"),
            ({"design": {"c_grid": ["a"]}}, "design.c_grid"),
            ({"execution": {"n_grid": [2.5]}}, "execution.n_grid"),
            ({"execution": {"n_grid": ["x"]}}, "execution.n_grid"),
            ({"execution": {"n_grid": [0]}}, "execution.n_grid"),
            # integer fields are stored as ints, not truncated later
            ({"cohort": {"n": 2.5, "tau": 1.7},
              "execution": {"propensity_reps": 3.9, "seed": 1.5}}, "cohort.n"),
            # a quoted number is a string, not a float
            ({"mechanism": {"beta": "0.5"}}, "mechanism.beta"),
            # tuple entries take the integer rule of the scalar fields
            ({"execution": {"n_grid": [True]}}, "execution.n_grid"),
        ],
    )
    def test_bad_value_names_key(self, data, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            config_from_dict(data)

    # a block checks its ranges, and a RunConfig its cross-field rule, when
    # built: no unchecked config exists for a driver to read
    @pytest.mark.parametrize(
        "build, key",
        [
            (lambda: CohortConfig(n=0), "cohort.n"),
            (lambda: RunConfig(mechanism=MechanismConfig(alpha_target=(0.6, 0.4))),
             "mechanism.alpha_target"),
        ],
        ids=["block", "run"],
    )
    def test_direct_construction_is_checked(self, build, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            build()

    REMOVED_KEYS = [
        # negative entropy is the only regularizer, so there is no knob
        ("design.regularizer", "neg_entropy"),
        # library defaults that no experiment set otherwise; budgets are
        # always spread over the periods by QueueSpec.auto
        ("mechanism.budgets", [1000]),
        ("design.kappa", 1e-3),
        ("design.greedy_cap", 1.0),
        ("estimation.bins", 20),
        ("estimation.degree", 3),
        ("estimation.gamma", 0.01),
        ("estimation.estimators", ["dr_ate", "pliv", "iv_ratio"]),
    ]

    @pytest.mark.parametrize("key, value", REMOVED_KEYS, ids=[k for k, _ in REMOVED_KEYS])
    def test_removed_key_is_an_unknown_field(self, key, value):
        block, name = key.split(".")
        with pytest.raises(ConfigError, match=rf"^config key '{re.escape(key)}': unknown field$"):
            config_from_dict({block: {name: value}})

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("key", INTEGER_FIELDS)
    def test_integer_field_refuses_fractions_and_booleans(self, key, value):
        block, name = key.split(".")
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            config_from_dict({block: {name: value}})

    def test_unknown_block_rejected(self):
        with pytest.raises(ConfigError, match="simulation"):
            config_from_dict({"simulation": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match=r"cohort\.size"):
            config_from_dict({"cohort": {"size": 100}})

    def test_alpha_target_budget_identity(self):
        with pytest.raises(ConfigError, match=r"mechanism\.alpha_target"):
            config_from_dict({
                "mechanism": {"mode": "rationed", "alpha_target": [0.9, 0.9]},
            })

    def test_rationed_with_consistent_target_passes(self):
        cfg = config_from_dict({
            "mechanism": {"mode": "rationed", "alpha_target": [0.6, 0.4]},
        })
        assert cfg.mechanism.alpha_target == (0.6, 0.4)


class TestYamlLoading:
    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "cohort:\n  n: 500\n  psi: -0.05\n"
            "design:\n  objective: endogenous\n  c_grid: [0.1, 0.2]\n"
            "execution:\n  seed: 7\n  out_dir: results\n"
        )
        cfg = load_config(str(path))
        assert cfg.cohort.n == 500
        assert cfg.design.c_grid == (0.1, 0.2)
        assert cfg.execution.seed == 7
        assert cfg.execution.out_dir == "results"

    def test_missing_path_means_defaults(self):
        assert load_config(None) == RunConfig()

    def test_nested_lists_become_tuples(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("design:\n  bias_arms:\n  - [0.6, 0.0]\n  - [0.6, 0.5]\n")
        cfg = load_config(str(path))
        assert cfg.design.bias_arms == ((0.6, 0.0), (0.6, 0.5))


class TestOverrides:
    def test_overrides_apply(self):
        cfg = config_from_dict({})
        out = apply_overrides(cfg, seed=42, out_dir="elsewhere", threads=4)
        assert out.execution.seed == 42
        assert out.execution.out_dir == "elsewhere"
        assert out.execution.threads == 4
        # untouched blocks are preserved
        assert out.cohort == cfg.cohort

    def test_none_overrides_keep_config(self):
        cfg = config_from_dict({"execution": {"seed": 9}})
        assert apply_overrides(cfg).execution.seed == 9

    def test_invalid_override_is_caught(self):
        with pytest.raises(ConfigError, match=r"execution\.threads"):
            apply_overrides(config_from_dict({}), threads=0)

    def test_fractional_seed_override_is_refused(self):
        with pytest.raises(ConfigError, match=r"execution\.seed"):
            apply_overrides(config_from_dict({}), seed=1.5)


def conforms(value, hint) -> bool:
    """Whether ``value`` is exactly of the annotated type ``hint``."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union:
        return value is None or conforms(value, args[0])
    if tuple in (hint, typing.get_origin(hint)):
        if type(value) is not tuple:
            return False
        if args[-1] is Ellipsis:
            return all(conforms(v, args[0]) for v in value)
        return len(args) == len(value) and all(map(conforms, value, args))
    return type(value) is hint


class TestTypes:
    """Each block stores its fields as their annotations type them."""

    def test_integral_float_is_stored_as_int(self):
        n = config_from_dict({"cohort": {"n": 2000.0}}).cohort.n
        assert type(n) is int and n == 2000
        grid = config_from_dict({"execution": {"n_grid": [500.0, 1000]}}).execution.n_grid
        assert grid == (500, 1000) and all(type(g) is int for g in grid)

    def test_int_is_stored_as_float(self):
        assert type(config_from_dict({"cohort": {"psi": 0}}).cohort.psi) is float

    def test_yaml_ints_in_a_float_list_load_as_floats(self):
        cfg = load_config(str(REPO_ROOT / "configs" / "pareto_exogenous.yaml"))
        assert cfg.design.greedy_scales == (0.5, 1.0, 2.0, 4.0, 8.0)
        assert all(type(g) is float for g in cfg.design.greedy_scales)

    def test_shipped_configs_are_found(self):
        assert len(SHIPPED) == 9

    @pytest.mark.parametrize("path", [None] + SHIPPED, ids=lambda p: p and p.name)
    def test_every_field_has_its_declared_type(self, path):
        cfg = config_from_dict({}) if path is None else load_config(str(path))
        for block in dataclasses.fields(cfg):
            values = getattr(cfg, block.name)
            for f in dataclasses.fields(values):
                assert conforms(getattr(values, f.name), f.type), f"{block.name}.{f.name}"


class TestKnobCensus:
    """Every key is set away from its default by some experiment.

    The experiments are the shipped configs, the benchmark's configs and
    the byte-pinned configs; a key that none of them sets is a constant
    with a name, and every key doubles what the tests must cover.
    """

    def test_every_field_is_set_by_an_experiment(self):
        runs = [load_config(str(path)) for path in SHIPPED]
        runs += [config_from_dict(data) for _, data in PINNED.values()]
        default = RunConfig()
        unset = {
            f"{block.name}.{f.name}"
            for block in dataclasses.fields(RunConfig)
            for f in dataclasses.fields(block.type)
            if all(
                getattr(getattr(run, block.name), f.name)
                == getattr(getattr(default, block.name), f.name)
                for run in runs
            )
        }
        assert unset == set(ONE_VALUE_IN_USE)

    def test_the_census_reads_every_experiment(self):
        assert len(SHIPPED) + len(PINNED) == 21
        assert sum(len(dataclasses.fields(b.type)) for b in dataclasses.fields(RunConfig)) == 25


# every defaulted library parameter, and why its default stays
LIBRARY_DEFAULTS = {
    "cli.main(argv)": "the console script calls it bare, so it reads sys.argv",
    "cohorts.Cohort.arrival": "a bias draw's arrival is the grid its confounder orders",
    "cohorts.Cohort.confounder": "only partially linear cohorts record U",
    "cohorts.generate_bias_cohort(h)": "bias fixes h; estimate and pareto draw it",
    "config.apply_overrides(seed)": "None: --seed was not given",
    "config.apply_overrides(out_dir)": "None: --out was not given",
    "config.apply_overrides(threads)": "None: --threads was not given",
    "counterfactual.mc_propensities(forced)": "bench/tracer.py reads it",
    "design.DesignProblem.kappa": "bias.csv pins the endogenous kappa its exogenous solve keeps",
    "design.optimize_exogenous(x0)": "pareto_sweep warm-starts; a cold solve passes none",
    "design.optimize_endogenous(x0)": "pareto_sweep warm-starts; a cold solve passes none",
    "estimation.estimate_dr_ate(bootstrap_reps)":
        "bias passes None and estimate passes the config value",
    "estimation.estimate_dr_ate(seed)": "read only by the bootstrap, which estimate seeds",
    "mechanism.QueueSpec.alpha_target": "strict mode takes no target",
    "mechanism.QueueSpec.auto(alpha_target)": "strict mode takes no target",
    "mechanism.validate_policy(k)": "only mc_propensities knows the queue count to check",
}


def _defaulted(qualname: str, fn) -> set[str]:
    return {f"{qualname}({p.name})" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty}


def library_defaults() -> set[str]:
    """Each defaulted parameter of a public function or of a public method
    (classmethods too) of a public class, and each defaulted init field of a
    public dataclass in ``queuedesign``.  The config blocks' fields are keys,
    which ``TestKnobCensus`` holds."""
    found = set()
    for info in pkgutil.iter_modules(queuedesign.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"queuedesign.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found |= _defaulted(f"{info.name}.{name}", obj)
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if not attr.startswith("_") and inspect.isfunction(member):
                    found |= _defaulted(f"{info.name}.{name}.{attr}", member)
            if dataclasses.is_dataclass(obj) and info.name != "config":
                found |= {f"{info.name}.{name}.{f.name}" for f in dataclasses.fields(obj)
                          if f.init and (f.default is not dataclasses.MISSING
                                         or f.default_factory is not dataclasses.MISSING)}
    return found


class TestLibraryDefaultCensus:
    """A library default that no caller relies on is a knob no run sets."""

    def test_every_default_is_on_the_allow_list(self):
        assert library_defaults() == set(LIBRARY_DEFAULTS)
        assert len(LIBRARY_DEFAULTS) == 16
