"""Command line front end.

Four subcommands map onto the experiment drivers: ``pareto`` (frontier +
uncertainty bands), ``bias`` (fixed-design endogeneity study),
``check-propensity`` (MC propensities vs. the closed form), ``estimate``
(one simulated allocation through every configured estimator).

Exit-code policy: configuration and I/O problems exit nonzero; statistical
preconditions that fail inside a run (instrument relevance, positivity) are
recorded in the CSV status column and exit 0 — a degenerate design is a
result, not a crash.  Floats are serialized with %.9g so reruns with the
same config and seed produce byte-identical files at any --threads value.

Status cells (each failure is the ``status`` of a ``queuedesign.errors`` type):
  ok                   pareto, estimate: the row was computed
  not_converged        pareto: the design solve stopped short of its tolerance;
                       the row keeps the returned policy's numbers
  infeasible           pareto: the utility floor is above the achievable range
  boundary_propensity  pareto, exogenous lens: a propensity sits on {0, 1}
  relevance_error      pareto, endogenous lens; estimate: PLIV, IV ratio
  positivity_error     estimate: DR propensities outside [gamma, 1 - gamma]
  precondition_error   estimate: any other failed estimator precondition, or
                       a nuisance fit the data cannot support (DR, PLIV)
"""

from __future__ import annotations

import functools
import os

import click
import numpy as np
import yaml

from . import experiments
from .config import ConfigError, RunConfig, apply_overrides, load_config


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.9g" % float(value)
    return str(value)


def write_csv(path: str, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _load(config_path, seed, out_dir, threads) -> RunConfig:
    try:
        cfg = load_config(config_path)
        return apply_overrides(cfg, seed=seed, out_dir=out_dir, threads=threads)
    except (ConfigError, yaml.YAMLError, OSError) as err:
        raise click.ClickException(str(err)) from err


def _run(driver, outputs, config_path, seed, out_dir, threads):
    """Load the config, run the driver, and write one CSV per output table."""
    cfg = _load(config_path, seed, out_dir, threads)
    try:
        result = driver(cfg)
    except ValueError as err:
        raise click.ClickException(str(err)) from err
    tables = result if len(outputs) > 1 else (result,)
    os.makedirs(cfg.execution.out_dir, exist_ok=True)
    for (name, columns), rows in zip(outputs, tables):
        path = os.path.join(cfg.execution.out_dir, name)
        write_csv(path, columns, rows)
        click.echo(f"{path}: {len(rows)} rows")


# name, driver, (file, columns) per output table, help summary
_COMMANDS = (
    ("pareto", experiments.run_pareto,
     (("frontier.csv", experiments.FRONTIER_COLUMNS), ("bands.csv", experiments.BANDS_COLUMNS)),
     "Sweep utility floors and heuristics; write frontier.csv and bands.csv."),
    ("bias", experiments.run_bias, (("bias.csv", experiments.BIAS_COLUMNS),),
     "Run the fixed-design endogeneity bias study; write bias.csv."),
    ("check-propensity", experiments.run_propensity_check,
     (("propensity.csv", experiments.PROPENSITY_COLUMNS),),
     "Compare MC propensities with the closed form; write propensity.csv."),
    ("estimate", experiments.run_estimate, (("estimates.csv", experiments.ESTIMATES_COLUMNS),),
     "Simulate one allocation and run the configured estimators; write estimates.csv."),
)


def _command(name, driver, outputs, summary) -> click.Command:
    options = [
        click.Option(["--config", "config_path"], type=click.Path(exists=True, dir_okay=False),
                     default=None, help="YAML run configuration (defaults apply if omitted)."),
        click.Option(["--seed"], type=int, default=None, help="Root seed override."),
        click.Option(["--out", "out_dir"], type=click.Path(file_okay=False), default=None,
                     help="Output directory for CSV files (default from config)."),
        click.Option(
            ["--threads"], type=int, default=None,
            help="Worker processes for replication loops (output is identical at any value).",
        ),
    ]
    return click.Command(
        name, callback=functools.partial(_run, driver, outputs), params=options, help=summary
    )


@click.group(commands=[_command(*spec) for spec in _COMMANDS])
def main():
    """Priority-queue experiment designs and their estimators."""
