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
  infeasible           pareto: the utility floor is above the achievable range
  boundary_propensity  pareto, exogenous lens: a propensity sits on {0, 1}
  relevance_error      pareto, endogenous lens; estimate: PLIV, IV ratio
  positivity_error     estimate: DR propensities outside [gamma, 1 - gamma]
  precondition_error   estimate: any other failed estimator precondition
"""

from __future__ import annotations

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


def _out_path(cfg: RunConfig, name: str) -> str:
    out = cfg.execution.out_dir
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _common_options(fn):
    fn = click.option(
        "--threads", type=int, default=None,
        help="Worker processes for replication loops (output is identical at any value).",
    )(fn)
    fn = click.option(
        "--out", "out_dir", type=click.Path(file_okay=False), default=None,
        help="Output directory for CSV files (default from config).",
    )(fn)
    fn = click.option(
        "--seed", type=int, default=None, help="Root seed override.",
    )(fn)
    fn = click.option(
        "--config", "config_path", type=click.Path(exists=True, dir_okay=False),
        default=None, help="YAML run configuration (defaults apply if omitted).",
    )(fn)
    return fn


@click.group()
def main():
    """Priority-queue experiment designs and their estimators."""


@main.command()
@_common_options
def pareto(config_path, seed, out_dir, threads):
    """Sweep utility floors and heuristics; write frontier.csv and bands.csv."""
    cfg = _load(config_path, seed, out_dir, threads)
    try:
        frontier, bands = experiments.run_pareto(cfg)
    except ValueError as err:
        raise click.ClickException(str(err)) from err
    f_path = _out_path(cfg, "frontier.csv")
    b_path = _out_path(cfg, "bands.csv")
    write_csv(f_path, experiments.FRONTIER_COLUMNS, frontier)
    write_csv(b_path, experiments.BANDS_COLUMNS, bands)
    click.echo(f"{f_path}: {len(frontier)} rows")
    click.echo(f"{b_path}: {len(bands)} rows")


@main.command()
@_common_options
def bias(config_path, seed, out_dir, threads):
    """Run the fixed-design endogeneity bias study; write bias.csv."""
    cfg = _load(config_path, seed, out_dir, threads)
    try:
        rows = experiments.run_bias(cfg)
    except ValueError as err:
        raise click.ClickException(str(err)) from err
    path = _out_path(cfg, "bias.csv")
    write_csv(path, experiments.BIAS_COLUMNS, rows)
    click.echo(f"{path}: {len(rows)} rows")


@main.command("check-propensity")
@_common_options
def check_propensity(config_path, seed, out_dir, threads):
    """Compare MC propensities with the closed form; write propensity.csv."""
    cfg = _load(config_path, seed, out_dir, threads)
    try:
        rows = experiments.run_propensity_check(cfg)
    except ValueError as err:
        raise click.ClickException(str(err)) from err
    path = _out_path(cfg, "propensity.csv")
    write_csv(path, experiments.PROPENSITY_COLUMNS, rows)
    click.echo(f"{path}: {len(rows)} rows")


@main.command()
@_common_options
def estimate(config_path, seed, out_dir, threads):
    """Simulate one allocation and run the configured estimators; write estimates.csv."""
    cfg = _load(config_path, seed, out_dir, threads)
    try:
        rows = experiments.run_estimate(cfg)
    except ValueError as err:
        raise click.ClickException(str(err)) from err
    path = _out_path(cfg, "estimates.csv")
    write_csv(path, experiments.ESTIMATES_COLUMNS, rows)
    click.echo(f"{path}: {len(rows)} rows")
