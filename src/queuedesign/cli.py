"""Command line front end.

Four subcommands map onto the experiment drivers: ``pareto`` (frontier +
uncertainty bands), ``bias`` (fixed-design endogeneity study),
``check-propensity`` (MC propensities vs. the closed form), ``estimate``
(one simulated allocation through each of the three estimators).

Exit codes: 0 when the CSVs are written; 1 for a configuration, I/O or
driver error, printed as ``Error: ...``; 2 for a usage error.  Statistical
preconditions that fail inside a run are a result, not a crash: they are
written to the CSV ``status`` column (README's CLI section lists the cells;
each is the ``status`` of a ``queuedesign.errors`` type) and exit 0.
Floats are serialized with %.9g so reruns with the same config and seed
produce byte-identical files at any --threads value.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import yaml

from . import experiments
from .config import apply_overrides, load_config


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


def _run(args):
    """Load the config, run the driver, and write one CSV per output table."""
    try:
        cfg = apply_overrides(load_config(args.config), seed=args.seed, out_dir=args.out,
                              threads=args.threads)
        result = args.driver(cfg)
        tables = result if len(args.outputs) > 1 else (result,)
        os.makedirs(cfg.execution.out_dir, exist_ok=True)
        for (name, columns), rows in zip(args.outputs, tables):
            path = os.path.join(cfg.execution.out_dir, name)
            write_csv(path, columns, rows)
            print(f"{path}: {len(rows)} rows")
    except (ValueError, yaml.YAMLError, OSError) as err:  # ConfigError is a ValueError
        sys.exit(f"Error: {err}")


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
     "Simulate one allocation and run the three estimators; write estimates.csv."),
)


def _existing_file(path: str) -> str:
    if not os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"{path!r} is not an existing file")
    return path


def _directory(path: str) -> str:
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is not a directory")
    return path


def main(argv=None):
    """Parse ``argv`` (default: the process arguments) and run one command."""
    parser = argparse.ArgumentParser(
        prog="queuedesign", allow_abbrev=False,
        description="Priority-queue experiment designs and their estimators.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, driver, outputs, summary in _COMMANDS:
        command = commands.add_parser(name, help=summary, description=summary,
                                      allow_abbrev=False)
        command.add_argument("--config", type=_existing_file, metavar="FILE",
                             help="YAML run configuration (defaults apply if omitted).")
        command.add_argument("--seed", type=int, metavar="INTEGER", help="Root seed override.")
        command.add_argument("--out", type=_directory, metavar="DIRECTORY",
                             help="Output directory for CSV files (default from config).")
        command.add_argument(
            "--threads", type=int, metavar="INTEGER",
            help="Worker processes for replication loops (output is identical at any value).",
        )
        command.set_defaults(driver=driver, outputs=outputs)
    _run(parser.parse_args(argv))
