"""The experiments' CSV bytes at small configs, pinned by sha256.

The shipped CSVs are very sensitive to the design solver: stopping its
bisection a few steps early moves a band bound in the 9th significant
digit.  These configs are small enough to run in a few seconds but still
go through warm-started design solves under both objectives and both
regularizers (k = 2 and k = 3), bootstrap bands, rationed bias
replications through both estimators, the forced counterfactual map, and
an estimate run whose status cells read ``positivity_error``,
``relevance_error`` and ``ok``.  A hash changes only when the written bytes
change, so a failure here means a change moved the paper's numbers or
relabelled a failure.

The hashes were recorded by running ``csv_digests`` on the code before the
bit-exact speed-ups of the design solve and the bias replications
(the bisection's fixed-point exit, the column-wise row reductions and the
single sort per cohort); the estimate hash on the code before failure
statuses became exception types, when they were read from message text;
the default-grid hash on the code that still built the default arms as the
product of two separate alpha-top and floor-fraction lists.
"""

import hashlib

import pytest

from queuedesign import experiments
from queuedesign.cli import write_csv
from queuedesign.config import config_from_dict

_SMALL_PARETO = {
    "cohort": {"n": 300},
    "design": {"c_grid_size": 4, "switch_strengths": [0.5], "greedy_scales": [1.0, 4.0]},
    "estimation": {"bootstrap_reps": 200},
}

CONFIGS = {
    "pareto_exogenous_k2": ("run_pareto", {
        **_SMALL_PARETO,
        "execution": {"seed": 3},
    }),
    "pareto_endogenous_k3": ("run_pareto", {
        **_SMALL_PARETO,
        "mechanism": {"k": 3, "p": [0.3, 0.3, 0.4], "beta": 0.5},
        "design": {**_SMALL_PARETO["design"], "objective": "endogenous"},
        "execution": {"seed": 11},
    }),
    "pareto_exogenous_k3_l2": ("run_pareto", {
        **_SMALL_PARETO,
        "mechanism": {"k": 3, "p": [0.25, 0.35, 0.4], "beta": 0.4},
        "design": {**_SMALL_PARETO["design"], "regularizer": "l2_to_p"},
        "execution": {"seed": 5},
    }),
    "bias": ("run_bias", {
        "cohort": {"n": 400, "tau": 1, "psi": -0.1, "dgp": "partially_linear"},
        "design": {"bias_arms": [[0.6, 0.0], [0.6, 0.8], [0.9, 0.5]]},
        "execution": {"seed": 505, "bias_replications": 20},
    }),
    # no bias_arms: the default nine-arm grid, alpha-major
    "bias_default_grid": ("run_bias", {
        "cohort": {"n": 400, "tau": 1, "psi": -0.1, "dgp": "partially_linear"},
        "execution": {"seed": 505, "bias_replications": 20},
    }),
    "propensity_strict_k3": ("run_propensity_check", {
        "cohort": {"n": 200, "tau": 6},
        "mechanism": {"k": 3, "p": [0.3, 0.3, 0.4], "beta": 0.5},
        "execution": {"seed": 606, "n_grid": [150], "propensity_reps": 20,
                      "treated_mass_reps": 5},
    }),
    # beta = 0.005 puts every propensity below gamma (positivity_error), and a
    # relevance floor above the instrument variance fails PLIV
    # (relevance_error); the raw ratio still reads ok
    "estimate_mixed_status": ("run_estimate", {
        "cohort": {"n": 400},
        "mechanism": {"beta": 0.005},
        "estimation": {"bootstrap_reps": 200, "relevance_floor": 1e-4},
        "execution": {"seed": 7},
    }),
}

OUTPUTS = {
    "run_pareto": (("frontier.csv", "FRONTIER_COLUMNS"), ("bands.csv", "BANDS_COLUMNS")),
    "run_bias": (("bias.csv", "BIAS_COLUMNS"),),
    "run_propensity_check": (("propensity.csv", "PROPENSITY_COLUMNS"),),
    "run_estimate": (("estimates.csv", "ESTIMATES_COLUMNS"),),
}

EXPECTED = {
    "bias": {
        "bias.csv": "89af952e0be21efa471e76fc233b421b4c5d20d96aa7706ec4f5cc2abe5e271b",
    },
    "bias_default_grid": {
        "bias.csv": "adea0163a8dd7f97f39c97ee49861b8dfb0903afad1002295ccb8007409c39a4",
    },
    "estimate_mixed_status": {
        "estimates.csv": "221c2576fce4d8dfff4f992bf17c82f10379952d5c95160ca63dd0d5226bf7d6",
    },
    "pareto_endogenous_k3": {
        "frontier.csv": "042eb82361c2a02fa126e72efeed969356f8c8b2cb755a1f09ecfefc4b291c8c",
        "bands.csv": "5d20f236d9ba0c26e57c5cc0053613a559e2acd52d941174b446a30cc4658999",
    },
    "pareto_exogenous_k2": {
        "frontier.csv": "2da84132e7b28cb70ec97e8c679f7805d3f65a49845bbc63520c14daae30a036",
        "bands.csv": "8d52ab9e5f5136abe7f27423e68f71987a9b9a7b14f165990749066179c5fc2e",
    },
    "pareto_exogenous_k3_l2": {
        "frontier.csv": "b6c3017f7480a3fa33506e6c4e6d6e3687d19d83ff57e492bedc0b0518f7750e",
        "bands.csv": "3e074975ef45778b1039edebe762d4d6b0e1119dc18d4026862581c6731de5cd",
    },
    "propensity_strict_k3": {
        "propensity.csv": "75e9f35581d56e283a2bdc0e7a77ead7053f4d64633d8c38c0bd875065ab1efd",
    },
}


def csv_digests(name, out_dir):
    """Run config ``name`` through its ``experiments.run_*`` function and
    ``write_csv``; return the sha256 of each CSV written into ``out_dir``."""
    run, data = CONFIGS[name]
    result = getattr(experiments, run)(config_from_dict(data))
    outputs = OUTPUTS[run]
    tables = result if len(outputs) > 1 else (result,)
    digests = {}
    for (file_name, columns), rows in zip(outputs, tables):
        path = out_dir / f"{name}-{file_name}"
        write_csv(str(path), getattr(experiments, columns), rows)
        digests[file_name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_bytes_match_recorded_hashes(name, tmp_path):
    assert csv_digests(name, tmp_path) == EXPECTED[name]
