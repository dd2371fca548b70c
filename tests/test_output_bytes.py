"""The experiments' CSV bytes at small configs, pinned by sha256.

The shipped CSVs are very sensitive to the design solver: stopping its
bisection a few steps early moves a band bound in the 9th significant
digit.  These configs are small enough to run in a few seconds but still
go through warm-started design solves under both objectives (k = 2 and
k = 3), bootstrap bands, rationed bias replications through both
estimators, the forced counterfactual map, and an estimate run whose
status cells read ``positivity_error``, ``relevance_error`` and ``ok``, and
estimate runs whose nuisances are fit on a split (binned at k = 2 strict,
polynomial at k = 3 rationed).  The propensity check, the estimate run and
the frontier are each pinned under both service disciplines: strict
priority and rationed shares (k = 3, alpha target 0.9/0.5/0.2).  A hash
changes only when the written bytes change, so a failure here means a
change moved the paper's numbers or relabelled a failure.

The hashes were recorded by running ``csv_digests`` on the code before the
bit-exact speed-ups of the design solve and the bias replications
(the bisection's fixed-point exit, the column-wise row reductions and the
single sort per cohort); the estimate hash on the code before failure
statuses became exception types, when they were read from message text;
the default-grid hash on the code that still built the default arms as the
product of two separate alpha-top and floor-fraction lists; the three
rationed propensity, estimate and frontier hashes on the code that still
chose the discipline's alpha and shares in each driver; the two split-fit
estimate hashes on the code whose nuisances were still functions of h; the
k = 3 exogenous frontier hashes on the code that still offered a quadratic
regularizer beside the default negative entropy.

The hashes hold for the CPU dispatch they were recorded under: OpenBLAS's
``SkylakeX`` kernels and numpy's AVX-512 loops.  Forcing
``OPENBLAS_CORETYPE=Haswell`` or ``Prescott``, or switching numpy's AVX-512
targets off, changes 3 or 4 of the 12 pins, so a mismatch prints the
recorded dispatch beside the one this process runs.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest

from queuedesign import experiments
from queuedesign.cli import write_csv
from queuedesign.config import config_from_dict

_RATIONED_K3 = {
    "k": 3, "p": [0.3, 0.3, 0.4], "beta": 0.5,
    "mode": "rationed", "alpha_target": [0.9, 0.5, 0.2],
}

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
    "pareto_exogenous_k3": ("run_pareto", {
        **_SMALL_PARETO,
        "mechanism": {"k": 3, "p": [0.25, 0.35, 0.4], "beta": 0.4},
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
    "propensity_rationed_k3": ("run_propensity_check", {
        "cohort": {"n": 200, "tau": 6},
        "mechanism": _RATIONED_K3,
        "execution": {"seed": 606, "n_grid": [150], "propensity_reps": 20,
                      "treated_mass_reps": 5},
    }),
    "estimate_rationed": ("run_estimate", {
        "cohort": {"n": 400, "tau": 4},
        "mechanism": _RATIONED_K3,
        "estimation": {"bootstrap_reps": 200},
        "execution": {"seed": 7},
    }),
    "pareto_rationed": ("run_pareto", {
        **_SMALL_PARETO,
        "mechanism": _RATIONED_K3,
        "design": {**_SMALL_PARETO["design"], "c_grid_size": 3},
        "execution": {"seed": 13},
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
    # nuisances fit on one half of the units, estimates on the other
    "estimate_binned": ("run_estimate", {
        "cohort": {"n": 400},
        "estimation": {"nuisance_method": "binned", "bootstrap_reps": 200},
        "execution": {"seed": 7},
    }),
    "estimate_polynomial_rationed": ("run_estimate", {
        "cohort": {"n": 400, "tau": 4},
        "mechanism": _RATIONED_K3,
        "estimation": {"nuisance_method": "polynomial", "bootstrap_reps": 200},
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
    "estimate_rationed": {
        "estimates.csv": "bcf9bca8a435b8067eb9dc0ecaeb3bbd24a1ece863ef1fb685b51a441ce63d0f",
    },
    "estimate_binned": {
        "estimates.csv": "7d66239acb7f7c63271047ed67103b19bad3e19572f8de0afe3e2b07706d75f5",
    },
    "estimate_polynomial_rationed": {
        "estimates.csv": "06c7a1f9fe985b0ca9bc4505c695910a3b1b48a27da7bf137c83bfe15b92bd5c",
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
    "pareto_exogenous_k3": {
        "frontier.csv": "1e3744e98e33fd44d784c54fd916db79c6f0431b1953fbcecd581a51dd9a036d",
        "bands.csv": "0f42995783d136af15448ee596419f038901fd77f0a648eee6bbe20172a094bd",
    },
    "pareto_rationed": {
        "frontier.csv": "3e376c8683f9be4c04822cd46278fe94671764cf8c8e2b6d857f6195c503ade5",
        "bands.csv": "cb344d31292967d93d2966448c68f2df319cc50f643487fcc271e62796a28486",
    },
    "propensity_rationed_k3": {
        "propensity.csv": "154bca9d8b647baee3cd033b8ee4809b84be06a75241c1d8dca7055c40e375e9",
    },
    "propensity_strict_k3": {
        "propensity.csv": "75e9f35581d56e283a2bdc0e7a77ead7053f4d64633d8c38c0bd875065ab1efd",
    },
}


RECORDED_DISPATCH = {
    "openblas_core": "SkylakeX",
    # numpy's baseline, then the dispatch targets the CPU enabled; X86_V4,
    # AVX512_ICL and AVX512_SPR are its AVX-512 loops
    "numpy_simd": ("X86_V2", "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
}


def dispatch_note():
    """The dispatch the bytes were recorded under beside the one seen here."""
    return f"recorded under {RECORDED_DISPATCH}, running under {cpu_dispatch()}"


def cpu_dispatch():
    """The OpenBLAS core and the numpy SIMD targets this process runs.

    Either reads "unknown" when numpy's bundled OpenBLAS, its core-name
    symbol or numpy's CPU feature table is absent.
    """
    core = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        core = corename().decode()
        break
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__,
        )
    except ImportError:
        return {"openblas_core": core, "numpy_simd": ("unknown",)}
    enabled = tuple(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return {"openblas_core": core, "numpy_simd": tuple(__cpu_baseline__) + enabled}


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
    assert csv_digests(name, tmp_path) == EXPECTED[name], dispatch_note()


def test_dispatch_reader_names_core_and_features():
    seen = cpu_dispatch()
    assert isinstance(seen["openblas_core"], str) and seen["openblas_core"]
    assert isinstance(seen["numpy_simd"], tuple) and seen["numpy_simd"]
    assert all(isinstance(t, str) for t in seen["numpy_simd"])
