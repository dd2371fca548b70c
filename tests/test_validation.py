"""Range checks refuse NaN.

A NaN fails every comparison, so a check written ``any(x < a) or any(x > b)``
lets it through; each check here is written as negated comparisons, and each
row hands one of them a NaN.
"""

import numpy as np
import pytest

from queuedesign.cohorts import Cohort, generate_bias_cohort, generate_cohort
from queuedesign.design import DesignProblem
from queuedesign.errors import BoundaryPropensity
from queuedesign.estimation import dr_variance_terms
from queuedesign.mechanism import QueueSpec
from queuedesign.propensity import AlphaVector, alpha_vector

NAN = float("nan")


def cohort(h=(0.5, 0.5), arrival=(0.2, 0.4)):
    return Cohort(h=np.array(h), arrival=np.array(arrival), y0=np.zeros(2), y1=np.zeros(2),
                  tau=1, dgp_tag="bernoulli")


ROWS = {
    "cohort h": (lambda: cohort(h=(0.5, NAN)), ValueError, "risk scores"),
    "cohort arrival": (lambda: cohort(arrival=(0.2, NAN)), ValueError, "arrival times"),
    "bernoulli psi": (lambda: generate_cohort(5, 1, psi=NAN, seed=0), ValueError, r"h \+ psi"),
    "bias h": (lambda: generate_bias_cohort(2, 1, -0.1, seed=0, h=np.array([0.5, NAN])),
               ValueError, "risk scores"),
    "design utilities": (
        lambda: DesignProblem(utilities=np.array([0.3, NAN, 0.6]),
                              alpha=alpha_vector(0.5, np.array([0.5, 0.5])),
                              utility_floor=0.0, objective="exogenous"),
        ValueError, "utilities"),
    "strict spec p": (lambda: QueueSpec(k=2, p=np.array([NAN, NAN]), beta=0.5, tau=1,
                                        budgets=np.array([1]), mode="strict"),
                      ValueError, "queue shares"),
    "rationed spec p": (lambda: QueueSpec(k=2, p=np.array([NAN, NAN]), beta=0.5, tau=1,
                                          budgets=np.array([1]), mode="rationed",
                                          alpha_target=np.array([0.7, 0.3])),
                        ValueError, "queue shares"),
    "alpha vector p": (lambda: AlphaVector(alpha=np.array([0.5, 0.5]), beta=0.5,
                                           p=np.array([NAN, NAN])),
                       ValueError, "probability vector"),
    "alpha vector range": (lambda: AlphaVector(alpha=np.array([NAN, 0.5]), beta=0.5,
                                               p=np.array([0.5, 0.5])),
                           ValueError, "alpha entries"),
    "alpha vector order": (lambda: AlphaVector(alpha=np.array([0.5, NAN]), beta=0.5,
                                               p=np.array([0.5, 0.5])),
                           ValueError, "alpha"),
    "water-filling p": (lambda: alpha_vector(0.5, np.array([NAN, NAN])),
                        ValueError, "probability vector"),
    "dr propensities": (lambda: dr_variance_terms(np.array([[0.5, 0.5], [NAN, 0.5]]),
                                                  alpha_vector(0.5, np.array([0.5, 0.5])),
                                                  np.ones(2), np.ones(2), np.zeros(2)),
                        BoundaryPropensity, "boundary"),
}


@pytest.mark.parametrize("name", list(ROWS))
def test_range_check_refuses_nan(name):
    build, error, match = ROWS[name]
    with pytest.raises(error, match=match):
        build()
