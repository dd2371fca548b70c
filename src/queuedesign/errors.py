"""Failures a run records as a CSV status instead of a crash.

A design that breaks overlap or instrument relevance is a finding, so the
drivers catch these types and write ``err.status`` into the row.  Each
subclasses ``ValueError``, so callers that catch ``ValueError`` see no change.
"""


class RunFailure(ValueError):
    """A statistical precondition failed inside a run."""

    status = "precondition_error"


class InfeasibleFloor(RunFailure):
    """The utility floor lies above what any policy achieves."""

    status = "infeasible"


class BoundaryPropensity(RunFailure):
    """A propensity sits on {0, 1}, so the DR variance is undefined."""

    status = "boundary_propensity"


class RelevanceError(RunFailure):
    """The queue instrument carries no variation."""

    status = "relevance_error"


class PositivityError(RunFailure):
    """Some propensity lies outside [gamma, 1 - gamma]."""

    status = "positivity_error"


class NotConverged(RunFailure):
    """The design solve stopped short of its KKT tolerance.

    Never raised: the frontier row keeps the returned policy's numbers and
    writes this status in place of ``ok``.
    """

    status = "not_converged"
