"""Constrained policy design: variance objectives under utility floors.

Two convex programs over row-stochastic policies theta with column means
pinned to the queue shares p and a floor on decision-maker utility
(1/n) sum_i u_i * pi_i >= c, where pi_i = alpha . theta_i:

* exogenous:  minimize (1/n) sum_i [1/pi_i + 1/(1-pi_i)] + kappa*R(theta)
  (the overlap penalty driving the doubly robust variance), convex in theta;
* endogenous: maximize (1/n) sum_i [sum_k alpha_k^2 theta_ik - pi_i^2]
  - kappa*R(theta) (the expected conditional instrument variance), concave.

R(theta) = sum_ik theta_ik log theta_ik is the negative entropy.  Both are
solved in the dual: for fixed multipliers (lambda for the utility floor, nu
for the column constraints) the Lagrangian separates across units, and each
per-unit subproblem reduces to a one-dimensional monotone root find along
R's mirror path, a softmax.  The dual is maximized with L-BFGS-B and
polished by a damped Newton step on the KKT residuals.

The reported ``objective_value`` is always the *unregularized* objective of
the returned policy; kappa only selects among near-optimal policies.  Any
constant rescaling of the nuisance uncertainty bound multiplies the
objective but never moves the argmin, so no such bound appears here.

scipy.optimize is imported inside ``_solve``, so commands that solve no
design (check-propensity, estimate) never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._bitexact import PAIRWISE_MIN, row_sum
from .errors import InfeasibleFloor
from .propensity import AlphaVector, instrument_variance
from .policies import assortative_policy

OBJECTIVES = ("exogenous", "endogenous")

_PI_EPS = 1e-8  # clamp for 1/pi + 1/(1-pi) when alpha touches {0, 1}
CONSTRAINT_TOL = 1e-6  # column-mean and utility-floor feasibility
DUAL_TOL = 1e-6  # KKT residual a converged solve reaches
MAX_ITERS = 500  # L-BFGS-B iterations on the dual


# ---------------------------------------------------------------------------
# problem statement
# ---------------------------------------------------------------------------


def feasible_utility_range(utilities: np.ndarray, alpha: AlphaVector) -> tuple[float, float]:
    """Extremal achievable utilities over policies with column means alpha.p.

    The utility functional is linear with a rank-one coefficient u_i*alpha_k,
    so its extrema over the transportation polytope are the two assortative
    assignments (rearrangement inequality): matching high u to high alpha
    maximizes, matching high u to low alpha minimizes.
    """
    u = np.asarray(utilities, dtype=float)
    a = alpha.alpha
    hi = assortative_policy(u, alpha.p, best_first=True)
    lo = assortative_policy(u, alpha.p, best_first=False)
    return float(np.mean(u * (lo @ a))), float(np.mean(u * (hi @ a)))


@dataclass(frozen=True)
class DesignProblem:
    """One instance of the constrained design program.

    The policy's column means are pinned to the queue shares ``alpha.p``.
    """

    utilities: np.ndarray
    alpha: AlphaVector
    utility_floor: float
    objective: str
    kappa: Optional[float] = None

    def __post_init__(self):
        u = np.asarray(self.utilities, dtype=float)
        object.__setattr__(self, "utilities", u)
        if u.ndim != 1 or u.shape[0] < 1:
            raise ValueError("utilities must be a nonempty vector")
        if not (np.all(u > 0.0) and np.all(u < 1.0)):
            raise ValueError("utilities must lie strictly inside (0, 1)")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.kappa is None:
            object.__setattr__(self, "kappa", default_kappa(self))
        if not (self.kappa > 0.0):
            raise ValueError("kappa must be positive (strict convexity)")

    @property
    def p(self) -> np.ndarray:
        return self.alpha.p

    @property
    def k(self) -> int:
        return self.p.shape[0]

    @property
    def beta(self) -> float:
        return self.alpha.beta

    @property
    def c_rct(self) -> float:
        """Utility of the uniform policy: beta * mean(u)."""
        return float(self.beta * self.utilities.mean())

    def utility_range(self) -> tuple[float, float]:
        return feasible_utility_range(self.utilities, self.alpha)


def default_kappa(problem: DesignProblem) -> float:
    """1e-3 times the objective scale at the uniform policy theta = p.

    Small enough not to move the frontier visibly, large enough that the
    regularized inner problems are strictly convex with a unique optimum.
    """
    if problem.objective == "exogenous":
        scale = float(_overlap(problem.alpha.alpha @ problem.p))
    else:
        scale = float(instrument_variance(problem.p, problem.alpha))
    return 1e-3 * max(scale, 1e-3)


@dataclass(frozen=True)
class DesignSolution:
    """Optimized policy with duals and convergence diagnostics."""

    problem: DesignProblem
    policy: np.ndarray
    objective_value: float
    achieved_utility: float
    lam: float
    nu: np.ndarray
    converged: bool
    iterations: int

    def __post_init__(self):
        prob = self.problem
        col_dev = np.max(np.abs(self.policy.mean(axis=0) - prob.p))
        if col_dev > CONSTRAINT_TOL:
            raise ValueError(f"column means deviate from p by {col_dev:.2e} > {CONSTRAINT_TOL:.0e}")
        if self.achieved_utility < prob.utility_floor - CONSTRAINT_TOL:
            raise ValueError("solution violates its utility floor")
        if self.lam < -1e-12:
            raise ValueError("utility multiplier must be nonnegative")
        slack = abs(self.lam * (prob.utility_floor - self.achieved_utility))
        if slack > max(DUAL_TOL, 10 * CONSTRAINT_TOL):
            raise ValueError(f"complementary slackness violated: {slack:.2e}")

    @property
    def kkt_residual(self) -> float:
        prob = self.problem
        col_dev = float(np.max(np.abs(self.policy.mean(axis=0) - prob.p)))
        floor_violation = max(0.0, prob.utility_floor - self.achieved_utility)
        slack = abs(self.lam * (prob.utility_floor - self.achieved_utility))
        return max(col_dev, floor_violation, slack, -min(self.lam, 0.0))


# ---------------------------------------------------------------------------
# per-unit inner problems
# ---------------------------------------------------------------------------


_EXP_UNDERFLOW = -746.0  # np.exp is exactly 0.0 at and below this input


def _mirror_policy(vt: np.ndarray, kappa: float, out: np.ndarray, row: np.ndarray) -> np.ndarray:
    """argmin over simplex rows of kappa*R(theta) - v.theta: the softmax of v/kappa.

    ``vt`` is v by columns, a C-contiguous (k, n) array, and is overwritten;
    theta is written to the C-contiguous (n, k) ``out``, and ``row`` is an
    (n,) scratch vector.  Every row sees the operations of the axis=1
    softmax in the same order: max is exact, the elementwise ops round each
    result on their own, and numpy adds a row of fewer than 8 terms left to
    right (longer rows keep the pairwise axis=1 sum).  Lanes below -746 are
    zeroed by masking their bits before and after ``np.exp``: exp gives them
    0.0 too, but through a slow path, and its value in every other lane does
    not depend on its neighbours or its offset in the array.
    """
    k = vt.shape[0]
    x = np.divide(vt, kappa, out=vt)
    row[...] = x[0]  # the row max
    for xj in x[1:]:
        np.maximum(row, xj, out=row)
    x -= row
    # the bit mask lives in out until the division overwrites it
    keep = out.view(np.int64).reshape(x.shape)
    np.less(x, _EXP_UNDERFLOW, out=keep)
    keep -= 1  # all ones where exp is kept, 0 where it underflows
    bits = x.view(np.int64)
    bits &= keep
    np.exp(x, out=x)
    bits &= keep
    if k >= PAIRWISE_MIN:
        out[...] = x.T
        return np.divide(out, out.sum(axis=1, keepdims=True), out=out)
    row[...] = x[0]  # the row sum
    for xj in x[1:]:
        row += xj
    for j in range(k):
        np.divide(x[j], row, out=out[:, j])
    return out


def _inner_solve(
    w: np.ndarray, alpha: np.ndarray, kappa: float, phi_prime: Callable[[np.ndarray], np.ndarray]
):
    """Minimize phi(alpha.theta) + kappa*R(theta) - w.theta per row.

    Substituting theta(eta) = argmin kappa*R - (w + eta*alpha).theta turns
    the first-order condition into the scalar equation eta + phi'(s(eta))=0
    with s(eta) = alpha.theta(eta) nondecreasing, so the left side is
    strictly increasing and a vectorized bisection is exact and safe.
    ``phi_prime`` may overwrite its argument.

    The bisection stops early once a step leaves every bracket bit for bit
    unchanged: the same (lo, hi) then gives the same midpoint and the same
    step forever, so the result equals that of all 100 steps.  Adjacent
    brackets are not such a point, since hi can still move onto lo.  At that
    exit the returned eta, 0.5 * (lo + hi), is the last midpoint, so its
    theta is already in the buffer and only s = theta @ alpha is recomputed
    (phi' overwrote the last s).
    """
    n, k = w.shape
    wt = np.ascontiguousarray(w.T)
    vt = np.empty((k, n))
    theta = np.empty((n, k))
    row = np.empty(n)

    def s_of(eta):
        np.multiply(alpha[:, None], eta, out=vt)
        np.add(vt, wt, out=vt)
        return _mirror_policy(vt, kappa, theta, row) @ alpha

    def g(eta):
        dphi = phi_prime(s_of(eta))
        return np.add(eta, dphi, out=dphi)

    lo = np.full(n, -4.0)
    hi = np.full(n, 4.0)
    for _ in range(40):
        need = g(lo) > 0.0
        if not need.any():
            break
        lo[need] *= 4.0
    for _ in range(40):
        need = g(hi) < 0.0
        if not need.any():
            break
        hi[need] *= 4.0
    # Move the midpoint's bits into lo or hi through int64 views.  A lane's
    # delta is 0 exactly where its bracket keeps its bits, so -0.0 and +0.0
    # count as different.
    lo_bits, hi_bits = lo.view(np.int64), hi.view(np.int64)
    mid = np.empty(n)
    mid_bits = mid.view(np.int64)
    to_lo, d_lo, d_hi = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n, np.int64)
    for _ in range(100):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.greater(g(mid), 0.0, out=to_lo)
        to_lo -= 1  # all ones where mid becomes lo, 0 where it becomes hi
        np.bitwise_xor(mid_bits, lo_bits, out=d_lo)
        d_lo &= to_lo
        np.bitwise_xor(mid_bits, hi_bits, out=d_hi)
        d_hi &= np.invert(to_lo, out=to_lo)
        if not (d_lo.any() or d_hi.any()):
            return theta, theta @ alpha
        lo_bits ^= d_lo
        hi_bits ^= d_hi
    return theta, s_of(0.5 * (lo + hi))


def _neg_entropy(theta: np.ndarray) -> np.ndarray:
    t = np.clip(theta, 1e-300, None)
    return row_sum(theta * np.log(t))


def _overlap(s):
    """Overlap penalty 1/pi + 1/(1-pi) with pi clamped to (0, 1).

    This is ``estimation.dr_variance_terms`` at unit outcome variances, kept
    apart on purpose: the solver must evaluate it at every bisection step,
    boundary included, so it clamps pi, while the DR variance refuses a
    boundary propensity (``BoundaryPropensity``, the ``boundary_propensity``
    status of a frontier row).  One function would branch on its caller.
    """
    sc = np.clip(s, _PI_EPS, 1.0 - _PI_EPS)
    return 1.0 / sc + 1.0 / (1.0 - sc)


def _phi_functions(objective: str, alpha: np.ndarray):
    """(phi, phi', linear offset) for the scalarized channel s = alpha.theta.

    phi' overwrites its argument with the result.
    """
    if objective == "exogenous":

        def phi_prime(s):
            # -1/sc**2 + 1/(1-sc)**2 in place; x**2 is x*x in numpy
            sc = np.clip(s, _PI_EPS, 1.0 - _PI_EPS, out=s)
            right = np.subtract(1.0, sc)
            right *= right
            np.divide(1.0, right, out=right)
            sc *= sc
            np.divide(-1.0, sc, out=sc)
            sc += right
            return sc

        return _overlap, phi_prime, np.zeros_like(alpha)
    # maximize sum alpha^2 theta - s^2  ==  minimize s^2 - (alpha^2).theta
    return (lambda s: s**2), (lambda s: np.multiply(s, 2.0, out=s)), alpha**2


# ---------------------------------------------------------------------------
# dual solver
# ---------------------------------------------------------------------------


def _dual_state(x: np.ndarray, problem: DesignProblem, phi, phi_prime, offset):
    """Dual value, gradient, and the minimizing policy at multipliers x.

    At lambda == 0 every row of w is nu + offset, and the per-row solve is
    elementwise, so one row's solution is every row's: the first two rows
    are solved and row 0 repeated.  Two, not one: numpy computes a (1, k)
    @ (k,) product as a dot rather than the matrix-vector kernel of the
    full solve, and that can differ in the last bit.  That two rows give
    the bits of n rows is not promised by numpy: it rests on the BLAS
    kernel and its row blocking, was measured on one OpenBLAS build and
    CPU, and is guarded by
    ``test_zero_lambda_two_rows_match_the_full_width_solve`` and the CSV
    byte pins, which fail on a machine where it does not hold.
    """
    u = problem.utilities
    a = problem.alpha.alpha
    p = problem.p
    c = problem.utility_floor
    lam = x[0]
    nu = np.concatenate([x[1:], [0.0]])
    # w = lam * u[:, None] * a[None, :] + nu + offset, built by columns: each
    # entry sees the same operations, without (n, 1) by (1, k) broadcasts
    wt = np.multiply.outer(a, lam * u)
    wt += nu[:, None]
    wt += offset[:, None]
    w = wt.T
    if lam == 0.0:
        theta, s = _inner_solve(w[:2], a, problem.kappa, phi_prime)
        n = u.shape[0]
        theta, s = np.repeat(theta[:1], n, axis=0), np.repeat(s[:1], n)
    else:
        theta, s = _inner_solve(w, a, problem.kappa, phi_prime)
    inner = phi(s) + problem.kappa * _neg_entropy(theta) - row_sum(w * theta)
    value = float(inner.mean() + lam * c + nu @ p)
    grad = np.empty(problem.k)
    grad[0] = c - float(np.mean(u * s))
    grad[1:] = p[:-1] - theta.mean(axis=0)[:-1]
    return value, grad, theta, s


def exogenous_objective(theta: np.ndarray, alpha: AlphaVector) -> float:
    """Mean overlap penalty E_n[1/pi + 1/(1-pi)], pi clamped to (0, 1)."""
    return float(np.mean(_overlap(np.asarray(theta, dtype=float) @ alpha.alpha)))


def endogenous_objective(theta: np.ndarray, alpha: AlphaVector) -> float:
    """Mean conditional instrument variance E_n[Var(alpha_Q | X)]."""
    return float(np.mean(instrument_variance(theta, alpha)))


def _primal_from(theta: np.ndarray, s: np.ndarray, problem: DesignProblem):
    if problem.objective == "exogenous":
        obj = exogenous_objective(theta, problem.alpha)
    else:
        obj = endogenous_objective(theta, problem.alpha)
    utility = float(np.mean(problem.utilities * s))
    return obj, utility


def _solve(problem: DesignProblem, x0: Optional[np.ndarray]) -> DesignSolution:
    """Maximize the dual with L-BFGS-B, then polish it with Newton steps.

    Each point is solved once where it can be: the dual value and gradient
    of every point solved are kept under the bytes of its x, since
    L-BFGS-B's line search comes back to its iterate, and the (n, k) policy
    of the last point solved is kept, since the polish starts at the point
    where L-BFGS-B stopped, which is nearly always the last one it asked
    for.  Holding one policy, not one per point, keeps the cache small.
    """
    c_min, c_max = problem.utility_range()
    c = problem.utility_floor
    if c > c_max + CONSTRAINT_TOL:
        raise InfeasibleFloor(
            f"infeasible utility floor {c:.6g}: the achievable range is "
            f"[{c_min:.6g}, {c_max:.6g}]"
        )
    if c >= c_max - 1e-12 * max(1.0, abs(c_max)):
        # the feasible set has collapsed to the assortative extreme point;
        # return it directly rather than chasing an unbounded dual
        theta = assortative_policy(problem.utilities, problem.p, best_first=True)
        s = theta @ problem.alpha.alpha
        obj, utility = _primal_from(theta, s, problem)
        return DesignSolution(
            problem=problem,
            policy=theta,
            objective_value=obj,
            achieved_utility=utility,
            lam=0.0,
            nu=np.zeros(problem.k - 1),
            converged=True,
            iterations=0,
        )

    phi, phi_prime, offset = _phi_functions(problem.objective, problem.alpha.alpha)
    if x0 is None:
        x0 = np.zeros(problem.k)
    bounds = [(0.0, None)] + [(None, None)] * (problem.k - 1)
    values = {}  # x bytes -> (value, grad) of every point solved
    last = {}  # the last point solved: x bytes -> (theta, s)

    def solve_at(x):
        key = x.tobytes()
        if key not in last:
            last.clear()  # before the solve, so that two policies are never held
            value, grad, theta, s = _dual_state(x, problem, phi, phi_prime, offset)
            values[key] = value, grad
            last[key] = theta, s
        return key

    def neg_dual(x):
        key = x.tobytes()
        if key not in values:
            solve_at(x)
        value, grad = values[key]
        return -value, -grad

    import scipy.optimize  # about 0.6 s to load; commands that solve no design skip it

    res = scipy.optimize.minimize(
        neg_dual,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": MAX_ITERS, "ftol": 1e-14, "gtol": 1e-10},
    )
    x = res.x
    iterations = int(res.nit)

    # Newton polish on the KKT system: drive the dual gradient to zero,
    # holding lambda at zero when the utility constraint is slack
    def residual(x):
        key = solve_at(x)
        grad, (theta, s) = values[key][1], last[key]
        r = -grad  # primal residuals: (utility slack, column deviations)
        if x[0] <= 0.0 and r[0] >= 0.0:
            r = r.copy()
            r[0] = 0.0  # lambda = 0 with slack constraint satisfies KKT
        return r, theta, s

    r, theta, s = residual(x)
    for _ in range(40):
        if np.max(np.abs(r)) <= DUAL_TOL * 0.1:
            break
        jac = np.zeros((problem.k, problem.k))
        h = 1e-7 * np.maximum(1.0, np.abs(x))
        for j in range(problem.k):
            xp = x.copy()
            xp[j] += h[j]
            rp, _, _ = residual(xp)
            jac[:, j] = (rp - r) / h[j]
        try:
            step = np.linalg.solve(jac + 1e-12 * np.eye(problem.k), -r)
        except np.linalg.LinAlgError:
            break
        best = None
        t = 1.0
        for _ in range(20):
            xn = x.copy() + t * step
            xn[0] = max(xn[0], 0.0)
            rn, tn, sn = residual(xn)
            if np.max(np.abs(rn)) < np.max(np.abs(r)):
                best = (xn, rn, tn, sn)
                break
            t *= 0.5
        if best is None:
            break
        x, r, theta, s = best
        iterations += 1

    obj, utility = _primal_from(theta, s, problem)
    converged = bool(np.max(np.abs(r)) <= DUAL_TOL)
    return DesignSolution(
        problem=problem,
        policy=theta,
        objective_value=obj,
        achieved_utility=utility,
        lam=float(max(x[0], 0.0)),
        nu=x[1:].copy(),
        converged=converged,
        iterations=iterations,
    )


def optimize_exogenous(
    problem: DesignProblem, x0: Optional[np.ndarray] = None
) -> DesignSolution:
    """Minimize the overlap penalty E[1/pi + 1/(1-pi)] under the constraints."""
    if problem.objective != "exogenous":
        problem = replace(problem, objective="exogenous")
    a = problem.alpha.alpha
    if np.max(a) - np.min(a) <= 1e-12:
        raise ValueError(
            "all queue propensities are equal: pi does not depend on the "
            "policy and the overlap objective is constant"
        )
    return _solve(problem, x0)


def optimize_endogenous(
    problem: DesignProblem, x0: Optional[np.ndarray] = None
) -> DesignSolution:
    """Maximize the expected conditional instrument variance."""
    if problem.objective != "endogenous":
        problem = replace(problem, objective="endogenous")
    a = problem.alpha.alpha
    if np.max(a) - np.min(a) <= 1e-12:
        raise ValueError(
            "degenerate design: at least two distinct queue propensities are "
            "needed for the instrument to vary"
        )
    return _solve(problem, x0)


# ---------------------------------------------------------------------------
# Pareto sweep
# ---------------------------------------------------------------------------


def pareto_sweep(
    problem: DesignProblem, c_grid: np.ndarray
) -> list[Optional[DesignSolution]]:
    """Solve the design problem at each utility floor of ``c_grid``, in order.

    Each solve is warm-started from the multipliers of the last floor that
    had a solution.  A floor above the achievable range raises
    ``InfeasibleFloor``; its slot holds None and the sweep continues.
    Scoring the policies is left to the caller.
    """
    solver = optimize_exogenous if problem.objective == "exogenous" else optimize_endogenous
    solutions: list[Optional[DesignSolution]] = []
    x0 = None
    for c in np.asarray(c_grid, dtype=float):
        try:
            sol = solver(replace(problem, utility_floor=float(c)), x0)
        except InfeasibleFloor:
            sol = None
        else:
            x0 = np.concatenate([[sol.lam], sol.nu])
        solutions.append(sol)
    return solutions
