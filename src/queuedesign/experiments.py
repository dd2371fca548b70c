"""Experiment drivers: each returns plain rows ready for CSV serialization.

Reproducibility contract: every random draw is keyed by a SeedSequence
([seed, stream, rep]) tuple, replications are reduced in index order, and
the worker function is identical whether it runs inline or in a process
pool, so the emitted rows are byte-identical for any --threads value.

Stream ids used here (0..3 are reserved by cohorts/estimation), one
``STREAM_*`` constant each:
  100 covariate draw for the fixed-design bias study
  101 per-replication bias-study cohort
  102 per-replication bias-study queue draw for the endogenous design
  103 retired: the propensity-check cohort, which the forced MC never read
  104 forced MC replications of the propensity check
  105 treated-mass cohorts of the propensity check
  106 queue draw for the single-run estimate command
  107 band bootstrap seeds on the frontier
  108 treated-mass queue draws
  109 per-replication bias-study queue draw for the exogenous design
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .cohorts import (
    Cohort,
    default_h_law,
    generate_bias_cohort,
    generate_cohort,
    outcome_variances,
    residual_variance,
)
from .config import RunConfig
from .design import (
    DesignProblem,
    feasible_utility_range,
    optimize_endogenous,
    optimize_exogenous,
    pareto_sweep,
)
from .errors import InfeasibleFloor, NotConverged, RelevanceError, RunFailure
from .estimation import (
    SIGMA_FLOOR,
    dr_variance_terms,
    estimate_dr_ate,
    estimate_iv_ratio,
    estimate_pliv,
    fit_nuisances,
    instrument_information,
    multiplier_bootstrap,
    oracle_nuisances,
    split_indices,
)
from .mechanism import (
    QueueSpec,
    allocate,
    sample_queues,
    treated_mass_profile,
)
from .policies import greedy_softmax_policy, rct_policy, switch_policy
from .propensity import marginal_propensity
from .counterfactual import mc_propensities

FRONTIER_COLUMNS = (
    "method", "c_or_param", "achieved_utility", "variance_proxy",
    "band_low", "band_high", "status",
)
BANDS_COLUMNS = ("method", "c_or_param", "band_low", "band_high")
BIAS_COLUMNS = ("alpha_config", "c_level", "estimator", "mean_bias", "mc_se", "replications")
PROPENSITY_COLUMNS = (
    "n", "k", "mc_pi_tilde", "alpha_formula", "abs_dev", "treated_mass", "mass_cap",
)
ESTIMATES_COLUMNS = ("estimator", "point", "se", "ci_low", "ci_high", "n", "seed", "status")

# seed streams, one per draw site; the module docstring lists them
STREAM_BIAS_COVARIATES = 100
STREAM_BIAS_COHORT = 101
STREAM_BIAS_ENDOGENOUS_QUEUES = 102
STREAM_PROPENSITY_MC = 104
STREAM_TREATED_MASS_COHORT = 105
STREAM_ESTIMATE_QUEUES = 106
STREAM_BAND_BOOTSTRAP = 107
STREAM_TREATED_MASS_QUEUES = 108
STREAM_BIAS_EXOGENOUS_QUEUES = 109


# ---------------------------------------------------------------------------
# shared small helpers
# ---------------------------------------------------------------------------


def _derived_seed(*entries) -> int:
    """Collapse a seed path into one 64-bit integer for APIs taking an int."""
    ss = np.random.SeedSequence([int(e) for e in entries])
    return int(ss.generate_state(1, np.uint64)[0])


def _map_indexed(worker, reps: int, threads: int, initargs):
    """Run worker(rep) for rep in range(reps), reducing in index order."""
    if threads <= 1:
        _set_context(initargs)
        return [worker(rep) for rep in range(reps)]
    chunk = max(1, reps // (int(threads) * 8))
    with ProcessPoolExecutor(
        max_workers=int(threads), initializer=_set_context, initargs=(initargs,)
    ) as pool:
        return list(pool.map(worker, range(reps), chunksize=chunk))


_CONTEXT: dict = {}


def _set_context(ctx: dict):
    _CONTEXT.clear()
    _CONTEXT.update(ctx)


# ---------------------------------------------------------------------------
# frontier sweep (cmd: pareto)
# ---------------------------------------------------------------------------


def _frontier_row(method, param, theta, h, alpha, lens, band_reps, band_seed, status):
    """Score one policy under the configured variance lens, with a band.

    The band is a multiplier bootstrap over per-unit contributions; for the
    instrument lens the proxy is 1/mean(info), so the interval for mean(info)
    is inverted (bounds swap sides).  ``status`` is written unless scoring
    fails.
    """
    utility = float(np.mean(h * marginal_propensity(theta, alpha)))
    try:
        if lens["objective"] == "exogenous":
            terms = dr_variance_terms(h, theta, alpha, lens["var1"], lens["var0"], lens["cate"])
            boot = multiplier_bootstrap(terms, reps=band_reps, seed=band_seed)
            proxy, lo, hi = boot.point, boot.ci_low, boot.ci_high
        else:
            info = instrument_information(theta, alpha, lens["sigma"](h))
            if np.mean(info) <= 0.0:
                raise RelevanceError("relevance failure: instrument variance is zero")
            boot = multiplier_bootstrap(info, reps=band_reps, seed=band_seed)
            proxy = 1.0 / boot.point
            lo = 1.0 / boot.ci_high if boot.ci_high > 0 else float("inf")
            hi = 1.0 / boot.ci_low if boot.ci_low > 0 else float("inf")
    except RunFailure as err:
        proxy, lo, hi = float("inf"), float("inf"), float("inf")
        status = err.status
    return (method, float(param), utility, proxy, lo, hi, status)


def run_pareto(config: RunConfig):
    """Sweep the optimized design plus heuristic baselines over one cohort.

    Returns (frontier_rows, band_rows).  All methods are scored under the
    configured objective's estimator variance so the frontier is comparable
    within a run: ``variance_dr_formula`` for the exogenous objective,
    ``variance_pliv_formula`` for the endogenous one.
    """
    cfg_c, cfg_d, cfg_e = config.cohort, config.design, config.execution
    psi, beta = float(cfg_c.psi), float(config.mechanism.beta)
    p = np.asarray(config.mechanism.p, dtype=float)
    cohort = _make_cohort(config, seed=int(cfg_e.seed))
    h = cohort.h
    alpha = config.mechanism.queue_spec(cohort.n, cohort.tau).alpha

    var1, var0 = outcome_variances(cfg_c.dgp, psi)
    # the instrument lens evaluates sigma at the budget share beta: it is
    # policy independent, which keeps the lens comparable across rows
    sigma = lambda x: np.maximum(residual_variance(cfg_c.dgp, psi, x, beta), SIGMA_FLOOR)
    lens = {
        "objective": cfg_d.objective, "var1": var1, "var0": var0,
        "cate": lambda x: np.full(np.shape(x), psi, dtype=float), "sigma": sigma,
    }
    band_reps = int(config.estimation.bootstrap_reps)

    c_hi = feasible_utility_range(h, alpha, p)[1]
    c_rct = beta * float(h.mean())
    if cfg_d.c_grid is not None:
        c_grid = np.asarray(cfg_d.c_grid, dtype=float)
    else:
        c_grid = np.linspace(c_rct, c_hi, int(cfg_d.c_grid_size))

    problem = DesignProblem(
        utilities=h, alpha=alpha, p=p, utility_floor=c_rct,
        regularizer=cfg_d.regularizer, kappa=cfg_d.kappa, objective=cfg_d.objective,
    )
    points = pareto_sweep(
        problem, c_grid, var1=var1, var0=var0, cate=lens["cate"], sigma=sigma
    )

    # (method, parameter, policy, status); an infeasible floor has no policy,
    # and a solve that stopped short of its tolerance keeps its numbers
    candidates = [
        ("optimized", c, None, InfeasibleFloor.status) if pt.solution is None
        else ("optimized", c, pt.solution.policy,
              "ok" if pt.solution.converged else NotConverged.status)
        for c, pt in zip(c_grid, points)
    ]
    candidates.append(("rct", c_rct, rct_policy(cohort.n, p), "ok"))
    candidates += [("switch", s, switch_policy(h, p, float(s)), "ok")
                   for s in cfg_d.switch_strengths]
    cap = float(cfg_d.greedy_cap)
    candidates += [("greedy", g, greedy_softmax_policy(h, p, float(g), cap=cap), "ok")
                   for g in cfg_d.greedy_scales]

    nan = float("nan")
    rows = [
        (method, float(param), nan, nan, nan, nan, status) if theta is None
        else _frontier_row(
            method, param, theta, h, alpha, lens, band_reps,
            _derived_seed(cfg_e.seed, STREAM_BAND_BOOTSTRAP, row_id), status,
        )
        for row_id, (method, param, theta, status) in enumerate(candidates)
    ]
    band_rows = [(m, c, lo, hi) for (m, c, _, _, lo, hi, _) in rows]
    return rows, band_rows


def _make_cohort(config: RunConfig, seed: int) -> Cohort:
    c = config.cohort
    if c.dgp == "bernoulli":
        return generate_cohort(int(c.n), int(c.tau), float(c.psi), seed=seed)
    return generate_bias_cohort(int(c.n), int(c.tau), float(c.psi), seed=seed)


# ---------------------------------------------------------------------------
# endogeneity bias study (cmd: bias)
# ---------------------------------------------------------------------------


def _bias_rep(rep: int):
    """One fixed-design replication: fresh noise and arrivals, fixed policies.

    The same confounded world is allocated twice, once under each design's
    policy, and each estimator is applied to its own design's data: the
    instrument estimator to the endogenous-design allocation, the DR
    estimator (with nuisances that omit the confounder, as an exogeneity
    believer would fit them) to the exogenous-design allocation.
    """
    ctx = _CONTEXT
    h = ctx["h"]
    psi = ctx["psi"]
    spec = ctx["spec"]
    alpha = spec.alpha
    cohort = generate_bias_cohort(
        h.shape[0], spec.tau, psi, h=h,
        seed=_derived_seed(ctx["seed"], STREAM_BIAS_COHORT, ctx["arm"], rep),
    )

    def realize(theta, stream):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(ctx["seed"]), stream, int(ctx["arm"]), int(rep)])
        )
        queues = sample_queues(theta, rng)
        # both allocations serve the same cohort, whose draw ranked its arrivals
        z = allocate(cohort, queues, spec).z
        return queues, z, np.where(z, cohort.y1, cohort.y0)

    theta_endo = ctx["theta_endo"]
    queues, z, y = realize(theta_endo, STREAM_BIAS_ENDOGENOUS_QUEUES)
    pi = marginal_propensity(theta_endo, alpha)
    nuis = oracle_nuisances(cohort, psi, marginal_pi=lambda _h: pi)
    try:
        pliv = estimate_pliv(
            cohort.h, z, y, queues, theta_endo, alpha, nuis,
            relevance_floor=float(ctx["relevance_floor"]),
        ).point
    except ValueError:
        pliv = float("nan")

    theta_exo = ctx["theta_exo"]
    _, z, y = realize(theta_exo, STREAM_BIAS_EXOGENOUS_QUEUES)
    pi = marginal_propensity(theta_exo, alpha)
    nuis = oracle_nuisances(cohort, psi, marginal_pi=lambda _h: pi)
    try:
        dr = estimate_dr_ate(cohort.h, z, y, pi, nuis, gamma=float(ctx["gamma"])).point
    except ValueError:
        dr = float("nan")
    return pliv, dr


def run_bias(config: RunConfig):
    """Fixed-design endogeneity study over (alpha target, utility floor) arms.

    Covariates are drawn once; every replication redraws the confounded
    noise and arrival order, samples queues from the arm's optimized policy,
    allocates under rationing, and runs both estimators on the same data.
    The instrument-based estimator is the one designed for this regime; the
    exogeneity-assuming DR estimator is evaluated on the same draws to
    measure how endogeneity hits it.

    Utility floors are parameterized as fractions of the span between the
    RCT utility and the smallest maximum utility across the configured
    alpha targets, so arms with different targets are compared at the same
    absolute floor and every floor is feasible for every arm.
    """
    cfg_c, cfg_d, cfg_e = config.cohort, config.design, config.execution
    mech = config.mechanism
    if int(mech.k) != 2:
        raise ValueError("the bias study is defined for k=2 queues")
    n, tau, psi = int(cfg_c.n), int(cfg_c.tau), float(cfg_c.psi)
    p = np.asarray(mech.p, dtype=float)
    beta = float(mech.beta)
    reps = int(cfg_e.bias_replications)

    rng = np.random.default_rng(
        np.random.SeedSequence([int(cfg_e.seed), STREAM_BIAS_COVARIATES])
    )
    h = default_h_law(rng, n)
    c_rct = beta * float(h.mean())

    arms = [(float(a), float(f)) for a, f in cfg_d.bias_arms]

    specs = {}
    for top, _ in arms:
        second = (beta - top * p[0]) / p[1]
        if not 0.0 <= second <= 1.0:
            raise ValueError(
                f"alpha top {top} cannot satisfy the budget identity with beta={beta}"
            )
        specs[top] = QueueSpec.auto(
            n, k=int(mech.k), p=p, beta=beta, tau=tau,
            mode="rationed", alpha_target=np.array([top, second]),
        )
    c_end = min(feasible_utility_range(h, spec.alpha, p)[1] for spec in specs.values())

    rows = []
    for arm_id, (top, frac) in enumerate(arms):
        spec = specs[top]
        c = c_rct + frac * (c_end - c_rct)
        problem = DesignProblem(
            utilities=h, alpha=spec.alpha, p=p, utility_floor=c,
            regularizer=cfg_d.regularizer, kappa=cfg_d.kappa, objective="endogenous",
        )
        theta_endo = optimize_endogenous(problem).policy
        # keeps the endogenous kappa resolved above, not the exogenous default
        theta_exo = optimize_exogenous(problem).policy

        # everything a replication reads that does not depend on its draws
        ctx = {
            "h": h, "theta_endo": theta_endo, "theta_exo": theta_exo,
            "spec": spec, "psi": psi,
            "gamma": float(config.estimation.gamma),
            "relevance_floor": float(config.estimation.relevance_floor),
            "seed": int(cfg_e.seed), "arm": arm_id,
        }
        results = _map_indexed(_bias_rep, reps, int(cfg_e.threads), ctx)
        points = np.asarray(results, dtype=float)  # (reps, 2): pliv, dr

        label = "/".join(f"{a:g}" for a in spec.alpha_target)
        for col, name in ((0, "pliv_endogenous"), (1, "dr_exogenous")):
            vals = points[:, col]
            ok = vals[np.isfinite(vals)]
            if ok.size >= 2:
                mean_bias = float(ok.mean() - psi)
                mc_se = float(ok.std(ddof=1) / np.sqrt(ok.size))
            else:
                mean_bias, mc_se = float("nan"), float("nan")
            rows.append((label, float(c), name, mean_bias, mc_se, int(ok.size)))
    return rows


# ---------------------------------------------------------------------------
# propensity convergence check (cmd: check-propensity)
# ---------------------------------------------------------------------------


def run_propensity_check(config: RunConfig):
    """Forced-assignment MC propensities against the closed-form limits.

    For each n in the grid: run the forced MC under the RCT policy (every
    replication redraws arrivals and queues), and report per-queue
    conditional propensities next to the water-filling values, plus
    cumulative treated mass by priority tier against its capacity limit.
    """
    cfg_c, cfg_e = config.cohort, config.execution
    mech = config.mechanism
    p = np.asarray(mech.p, dtype=float)

    rows = []
    for n in cfg_e.n_grid:
        n = int(n)
        spec = mech.queue_spec(n, int(cfg_c.tau))
        alpha = spec.alpha
        # in strict mode this is min(beta, c_k): capacity fills tiers in order
        mass_limit = np.cumsum(alpha.alpha * p)
        theta = rct_policy(n, p)
        table = mc_propensities(
            theta, spec, reps=int(cfg_e.propensity_reps),
            seed=_derived_seed(cfg_e.seed, STREAM_PROPENSITY_MC, n), forced=True,
        )
        pi_tilde = table.queue_conditional.mean(axis=0)

        mass_acc = np.zeros(int(mech.k))
        for rep in range(int(cfg_e.treated_mass_reps)):
            rep_cohort = generate_cohort(
                n, int(cfg_c.tau), float(cfg_c.psi),
                seed=_derived_seed(cfg_e.seed, STREAM_TREATED_MASS_COHORT, n, rep),
            )
            qrng = np.random.default_rng(
                np.random.SeedSequence([int(cfg_e.seed), STREAM_TREATED_MASS_QUEUES, n, rep])
            )
            trace = allocate(rep_cohort, sample_queues(theta, qrng), spec)
            mass_acc += treated_mass_profile(trace, int(mech.k))[:, -1]
        mass = mass_acc / int(cfg_e.treated_mass_reps)

        for k in range(int(mech.k)):
            rows.append((
                n, k + 1, float(pi_tilde[k]), float(alpha.alpha[k]),
                float(abs(pi_tilde[k] - alpha.alpha[k])),
                float(mass[k]), float(mass_limit[k]),
            ))
    return rows


# ---------------------------------------------------------------------------
# single-run estimates (cmd: estimate)
# ---------------------------------------------------------------------------


def run_estimate(config: RunConfig):
    """One allocation under the RCT policy, then every configured estimator.

    Estimator preconditions (positivity, instrument relevance) are reported
    as a status column with NaN numbers rather than as hard failures: a
    degenerate design is a finding, not a crash.  A ``RunFailure`` names its
    own status; any other ``ValueError`` is a ``precondition_error``.
    """
    cfg_c, cfg_e, est = config.cohort, config.execution, config.estimation
    mech = config.mechanism
    n = int(cfg_c.n)
    psi = float(cfg_c.psi)
    p = np.asarray(mech.p, dtype=float)
    seed = int(cfg_e.seed)

    cohort = _make_cohort(config, seed=seed)
    spec = mech.queue_spec(n, int(cfg_c.tau))
    alpha = spec.alpha
    theta = rct_policy(n, p)
    qrng = np.random.default_rng(np.random.SeedSequence([seed, STREAM_ESTIMATE_QUEUES]))
    queues = sample_queues(theta, qrng)
    z = allocate(cohort, queues, spec).z
    y = np.where(z, cohort.y1, cohort.y0)
    pi = marginal_propensity(theta, alpha)

    if est.nuisance_method == "oracle":
        fit_idx = np.arange(n)
        eval_idx = np.arange(n)
        nuis = oracle_nuisances(cohort, psi, marginal_pi=lambda _h: pi[eval_idx])
    else:
        # Split fit: nuisances learned on one half, estimates on the other,
        # so estimation errors stay first-order orthogonal to fitting noise.
        fit_idx, eval_idx = split_indices(n, seed)
        nuis = fit_nuisances(
            cohort.h[fit_idx], z[fit_idx], y[fit_idx],
            method=est.nuisance_method, bins=int(est.bins), degree=int(est.degree),
        )
    he, ze, ye = cohort.h[eval_idx], z[eval_idx], y[eval_idx]
    qe, te, pe = queues[eval_idx], theta[eval_idx], pi[eval_idx]

    nan = float("nan")
    rows = []
    for name in est.estimators:
        try:
            if name == "dr_ate":
                report = estimate_dr_ate(
                    he, ze, ye, pe, nuis, gamma=float(est.gamma),
                    bootstrap_reps=int(est.bootstrap_reps), seed=seed,
                )
            elif name == "pliv":
                report = estimate_pliv(
                    he, ze, ye, qe, te, alpha, nuis,
                    relevance_floor=float(est.relevance_floor),
                )
            else:
                r = alpha.alpha[qe - 1] - pe
                report = estimate_iv_ratio(ye, ze, r)
        except RunFailure as err:
            status = err.status
        except ValueError:
            status = RunFailure.status
        else:
            rows.append((
                name, report.point, report.se, report.ci_low, report.ci_high,
                int(report.n), seed, "ok",
            ))
            continue
        rows.append((name, nan, nan, nan, nan, int(eval_idx.size), seed, status))
    return rows
