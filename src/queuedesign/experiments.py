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

import os

import numpy as np

from .cohorts import (
    Cohort,
    default_h_law,
    generate_bias_cohort,
    generate_cohort,
    outcome_variances,
    residual_variance,
)
from .config import ConfigError, RunConfig
from .design import (
    DesignProblem,
    feasible_utility_range,
    optimize_endogenous,
    optimize_exogenous,
    pareto_sweep,
)
from .errors import InfeasibleFloor, NotConverged, RunFailure
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
    variance_dr_formula,
    variance_pliv_formula,
)
from .mechanism import (
    AllocationTrace,
    QueueSpec,
    allocate,
    sample_queues,
    treated_mass,
)
from .policies import greedy_softmax_policy, rct_policy, switch_policy
from .propensity import instrument_variance, marginal_propensity
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
ESTIMATOR_METHODS = ("dr_ate", "pliv", "iv_ratio")  # the estimate command's rows, in order

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
    ss = np.random.SeedSequence(entries)
    return int(ss.generate_state(1, np.uint64)[0])


def _served(cohort: Cohort, theta: np.ndarray, spec: QueueSpec, *key) -> AllocationTrace:
    """Draw queues from ``theta`` on SeedSequence(key) and serve the cohort."""
    rng = np.random.default_rng(np.random.SeedSequence(key))
    return allocate(cohort, sample_queues(theta, rng), spec)


def _map_indexed(worker, reps: int, threads: int, initargs):
    """Run worker(rep) for rep in range(reps), reducing in index order."""
    # a pool starts all its workers at its first task: no more than reps or
    # CPUs (those this process may run on, where the platform can say)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, reps, cpus or 1)
    if workers <= 1:
        _set_context(initargs)
        return [worker(rep) for rep in range(reps)]
    from concurrent.futures import ProcessPoolExecutor  # ~25 ms to load; serial runs skip it

    chunk = max(1, reps // (workers * 8))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_context, initargs=(initargs,)
    ) as pool:
        return list(pool.map(worker, range(reps), chunksize=chunk))


_CONTEXT: dict = {}


def _set_context(ctx: dict):
    _CONTEXT.clear()
    _CONTEXT.update(ctx)


# ---------------------------------------------------------------------------
# frontier sweep (cmd: pareto)
# ---------------------------------------------------------------------------


def _frontier_row(method, param, theta, h, alpha, objective, lens, band_reps, band_seed, status):
    """Score one policy by its estimator's variance formula, with a band.

    The proxy is ``variance_dr_formula`` under the exogenous objective and
    ``variance_pliv_formula`` under the endogenous one; ``lens`` holds the
    per-unit values the formula reads after (theta, alpha).  The band is a
    multiplier bootstrap of the per-unit terms each formula averages:
    ``dr_variance_terms``, or ``instrument_information``, whose interval for
    mean(info) is inverted for the proxy 1/mean(info) (bounds swap sides).
    A ``RunFailure`` of the formula writes inf under its own status;
    otherwise ``status`` is written.
    """
    utility = float(np.mean(h * marginal_propensity(theta, alpha)))
    try:
        if objective == "exogenous":
            proxy = variance_dr_formula(theta, alpha, *lens)
            terms = dr_variance_terms(theta, alpha, *lens)
            boot = multiplier_bootstrap(terms, reps=band_reps, seed=band_seed)
            lo, hi = boot.ci_low, boot.ci_high
        else:
            proxy = variance_pliv_formula(theta, alpha, *lens)
            info = instrument_information(theta, alpha, *lens)
            boot = multiplier_bootstrap(info, reps=band_reps, seed=band_seed)
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
    psi, beta = cfg_c.psi, config.mechanism.beta
    p = np.asarray(config.mechanism.p, dtype=float)
    cohort = _make_cohort(config, seed=cfg_e.seed)
    h = cohort.h
    alpha = config.mechanism.queue_spec(cohort.n, cohort.tau).alpha

    if cfg_d.objective == "exogenous":
        # outcome variances and the constant effect psi at each unit
        lens = (*outcome_variances(cfg_c.dgp, psi, h), np.full(h.shape, psi))
    else:
        # sigma at the budget share beta: it is policy independent, which
        # keeps the lens comparable across rows
        lens = (np.maximum(residual_variance(cfg_c.dgp, psi, h, beta), SIGMA_FLOOR),)
    band_reps = config.estimation.bootstrap_reps

    c_hi = feasible_utility_range(h, alpha)[1]
    c_rct = beta * float(h.mean())
    if cfg_d.c_grid is not None:
        c_grid = np.asarray(cfg_d.c_grid, dtype=float)
    else:
        c_grid = np.linspace(c_rct, c_hi, cfg_d.c_grid_size)

    problem = DesignProblem(
        utilities=h, alpha=alpha, utility_floor=c_rct, objective=cfg_d.objective,
    )
    # (method, parameter, policy, status); an infeasible floor has no policy,
    # and a solve that stopped short of its tolerance keeps its numbers
    candidates = [
        ("optimized", c, None, InfeasibleFloor.status) if sol is None
        else ("optimized", c, sol.policy, "ok" if sol.converged else NotConverged.status)
        for c, sol in zip(c_grid, pareto_sweep(problem, c_grid))
    ]
    candidates.append(("rct", c_rct, rct_policy(cohort.n, p), "ok"))
    candidates += [("switch", s, switch_policy(h, p, s), "ok")
                   for s in cfg_d.switch_strengths]
    candidates += [("greedy", g, greedy_softmax_policy(h, p, g), "ok")
                   for g in cfg_d.greedy_scales]

    nan = float("nan")
    rows = [
        (method, float(param), nan, nan, nan, nan, status) if theta is None
        else _frontier_row(
            method, param, theta, h, alpha, cfg_d.objective, lens, band_reps,
            _derived_seed(cfg_e.seed, STREAM_BAND_BOOTSTRAP, row_id), status,
        )
        for row_id, (method, param, theta, status) in enumerate(candidates)
    ]
    band_rows = [(m, c, lo, hi) for (m, c, _, _, lo, hi, _) in rows]
    return rows, band_rows


def _make_cohort(config: RunConfig, seed: int) -> Cohort:
    c = config.cohort
    if c.dgp == "bernoulli":
        return generate_cohort(c.n, c.tau, c.psi, seed=seed)
    return generate_bias_cohort(c.n, c.tau, c.psi, seed=seed)


# ---------------------------------------------------------------------------
# endogeneity bias study (cmd: bias)
# ---------------------------------------------------------------------------


def _observed(cohort: Cohort, treated: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.where(treated, cohort.y1, cohort.y0)`` bit for bit, written to ``out``.

    The select is y0 ^ ((y0 ^ y1) * treated) on int64 views: no branch and
    no temporary, at about a third of ``np.where``'s time on a random mask.
    """
    y0, bits = cohort.y0.view(np.int64), out.view(np.int64)
    np.bitwise_xor(y0, cohort.y1.view(np.int64), out=bits)
    bits *= treated
    bits ^= y0
    return out


def _bias_rep(rep: int):
    """One fixed-design replication: fresh noise and arrivals, fixed policies.

    The same confounded world is allocated twice, once under each design's
    policy, and each estimator is applied to its own design's data: the
    instrument estimator to the endogenous-design allocation, the DR
    estimator (with nuisances that omit the confounder, as an exogeneity
    believer would fit them) to the exogenous-design allocation.  A failed
    statistical precondition (``RunFailure``) leaves NaN in that estimator's
    slot; any other error ends the run.
    """
    ctx = _CONTEXT
    h = ctx["h"]
    psi = ctx["psi"]
    spec = ctx["spec"]
    cohort = generate_bias_cohort(
        h.shape[0], spec.tau, psi, h=h,
        seed=_derived_seed(ctx["seed"], STREAM_BIAS_COHORT, ctx["arm"], rep),
    )

    def realize(theta, stream):
        trace = _served(cohort, theta, spec, ctx["seed"], stream, ctx["arm"], rep)
        if "y" not in ctx:
            # One y buffer per arm and process, read by each estimator before
            # the next world overwrites it.  Made here, after the first
            # world's draws, it sits above them in the heap: the space they
            # free stays below a live block, so the allocator keeps it for
            # the next worlds instead of returning it to the system and
            # faulting fresh pages in for each of them.
            ctx["y"] = np.empty(cohort.n)
        return trace.queues, trace.z, _observed(cohort, trace.treated, ctx["y"])

    queues, z, y = realize(ctx["theta_endo"], STREAM_BIAS_ENDOGENOUS_QUEUES)
    pi = ctx["pi_endo"]
    r = spec.alpha.alpha[queues - 1] - pi
    try:
        pliv = estimate_pliv(
            z, y, r, pi, ctx["ivar_endo"], ctx["nuis_endo"],
            relevance_floor=ctx["relevance_floor"],
        ).point
    except RunFailure:
        pliv = float("nan")

    _, z, y = realize(ctx["theta_exo"], STREAM_BIAS_EXOGENOUS_QUEUES)
    try:
        dr = estimate_dr_ate(z, y, ctx["pi_exo"], ctx["nuis_exo"]).point
    except RunFailure:
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
    if mech.k != 2:
        raise ConfigError("config key 'mechanism.k': the bias study is defined for k=2 queues")
    # keys the study would otherwise ignore: it always draws partially linear
    # cohorts and rations at each arm's alpha target
    if cfg_c.dgp != "partially_linear":
        raise ConfigError("config key 'cohort.dgp': the bias study draws partially_linear cohorts")
    if mech.alpha_target is not None:
        raise ConfigError(
            "config key 'mechanism.alpha_target': the bias study rations at the "
            "alpha targets of design.bias_arms"
        )
    n, tau, psi = cfg_c.n, cfg_c.tau, cfg_c.psi
    p = np.asarray(mech.p, dtype=float)
    beta = mech.beta

    rng = np.random.default_rng(
        np.random.SeedSequence([cfg_e.seed, STREAM_BIAS_COVARIATES])
    )
    h = default_h_law(rng, n)
    c_rct = beta * float(h.mean())

    specs = {}
    for top, _ in cfg_d.bias_arms:
        second = (beta - top * p[0]) / p[1]
        # second < top, as rationing needs, is the same as top > beta
        if not (top > beta and 0.0 <= second <= 1.0):
            raise ConfigError(
                f"config key 'design.bias_arms': alpha top {top} cannot satisfy "
                f"the budget identity with beta={beta} and a lower second rate"
            )
        specs[top] = QueueSpec.auto(
            n, k=mech.k, p=p, beta=beta, tau=tau,
            mode="rationed", alpha_target=np.array([top, second]),
        )
    c_end = min(feasible_utility_range(h, spec.alpha)[1] for spec in specs.values())

    rows = []
    for arm_id, (top, frac) in enumerate(cfg_d.bias_arms):
        spec = specs[top]
        c = c_rct + frac * (c_end - c_rct)
        problem = DesignProblem(
            utilities=h, alpha=spec.alpha, utility_floor=c, objective="endogenous",
        )
        theta_endo = optimize_endogenous(problem).policy
        # keeps the endogenous kappa resolved above, not the exogenous default
        theta_exo = optimize_exogenous(problem).policy

        # everything a replication reads that does not depend on its draws;
        # the nuisances are those of the partially linear cohorts it draws
        pi_endo = marginal_propensity(theta_endo, spec.alpha)
        pi_exo = marginal_propensity(theta_exo, spec.alpha)
        ctx = {
            "h": h, "theta_endo": theta_endo, "theta_exo": theta_exo,
            "pi_endo": pi_endo, "pi_exo": pi_exo,
            "ivar_endo": instrument_variance(theta_endo, spec.alpha),
            "nuis_endo": oracle_nuisances(h, "partially_linear", psi, pi_endo),
            "nuis_exo": oracle_nuisances(h, "partially_linear", psi, pi_exo),
            "spec": spec, "psi": psi,
            "relevance_floor": config.estimation.relevance_floor,
            "seed": cfg_e.seed, "arm": arm_id,
        }
        results = _map_indexed(_bias_rep, cfg_e.bias_replications, cfg_e.threads, ctx)
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
        spec = mech.queue_spec(n, cfg_c.tau)
        alpha = spec.alpha
        # in strict mode this is min(beta, c_k): capacity fills tiers in order
        mass_limit = np.cumsum(alpha.alpha * p)
        theta = rct_policy(n, p)
        table = mc_propensities(
            theta, spec, reps=cfg_e.propensity_reps,
            seed=_derived_seed(cfg_e.seed, STREAM_PROPENSITY_MC, n), forced=True,
        )
        pi_tilde = table.queue_conditional.mean(axis=0)

        mass_acc = np.zeros(mech.k)
        for rep in range(cfg_e.treated_mass_reps):
            rep_cohort = generate_cohort(
                n, cfg_c.tau, cfg_c.psi,
                seed=_derived_seed(cfg_e.seed, STREAM_TREATED_MASS_COHORT, n, rep),
            )
            trace = _served(rep_cohort, theta, spec, cfg_e.seed, STREAM_TREATED_MASS_QUEUES, n, rep)
            mass_acc += treated_mass(trace)
        mass = mass_acc / cfg_e.treated_mass_reps

        for k in range(mech.k):
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
    """One allocation under the RCT policy, then each of the three estimators.

    Estimator preconditions (positivity, instrument relevance) are reported
    as a status column with NaN numbers rather than as hard failures: a
    degenerate design is a finding, not a crash.  A ``RunFailure`` names its
    own status; any other error propagates.  A nuisance fit that lacks the
    data it needs fails the estimators that read nuisances (DR and PLIV).
    """
    cfg_c, cfg_e, est = config.cohort, config.execution, config.estimation
    mech = config.mechanism
    n, psi, seed = cfg_c.n, cfg_c.psi, cfg_e.seed
    p = np.asarray(mech.p, dtype=float)

    cohort = _make_cohort(config, seed=seed)
    spec = mech.queue_spec(n, cfg_c.tau)
    alpha = spec.alpha
    theta = rct_policy(n, p)
    trace = _served(cohort, theta, spec, seed, STREAM_ESTIMATE_QUEUES)
    z = trace.z
    y = _observed(cohort, trace.treated, np.empty(n))
    pi = marginal_propensity(theta, alpha)
    r = alpha.alpha[trace.queues - 1] - pi
    ivar = instrument_variance(theta, alpha)

    fit_failure = None
    if est.nuisance_method == "oracle":
        eval_idx = np.arange(n)
        nuis = oracle_nuisances(cohort.h, cohort.dgp_tag, psi, pi)
    else:
        # Split fit: nuisances learned on one half, estimates on the other,
        # so estimation errors stay first-order orthogonal to fitting noise.
        fit_idx, eval_idx = split_indices(n, seed)
        try:
            nuis = fit_nuisances(cohort.h[fit_idx], z[fit_idx], y[fit_idx], cohort.h[eval_idx],
                                 method=est.nuisance_method)
        except RunFailure as err:
            fit_failure = err
    ze, ye, re, pe, ve = (v[eval_idx] for v in (z, y, r, pi, ivar))

    nan = float("nan")
    rows = []
    for name in ESTIMATOR_METHODS:
        try:
            if name != "iv_ratio" and fit_failure is not None:
                raise fit_failure  # the IV ratio reads no nuisance
            if name == "dr_ate":
                report = estimate_dr_ate(
                    ze, ye, pe, nuis, bootstrap_reps=est.bootstrap_reps, seed=seed,
                )
            elif name == "pliv":
                report = estimate_pliv(
                    ze, ye, re, pe, ve, nuis,
                    relevance_floor=est.relevance_floor,
                )
            else:
                report = estimate_iv_ratio(ye, ze, re)
        except RunFailure as err:
            status = err.status
        else:
            rows.append((
                name, report.point, report.se, report.ci_low, report.ci_high,
                int(report.n), seed, "ok",
            ))
            continue
        rows.append((name, nan, nan, nan, nan, int(eval_idx.size), seed, status))
    return rows
