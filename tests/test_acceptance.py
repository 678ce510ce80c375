"""Eleven release-gate checks, each printing a single PASS/FAIL summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every check is seeded, so a pass is reproducible.
"""

import math
import time

import mpmath
import numpy as np
import scipy.stats

from ctmcinfer import (
    ACCURACY_CAP,
    Dataset,
    EstimatorConfig,
    GeometricLaw,
    JointSequence,
    LikelihoodEstimator,
    LogNormalPrior,
    MATRIX_CLASSES,
    Prior,
    Truncation,
    TruncationLadder,
    assemble,
    bench_expm,
    builtin_model,
    gillespie,
    laplace_covariance,
    map_estimate,
    multistart,
    oracle_expm,
    oste,
    oste_variance,
    random_rate_matrix,
    sample_chain,
    sample_dataset,
    seed_truncation,
    select_s_skeletoid,
    select_s_uniformization,
    skeletoid,
    stable_log_combine,
    tune_estimator,
    uniformization,
)


def _verdict(num, name, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    line = (f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    print(line, flush=True)
    assert ok, line


def _linf(diff) -> float:
    return float(np.abs(diff).sum(axis=1).max())


# ---------------------------------------------------------------------------
# 1. both approximation routes agree with an independent dense oracle


def test_01_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20140)
    worst = 0.0
    for kind in MATRIX_CLASSES:
        for _ in range(100):
            dim = int(rng.integers(2, 31))
            Q = random_rate_matrix(kind, dim, rng, max_row_nnz=6)
            q_bar = float(Q.diagonal().min())
            for t in (1.0, 10.0):
                oracle = oracle_expm(Q, t)
                s_sk = max(40, select_s_skeletoid(q_bar * t, 1e-11))
                gap_sk = float(np.abs(oracle - skeletoid(Q, t, s_sk)).max())
                s_un = select_s_uniformization(-q_bar * t, 1e-12)
                gap_un = float(np.abs(oracle - uniformization(Q, t, s_un)).max())
                worst = max(worst, gap_sk, gap_un)
    _verdict(1, "oracle equivalence", worst <= 1e-10,
             f"max entrywise gap {worst:.2e} over 800 runs", t0, 60)


# ---------------------------------------------------------------------------
# 2. double monotonicity, plus the counterexample that motivates the
#    per-truncation-rate route being excluded from growth comparisons


def _nested_generators(net, x_from, x_to, theta, r_max):
    ladder = TruncationLadder(seed_truncation(net, x_from, x_to), net)
    return [assemble(net, ladder.level(r), theta) for r in range(r_max + 1)]


def test_02_monotonicity_suite():
    t0 = time.perf_counter()
    slack = 1e-12
    worst_drop = 0.0
    cases = [
        (builtin_model("mmc", c=2), (0,), (3,), (1.5, 1.0)),
        (builtin_model("ssir"), (5, 1, 0), (3, 3, 0), (0.3, 0.5, 0.4)),
    ]
    for net, x_from, x_to, theta in cases:
        mats = _nested_generators(net, x_from, x_to, theta, 4)
        q_common = min(m.q_bar for m in mats)
        t = 0.8
        for trmat in mats:
            prev_sk = prev_un = None
            for s in range(9):
                cur_sk = skeletoid(trmat, t, s)
                cur_un = uniformization(trmat, t, s)
                if prev_sk is not None:
                    worst_drop = max(worst_drop, float((prev_sk - cur_sk).max()),
                                     float((prev_un - cur_un).max()))
                prev_sk, prev_un = cur_sk, cur_un
        for s in (2, 5):
            prev_sk = prev_un = None
            for trmat in mats:
                cur_sk = skeletoid(trmat, t, s)
                cur_un = uniformization(trmat, t, s, q_bar=q_common)
                if prev_sk is not None:
                    n = prev_sk.shape[0]
                    worst_drop = max(
                        worst_drop,
                        float((prev_sk - cur_sk[:n, :n]).max()),
                        float((prev_un - cur_un[:n, :n]).max()),
                    )
                prev_sk, prev_un = cur_sk, cur_un

    # growing the truncation can *decrease* entries when each level picks its
    # own uniformization rate: a 1-state space at rate 1 versus a 2-state
    # space whose added state drags the shared rate to 10
    small = uniformization(np.array([[-1.0]]), 1.0, 0)[0, 0]
    large = uniformization(np.diag([-1.0, -10.0]), 1.0, 0)[0, 0]
    counter_ok = (abs(small - math.exp(-1)) < 1e-12
                  and abs(large - math.exp(-10)) < 1e-12
                  and large < small)

    _verdict(2, "double monotonicity", worst_drop <= slack and counter_ok,
             f"worst entry drop {worst_drop:.2e}, counterexample "
             f"{small:.4f} -> {large:.2e}", t0, 60)


# ---------------------------------------------------------------------------
# 3. a-priori error bounds hold; requested accuracy is met in >= 95% of runs


def test_03_error_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    tail_ok = taylor_ok = True
    n_tail = n_taylor = 0
    for kind in MATRIX_CLASSES:
        for dim in (6, 14):
            Q = random_rate_matrix(kind, dim, rng)
            q_bar = float(Q.diagonal().min())
            for t in (0.5, 2.0, 8.0):
                oracle = oracle_expm(Q, t)
                lam = -q_bar * t
                for eps in (1e-1, 1e-3, 1e-6, 1e-9):
                    s = select_s_uniformization(lam, eps)
                    realized = _linf(oracle - uniformization(Q, t, s))
                    bound = float(scipy.stats.poisson.sf(s, lam))
                    tail_ok &= realized <= bound + 1e-12
                    n_tail += 1
                for s in (2, 4, 8, 12, 16, 20, 24):
                    if lam * 2.0 ** (-s) <= 1.0:
                        realized = _linf(oracle - skeletoid(Q, t, s))
                        bound = 2.0 * (q_bar * t) ** 2 * 2.0 ** (-(s + 1))
                        taylor_ok &= realized <= bound + 1e-12
                        n_taylor += 1

    rows = bench_expm(classes=MATRIX_CLASSES, dims=(6, 12, 20), ts=(0.5, 2.0),
                      epsilons=(1e-2, 1e-4, 1e-6, 1e-8), reps=3, seed=11)
    met = [row["realized_error"] <= row["requested_eps"] + 1e-12
           for row in rows]
    frac = float(np.mean(met))
    ok = (tail_ok and taylor_ok and n_taylor > 50 and len(rows) >= 400
          and frac >= 0.95)
    _verdict(3, "error bounds", ok,
             f"tail bound {n_tail}/{n_tail} ok, doubling bound "
             f"{n_taylor}/{n_taylor} ok, requested accuracy met in "
             f"{frac:.1%} of {len(rows)} runs", t0, 300)


# ---------------------------------------------------------------------------
# 4. at large rate*time the doubling route needs a small fraction of the
#    FLOPs of the series route


def test_04_flop_dominance_large_lambda():
    t0 = time.perf_counter()
    rows = bench_expm(classes=MATRIX_CLASSES, dims=(100,), ts=(1000.0,),
                      epsilons=(1e-6,), reps=1, seed=4)
    flops = {(row["class"], row["method"]): row["matmul_flops"]
             for row in rows}
    ratios = {kind: flops[(kind, "skeletoid")] / flops[(kind, "uniformization")]
              for kind in MATRIX_CLASSES}
    worst = max(ratios.values())
    _verdict(4, "flop dominance", worst <= 0.1,
             "skeletoid/uniformization flop ratios "
             + ", ".join(f"{k}={v:.3f}" for k, v in ratios.items()), t0, 600)


# ---------------------------------------------------------------------------
# 5. debiased-draw statistics: exactness, unbiasedness, closed-form variance


def test_05_debiased_draw_statistics():
    t0 = time.perf_counter()
    law = GeometricLaw(0.5)

    # tail differences proportional to the sampling mass: every draw exact
    matched = lambda n: 3.0 - 2.0 ** (-n)
    exact_ok = all(oste(matched, 0, law, n_draw=n).z == 3.0
                   for n in range(26))

    quarter = lambda n: 1.0 - 4.0 ** (-n)
    diffs = [quarter(n + 1) - quarter(n) for n in range(60)]
    var_formula = oste_variance(diffs, law)
    formula_ok = abs(var_formula - 2.0 / 7.0) < 1e-13

    rng = np.random.default_rng(55)
    n_draws = 1_000_000
    draws = np.fromiter(
        (oste(quarter, 0, law, rng=rng).z for _ in range(n_draws)),
        dtype=float, count=n_draws,
    )
    se = math.sqrt(var_formula / n_draws)
    mean_gap = abs(float(draws.mean()) - 1.0)
    var_rel = abs(float(draws.var(ddof=1)) - var_formula) / var_formula
    ok = exact_ok and formula_ok and mean_gap <= 3.0 * se and var_rel <= 0.05
    _verdict(5, "debiased statistics", ok,
             f"matched tail exact, mean gap {mean_gap:.2e} vs 3se {3 * se:.2e}, "
             f"variance off by {var_rel:.2%}", t0, 120)


# ---------------------------------------------------------------------------
# 6. on a chain the truncation fully contains, estimates are exact and the
#    noisy sampler collapses onto a deterministic Metropolis chain


def _contained_problem():
    net = builtin_model("mmc", c=1, upper_bounds=(3,))
    times = np.array([0.0, 0.7, 1.4, 2.1])
    states = np.array([[0], [2], [1], [3]])
    data = Dataset(times=times, states=states)
    theta = np.array([0.8, 0.6])
    full = Truncation(states=((0,), (1,), (2,), (3,)))
    Q = assemble(net, full, theta).to_dense()
    log_true = 0.0
    for x_from, x_to, dt in data.intervals():
        P = oracle_expm(Q, dt)
        log_true += math.log(P[full.index_of(x_from), full.index_of(x_to)])
    return net, data, theta, log_true


def _plain_metropolis(loglik, prior, var, n, seed, theta_init):
    """Deterministic-likelihood Metropolis twin of sample_chain's stream use."""
    child_prop, _ = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(child_prop)
    chol = math.sqrt(var) * np.eye(prior.dim)
    theta = np.asarray(theta_init, dtype=float).copy()
    lp, ll = prior.log_density(theta), loglik(theta)
    thetas = np.empty((n, prior.dim))
    accepted = np.zeros(n, dtype=bool)
    lls = np.empty(n)
    for it in range(n):
        prop = theta + chol @ rng.standard_normal(prior.dim)
        lpp = prior.log_density(prop)
        if lpp > -math.inf:
            llp = loglik(prop)
            if math.log(rng.uniform()) <= (lpp + llp) - (lp + ll):
                theta, lp, ll = prop, lpp, llp
                accepted[it] = True
        thetas[it] = theta
        lls[it] = ll
    return thetas, accepted, lls


def test_06_exact_likelihood_degeneration():
    t0 = time.perf_counter()
    net, data, theta, log_true = _contained_problem()
    seq = JointSequence(trunc_offset=6, acc_offset=ACCURACY_CAP, slope=0.1)

    gap = 0.0
    for mode in ("ia", "ra"):
        cfg = EstimatorConfig(mode=mode, method="skeletoid", sequence=seq,
                              law=GeometricLaw(0.5))
        est = LikelihoodEstimator(net, data, cfg)
        rng = np.random.default_rng(9)
        for _ in range(40):
            gap = max(gap, abs(est.log_estimate(theta, rng) - log_true))
    estimates_ok = gap <= 1e-10

    # degenerate law: the debiased draw is the offset value itself, so the
    # pseudo-marginal chain must retrace a plain Metropolis chain exactly
    cfg = EstimatorConfig(mode="ra", method="skeletoid", sequence=seq,
                          law=GeometricLaw(1.0))
    est = LikelihoodEstimator(net, data, cfg)
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), 2)
    trace = sample_chain(est, prior, 0.16, 1000, seed=123, theta_init=theta)
    ref_thetas, ref_acc, ref_lls = _plain_metropolis(
        lambda th: est.deterministic_log_likelihood(th, 6, ACCURACY_CAP),
        prior, 0.16, 1000, 123, theta,
    )
    identical = (np.array_equal(trace.thetas, ref_thetas)
                 and np.array_equal(trace.accepted, ref_acc)
                 and np.array_equal(trace.log_estimates, ref_lls))
    _verdict(6, "exact degeneration", estimates_ok and identical,
             f"estimate gap {gap:.2e}, 1000-step trace bit-identical: "
             f"{identical}", t0, 60)


# ---------------------------------------------------------------------------
# 7. the path simulator's marginal law matches the exact transition function


def test_07_simulator_marginal_law():
    t0 = time.perf_counter()
    net = builtin_model("mmc", c=1, upper_bounds=(2,))
    theta = np.array([0.8, 0.6])
    t_query = 0.6
    full = Truncation(states=((0,), (1,), (2,)))
    P = oracle_expm(assemble(net, full, theta).to_dense(), t_query)
    target = P[0]

    rng = np.random.default_rng(71)
    counts = np.zeros(3)
    n_paths = 100_000
    for _ in range(n_paths):
        path = gillespie(net, theta, (0,), t_query, rng)
        counts[int(path.states[-1, 0])] += 1.0
    tv = 0.5 * float(np.abs(counts / n_paths - target).sum())
    _verdict(7, "simulator marginal law", tv < 0.01,
             f"TV distance {tv:.4f} at {n_paths} paths", t0, 60)


# ---------------------------------------------------------------------------
# 8. truncation error of the queue decays monotonically and the log-error
#    slope steepens with the level


def test_08_truncation_convergence_shape():
    t0 = time.perf_counter()
    from ctmcinfer import truncation_study

    net = builtin_model("mmc", c=2)
    rows = truncation_study(net, (1.5, 1.0), [((0,), (4,), 1.0)], k=14.0,
                            r_stop=10)
    errors = np.array([row["error"] for row in rows])
    errors = errors[errors > 1e-12]
    decreasing = bool(np.all(np.diff(errors) < 0.0))
    slopes = np.diff(np.log10(errors))
    steepening = (bool(np.all(np.diff(slopes) <= 0.05))
                  and slopes[-1] < slopes[0] - 0.3)
    ok = errors.size >= 5 and decreasing and steepening
    _verdict(8, "truncation convergence", ok,
             f"{errors.size} usable levels, first slope {slopes[0]:.2f}, "
             f"last slope {slopes[-1]:.2f} decades/level", t0, 120)


# ---------------------------------------------------------------------------
# 9. end-to-end inference: calibrated intervals on the queue, and the
#    bistable birth-death posterior's expected parameter coupling


def _run_queue_replication(rep: int):
    net = builtin_model("mmc", c=2)
    theta_true = np.array([1.5, 1.0])
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), 2)
    seed = 1000 + rep
    rng = np.random.default_rng(seed)
    data = sample_dataset(net, theta_true, (0,), np.arange(31.0), rng,
                          seed=seed)
    base = LikelihoodEstimator(net, data,
                               EstimatorConfig(mode="ra", method="skeletoid"))
    theta_map = map_estimate(base, prior, np.array([1.0, 1.0]))
    tuned = tune_estimator(base, theta_map, p_min=0.9)
    est = LikelihoodEstimator(net, data, tuned.to_estimator_config())
    v_hat = laplace_covariance(est, prior, theta_map)
    traces = multistart(est, prior, (2.38 ** 2 / 2.0) * v_hat, 4000, 3, seed,
                        theta_init=theta_map)
    acc = float(np.mean([tr.acceptance_rate for tr in traces]))
    pooled = np.vstack([tr.after_burnin(0.25) for tr in traces])
    lo = np.percentile(pooled, 5.0, axis=0)
    hi = np.percentile(pooled, 95.0, axis=0)
    covered = bool(np.all((theta_true >= lo) & (theta_true <= hi)))
    return covered, acc


def test_09_end_to_end_inference():
    t0 = time.perf_counter()
    results = [_run_queue_replication(rep) for rep in range(20)]
    n_covered = sum(covered for covered, _ in results)
    accs = [acc for _, acc in results]
    acc_ok = all(0.05 < a < 0.6 for a in accs)

    net = builtin_model("schloegl_bd")
    theta_true = np.array([3.0, 0.5, 0.5, 3.0])
    rng = np.random.default_rng(777)
    data = sample_dataset(net, theta_true, (20,), 4.0 * np.arange(17.0), rng,
                          seed=777)
    base = LikelihoodEstimator(net, data,
                               EstimatorConfig(mode="ra", method="skeletoid"))
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), 4)
    # tune and shape the proposal at the posterior mode; the mode search and
    # the chain itself start from the data-generating parameters
    theta_mode = map_estimate(base, prior, theta_true)
    tuned = tune_estimator(base, theta_mode, p_min=0.9)
    est = LikelihoodEstimator(net, data, tuned.to_estimator_config())
    v_hat = laplace_covariance(est, prior, theta_mode)
    trace = sample_chain(est, prior, (2.38 ** 2 / 4.0) * v_hat, 1000,
                         seed=2024, theta_init=theta_true)
    finite = bool(np.all(np.isfinite(trace.log_estimates)))
    draws = trace.after_burnin(0.25)
    corr = float(np.corrcoef(draws[:, 0], draws[:, 1])[0, 1])

    ok = n_covered >= 16 and acc_ok and finite and corr > 0.8
    _verdict(9, "end-to-end inference", ok,
             f"coverage {n_covered}/20, acceptance span "
             f"[{min(accs):.2f}, {max(accs):.2f}], birth-death pair "
             f"correlation {corr:.3f}", t0, 1800)


# ---------------------------------------------------------------------------
# 10. log-space recombination agrees with extended-precision arithmetic on
#     every branch


def _mp_combine(log_a0, log_alo, log_ahi, alpha):
    with mpmath.workdps(60):
        a0 = mpmath.exp(log_a0) if log_a0 > -math.inf else mpmath.mpf(0)
        alo = mpmath.exp(log_alo) if log_alo > -math.inf else mpmath.mpf(0)
        ahi = mpmath.exp(log_ahi) if log_ahi > -math.inf else mpmath.mpf(0)
        z = a0 + (ahi - alo) / mpmath.mpf(alpha)
        return float(mpmath.log(z)) if z > 0 else -math.inf


def test_10_stable_log_arithmetic():
    t0 = time.perf_counter()
    neg_inf = -math.inf
    branch_cases = {
        "all values zero": (neg_inf, neg_inf, neg_inf, 0.5),
        "zero baseline": (neg_inf, neg_inf, -3.0, 0.25),
        "vanishing baseline": (-1400.0, -5.0, -4.9, 0.5),
        "general": (math.log(0.5), math.log(0.52), math.log(0.55), 0.25),
        "tiny gap": (-700.0, -2.0, -2.0 + 1e-13, 0.7),
        "zero gap": (-900.0, -900.0, -900.0, 0.3),
    }
    worst = 0.0
    for name, (a0, alo, ahi, alpha) in branch_cases.items():
        got = stable_log_combine(a0, alo, ahi, alpha)
        want = _mp_combine(a0, alo, ahi, alpha)
        if want == neg_inf or got == neg_inf:
            assert got == want, name
        else:
            worst = max(worst, abs(got - want))
    rng = np.random.default_rng(10)
    for _ in range(300):
        a0 = float(rng.uniform(-800.0, -0.1))
        alo = a0 + float(rng.uniform(0.0, 5.0))
        ahi = alo + float(rng.uniform(0.0, 2.0))
        alpha = float(rng.uniform(0.05, 1.0))
        got = stable_log_combine(a0, alo, ahi, alpha)
        worst = max(worst, abs(got - _mp_combine(a0, alo, ahi, alpha)))
    _verdict(10, "stable log arithmetic", worst <= 1e-12,
             f"max log-scale gap {worst:.2e}", t0, 10)


# ---------------------------------------------------------------------------
# 11. the composed estimator is unbiased on a chain no truncation contains,
#     so the telescope draw, the ladder and the approximation all take part


def test_11_composed_estimator_unbiased():
    t0 = time.perf_counter()
    net = builtin_model("mmc", c=2)
    theta = np.array([1.5, 1.0])
    data = sample_dataset(net, theta, (0,), np.arange(5.0),
                          np.random.default_rng(5), seed=5)
    # reference: exact transition probabilities on 80 states, far beyond
    # any queue length the chain reaches within one time unit of these data
    full = Truncation(states=tuple((i,) for i in range(80)))
    Q = assemble(net, full, theta).to_dense()
    reference = 1.0
    for x_from, x_to, dt in data.intervals():
        reference *= oracle_expm(Q, dt)[full.index_of(x_from),
                                         full.index_of(x_to)]

    seq = JointSequence(0, 1.0, 1.0)
    n_draws = 2000
    ok = True
    parts = []
    for method in ("skeletoid", "uniformization_global"):
        for mode in ("ra", "ia"):
            cfg = EstimatorConfig(mode=mode, method=method, sequence=seq,
                                  law=GeometricLaw(0.5), q_bar_global=-40.0)
            est = LikelihoodEstimator(net, data, cfg)
            rng = np.random.default_rng(1)
            draws = np.exp([est.log_estimate(theta, rng)
                            for _ in range(n_draws)])
            se = float(draws.std(ddof=1)) / math.sqrt(n_draws)
            dev = (float(draws.mean()) - reference) / se
            # the offset value must sit well below the limit, or a biased
            # shortcut that stops at the offset would pass as well
            at_offset = math.exp(est.deterministic_log_likelihood(
                theta, seq.level(0), seq.accuracy(0)))
            ratio = at_offset / reference
            ok = (ok and not np.isnan(draws).any() and abs(dev) <= 3.0
                  and ratio < 0.5)
            parts.append(f"{method}/{mode} {dev:+.2f}se offset {ratio:.3f}")
    _verdict(11, "composed estimator unbiased", ok, ", ".join(parts), t0, 60)
