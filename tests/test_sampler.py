"""Pseudo-marginal Metropolis sampler, priors, and trace files."""

import math

import numpy as np
import pytest
import scipy.stats

from ctmcinfer import (
    FlopMeter,
    GammaPrior,
    LogNormalPrior,
    Prior,
    Trace,
    multistart,
    read_trace,
    sample_chain,
    write_trace,
)


# ---------------------------------------------------------------------------
# priors


def test_lognormal_prior_matches_reference_density():
    prior = LogNormalPrior(mu=0.3, sigma=0.8)
    for x in (0.05, 0.7, 1.0, 4.2):
        ref = scipy.stats.lognorm.logpdf(x, s=0.8, scale=math.exp(0.3))
        assert prior.log_density(x) == pytest.approx(ref, rel=1e-12)
    assert prior.log_density(0.0) == -math.inf
    assert prior.log_density(-1.0) == -math.inf
    assert prior.log_density(math.inf) == -math.inf
    with pytest.raises(ValueError):
        LogNormalPrior(sigma=0.0)


def test_gamma_prior_matches_reference_density():
    prior = GammaPrior(shape=2.5, rate=1.7)
    for x in (0.1, 1.0, 3.3):
        ref = scipy.stats.gamma.logpdf(x, a=2.5, scale=1.0 / 1.7)
        assert prior.log_density(x) == pytest.approx(ref, rel=1e-12)
    assert prior.log_density(0.0) == -math.inf
    with pytest.raises(ValueError):
        GammaPrior(shape=-1.0, rate=1.0)
    with pytest.raises(ValueError):
        GammaPrior(shape=1.0, rate=0.0)


def test_prior_samples_have_the_right_moments():
    rng = np.random.default_rng(2)
    logn = [LogNormalPrior(0.2, 0.5).sample(rng) for _ in range(20000)]
    assert np.mean(np.log(logn)) == pytest.approx(0.2, abs=0.02)
    assert np.std(np.log(logn)) == pytest.approx(0.5, abs=0.02)
    gam = [GammaPrior(3.0, 2.0).sample(rng) for _ in range(20000)]
    assert np.mean(gam) == pytest.approx(1.5, abs=0.05)


def test_product_prior_sums_marginals():
    prior = Prior((LogNormalPrior(0.0, 1.0), GammaPrior(2.0, 1.0)))
    assert prior.dim == 2
    theta = [0.8, 1.4]
    expect = (LogNormalPrior(0.0, 1.0).log_density(0.8)
              + GammaPrior(2.0, 1.0).log_density(1.4))
    assert prior.log_density(theta) == pytest.approx(expect, rel=1e-14)
    assert prior.log_density([0.8, -1.0]) == -math.inf
    with pytest.raises(ValueError):
        prior.log_density([0.8])
    iid = Prior.iid(GammaPrior(1.0, 1.0), 3)
    assert iid.dim == 3
    assert iid.sample(np.random.default_rng(0)).shape == (3,)


# ---------------------------------------------------------------------------
# sampler


class _DeterministicEstimator:
    """Gaussian log-likelihood; ignores the auxiliary stream entirely."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)
        self.calls = 0

    def log_estimate(self, theta, rng, meter=None):
        self.calls += 1
        d = np.asarray(theta, dtype=float) - self.center
        return -0.5 * float(d @ d) * 40.0


class _NoisyEstimator:
    """Unbiased multiplicative noise: E exp(noise) = 1."""

    def __init__(self, center, noise_sd):
        self.inner = _DeterministicEstimator(center)
        self.noise_sd = noise_sd

    def log_estimate(self, theta, rng, meter=None):
        noise = self.noise_sd * rng.standard_normal() - 0.5 * self.noise_sd**2
        return self.inner.log_estimate(theta, rng, meter) + noise


def _reference_chain(estimator, prior, proposal_cov, n, seed, theta_init):
    """Plain Metropolis written independently of sample_chain."""
    ss = np.random.SeedSequence(seed)
    child_prop, _child_aux = ss.spawn(2)
    rng = np.random.default_rng(child_prop)
    dim = prior.dim
    chol = np.linalg.cholesky(np.eye(dim) * proposal_cov)
    theta = np.asarray(theta_init, dtype=float).copy()
    log_post = prior.log_density(theta) + estimator.log_estimate(theta, None)
    out = np.empty((n, dim))
    for it in range(n):
        prop = theta + chol @ rng.standard_normal(dim)
        lp = prior.log_density(prop)
        if lp > -math.inf:
            cand = lp + estimator.log_estimate(prop, None)
            if math.log(rng.uniform()) <= cand - log_post:
                theta, log_post = prop, cand
        out[it] = theta
    return out


def test_chain_with_deterministic_estimator_is_plain_metropolis():
    # wide proposals from a point near the support edge: many proposals fall
    # outside the prior and must consume neither an estimate nor a uniform
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), 2)
    est = _DeterministicEstimator([0.7, 0.7])
    trace = sample_chain(est, prior, 4.0, 300, seed=42, theta_init=[0.2, 0.2])
    ref_est = _DeterministicEstimator([0.7, 0.7])
    ref = _reference_chain(ref_est, prior, 4.0, 300, 42, [0.2, 0.2])
    assert np.array_equal(trace.thetas, ref)
    assert trace.n_iterations == 300
    assert 0.0 < trace.acceptance_rate < 1.0


def test_out_of_support_proposals_skip_likelihood_work():
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), 1)
    est = _DeterministicEstimator([0.5])
    trace = sample_chain(est, prior, 9.0, 400, seed=7, theta_init=[0.1])
    # replay the proposal stream to count in-support proposals
    ss = np.random.SeedSequence(7)
    child_prop, _ = ss.spawn(2)
    rng = np.random.default_rng(child_prop)
    chol = np.linalg.cholesky(np.eye(1) * 9.0)
    theta = np.array([0.1])
    in_support = 0
    for it in range(400):
        prop = theta + chol @ rng.standard_normal(1)
        if prior.log_density(prop) > -math.inf:
            in_support += 1
            rng.uniform()
        theta = trace.thetas[it]
    assert in_support < 400
    assert est.calls == 1 + in_support


def test_chain_is_reproducible_and_seed_sensitive():
    prior = Prior.iid(GammaPrior(2.0, 2.0), 2)
    kwargs = dict(prior=prior, proposal_cov=0.05, n_samples=120,
                  theta_init=[1.0, 1.0])
    a = sample_chain(_NoisyEstimator([1.0, 1.0], 0.4), seed=3, **kwargs)
    b = sample_chain(_NoisyEstimator([1.0, 1.0], 0.4), seed=3, **kwargs)
    c = sample_chain(_NoisyEstimator([1.0, 1.0], 0.4), seed=4, **kwargs)
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.log_estimates, b.log_estimates)
    assert not np.array_equal(a.thetas, c.thetas)


def test_noisy_unbiased_estimates_leave_the_target_invariant():
    # flat likelihood plus mean-one noise: the chain must sample the prior
    prior = Prior.iid(LogNormalPrior(0.4, 0.6), 1)

    class _FlatNoisy:
        def log_estimate(self, theta, rng, meter=None):
            sd = 0.8
            return sd * rng.standard_normal() - 0.5 * sd * sd

    trace = sample_chain(_FlatNoisy(), prior, 0.5, 40000, seed=12,
                         theta_init=[1.5])
    draws = np.log(trace.after_burnin(0.2)[:, 0])
    assert np.mean(draws) == pytest.approx(0.4, abs=0.03)
    assert np.std(draws) == pytest.approx(0.6, abs=0.03)


def test_chain_rejects_zero_density_start():
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), 1)
    with pytest.raises(ValueError):
        sample_chain(_DeterministicEstimator([1.0]), prior, 0.1, 10, seed=0,
                     theta_init=[-2.0])


def test_proposal_covariance_forms():
    prior = Prior.iid(GammaPrior(2.0, 2.0), 2)
    est = _DeterministicEstimator([1.0, 1.0])
    full = np.array([[0.04, 0.01], [0.01, 0.09]])
    for cov in (0.05, [0.04, 0.09], full):
        trace = sample_chain(est, prior, cov, 50, seed=1, theta_init=[1.0, 1.0])
        assert trace.thetas.shape == (50, 2)
    with pytest.raises(ValueError):
        sample_chain(est, prior, np.eye(3), 10, seed=0, theta_init=[1.0, 1.0])


def test_meter_threads_through_the_chain():
    prior = Prior.iid(GammaPrior(2.0, 2.0), 1)

    class _Metered:
        def log_estimate(self, theta, rng, meter=None):
            if meter is not None:
                meter.add_dense_square(10)
            return 0.0

    trace = sample_chain(_Metered(), prior, 0.1, 30, seed=0, theta_init=[1.0])
    assert trace.cum_gflops[-1] > 0
    assert np.all(np.diff(trace.cum_gflops) >= 0)


# ---------------------------------------------------------------------------
# multistart


def test_multistart_runs_independent_reproducible_chains():
    prior = Prior.iid(GammaPrior(2.0, 2.0), 1)
    est = _NoisyEstimator([1.0], 0.3)
    traces = multistart(est, prior, 0.1, 60, n_chains=3, seed=5,
                        theta_init=[1.0])
    assert len(traces) == 3
    assert not np.array_equal(traces[0].thetas, traces[1].thetas)
    again = multistart(_NoisyEstimator([1.0], 0.3), prior, 0.1, 60,
                       n_chains=3, seed=5, theta_init=[1.0])
    for a, b in zip(traces, again):
        assert np.array_equal(a.thetas, b.thetas)


def test_multistart_threaded_matches_serial():
    prior = Prior.iid(GammaPrior(2.0, 2.0), 1)
    serial = multistart(_DeterministicEstimator([1.0]), prior, 0.1, 80,
                        n_chains=2, seed=9, theta_init=[1.0])
    threaded = multistart(_DeterministicEstimator([1.0]), prior, 0.1, 80,
                          n_chains=2, seed=9, theta_init=[1.0], n_threads=2)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.thetas, b.thetas)


# ---------------------------------------------------------------------------
# trace files


def test_trace_round_trip_is_exact(tmp_path):
    prior = Prior.iid(GammaPrior(2.0, 2.0), 2)
    est = _NoisyEstimator([1.0, 1.0], 0.2)
    trace = sample_chain(est, prior, 0.05, 40, seed=6, theta_init=[1.0, 1.0])
    path = write_trace(trace, tmp_path / "chain.csv")
    back = read_trace(path)
    assert np.array_equal(back.thetas, trace.thetas)
    assert np.array_equal(back.log_estimates, trace.log_estimates)
    assert np.array_equal(back.accepted, trace.accepted)
    assert np.array_equal(back.cum_gflops, trace.cum_gflops)


def test_read_trace_rejects_other_csvs(tmp_path):
    bad = tmp_path / "data.csv"
    bad.write_text("t,species_1\n0.0,3\n1.0,4\n")
    with pytest.raises(ValueError):
        read_trace(bad)


def test_after_burnin_drops_the_leading_fraction():
    trace = Trace(
        thetas=np.arange(20.0)[:, None],
        log_estimates=np.zeros(20),
        accepted=np.zeros(20, dtype=bool),
        cum_gflops=np.zeros(20),
    )
    kept = trace.after_burnin(0.25)
    assert kept.shape == (15, 1)
    assert kept[0, 0] == 5.0


@pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5])
def test_after_burnin_rejects_fractions_outside_unit_interval(fraction):
    trace = Trace(
        thetas=np.arange(20.0)[:, None],
        log_estimates=np.zeros(20),
        accepted=np.zeros(20, dtype=bool),
        cum_gflops=np.zeros(20),
    )
    with pytest.raises(ValueError, match="burn-in"):
        trace.after_burnin(fraction)
