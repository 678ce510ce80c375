"""Pseudo-marginal random-walk Metropolis over rate parameters.

The chain targets the exact posterior because the likelihood estimates are
unbiased and nonnegative: a fresh estimate is drawn for every proposal, and
the retained estimate for the current point is replaced only on acceptance.
Two RNG streams are used, one for proposals and accept decisions and one for
the estimator's auxiliary draws, so a run with a deterministic estimator
consumes the proposal stream exactly like a plain Metropolis sampler.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expm import FlopMeter

__all__ = [
    "LogNormalPrior",
    "GammaPrior",
    "Prior",
    "Trace",
    "sample_chain",
    "multistart",
    "write_trace",
    "read_trace",
]


@dataclass(frozen=True)
class LogNormalPrior:
    """log X ~ Normal(mu, sigma^2), supported on x > 0."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def log_density(self, x: float) -> float:
        if x <= 0.0 or not math.isfinite(x):
            return -math.inf
        z = (math.log(x) - self.mu) / self.sigma
        return -math.log(x) - math.log(self.sigma) - 0.5 * math.log(2 * math.pi) \
            - 0.5 * z * z

    def sample(self, rng) -> float:
        return math.exp(self.mu + self.sigma * rng.standard_normal())


@dataclass(frozen=True)
class GammaPrior:
    """Gamma with shape/rate parametrization, supported on x > 0."""

    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("shape and rate must be positive")

    def log_density(self, x: float) -> float:
        if x <= 0.0 or not math.isfinite(x):
            return -math.inf
        return (self.shape * math.log(self.rate) - math.lgamma(self.shape)
                + (self.shape - 1.0) * math.log(x) - self.rate * x)

    def sample(self, rng) -> float:
        return float(rng.gamma(self.shape, 1.0 / self.rate))


@dataclass(frozen=True)
class Prior:
    """Independent product of per-coordinate marginals."""

    marginals: tuple

    @classmethod
    def iid(cls, marginal, dim: int) -> "Prior":
        return cls(tuple(marginal for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.marginals)

    def log_density(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        total = 0.0
        for m, x in zip(self.marginals, theta, strict=True):
            total += m.log_density(float(x))
            if total == -math.inf:
                return -math.inf
        return total

    def sample(self, rng) -> np.ndarray:
        return np.array([m.sample(rng) for m in self.marginals])


@dataclass
class Trace:
    """Per-iteration record of one chain."""

    thetas: np.ndarray
    log_estimates: np.ndarray
    accepted: np.ndarray
    cum_gflops: np.ndarray

    @property
    def n_iterations(self) -> int:
        return self.thetas.shape[0]

    @property
    def acceptance_rate(self) -> float:
        return float(self.accepted.mean())

    def after_burnin(self, burnin_fraction: float = 0.1) -> np.ndarray:
        """Parameter draws with the leading fraction discarded."""
        if not 0.0 <= burnin_fraction < 1.0:
            raise ValueError("burn-in fraction must lie in [0, 1)")
        start = int(self.n_iterations * burnin_fraction)
        return self.thetas[start:]


def _proposal_cholesky(proposal_cov, dim: int) -> np.ndarray:
    cov = np.asarray(proposal_cov, dtype=float)
    if cov.ndim == 0:
        cov = np.eye(dim) * float(cov)
    elif cov.ndim == 1:
        cov = np.diag(cov)
    if cov.shape != (dim, dim):
        raise ValueError(f"proposal covariance must be ({dim}, {dim})")
    return np.linalg.cholesky(cov)


def sample_chain(estimator, prior: Prior, proposal_cov, n_samples: int,
                 seed, theta_init=None, meter: FlopMeter | None = None) -> Trace:
    """Run one pseudo-marginal random-walk Metropolis chain.

    estimator must expose log_estimate(theta, rng, meter) returning an
    unbiased log-likelihood estimate (fresh auxiliary draw each call). seed
    may be an int or a numpy SeedSequence; it is split into the proposal
    stream and the auxiliary stream.
    """
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    child_prop, child_aux = ss.spawn(2)
    rng_prop = np.random.default_rng(child_prop)
    rng_aux = np.random.default_rng(child_aux)
    meter = meter if meter is not None else FlopMeter()

    dim = prior.dim
    chol = _proposal_cholesky(proposal_cov, dim)

    if theta_init is None:
        theta = prior.sample(rng_prop)
    else:
        theta = np.asarray(theta_init, dtype=float).copy()
    log_prior = prior.log_density(theta)
    if log_prior == -math.inf:
        raise ValueError("initial point has zero prior density")
    log_lik = float(estimator.log_estimate(theta, rng_aux, meter))

    thetas = np.empty((n_samples, dim))
    log_estimates = np.empty(n_samples)
    accepted = np.zeros(n_samples, dtype=bool)
    cum_gflops = np.empty(n_samples)

    for it in range(n_samples):
        proposal = theta + chol @ rng_prop.standard_normal(dim)
        log_prior_prop = prior.log_density(proposal)
        if log_prior_prop > -math.inf:
            # out-of-support proposals skip all likelihood work
            log_lik_prop = float(estimator.log_estimate(proposal, rng_aux, meter))
            log_ratio = (log_prior_prop + log_lik_prop) - (log_prior + log_lik)
            u = rng_prop.uniform()
            if math.log(u) <= log_ratio:
                theta = proposal
                log_prior = log_prior_prop
                log_lik = log_lik_prop
                accepted[it] = True
        thetas[it] = theta
        log_estimates[it] = log_lik
        cum_gflops[it] = meter.gflops
    return Trace(
        thetas=thetas,
        log_estimates=log_estimates,
        accepted=accepted,
        cum_gflops=cum_gflops,
    )


def multistart(estimator, prior: Prior, proposal_cov, n_samples: int,
               n_chains: int, seed, theta_init=None, n_threads: int = 1) -> list:
    """Independent chains from spawned RNG streams; optional thread pool.

    Chains share the estimator (truncation ladders grow under a lock); each
    chain gets its own FLOP meter and RNG streams.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(n_chains)

    def one(child):
        return sample_chain(estimator, prior, proposal_cov, n_samples, child,
                            theta_init=theta_init)

    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(one, children))
    return [one(child) for child in children]


# ---------------------------------------------------------------------------
# trace files


def write_trace(trace: Trace, path) -> Path:
    """CSV with header iter,theta_1..theta_p,log_estimate,accepted,cum_gflops."""
    path = Path(path)
    dim = trace.thetas.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iter"] + [f"theta_{j + 1}" for j in range(dim)]
            + ["log_estimate", "accepted", "cum_gflops"]
        )
        for it in range(trace.n_iterations):
            writer.writerow(
                [it + 1]
                + [repr(float(v)) for v in trace.thetas[it]]
                + [repr(float(trace.log_estimates[it])),
                   int(trace.accepted[it]),
                   repr(float(trace.cum_gflops[it]))]
            )
    return path


def read_trace(path) -> Trace:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected_tail = ["log_estimate", "accepted", "cum_gflops"]
        if header[:1] != ["iter"] or header[-3:] != expected_tail:
            raise ValueError(f"{path} is not a trace CSV")
        dim = len(header) - 4
        thetas, log_est, acc, gflops = [], [], [], []
        for row in reader:
            if not row:
                continue
            thetas.append([float(v) for v in row[1:1 + dim]])
            log_est.append(float(row[1 + dim]))
            acc.append(bool(int(row[2 + dim])))
            gflops.append(float(row[3 + dim]))
    return Trace(
        thetas=np.asarray(thetas),
        log_estimates=np.asarray(log_est),
        accepted=np.asarray(acc, dtype=bool),
        cum_gflops=np.asarray(gflops),
    )
