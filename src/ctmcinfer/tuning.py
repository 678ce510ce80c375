"""Automatic tuning of the joint approximation sequences and debiasing laws.

The pipeline per estimator target (one per observation for IA, one merged for
RA): profile convergence in the truncation level and in the accuracy exponent
separately, place offsets just past the last surge of each profile, then walk
the joint sequence once: the walk slopes the accuracy against the level, and
the geometric law is fitted to the decay of that same walk's differences. A
grid stage compares candidate noise floors by estimator cost and picks the
proposal scale by effective samples per GFLOP.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .debias import (
    ACCURACY_CAP,
    EstimatorConfig,
    GeometricLaw,
    JointSequence,
    LikelihoodEstimator,
)
from .diagnostics import ess
from .expm import FlopMeter
from .sampler import Prior, sample_chain

__all__ = [
    "ConvergenceProfile",
    "profile",
    "last_peak",
    "offset_from_profile",
    "tune_sigma",
    "fit_p",
    "TunedConfig",
    "tune_estimator",
    "estimate_sigma_zeta",
    "map_estimate",
    "laplace_covariance",
    "grid_select",
    "P_MIN_GRID",
    "SIGMA_BAR_GRID",
    "tuned_config_to_text",
    "tuned_config_from_text",
    "read_flat",
]

P_MIN_GRID = (0.0, 0.01, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9)
SIGMA_BAR_GRID = (0.1, 1.0, 1.5, 2.0)
P_CLAMP = (0.4, 0.9)
K_START = -10
R_EXPLORE = 3
SIGMA_DEFAULT = 0.1
MAP_BRACKET = (0.25, 4.0)
LAPLACE_REL_STEP = 1e-3
ALPHA_FACTORS = (0.5, 1.0, 2.0)

# relative decrease forgiven while walking supposedly nondecreasing profiles
_REL_SLACK = 1e-9


@dataclass(frozen=True)
class ConvergenceProfile:
    """Convergence of one a(r, k) target in each index separately.

    trunc_values[i] is a(i, k_high); acc_values[j] is a(r_eps, K_START + j).
    a_star is the converged value a(r_eps, k_high). r_eps is the last level
    scanned: the first level, from profile's minimum look-ahead on, whose
    relative change is below the tolerance, or r_cap when none is. k_eps is
    the first accuracy within the tolerance of a_star, or the accuracy cap.
    """

    trunc_values: np.ndarray
    acc_values: np.ndarray
    a_star: float
    r_eps: int
    k_eps: float
    k_high: float
    k_start: int = K_START


def profile(value_fn, eps: float = 1e-8, r_explore: int = R_EXPLORE,
            r_cap: int = 200) -> ConvergenceProfile:
    """Scan the truncation level, then the accuracy exponent, to convergence.

    Differences are taken relative to the running value so targets of any
    magnitude (single transition probabilities or long products) profile the
    same way. The level scan stops at the first level, from r_explore - 1
    on, whose relative change is below eps, and that level is r_eps.
    r_explore is only a minimum look-ahead: levels 0..r_explore-1 are always
    scanned, so a target that does not move at its first levels is not taken
    as converged there. The scan covers at most levels 0..r_cap, which is
    r_cap + 1 evaluations, and r_eps is r_cap when none of them converges.
    The accuracy scan walks from K_START at r_eps until within eps of the
    converged value, capped at the accuracy ceiling.
    """
    k_high = min(-math.log10(eps), ACCURACY_CAP)

    trunc_values = []
    r = 0
    delta = math.inf
    a_old = 0.0
    while (r < r_explore or delta >= eps) and r <= r_cap:
        a_new = float(value_fn(r, k_high))
        trunc_values.append(a_new)
        ref = a_new if a_new > 0 else 1.0
        delta = (a_new - a_old) / ref
        a_old = a_new
        r += 1
    r_eps = r - 1
    a_star = trunc_values[-1]
    if a_star < sys.float_info.min:
        # value_fn returns exp(log value): below about e^-708 that underflows
        raise FloatingPointError(f"converged target value {a_star!r} is zero or subnormal; "
                                 "tune in IA mode, whose targets are single transitions")

    acc_values = []
    k = K_START
    delta = math.inf
    ref = a_star if a_star > 0 else 1.0
    while delta >= eps and k <= ACCURACY_CAP:
        # the level scan's last point is (r_eps, k_high)
        a_new = a_star if k == k_high else float(value_fn(r_eps, k))
        acc_values.append(a_new)
        delta = (a_star - a_new) / ref
        k += 1
    k_eps = float(k - 1)

    return ConvergenceProfile(
        trunc_values=np.asarray(trunc_values),
        acc_values=np.asarray(acc_values),
        a_star=a_star,
        r_eps=r_eps,
        k_eps=k_eps,
        k_high=k_high,
    )


def last_peak(diffs) -> int:
    """Index of the last local maximum, ties resolved toward larger index.

    Only positive differences can host a peak: a converged tail of zeros is
    not a surge, so it never drags the offset out to full convergence.
    """
    d = np.asarray(diffs, dtype=float)
    n = d.size
    if n == 0:
        return 0
    for i in range(n - 1, -1, -1):
        left_ok = i == 0 or d[i] >= d[i - 1]
        right_ok = i == n - 1 or d[i] > d[i + 1]
        if d[i] > 0 and left_ok and right_ok:
            return i
    return 0


def offset_from_profile(values, a_star: float, p_min: float) -> int:
    """First index at or past the difference peak with value >= p_min * a_star."""
    values = np.asarray(values, dtype=float)
    diffs = np.diff(values, prepend=0.0)
    start = last_peak(diffs)
    threshold = p_min * a_star
    for i in range(start, values.size):
        if values[i] >= threshold:
            return i
    return values.size - 1


def _joint_walk(value_fn, prof: ConvergenceProfile, trunc_offset: int,
                acc_offset: float) -> tuple:
    """Slope sigma and the values of the joint walk at sigma, up to (r_eps, k_eps).

    sigma starts from the profile aspect ratio (at least SIGMA_DEFAULT) and
    doubles, at most 60 times, whenever the walk decreases, so accuracy error
    never dominates the truncation gain. Each doubling restarts the walk at
    n = 0, so the returned walk is the one that passed the check.
    """
    sigma = SIGMA_DEFAULT if prof.k_eps <= acc_offset else max(
        SIGMA_DEFAULT, (prof.r_eps - trunc_offset) / (prof.k_eps - acc_offset))
    vals = []
    doublings = 0
    while True:
        n = len(vals)
        r = trunc_offset + n
        k = acc_offset + sigma * n
        if r > prof.r_eps or k > prof.k_eps:
            return sigma, vals
        a_new = float(value_fn(r, min(k, ACCURACY_CAP)))
        a_old = vals[-1] if vals else 0.0
        if a_new < a_old - _REL_SLACK * max(a_new, a_old, 1e-300) and doublings < 60:
            sigma *= 2.0
            doublings += 1
            vals = []
        else:
            vals.append(a_new)


def tune_sigma(value_fn, prof: ConvergenceProfile, trunc_offset: int,
               acc_offset: float) -> float:
    """Slope of accuracy against level along the joint sequence."""
    return _joint_walk(value_fn, prof, trunc_offset, acc_offset)[0]


def fit_p(joint_diffs) -> float:
    """Geometric success probability fitted to the difference decay.

    Regresses log(d_n) - log(d_0) on n with no intercept; the implied decay
    e^beta maps to p = 1 - e^beta, clamped into P_CLAMP. Degenerate inputs
    (no usable positive differences) fall back to the upper clamp, the safe
    choice when convergence is effectively immediate.
    """
    d = np.asarray(joint_diffs, dtype=float)
    if d.size == 0 or d[0] <= 0.0:
        return P_CLAMP[1]
    xs, ns = [], []
    for n in range(1, d.size):
        if d[n] > 0.0:
            xs.append(math.log(d[n]) - math.log(d[0]))
            ns.append(n)
    if not ns:
        return P_CLAMP[1]
    ns = np.asarray(ns, dtype=float)
    xs = np.asarray(xs)
    beta = float((ns * xs).sum() / (ns * ns).sum())
    p = 1.0 - math.exp(beta)
    return min(max(p, P_CLAMP[0]), P_CLAMP[1])


# ---------------------------------------------------------------------------
# tuned configurations


@dataclass(frozen=True)
class TunedConfig:
    """A complete estimator-and-proposal configuration produced by tuning."""

    mode: str
    method: str
    sequence: JointSequence | None = None
    law: GeometricLaw | None = None
    sequences: tuple | None = None
    laws: tuple | None = None
    p_min: float = 0.9
    sigma_zeta: float | None = None
    proposal_cov: object = None
    q_bar_global: float | None = None
    # tuning byproducts, one ConvergenceProfile per estimator target and the
    # grid stage's candidate list; not part of the configuration itself
    profiles: list | None = field(default=None, compare=False, repr=False)
    grid_report: list | None = field(default=None, compare=False, repr=False)

    def to_estimator_config(self) -> EstimatorConfig:
        # unset fields keep EstimatorConfig's defaults
        fields = {name: getattr(self, name) for name in
                  ("sequence", "law", "sequences", "laws", "q_bar_global")}
        return EstimatorConfig(
            mode=self.mode, method=self.method,
            **{name: v for name, v in fields.items() if v is not None},
        )


def _tune_target(value_fn, p_min: float, eps: float,
                 prof: ConvergenceProfile | None = None):
    """Offsets, slope, and law for one estimator target."""
    if prof is None:
        prof = profile(value_fn, eps=eps)
    trunc_offset = offset_from_profile(prof.trunc_values, prof.a_star, p_min)
    k_idx = offset_from_profile(prof.acc_values, prof.a_star, p_min)
    acc_offset = float(prof.k_start + k_idx)
    sigma, joint = _joint_walk(value_fn, prof, trunc_offset, acc_offset)
    # the walk visits no point when an offset already lies past the profile
    joint = np.asarray(joint or [
        float(value_fn(trunc_offset, min(acc_offset, ACCURACY_CAP)))])

    # re-place the offsets along the joint walk itself, then fit the law to
    # the joint difference decay
    n0 = offset_from_profile(joint, prof.a_star, p_min)
    trunc_offset += n0
    acc_offset += sigma * n0
    joint = joint[n0:]
    diffs = np.diff(joint)
    p = fit_p(diffs)
    seq = JointSequence(trunc_offset=trunc_offset, acc_offset=acc_offset,
                        slope=sigma)
    return seq, GeometricLaw(p), prof


def tune_estimator(estimator: LikelihoodEstimator, theta, p_min: float = 0.9,
                   eps: float = 1e-8, profiles: list | None = None) -> TunedConfig:
    """Tune every sequence the estimator needs at the given parameter point.

    profiles, when given, are reused across calls (they do not depend on
    p_min); pass the list returned via TunedConfig.profiles of a prior call.
    """
    theta = estimator.net.validate_theta(theta)
    # every target takes its levels from one merged matrix per level
    mat_cache: dict = {}
    # IA targets with equal (x_from, x_to, dt) share a ladder and a plan, so
    # their values, and hence their tuning, are equal: tune the first of
    # them and reuse the result
    by_obs: dict = {}
    tuned = []
    for j, key in enumerate(estimator.targets):
        obs = None if key is None else estimator.observations[key]
        if obs not in by_obs:
            f = estimator.value_fn(theta, key, mat_cache=mat_cache)
            by_obs[obs] = _tune_target(f, p_min, eps, profiles[j] if profiles else None)
        tuned.append(by_obs[obs])
    seqs, laws, tuned_profiles = (list(col) for col in zip(*tuned))
    if estimator.mode == "ra":
        fields = {"sequence": seqs[0], "law": laws[0]}
    else:
        fields = {"sequences": tuple(seqs), "laws": tuple(laws)}
    return TunedConfig(
        mode=estimator.mode, method=estimator.config.method, p_min=p_min,
        q_bar_global=estimator.config.q_bar_global, profiles=tuned_profiles,
        **fields,
    )


def estimate_sigma_zeta(estimator: LikelihoodEstimator, theta, n_draws: int = 100,
                        seed: int = 0, meter: FlopMeter | None = None) -> float:
    """Standard deviation of the log-estimate at theta over n_draws draws."""
    if n_draws < 2:
        raise ValueError(f"n_draws={n_draws}: a standard deviation needs at "
                         "least 2 draws")
    rng = np.random.default_rng(seed)
    draws = np.empty(n_draws)
    for i in range(n_draws):
        draws[i] = estimator.log_estimate(theta, rng, meter)
    if not np.all(np.isfinite(draws)):
        return math.inf
    return float(np.std(draws, ddof=1))


def _golden(f, lo: float, hi: float, tol: float = 1e-3, max_iter: int = 40):
    """Golden-section minimizer on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol * (abs(a) + abs(b) + 1e-12):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _log_posterior(estimator: LikelihoodEstimator, prior: Prior, theta,
                   eps: float = 1e-8, r: int | None = None, k: float | None = None):
    """th -> log prior + deterministic log-likelihood at level r, accuracy k.

    (r, k) default to the first target's profiled (r_eps, k_eps) at theta.
    """
    if r is None or k is None:
        prof = profile(estimator.value_fn(theta, estimator.targets[0]), eps=eps)
        r, k = prof.r_eps, prof.k_eps

    def log_post(th):
        lp = prior.log_density(th)
        if lp == -math.inf:
            return -math.inf
        return lp + estimator.deterministic_log_likelihood(th, r, k)

    return log_post


def map_estimate(estimator: LikelihoodEstimator, prior: Prior, theta0,
                 eps: float = 1e-8, sweeps: int = 2) -> np.ndarray:
    """Posterior mode by coordinate-wise golden-section search.

    The objective is the deterministic approximate log-likelihood at the
    profiled (r_eps, k_eps) plus the log prior; each sweep searches every
    coordinate over a multiplicative bracket around its current value.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    log_post = _log_posterior(estimator, prior, theta, eps=eps)
    for _ in range(sweeps):
        for j in range(theta.size):
            def along(v):
                trial = theta.copy()
                trial[j] = v
                return -log_post(trial)

            theta[j] = _golden(along, *(theta[j] * f for f in MAP_BRACKET))
    return theta


def laplace_covariance(estimator: LikelihoodEstimator, prior: Prior, theta,
                       r: int | None = None, k: float | None = None) -> np.ndarray:
    """Gaussian-approximation covariance at a posterior mode.

    Finite-difference Hessian of the deterministic log posterior, negated and
    inverted through an eigendecomposition. Eigenvalues pass through an
    absolute value and a relative floor, so a saddle or flat direction at an
    imperfect mode keeps its measured scale instead of blowing up the
    proposal.
    """
    theta = np.asarray(theta, dtype=float)
    logpost = _log_posterior(estimator, prior, theta, r=r, k=k)

    dim = theta.size
    h = LAPLACE_REL_STEP * np.maximum(np.abs(theta), 1e-8)
    base = logpost(theta)
    hess = np.zeros((dim, dim))

    def at(*shifts):
        th = theta.copy()
        for j, sign in shifts:
            th[j] += sign * h[j]
        return logpost(th)

    for i in range(dim):
        hess[i, i] = (at((i, 1)) - 2.0 * base + at((i, -1))) / h[i] ** 2
        for j in range(i + 1, dim):
            mixed = (at((i, 1), (j, 1)) - at((i, 1), (j, -1))
                     - at((i, -1), (j, 1)) + at((i, -1), (j, -1)))
            hess[i, j] = hess[j, i] = mixed / (4.0 * h[i] * h[j])

    curv = -0.5 * (hess + hess.T)
    w, vecs = np.linalg.eigh(curv)
    w = np.abs(w)
    floor = max(w.max(), 1e-12) * 1e-6
    w = np.maximum(w, floor)
    return (vecs / w) @ vecs.T


def grid_select(net, dataset, prior: Prior, theta_map, v_hat,
                base_config: EstimatorConfig | None = None,
                p_min_grid=P_MIN_GRID, sigma_bars=SIGMA_BAR_GRID,
                n_draws: int = 100, short_run: int = 200,
                seed: int = 0, eps: float = 1e-8) -> TunedConfig:
    """Full grid stage: noise-floor grid, cost filter, proposal-scale choice.

    For each candidate p_min the estimator is tuned and its log-estimate noise
    sigma_zeta measured with common random numbers, together with the metered
    FLOP cost per estimate. For each noise ceiling the cheapest config meeting
    it is shortlisted (best effort with a warning when even the loosest
    ceiling is missed). Shortlisted configs then run short chains over the
    proposal-scale grid and the winner by effective samples per GFLOP is
    returned, with sigma_zeta and the chosen proposal covariance filled in.
    """
    base_config = base_config or EstimatorConfig()
    base_est = LikelihoodEstimator(net, dataset, base_config)
    theta_map = np.asarray(theta_map, dtype=float)
    v_hat = np.asarray(v_hat, dtype=float)
    alpha_grid = tuple((2.38**2 / theta_map.size) * f for f in ALPHA_FACTORS)

    profiles = None
    candidates = []
    for p_min in p_min_grid:
        tuned = tune_estimator(base_est, theta_map, p_min=p_min, eps=eps,
                               profiles=profiles)
        profiles = tuned.profiles
        est = LikelihoodEstimator(net, dataset, tuned.to_estimator_config())
        meter = FlopMeter()
        sigma_zeta = estimate_sigma_zeta(est, theta_map, n_draws=n_draws,
                                         seed=seed, meter=meter)
        candidates.append({
            "p_min": p_min,
            "tuned": tuned,
            "sigma_zeta": sigma_zeta,
            "cost_flops": meter.flops / max(n_draws, 1),
        })

    shortlist = {}
    for sigma_bar in sigma_bars:
        feasible = [c for c in candidates if c["sigma_zeta"] <= sigma_bar]
        if feasible:
            best = min(feasible, key=lambda c: c["cost_flops"])
            shortlist[best["p_min"]] = best
    if not shortlist:
        warnings.warn(
            "no tuned configuration met the loosest noise ceiling "
            f"{max(sigma_bars)}; proceeding best-effort with the quietest one"
        )
        best = min(candidates, key=lambda c: c["sigma_zeta"])
        shortlist[best["p_min"]] = best

    best_rate = -math.inf
    best_choice = None
    for cand in shortlist.values():
        est = LikelihoodEstimator(net, dataset, cand["tuned"].to_estimator_config())
        for alpha in alpha_grid:
            meter = FlopMeter()
            trace = sample_chain(
                est, prior, alpha * v_hat, short_run, seed,
                theta_init=theta_map, meter=meter,
            )
            gf = trace.cum_gflops[-1]
            rate = ess(trace.thetas) / gf if gf > 0 else 0.0
            if rate > best_rate:
                best_rate = rate
                best_choice = (cand, alpha)

    cand, alpha = best_choice
    return replace(
        cand["tuned"], sigma_zeta=cand["sigma_zeta"],
        proposal_cov=alpha * v_hat, grid_report=candidates,
    )


# ---------------------------------------------------------------------------
# flat key-value serialization (consumed by the command line)


def read_flat(text: str) -> dict:
    """key = value pairs of a flat config; blank and '#' lines are skipped."""
    pairs = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def _seq_lines(prefix: str, seq: JointSequence, law: GeometricLaw) -> list:
    return [
        f"{prefix}trunc_offset = {seq.trunc_offset}",
        f"{prefix}acc_offset = {seq.acc_offset!r}",
        f"{prefix}slope = {seq.slope!r}",
        f"{prefix}law_p = {law.p!r}",
    ]


def tuned_config_to_text(cfg: TunedConfig) -> str:
    lines = [f"mode = {cfg.mode}", f"method = {cfg.method}",
             f"p_min = {cfg.p_min!r}"]
    if cfg.sigma_zeta is not None:
        lines.append(f"sigma_zeta = {cfg.sigma_zeta!r}")
    if cfg.q_bar_global is not None:
        lines.append(f"q_bar_global = {cfg.q_bar_global!r}")
    if cfg.sequence is not None:
        lines.extend(_seq_lines("", cfg.sequence, cfg.law))
    if cfg.sequences is not None:
        for i, (seq, law) in enumerate(zip(cfg.sequences, cfg.laws)):
            lines.extend(_seq_lines(f"obs{i}.", seq, law))
    if cfg.proposal_cov is not None:
        cov = np.asarray(cfg.proposal_cov, dtype=float)
        rows = [",".join(repr(float(v)) for v in row) for row in cov]
        lines.append("proposal_cov = " + ";".join(rows))
    return "\n".join(lines) + "\n"


def _whole(text: str) -> int:
    value = float(text)
    if not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def _matrix(text: str) -> np.ndarray:
    return np.asarray([[float(v) for v in row.split(",")] for row in text.split(";")])


def tuned_config_from_text(text: str) -> TunedConfig:
    pairs = read_flat(text)
    mode = pairs.pop("mode", "auto")
    method = pairs.pop("method", "skeletoid")

    def number(key, convert=float, default=None):
        # pairs.pop(key) converted; a malformed value is an error naming key
        value = pairs.pop(key, default)
        if value is None:
            return None
        try:
            return convert(value)
        except ValueError as exc:
            raise ValueError(f"{key} = {value}: {exc}") from exc

    p_min = number("p_min", default="0.9")
    sigma_zeta = number("sigma_zeta")
    q_bar_global = number("q_bar_global")
    proposal_cov = number("proposal_cov", _matrix)

    def read_seq(prefix, required):
        # an ra config needs the unprefixed keys, an ia config obs0.*
        keys = [f"{prefix}trunc_offset", f"{prefix}acc_offset",
                f"{prefix}slope", f"{prefix}law_p"]
        missing = [k for k in keys if k not in pairs]
        if len(missing) == len(keys) and not required:
            return None, None
        if missing:
            raise ValueError(f"mode {mode} config lacks {', '.join(missing)}")
        seq = JointSequence(trunc_offset=number(keys[0], _whole),
                            acc_offset=number(keys[1]), slope=number(keys[2]))
        return seq, GeometricLaw(number(keys[3]))

    sequence, law = read_seq("", mode == "ra")
    sequences, laws = [], []
    while True:
        seq_i, law_i = read_seq(f"obs{len(sequences)}.", mode == "ia" and not sequences)
        if seq_i is None:
            break
        sequences.append(seq_i)
        laws.append(law_i)
    if pairs:
        raise ValueError(f"unknown config keys: {sorted(pairs)}")
    return TunedConfig(
        mode=mode, method=method, sequence=sequence, law=law,
        sequences=tuple(sequences) if sequences else None,
        laws=tuple(laws) if laws else None,
        p_min=p_min, sigma_zeta=sigma_zeta, proposal_cov=proposal_cov,
        q_bar_global=q_bar_global,
    )
