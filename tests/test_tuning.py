"""Convergence profiling, sequence tuning, and the grid stage."""

import collections
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ctmcinfer import (
    ACCURACY_CAP,
    ConvergenceProfile,
    Dataset,
    EstimatorConfig,
    GammaPrior,
    GeometricLaw,
    JointSequence,
    LikelihoodEstimator,
    LogNormalPrior,
    P_MIN_GRID,
    Prior,
    TunedConfig,
    builtin_model,
    estimate_sigma_zeta,
    fit_p,
    grid_select,
    laplace_covariance,
    last_peak,
    map_estimate,
    offset_from_profile,
    profile,
    tune_estimator,
    tune_sigma,
    tuned_config_from_text,
    tuned_config_to_text,
)
from ctmcinfer import debias, tuning
from ctmcinfer.statespace import assemble


def _smooth_target(r, k):
    # nondecreasing in both indices, converging to 0.8
    trunc_part = 1.0 - 0.5 ** (r + 1)
    acc_part = max(0.0, 1.0 - 10.0 ** (-float(k)))
    return 0.8 * trunc_part * acc_part


# ---------------------------------------------------------------------------
# profiling


def test_profile_structure_and_determinism():
    prof = profile(_smooth_target, eps=1e-8, r_explore=15)
    assert prof.k_high == 8.0
    assert prof.trunc_values.size >= 15
    assert np.all(np.diff(prof.trunc_values) >= 0)
    assert prof.a_star == prof.trunc_values[-1]
    assert prof.a_star == pytest.approx(0.8, rel=1e-7)
    # the level scan must run past the point where 0.5^(r+1) drops below eps
    assert 25 <= prof.r_eps <= 40
    # the accuracy scan starts at the configured floor and ends near k_high
    assert prof.k_start == -10
    assert 6.0 <= prof.k_eps <= 9.0
    again = profile(_smooth_target, eps=1e-8, r_explore=15)
    assert np.array_equal(prof.trunc_values, again.trunc_values)
    assert np.array_equal(prof.acc_values, again.acc_values)


def test_profile_relative_differences_handle_tiny_targets():
    # values of order 1e-21: an absolute tolerance would stop immediately
    prof = profile(lambda r, k: 1e-21 * _smooth_target(r, k), eps=1e-8)
    assert 25 <= prof.r_eps <= 40
    assert prof.a_star == pytest.approx(0.8e-21, rel=1e-7)


def test_profile_evaluates_each_point_once():
    calls = collections.Counter()

    def counted(r, k):
        calls[(r, float(k))] += 1
        return _smooth_target(r, k)

    prof = profile(counted, eps=1e-8, r_explore=15)
    assert max(calls.values()) == 1
    # the accuracy scan reaches k_high at r_eps, taken from the level scan
    assert prof.k_eps >= prof.k_high
    assert prof.acc_values[int(prof.k_high) - prof.k_start] == prof.a_star


def test_profile_respects_the_level_cap():
    prof = profile(lambda r, k: float(r), eps=1e-12, r_cap=30)
    assert prof.r_eps == 30


def test_profile_explores_at_least_the_requested_levels():
    # converges at r=0; the scan must still look r_explore levels ahead
    prof = profile(lambda r, k: 1.0, eps=1e-8, r_explore=12)
    assert prof.trunc_values.size == 12


def test_profile_stops_at_the_converged_level():
    # relative changes 1, 1e-2, 1e-4, 1e-6, 1e-8 - 1e-10: level 4 is the
    # first below eps, and the default look-ahead must not scan past it
    prof = profile(lambda r, k: 1.0 - 0.01 ** (r + 1))
    assert prof.r_eps == 4
    assert prof.trunc_values.size == 5


@pytest.mark.parametrize("value", [0.0, 1e-320])
def test_profile_refuses_an_underflowed_target(value):
    # an RA target is exp(log L); past log L of about -708 it reads 0 or a
    # subnormal, and a profile of such values places meaningless offsets
    with pytest.raises(FloatingPointError, match=f"{value!r}.*IA mode"):
        profile(lambda r, k: value, eps=1e-8)


# ---------------------------------------------------------------------------
# offset placement


def test_last_peak_cases():
    assert last_peak([]) == 0
    assert last_peak([0.3]) == 0
    assert last_peak([1.0, 0.5, 0.2]) == 0
    assert last_peak([0.1, 1.0, 0.5]) == 1
    assert last_peak([0.2, 0.1, 0.3]) == 2
    # ties resolve toward the later index
    assert last_peak([1.0, 1.0, 0.5]) == 1
    assert last_peak([0.5, 0.5]) == 1
    # a converged zero tail is not a surge
    assert last_peak([0.5, 0.1, 0.0, 0.0]) == 0
    assert last_peak([0.0, 0.0]) == 0


def test_offset_from_profile_threshold_and_peak():
    values = [0.1, 0.5, 0.7, 0.9, 0.95]
    a_star = 0.95
    # diffs (with a leading 0.1) peak last at index 3
    assert offset_from_profile(values, a_star, p_min=0.0) == 3
    assert offset_from_profile(values, a_star, p_min=0.9) == 3
    assert offset_from_profile(values, a_star, p_min=0.99) == 4
    # unreachable threshold falls back to the final level
    assert offset_from_profile(values, a_star, p_min=1.1) == 4


# ---------------------------------------------------------------------------
# slope and law fitting


def test_tune_sigma_defaults_when_accuracy_is_already_converged():
    prof = ConvergenceProfile(
        trunc_values=np.array([1.0]), acc_values=np.array([1.0]),
        a_star=1.0, r_eps=10, k_eps=2.0, k_high=8.0,
    )
    assert tune_sigma(_smooth_target, prof, trunc_offset=0, acc_offset=4.0) == 0.1


def test_tune_sigma_uses_the_profile_aspect_ratio():
    prof = ConvergenceProfile(
        trunc_values=np.array([1.0]), acc_values=np.array([1.0]),
        a_star=0.8, r_eps=14, k_eps=8.0, k_high=8.0,
    )
    sigma = tune_sigma(_smooth_target, prof, trunc_offset=4, acc_offset=3.0)
    assert sigma == pytest.approx((14 - 4) / (8.0 - 3.0))


def test_tune_sigma_doubles_past_joint_walk_decreases():
    # value rises with k - r, so a slope below 1 walks downhill and must be
    # doubled away from the aspect-ratio start of 6/10
    def skewed(r, k):
        return 1.0 - 2.0 ** (-min(float(k) - r, 20.0))

    prof = ConvergenceProfile(
        trunc_values=np.array([1.0]), acc_values=np.array([1.0]),
        a_star=1.0, r_eps=6, k_eps=12.0, k_high=8.0,
    )
    sigma = tune_sigma(skewed, prof, trunc_offset=0, acc_offset=2.0)
    assert sigma == pytest.approx(1.2)


def test_the_law_is_fitted_to_the_walk_that_chose_the_slope():
    # the walk dips at (1, 1.0) and (2, 1.0): slope 0.5 meets the second dip
    # and slope 1.0 the first, so only slope 2.0 walks without a decrease;
    # each doubling starts the walk again, so the fitted walk is that one
    def dipping(r, k):
        return 0.05 if (r, k) in ((1, 1.0), (2, 1.0)) else 0.1 * (r + k) + 0.1

    prof = ConvergenceProfile(
        trunc_values=np.array([1.0]), acc_values=np.array([1.0]),
        a_star=1.0, r_eps=4, k_eps=8.0, k_high=8.0, k_start=0,
    )
    assert tune_sigma(dipping, prof, trunc_offset=0, acc_offset=0.0) == 2.0
    seq, _, _ = tuning._tune_target(dipping, 0.9, 1e-8, prof)
    assert seq.slope == 2.0
    sigma, walk = tuning._joint_walk(dipping, prof, 0, 0.0)
    assert sigma == 2.0
    assert walk == pytest.approx([0.1, 0.4, 0.7, 1.0, 1.3])
    assert np.all(np.diff(walk) >= 0.0)


def test_fit_p_recovers_geometric_decay():
    assert fit_p([1.0 * 0.5**n for n in range(8)]) == pytest.approx(0.5, rel=1e-9)
    assert fit_p([2.0 * 0.25**n for n in range(6)]) == pytest.approx(0.75, rel=1e-9)


def test_fit_p_clamps_and_degenerates():
    # slow decay clamps low, fast decay clamps high
    assert fit_p([1.0 * 0.9**n for n in range(8)]) == 0.4
    assert fit_p([1.0 * 0.01**n for n in range(4)]) == 0.9
    assert fit_p([]) == 0.9
    assert fit_p([0.0, 0.5]) == 0.9
    assert fit_p([1.0]) == 0.9
    # zeros between usable differences are skipped, not fitted
    assert fit_p([1.0, 0.0, 0.25, 0.0]) == pytest.approx(0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# tuned configuration round trip


def test_tuned_config_text_round_trip_shared():
    cfg = TunedConfig(
        mode="ra", method="uniformization_global",
        sequence=JointSequence(trunc_offset=3, acc_offset=4.25, slope=0.75),
        law=GeometricLaw(0.55), p_min=0.8, sigma_zeta=1.2345678901234567,
        proposal_cov=np.array([[0.04, 0.01], [0.01, 0.09]]),
        q_bar_global=-7.5,
    )
    back = tuned_config_from_text(tuned_config_to_text(cfg))
    assert back.mode == "ra" and back.method == "uniformization_global"
    assert back.sequence == cfg.sequence
    assert back.law == cfg.law
    assert back.p_min == 0.8
    assert back.sigma_zeta == cfg.sigma_zeta
    assert back.q_bar_global == -7.5
    assert np.array_equal(back.proposal_cov, cfg.proposal_cov)
    assert back.sequences is None and back.laws is None


def test_tuned_config_text_round_trip_per_observation():
    cfg = TunedConfig(
        mode="ia", method="skeletoid",
        sequences=(JointSequence(1, 4.0, 0.5), JointSequence(2, 5.0, 1.0)),
        laws=(GeometricLaw(0.5), GeometricLaw(0.75)),
        p_min=0.9,
    )
    back = tuned_config_from_text(tuned_config_to_text(cfg))
    assert back.sequences == cfg.sequences
    assert back.laws == cfg.laws
    assert back.sequence is None and back.law is None


def test_tuned_config_text_rejects_junk():
    with pytest.raises(ValueError):
        tuned_config_from_text("mode = ra\nwhatever = 3\n")
    with pytest.raises(ValueError):
        tuned_config_from_text("just some words\n")


@pytest.mark.parametrize("text, missing", [
    ("mode = ra\nmethod = skeletoid\n", "trunc_offset, acc_offset, slope, law_p"),
    ("mode = ra\ntrunc_offset = 1\nacc_offset = 4.0\nslope = 0.1\n", "law_p"),
    ("mode = ia\n", "obs0.trunc_offset, obs0.acc_offset, obs0.slope, obs0.law_p"),
    ("mode = ia\ntrunc_offset = 1\nacc_offset = 4.0\nslope = 0.1\nlaw_p = 0.5\n",
     "obs0.trunc_offset, obs0.acc_offset, obs0.slope, obs0.law_p"),
], ids=["ra_without_keys", "ra_without_law_p", "ia_without_keys", "ia_unprefixed_only"])
def test_tuned_config_text_needs_its_modes_sequence_keys(text, missing):
    with pytest.raises(ValueError, match=f"config lacks {missing}$"):
        tuned_config_from_text(text)


_RA_KEYS = "mode = ra\nacc_offset = 4.0\nslope = 0.1\nlaw_p = 0.5\n"


@pytest.mark.parametrize("text, named", [
    ("p_min = abc\ntrunc_offset = 1\n" + _RA_KEYS, "p_min = abc: could not convert"),
    ("trunc_offset = 1.7\n" + _RA_KEYS, "trunc_offset = 1.7: not a whole number"),
    ("trunc_offset = inf\n" + _RA_KEYS, "trunc_offset = inf: not a whole number"),
    ("trunc_offset = 1\nsigma_zeta = x\n" + _RA_KEYS, "sigma_zeta = x: could not"),
    ("trunc_offset = 1\nproposal_cov = 1,2;3\n" + _RA_KEYS, "proposal_cov = 1,2;3:"),
    ("mode = ia\nobs0.trunc_offset = 0\nobs0.acc_offset = 4\nobs0.slope = .1\n"
     "obs0.law_p = half\n", "obs0.law_p = half: could not convert"),
], ids=["p_min", "fractional_level", "infinite_level", "sigma_zeta",
        "ragged_proposal_cov", "ia_law_p"])
def test_tuned_config_text_names_the_key_of_a_malformed_number(text, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        tuned_config_from_text(text)


@pytest.mark.parametrize("level", ["3", "3.0"])
def test_tuned_config_text_reads_a_whole_level_either_way(level):
    back = tuned_config_from_text(f"trunc_offset = {level}\n" + _RA_KEYS)
    assert back.sequence.trunc_offset == 3
    assert type(back.sequence.trunc_offset) is int


def test_tuned_config_text_defaults_and_comments():
    back = tuned_config_from_text("# a comment\n\nmethod = skeletoid\n")
    assert back.mode == "auto"
    assert back.p_min == 0.9
    assert back.sigma_zeta is None and back.proposal_cov is None


def test_tuned_config_to_estimator_config():
    cfg = TunedConfig(mode="ra", method="skeletoid",
                      sequence=JointSequence(2, 5.0, 0.5),
                      law=GeometricLaw(0.6))
    est_cfg = cfg.to_estimator_config()
    assert isinstance(est_cfg, EstimatorConfig)
    assert est_cfg.mode == "ra"
    assert est_cfg.sequence == cfg.sequence
    bare = TunedConfig(mode="ia", method="skeletoid").to_estimator_config()
    assert bare.sequence == JointSequence()
    assert bare.law == GeometricLaw(0.5)


# ---------------------------------------------------------------------------
# tuning whole estimators


def _queue_problem(upper=None, rows=((0,), (2,), (1,), (3,))):
    net = builtin_model("mmc", c=1, upper_bounds=upper)
    times = [0.7 * i for i in range(len(rows))]
    data = Dataset(np.asarray(times), np.asarray(rows), model="mmc")
    return net, data


def test_tune_estimator_ra_mode():
    net, data = _queue_problem()
    est = LikelihoodEstimator(net, data, EstimatorConfig(mode="ra"))
    theta = np.array([0.8, 0.6])
    tuned = tune_estimator(est, theta, p_min=0.9)
    assert tuned.mode == "ra"
    assert tuned.sequence is not None and tuned.sequences is None
    assert 0.4 <= tuned.law.p <= 0.9
    assert tuned.sequence.trunc_offset >= 0
    assert tuned.sequence.slope > 0
    assert len(tuned.profiles) == 1
    # reusing the profiles must reproduce the same tuned sequence
    again = tune_estimator(est, theta, p_min=0.9, profiles=tuned.profiles)
    assert again.sequence == tuned.sequence
    assert again.law == tuned.law


def test_replace_keeps_tuning_byproducts():
    net, data = _queue_problem()
    est = LikelihoodEstimator(net, data, EstimatorConfig(mode="ra"))
    tuned = tune_estimator(est, [0.8, 0.6], p_min=0.9)
    again = replace(tuned, sigma_zeta=1.25)
    assert again.profiles is tuned.profiles
    report = replace(again, grid_report=[{"p_min": 0.9}])
    assert replace(report, proposal_cov=None).grid_report is report.grid_report
    # byproducts take no part in comparisons
    assert again == replace(tuned, sigma_zeta=1.25, profiles=None)


def test_tune_estimator_ia_mode_tunes_each_observation():
    net, data = _queue_problem(rows=((0,), (1,), (30,), (31,)))
    est = LikelihoodEstimator(net, data, EstimatorConfig(mode="ia"))
    tuned = tune_estimator(est, [0.8, 0.6], p_min=0.5)
    assert tuned.mode == "ia"
    assert tuned.sequence is None
    assert len(tuned.sequences) == 3
    assert len(tuned.laws) == 3
    assert len(tuned.profiles) == 3
    cfg = tuned.to_estimator_config()
    assert cfg.sequences == tuned.sequences


def test_ia_tuning_assembles_each_ladder_level_once(monkeypatch):
    # observations 0 and 2 share a seed truncation, hence a ladder; tuning
    # must not assemble the levels they have in common twice
    net, data = _queue_problem(rows=((0,), (2,), (0,), (2,), (1,)))
    est = LikelihoodEstimator(net, data, EstimatorConfig(mode="ia"))
    assert est.obs_ladders[0] is est.obs_ladders[2]
    theta = np.array([0.8, 0.6])
    assembled = []

    def counted(net, trunc, theta):
        assembled.append(trunc)
        return assemble(net, trunc, theta)

    monkeypatch.setattr(debias, "assemble", counted)
    tuned = tune_estimator(est, theta, p_min=0.9)
    # a ladder's level r is one truncation object, so distinct objects are
    # the distinct (ladder, level) pairs touched
    assert assembled
    assert len(assembled) == len({id(tr) for tr in assembled})
    # sharing the cache leaves each target's tuning as it is alone
    for i, (x_from, x_to, dt) in enumerate(est.observations):
        alone = LikelihoodEstimator(
            net, Dataset(np.array([0.0, dt]), np.array([x_from, x_to]), model="mmc"),
            EstimatorConfig(mode="ia"))
        single = tune_estimator(alone, theta, p_min=0.9)
        assert (single.sequences[0], single.laws[0]) == (tuned.sequences[i],
                                                         tuned.laws[i])


def _tuning_evaluations(monkeypatch, est, theta):
    """Tune est at theta; returns the config and the value_fn evaluations,
    counted by (x_from, x_to, dt, r, k)."""
    calls = collections.Counter()
    value_fn = LikelihoodEstimator.value_fn

    def counted_value_fn(self, theta, key=None, *args, **kwargs):
        f = value_fn(self, theta, key, *args, **kwargs)

        def g(r, k):
            calls[(*self.observations[key], r, float(k))] += 1
            return f(r, k)
        return g

    with monkeypatch.context() as patched:
        patched.setattr(LikelihoodEstimator, "value_fn", counted_value_fn)
        return tune_estimator(est, theta, p_min=0.9), calls


def test_ia_tuning_tunes_each_distinct_transition_once(monkeypatch):
    # transitions 2->1, 1->0, 0->1, 1->0, 0->1, 1->0 at equal steps: three
    # distinct triples
    theta = np.array([0.8, 0.6])
    net = builtin_model("mmc", c=1)

    def ia(rows):
        data = Dataset(np.arange(float(len(rows))), np.asarray(rows), model="mmc")
        return LikelihoodEstimator(net, data, EstimatorConfig(mode="ia"))

    est = ia([2, 1, 0, 1, 0, 1, 0])
    tuned, calls = _tuning_evaluations(monkeypatch, est, theta)
    first = {}
    for i, obs in enumerate(est.observations):
        j = first.setdefault(obs, i)
        assert (tuned.sequences[i], tuned.laws[i]) == (tuned.sequences[j], tuned.laws[j])
        assert tuned.profiles[i] is tuned.profiles[j]
    # the same evaluations as tuning the distinct transitions alone
    tuned_alone, calls_alone = _tuning_evaluations(monkeypatch, ia([2, 1, 0, 1]), theta)
    assert calls == calls_alone
    assert tuned.sequences[:3] == tuned_alone.sequences
    assert tuned.laws[:3] == tuned_alone.laws
    # reusing the profiles gives the same tuning
    again = tune_estimator(est, theta, p_min=0.9, profiles=tuned.profiles)
    assert (again.sequences, again.laws) == (tuned.sequences, tuned.laws)


def test_tuned_sequences_actually_start_near_convergence():
    # with p_min = 0.9 the offset value must already carry 90% of the limit
    net, data = _queue_problem()
    est = LikelihoodEstimator(net, data, EstimatorConfig(mode="ra"))
    theta = np.array([0.8, 0.6])
    tuned = tune_estimator(est, theta, p_min=0.9)
    prof = tuned.profiles[0]
    f = est.value_fn(theta)
    seq = tuned.sequence
    a_at_offset = f(seq.trunc_offset, min(seq.acc_offset, ACCURACY_CAP))
    assert a_at_offset >= 0.9 * prof.a_star - 1e-12


# ---------------------------------------------------------------------------
# noise, mode finding, curvature


def test_estimate_sigma_zeta_stub_cases():
    class _Const:
        def log_estimate(self, theta, rng, meter=None):
            return -3.0

    class _Spread:
        def log_estimate(self, theta, rng, meter=None):
            return float(rng.normal(0.0, 2.0))

    class _Failing:
        def __init__(self):
            self.i = 0

        def log_estimate(self, theta, rng, meter=None):
            self.i += 1
            return -math.inf if self.i == 5 else -1.0

    assert estimate_sigma_zeta(_Const(), [1.0], n_draws=10) == 0.0
    assert estimate_sigma_zeta(_Spread(), [1.0], n_draws=400) == pytest.approx(
        2.0, rel=0.2
    )
    assert estimate_sigma_zeta(_Failing(), [1.0], n_draws=10) == math.inf


@pytest.mark.parametrize("n_draws", [0, 1])
def test_estimate_sigma_zeta_needs_two_draws(n_draws):
    class _Unused:
        def log_estimate(self, theta, rng, meter=None):
            raise AssertionError("no draw should be taken")

    with pytest.raises(ValueError, match="at least 2 draws"):
        estimate_sigma_zeta(_Unused(), [1.0], n_draws=n_draws)


def test_map_estimate_improves_the_posterior():
    net, data = _queue_problem(upper=(3,))
    est = LikelihoodEstimator(net, data, EstimatorConfig(mode="ra"))
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), 2)
    theta0 = np.array([0.3, 1.5])
    theta_map = map_estimate(est, prior, theta0, sweeps=2)
    assert np.all(theta_map > 0)

    def log_post(th):
        return prior.log_density(th) + est.deterministic_log_likelihood(
            th, 8, 12.0
        )

    assert log_post(theta_map) > log_post(theta0)


def test_laplace_covariance_inverts_known_curvature():
    A = np.array([[4.0, 1.0], [1.0, 2.0]])
    center = np.array([1.0, 1.3])

    class _Quadratic:
        mode = "ra"

        def deterministic_log_likelihood(self, th, r, k, meter=None):
            d = np.asarray(th) - center
            return -0.5 * float(d @ A @ d)

    flat = Prior.iid(GammaPrior(1.0, 1e-9), 2)
    v_hat = laplace_covariance(_Quadratic(), flat, center, r=5, k=10.0)
    # central differences are exact on quadratics, so this is tight
    assert v_hat == pytest.approx(np.linalg.inv(A), rel=1e-5, abs=1e-7)


def test_laplace_covariance_floors_flat_directions():
    class _Flat:
        mode = "ra"

        def deterministic_log_likelihood(self, th, r, k, meter=None):
            return 0.0

    flat = Prior.iid(GammaPrior(1.0, 1e-9), 2)
    v_hat = laplace_covariance(_Flat(), flat, [1.0, 1.0], r=3, k=8.0)
    assert np.all(np.isfinite(v_hat))
    assert v_hat == pytest.approx(v_hat.T)
    assert np.all(np.linalg.eigvalsh(v_hat) > 0)


# ---------------------------------------------------------------------------
# grid stage


def test_grid_select_picks_a_complete_configuration():
    net, data = _queue_problem(upper=(4,), rows=((0,), (2,), (1,)))
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), 2)
    theta_map = np.array([0.8, 0.6])
    v_hat = np.diag([0.05, 0.05])
    tuned = grid_select(
        net, data, prior, theta_map, v_hat,
        base_config=EstimatorConfig(mode="ra"),
        p_min_grid=(0.0, 0.9), sigma_bars=(1.0, 2.0),
        n_draws=20, short_run=60, seed=1,
    )
    assert tuned.p_min in (0.0, 0.9)
    assert tuned.sigma_zeta is not None and tuned.sigma_zeta < math.inf
    assert tuned.proposal_cov is not None
    assert np.asarray(tuned.proposal_cov).shape == (2, 2)
    assert len(tuned.grid_report) == 2
    cfg = tuned.to_estimator_config()
    est = LikelihoodEstimator(net, data, cfg)
    assert est.mode == "ra"


def test_grid_select_warns_when_no_candidate_is_quiet_enough():
    net, data = _queue_problem(rows=((0,), (3,)))
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), 2)
    with pytest.warns(UserWarning, match="noise ceiling"):
        grid_select(
            net, data, prior, [0.8, 0.6], np.diag([0.05, 0.05]),
            base_config=EstimatorConfig(mode="ra"),
            p_min_grid=(0.0,), sigma_bars=(1e-18,),
            n_draws=15, short_run=40, seed=0,
        )


def test_default_grids_are_exposed():
    assert 0.9 in P_MIN_GRID
    assert P_MIN_GRID[0] == 0.0
