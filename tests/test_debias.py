"""Debiased draws from monotone sequences and the likelihood estimators."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcinfer import (
    ACCURACY_CAP,
    Dataset,
    EstimatorConfig,
    GeometricLaw,
    JointSequence,
    LikelihoodEstimator,
    MonotonicityError,
    ReactionNetwork,
    SeedPathError,
    Truncation,
    assemble,
    builtin_model,
    oracle_expm,
    oste,
    oste_variance,
    sample_dataset,
    stable_log_combine,
)
from ctmcinfer import debias, statespace
from ctmcinfer.expm import select_s_skeletoid, select_s_uniformization


# ---------------------------------------------------------------------------
# geometric law


def test_geometric_law_mass_and_validation():
    law = GeometricLaw(0.25)
    assert law.mass(0) == 0.25
    assert law.mass(3) == pytest.approx(0.25 * 0.75**3, rel=1e-15)
    assert GeometricLaw(1.0).mass(0) == 1.0
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            GeometricLaw(bad)


def test_geometric_law_sampling_support_and_mean():
    rng = np.random.default_rng(5)
    draws = [GeometricLaw(0.4).sample(rng) for _ in range(4000)]
    assert min(draws) == 0
    # mean of the {0, 1, ...} variant is (1-p)/p = 1.5
    assert np.mean(draws) == pytest.approx(1.5, abs=0.1)
    assert all(GeometricLaw(1.0).sample(rng) == 0 for _ in range(10))


# ---------------------------------------------------------------------------
# single-term debiasing


def test_oste_converged_sequence_has_zero_correction():
    law = GeometricLaw(0.3)
    for n in (0, 1, 5, 17):
        out = oste(lambda i: 4.25, offset=2, law=law, n_draw=n)
        assert out.z == 4.25
        assert out.n_draw == n


def test_oste_matched_tail_is_exact_for_every_draw():
    # diffs 2^-(n+1) against mass 2^-(n+1): the correction term is exactly
    # the limit for every n, so each draw returns 1.0 with no variance at all
    law = GeometricLaw(0.5)
    seq = lambda n: 1.0 - 0.5**n
    for n in range(25):
        assert oste(seq, 0, law, n_draw=n).z == pytest.approx(1.0, abs=1e-12)


def test_oste_explicit_arithmetic_with_offset():
    # a(2)=4, a(3)=9, a(4)=16, mass(1) = 0.25: z = 4 + (16-9)/0.25 = 32
    out = oste(lambda i: float(i * i), offset=2, law=GeometricLaw(0.5), n_draw=1)
    assert out.z == pytest.approx(32.0, rel=1e-15)


def test_oste_evaluation_counts():
    law = GeometricLaw(0.5)
    seq = lambda n: 1.0 - 0.5**n
    assert oste(seq, 0, law, n_draw=0).evaluations == 2
    assert oste(seq, 0, law, n_draw=4).evaluations == 3
    assert oste(seq, 3, law, n_draw=1).evaluations == 3


def test_oste_needs_rng_or_draw():
    with pytest.raises(ValueError):
        oste(lambda i: 1.0, 0, GeometricLaw(0.5))
    with pytest.raises(ValueError):
        oste(lambda i: 1.0, 0, GeometricLaw(0.5), n_draw=-1)


def test_oste_rejects_decreasing_sequences():
    vals = {0: 1.0, 1: 0.5, 2: 0.6}
    with pytest.raises(MonotonicityError) as err:
        oste(lambda i: vals[i], 0, GeometricLaw(0.5), n_draw=1)
    assert err.value.indices == (0, 1)


def test_oste_clips_decreases_within_slack():
    vals = {0: 1.0, 1: 1.0 - 1e-14, 2: 1.0}
    out = oste(lambda i: vals[i], 0, GeometricLaw(0.5), n_draw=1)
    assert out.z == pytest.approx(1.0, abs=1e-12)


def test_oste_monte_carlo_mean_hits_the_limit():
    # limit 1, variance 2/7 (see the variance test): 3 standard errors
    law = GeometricLaw(0.5)
    seq = lambda n: 1.0 - 0.25**n
    rng = np.random.default_rng(11)
    n_mc = 20000
    draws = [oste(seq, 0, law, rng=rng).z for _ in range(n_mc)]
    se = math.sqrt((2.0 / 7.0) / n_mc)
    assert np.mean(draws) == pytest.approx(1.0, abs=3 * se)


def test_oste_variance_closed_form():
    # diffs (3/4)(1/4)^n, mass (1/2)^(n+1): the second moment is a geometric
    # series, sum (9/8)(1/8)^n = 9/7, so the variance is 9/7 - 1 = 2/7
    law = GeometricLaw(0.5)
    diffs = [0.75 * 0.25**n for n in range(200)]
    var = oste_variance(diffs, law)
    assert var == pytest.approx(float(Fraction(2, 7)), rel=1e-10)
    # independent check: enumerate the draws and their probabilities
    seq = lambda n: 1.0 - 0.25**n
    mean_e = var_e = 0.0
    for n in range(200):
        z = oste(seq, 0, law, n_draw=n).z
        mean_e += law.mass(n) * z
        var_e += law.mass(n) * z * z
    assert var == pytest.approx(var_e - mean_e**2, rel=1e-9)


def test_oste_variance_zero_for_matched_tail():
    law = GeometricLaw(0.5)
    diffs = [0.5 ** (n + 1) for n in range(100)]
    assert oste_variance(diffs, law) == pytest.approx(0.0, abs=1e-12)


def test_oste_variance_rejects_negative_diffs():
    with pytest.raises(MonotonicityError):
        oste_variance([0.5, -0.2, 0.1], GeometricLaw(0.5))


@settings(max_examples=60, deadline=None)
@given(
    diffs=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12),
    a0=st.floats(min_value=0.0, max_value=5.0),
    p=st.floats(min_value=0.05, max_value=0.95),
)
def test_oste_partial_expectation_telescopes(diffs, a0, p):
    # sum_{n<=N} mass(n) z_n = a0 F(N) + a_{N+1} - a0 exactly, because the
    # correction terms cancel mass(n) and telescope; with the sequence
    # constant past len(diffs) this pins the full expectation to the limit
    law = GeometricLaw(p)
    levels = [a0]
    for d in diffs:
        levels.append(levels[-1] + d)
    seq = lambda i: levels[min(i, len(levels) - 1)]
    n_top = len(diffs) + 5
    esum = total_mass = 0.0
    for n in range(n_top + 1):
        esum += law.mass(n) * oste(seq, 0, law, n_draw=n).z
        total_mass += law.mass(n)
    expect = a0 * total_mass + levels[-1] - a0
    assert esum == pytest.approx(expect, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# log-space combination


def _mp_combine(log_a0, log_alo, log_ahi, alpha):
    with mpmath.workdps(80):
        a0 = mpmath.exp(log_a0) if log_a0 > -math.inf else mpmath.mpf(0)
        alo = mpmath.exp(log_alo) if log_alo > -math.inf else mpmath.mpf(0)
        ahi = mpmath.exp(log_ahi) if log_ahi > -math.inf else mpmath.mpf(0)
        z = a0 + (ahi - alo) / mpmath.mpf(alpha)
        return float(mpmath.log(z)) if z > 0 else -math.inf


def test_stable_log_combine_moderate_scale():
    # a0=0.2, alo=0.3, ahi=0.5, alpha=0.5: z = 0.2 + 0.2/0.5 = 0.6
    got = stable_log_combine(math.log(0.2), math.log(0.3), math.log(0.5), 0.5)
    assert got == pytest.approx(-0.5108256237659907, abs=1e-12)
    assert got == pytest.approx(_mp_combine(math.log(0.2), math.log(0.3),
                                            math.log(0.5), 0.5), abs=1e-12)


def test_stable_log_combine_deep_underflow_scale():
    # all three values are far below the smallest positive double
    args = (-800.0, -795.0, -794.5, 0.3)
    assert stable_log_combine(*args) == pytest.approx(_mp_combine(*args), abs=1e-12)


def test_stable_log_combine_vanishing_baseline():
    # exp(log_a0) underflows while the difference term is moderate
    args = (-1400.0, -5.0, -4.9, 0.5)
    assert stable_log_combine(*args) == pytest.approx(_mp_combine(*args), abs=1e-12)
    # and a gap of exactly zero keeps only the (negligible) baseline
    assert stable_log_combine(-900.0, -10.0, -10.0, 0.5) == -900.0


def test_stable_log_combine_zero_branches():
    assert stable_log_combine(-math.inf, -math.inf, -math.inf, 0.5) == -math.inf
    got = stable_log_combine(-math.inf, -math.inf, math.log(0.3), 0.25)
    assert got == pytest.approx(math.log(0.3 / 0.25), rel=1e-12)
    assert stable_log_combine(-math.inf, -math.inf, -math.inf, 1.0) == -math.inf


def test_stable_log_combine_tiny_decrease_is_a_tie():
    base = math.log(0.4)
    got = stable_log_combine(base, base - 1e-12, base, 0.5)
    assert got == pytest.approx(base, abs=1e-9)


def test_stable_log_combine_rejects_bad_input():
    with pytest.raises(ValueError):
        stable_log_combine(-1.0, -0.5, -0.2, 0.0)
    with pytest.raises(ValueError):
        stable_log_combine(-1.0, -0.5, -0.2, 1.5)
    with pytest.raises(MonotonicityError):
        stable_log_combine(math.log(0.5), math.log(0.4), math.log(0.6), 0.5)


@settings(max_examples=80, deadline=None)
@given(
    la0=st.floats(min_value=-600.0, max_value=-0.1),
    d1=st.floats(min_value=0.0, max_value=200.0),
    d2=st.floats(min_value=0.0, max_value=5.0),
    alpha=st.floats(min_value=1e-6, max_value=1.0),
)
def test_stable_log_combine_matches_high_precision(la0, d1, d2, alpha):
    llo = la0 + d1
    lhi = llo + d2
    if lhi > -1e-9:
        return
    got = stable_log_combine(la0, llo, lhi, alpha)
    assert got == pytest.approx(_mp_combine(la0, llo, lhi, alpha),
                                rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# joint sequences


def test_joint_sequence_level_and_accuracy():
    seq = JointSequence(trunc_offset=2, acc_offset=4.0, slope=0.5)
    assert seq.level(0) == 2 and seq.level(7) == 9
    assert seq.accuracy(0) == 4.0
    assert seq.accuracy(19) == pytest.approx(13.5)
    assert seq.accuracy(20) == ACCURACY_CAP
    assert seq.accuracy(500) == ACCURACY_CAP


def test_joint_sequence_defaults():
    seq = JointSequence()
    assert seq.level(3) == 3
    assert seq.accuracy(10) == pytest.approx(5.0)


@pytest.mark.parametrize("fields", [{"trunc_offset": -1}, {"slope": -0.1},
                                    {"slope": math.inf}, {"slope": math.nan},
                                    {"acc_offset": math.nan}, {"acc_offset": math.inf},
                                    {"acc_offset": -math.inf}, {"trunc_offset": 1.5}])
def test_joint_sequence_rejects_negative_offsets_and_bad_slopes(fields):
    args = {"trunc_offset": 0, "acc_offset": 4.0, "slope": 0.1, **fields}
    shown = ", ".join(f"{k}={v!r}" for k, v in args.items())
    with pytest.raises(ValueError, match=re.escape(f"JointSequence({shown}) needs")):
        JointSequence(**fields)
    assert JointSequence(trunc_offset=0, slope=0.0).level(2) == 2


@pytest.mark.parametrize("level", [1.5, 3.0])
def test_joint_sequence_says_the_level_must_be_an_integer(level):
    with pytest.raises(ValueError, match=re.escape(
            f"JointSequence(trunc_offset={level!r}, acc_offset=4.0, slope=0.1) "
            "needs trunc_offset >= 0 of an integer type (a float, even 3.0, "
            "is refused)")):
        JointSequence(trunc_offset=level)


def test_joint_sequence_takes_python_and_numpy_integer_levels():
    for level in (3, np.int64(3), np.int32(3), np.uint8(3)):
        assert JointSequence(trunc_offset=level).level(1) == 4


# ---------------------------------------------------------------------------
# estimator configuration


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(mode="both")
    with pytest.raises(ValueError):
        EstimatorConfig(method="pade")
    with pytest.raises(ValueError):
        EstimatorConfig(method="uniformization_global")
    cfg = EstimatorConfig(method="uniformization_global", q_bar_global=-8.0)
    assert cfg.q_bar_global == -8.0


def _queue_dataset(rows, dt=0.5):
    times = [i * dt for i in range(len(rows))]
    return Dataset(np.asarray(times), np.asarray(rows), model="mmc")


def test_estimator_rejects_mismatched_data():
    net = builtin_model("mmc", c=1)
    with pytest.raises(ValueError):
        LikelihoodEstimator(net, Dataset([0.0, 1.0], [[1, 2], [2, 3]]))
    capped = builtin_model("mmc", c=1, upper_bounds=(3,))
    with pytest.raises(ValueError):
        LikelihoodEstimator(capped, _queue_dataset([[1], [7]]))


def test_estimator_rejects_per_observation_settings_of_another_length():
    net = builtin_model("mmc", c=2)
    data = _queue_dataset([[1], [2], [1], [2], [3], [2]])
    for name, two in (("sequences", (JointSequence(),) * 2),
                      ("laws", (GeometricLaw(0.5),) * 2)):
        config = EstimatorConfig(mode="ia", **{name: two})
        with pytest.raises(ValueError, match=f"{name} holds 2 entries for a "
                                             "dataset of 5 transitions"):
            LikelihoodEstimator(net, data, config)


def test_estimator_reports_which_observation_is_unreachable():
    birth_only = ReactionNetwork(
        update_matrix=np.array([[1]]),
        propensities=(lambda x, th: th[0],),
        lower_bounds=(0,),
        upper_bounds=(None,),
        param_dim=1,
        name="birth",
    )
    with pytest.raises(SeedPathError, match="observation 1"):
        LikelihoodEstimator(birth_only, _queue_dataset([[0], [2], [1]]))


def test_estimator_auto_mode_follows_overlap():
    net = builtin_model("mmc", c=1)
    shared = LikelihoodEstimator(net, _queue_dataset([[1], [2], [1], [2]]))
    assert shared.mode == "ra"
    spread = LikelihoodEstimator(net, _queue_dataset([[0], [1], [40], [41]]))
    assert spread.mode == "ia"


def test_estimator_per_observation_overrides():
    net = builtin_model("mmc", c=1)
    seqs = (JointSequence(0, 4.0, 0.1), JointSequence(5, 6.0, 0.2))
    laws = (GeometricLaw(0.5), GeometricLaw(0.25))
    cfg = EstimatorConfig(mode="ia", sequences=seqs, laws=laws)
    est = LikelihoodEstimator(net, _queue_dataset([[1], [2], [3]]), cfg)
    assert est.sequence_for(1) is seqs[1]
    assert est.law_for(0) is laws[0]
    assert est.sequence_for(None) is cfg.sequence
    assert est.law_for(None) is cfg.law


# ---------------------------------------------------------------------------
# estimates on a chain small enough to solve exactly


def _contained_setup():
    net = builtin_model("mmc", c=1, upper_bounds=(3,))
    data = _queue_dataset([[0], [2], [1], [3]], dt=0.7)
    theta = np.array([0.8, 0.6])
    full = Truncation(states=((0,), (1,), (2,), (3,)))
    Q = assemble(net, full, theta).to_dense()
    log_true = 0.0
    for x_from, x_to, dt in data.intervals():
        P = oracle_expm(Q, dt)
        log_true += math.log(P[full.index_of(x_from), full.index_of(x_to)])
    return net, data, theta, log_true


@pytest.mark.parametrize("method", ["skeletoid", "uniformization_global"])
def test_estimates_match_oracle_when_chain_is_contained(method):
    # the ladder saturates at the 4 reachable states, so every sequence value
    # equals the exact likelihood and each debiased draw must reproduce it
    net, data, theta, log_true = _contained_setup()
    seq = JointSequence(trunc_offset=6, acc_offset=ACCURACY_CAP, slope=0.1)
    q_bar = -3.0 if method == "uniformization_global" else None
    for mode in ("ia", "ra"):
        cfg = EstimatorConfig(mode=mode, method=method, sequence=seq,
                              law=GeometricLaw(0.5), q_bar_global=q_bar)
        est = LikelihoodEstimator(net, data, cfg)
        rng = np.random.default_rng(3)
        for _ in range(40):
            assert est.log_estimate(theta, rng) == pytest.approx(
                log_true, abs=1e-10
            )


def test_deterministic_log_likelihood_converges_to_oracle():
    net, data, theta, log_true = _contained_setup()
    est = LikelihoodEstimator(net, data, EstimatorConfig(mode="ra"))
    assert est.deterministic_log_likelihood(theta, r=8, k=13.0) == pytest.approx(
        log_true, abs=1e-9
    )
    # value_fn exposes the same quantity in linear space
    f = est.value_fn(theta)
    assert f(8, 13.0) == pytest.approx(math.exp(log_true), rel=1e-9)
    f0 = est.value_fn(theta, obs_index=0)
    assert 0.0 < f0(8, 13.0) < 1.0


def test_value_fn_is_nondecreasing_in_both_indices():
    net, data, theta, _ = _contained_setup()
    est = LikelihoodEstimator(net, data, EstimatorConfig(mode="ra"))
    f = est.value_fn(theta)
    vals_r = [f(r, 6.0) for r in range(5)]
    assert all(b >= a - 1e-12 for a, b in zip(vals_r, vals_r[1:]))
    vals_k = [f(4, k) for k in (2.0, 4.0, 6.0, 8.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals_k, vals_k[1:]))


def _repeating_queue():
    # unbounded queue; transitions 0->1 and 1->0 each occur twice at equal dt
    net = builtin_model("mmc", c=1)
    data = _queue_dataset([[0], [1], [0], [1], [0], [2]], dt=0.7)
    cfg = EstimatorConfig(mode="ia", sequence=JointSequence(1, 6.0, 0.5),
                          law=GeometricLaw(0.5))
    return net, data, cfg


def test_ia_estimates_are_per_observation():
    # an IA estimate is the in-order sum of one-transition estimates drawn
    # from the same stream, bit for bit, even where observations share ladders
    net, data, cfg = _repeating_queue()
    est = LikelihoodEstimator(net, data, cfg)
    singles = [
        LikelihoodEstimator(net, _queue_dataset([list(x_from), list(x_to)], dt),
                            cfg)
        for x_from, x_to, dt in est.observations
    ]
    theta = np.array([0.8, 0.6])
    for seed in range(5):
        rng, rng_parts = np.random.default_rng(seed), np.random.default_rng(seed)
        total = 0.0
        for single in singles:
            total += single.log_estimate(theta, rng_parts)
        assert est.log_estimate(theta, rng) == total
        assert rng.bit_generator.state == rng_parts.bit_generator.state


def test_equal_seed_truncations_share_a_ladder():
    net, data, cfg = _repeating_queue()
    est = LikelihoodEstimator(net, data, cfg)
    ladders = est.obs_ladders
    assert ladders[0] is ladders[2]
    assert ladders[1] is ladders[3]
    assert len({id(lad) for lad in ladders}) == 3
    assert est.targets == [0, 1, 2, 3, 4]
    ra = LikelihoodEstimator(net, data, replace(cfg, mode="ra"))
    assert ra.targets == [None]


def test_estimates_assemble_from_cached_stencils(monkeypatch):
    # the test-09 queue data: estimates never build a rate row per state,
    # and each truncation's stencil is built on first use only
    net = builtin_model("mmc", c=2)
    rng = np.random.default_rng(1000)
    data = sample_dataset(net, np.array([1.5, 1.0]), (0,), np.arange(31.0), rng,
                          seed=1000)
    est = LikelihoodEstimator(net, data, EstimatorConfig(
        mode="ra", sequence=JointSequence(2, 6.0, 0.5), law=GeometricLaw(0.5)))
    rate_rows = []
    built = []

    def counted_rate_row(self, x, theta):
        rate_rows.append(x)
        return original_rate_row(self, x, theta)

    class CountedStencil(statespace._Stencil):
        def __init__(self, net, trunc):
            built.append(trunc)
            super().__init__(net, trunc)

    original_rate_row = ReactionNetwork.rate_row
    monkeypatch.setattr(ReactionNetwork, "rate_row", counted_rate_row)
    monkeypatch.setattr(statespace, "_Stencil", CountedStencil)
    rng = np.random.default_rng(5)
    estimates = [est.log_estimate([1.4, 1.1], rng) for _ in range(50)]
    assert all(math.isfinite(v) for v in estimates)
    assert rate_rows == []
    assert built
    assert len({id(tr) for tr in built}) == len(built)


def _test09_queue_estimator(mode, method="skeletoid"):
    net = builtin_model("mmc", c=2)
    rng = np.random.default_rng(1000)
    data = sample_dataset(net, np.array([1.5, 1.0]), (0,), np.arange(31.0), rng,
                          seed=1000)
    q_bar = None if method == "skeletoid" else -20.0
    return LikelihoodEstimator(net, data, EstimatorConfig(
        mode=mode, method=method, q_bar_global=q_bar,
        sequence=JointSequence(2, 6.0, 0.5), law=GeometricLaw(0.5)))


def test_each_target_assembles_once_per_estimate(monkeypatch):
    # RA has one target: its top telescope level is assembled, the two
    # lower levels are leading blocks of it
    est = _test09_queue_estimator("ra")
    assembled = []

    def counted(net, trunc, theta):
        assembled.append(trunc)
        return assemble(net, trunc, theta)

    monkeypatch.setattr(debias, "assemble", counted)
    rng = np.random.default_rng(5)
    estimates = [est.log_estimate([1.4, 1.1], rng) for _ in range(50)]
    assert all(math.isfinite(v) for v in estimates)
    assert len(assembled) == 50


@pytest.mark.parametrize("method", ["skeletoid", "uniformization_global"])
def test_an_ia_call_assembles_once(monkeypatch, method):
    # every target's levels are restrictions of the call's one matrix, the
    # merged ladder at the highest level the call needs
    est = _test09_queue_estimator("ia", method)
    assert len(est.targets) == 30
    assembled = []

    def counted(net, trunc, theta):
        assembled.append(trunc)
        return assemble(net, trunc, theta)

    monkeypatch.setattr(debias, "assemble", counted)
    rng = np.random.default_rng(5)
    estimates = [est.log_estimate([1.4, 1.1], rng) for _ in range(50)]
    assert all(math.isfinite(v) for v in estimates)
    assert len(assembled) == 50
    assert math.isfinite(est.deterministic_log_likelihood([1.4, 1.1], 4, 8.0))
    assert len(assembled) == 51
    assert assembled[-1] is est.merged_ladder.level(4)


@pytest.mark.parametrize("method", ["skeletoid", "uniformization_global"])
def test_equal_requests_run_once(monkeypatch, method):
    # rows_action serves one request per distinct (ladder, level, dt, s,
    # rows) of the targets' telescope points, worked out here from the draws
    est = _test09_queue_estimator("ia", method)
    theta = np.array([1.4, 1.1])
    served = []
    real = debias.rows_action

    def counted(method_, Q, t, s, rows, meter=None, q_bar=None):
        served.append(len(Q))
        return real(method_, Q, t, s, rows, meter, q_bar)

    monkeypatch.setattr(debias, "rows_action", counted)
    rng, replay = np.random.default_rng(5), np.random.default_rng(5)
    distinct = []
    for _ in range(50):
        assert math.isfinite(est.log_estimate(theta, rng))
        keys = set()
        for key in est.targets:
            n, seq = est.law_for(key).sample(replay), est.sequence_for(key)
            ladder = est.obs_ladders[key]
            for i in (0, n, n + 1):
                r, eps = seq.level(i), 10.0 ** -seq.accuracy(i)
                for dt, rows, _, _ in est._plans[key]:
                    if method == "skeletoid":
                        q_bar = assemble(est.net, ladder.level(r), theta).q_bar
                        s = select_s_skeletoid(q_bar * dt, eps)
                    else:
                        s = select_s_uniformization(20.0 * dt, eps)
                    keys.add((id(ladder), r, dt, s, tuple(rows.tolist())))
        distinct.append(len(keys))
    assert served == distinct
    assert sum(distinct) < 50 * 3 * len(est.targets)


@pytest.mark.parametrize("method", ["skeletoid", "uniformization_global"])
@pytest.mark.parametrize("mode", ["ra", "ia"])
def test_leading_blocks_leave_estimates_unchanged(monkeypatch, mode, method):
    # the same draws with every level assembled on its own truncation: in RA
    # in place of the leading blocks, in IA in place of each level's
    # restriction of the call's merged matrix (and block of its P)
    est = _test09_queue_estimator(mode, method)
    thetas = [np.array([1.4, 1.1]), np.array([1.6, 0.9])]
    rng = np.random.default_rng(9)
    got = [est.log_estimate(thetas[i % 2], rng) for i in range(20)]
    calls = []
    current = {}

    def assembled_instead(self, trunc):
        calls.append(trunc)
        return assemble(est.net, trunc, current["theta"])

    def level_assembled_instead(self, ladder, trunc):
        matrix = assembled_instead(self, trunc)
        return matrix.q_bar, matrix

    if mode == "ra":
        monkeypatch.setattr(statespace.TruncatedRateMatrix, "leading_block",
                            assembled_instead)
    else:
        monkeypatch.setattr(debias._Source, "on", level_assembled_instead)
    rng = np.random.default_rng(9)
    want = []
    for i in range(20):
        current["theta"] = thetas[i % 2]
        want.append(est.log_estimate(current["theta"], rng))
    assert calls
    assert got == want


# ---------------------------------------------------------------------------
# monotonicity violations surface instead of being retried


def _crafted_estimator(method):
    net = builtin_model("mmc", c=1)
    cfg_kwargs = {"mode": "ra", "method": method,
                  "sequence": JointSequence(0, 4.0, 0.1),
                  "law": GeometricLaw(1.0)}
    if method == "uniformization_global":
        cfg_kwargs["q_bar_global"] = -50.0
    est = LikelihoodEstimator(net, _queue_dataset([[1], [2]]),
                              EstimatorConfig(**cfg_kwargs))

    def crafted(obs_plan, ev, blocks):
        # non-monotone at the requested accuracy, monotone at the cap: a
        # retry at the cap for the drawn pair alone would hide the violation
        # and make the telescoped sequence depend on the draw
        if ev.k >= ACCURACY_CAP:
            return math.log(0.45) if ev.r == 0 else math.log(0.46)
        return math.log(0.50) if ev.r == 0 else math.log(0.40)

    est._log_value = crafted
    return est


@pytest.mark.parametrize("method", ["skeletoid", "uniformization_global"])
def test_other_methods_surface_monotonicity_violations(method):
    est = _crafted_estimator(method)
    with pytest.raises(MonotonicityError):
        est.log_estimate([1.0, 1.0], np.random.default_rng(0))


# ---------------------------------------------------------------------------
# one rows_action call per estimate: the sum still stops where it did


def _three_queue_targets(net=None, **cfg):
    # three IA targets with distinct time steps, so a request's t names its
    # target; the last one reaches state 12, where the mmc exit rate is 11
    net = net or builtin_model("mmc", c=10)
    data = Dataset(np.array([0.0, 1.0, 3.0, 6.0]), np.array([[0], [1], [3], [12]]),
                   model="mmc")
    laws = (GeometricLaw(0.5), GeometricLaw(0.8), GeometricLaw(0.7))
    return LikelihoodEstimator(net, data, EstimatorConfig(
        mode="ia", sequence=JointSequence(0, 4.0, 0.1), laws=laws, **cfg))


def _zero_blocks_at(monkeypatch, dt):
    """Patch debias.rows_action to zero every block of time step dt."""
    calls = []
    real = debias.rows_action

    def zeroing(method, Q, t, s, rows, meter=None, q_bar=None):
        calls.append(len(Q))
        blocks = real(method, Q, t, s, rows, meter, q_bar)
        return [0.0 * b if ti == dt else b for b, ti in zip(blocks, t)]

    monkeypatch.setattr(debias, "rows_action", zeroing)
    return calls


def _drawn(laws, seed):
    rng = np.random.default_rng(seed)
    for law in laws:
        law.sample(rng)
    return rng.bit_generator.state


def test_a_neg_inf_target_stops_the_sum_and_rewinds_later_draws(monkeypatch):
    est = _three_queue_targets()
    laws = est.config.laws
    theta = np.array([1.0, 1.0])
    for seed in range(4):
        rng = np.random.default_rng(seed)
        assert math.isfinite(est.log_estimate(theta, rng))
        assert rng.bit_generator.state == _drawn(laws, seed)
    calls = _zero_blocks_at(monkeypatch, 2.0)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        assert est.log_estimate(theta, rng) == -math.inf
        # target 1 stops the sum: only the first two targets have drawn
        assert rng.bit_generator.state == _drawn(laws[:2], seed)
    # every target was planned, and each estimate made one rows_action call
    assert len(calls) == 4
    assert all(n >= 6 for n in calls)


def _late_failure(kind):
    """An estimator whose last target fails to plan, and the message."""
    if kind == "q_bar":
        # q_bar_global = -9.5 dominates every diagonal targets 0 and 1 reach
        # at the draws below, but not target 2's: its level 0 has exit rate 11
        return (_three_queue_targets(method="uniformization_global", q_bar_global=-9.5),
                "smallest diagonal")
    # service turns negative above state 10, so only target 2 fails to assemble
    net = ReactionNetwork(
        update_matrix=np.array([[1], [-1]]),
        propensities=(lambda x, th: th[0],
                      lambda x, th: th[1] * x[0] if x[0] <= 10 else -1.0),
        lower_bounds=(0,), upper_bounds=(None,), param_dim=2, name="mmc")
    return _three_queue_targets(net), "reaction 1"


@pytest.mark.parametrize("kind", ["q_bar", "assembly"])
@pytest.mark.parametrize("earlier", [None, "neg_inf", "non_monotone"])
def test_a_later_failure_does_not_preempt_an_earlier_stop(monkeypatch, kind, earlier):
    est, message = _late_failure(kind)
    theta = np.array([1.0, 1.0])
    if earlier == "neg_inf":
        _zero_blocks_at(monkeypatch, 1.0)
    if earlier == "non_monotone":
        log_value = est._log_value

        def crafted(obs_plan, ev, blocks):
            if obs_plan is est._plans[0]:
                return math.log(0.50) if ev.r == 0 else math.log(0.40)
            return log_value(obs_plan, ev, blocks)

        est._log_value = crafted
    rng = np.random.default_rng(3)
    if earlier is None:
        with pytest.raises(ValueError, match=message):
            est.log_estimate(theta, rng)
    elif earlier == "neg_inf":
        assert est.log_estimate(theta, rng) == -math.inf
        assert rng.bit_generator.state == _drawn(est.config.laws[:1], 3)
    else:
        with pytest.raises(MonotonicityError):
            est.log_estimate(theta, rng)


def test_a_failing_top_level_does_not_preempt_the_check_below_it():
    # one target, N = 1: levels 0 and 1 lie within q_bar_global = -3.5, the
    # top level 2 does not (exit rate 4), and the crafted values decrease
    # from level 0 to 1, a check the telescope makes before it reaches level 2
    law = GeometricLaw(0.5)
    seed = next(i for i in range(100) if law.sample(np.random.default_rng(i)) == 1)
    est = LikelihoodEstimator(builtin_model("mmc", c=10), _queue_dataset([[0], [1]], 1.0),
                              EstimatorConfig(mode="ia", method="uniformization_global",
                                              q_bar_global=-3.5, law=law,
                                              sequence=JointSequence(0, 4.0, 0.1)))
    theta = np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="smallest diagonal"):
        est.log_estimate(theta, np.random.default_rng(seed))
    est._log_value = lambda obs_plan, ev, blocks: math.log(0.5 if ev.r == 0 else 0.4)
    with pytest.raises(MonotonicityError):
        est.log_estimate(theta, np.random.default_rng(seed))
