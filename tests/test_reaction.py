"""Reaction networks and their rate-matrix rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcinfer import BUILTIN_MODELS, ReactionNetwork, builtin_model

SSIR_THETA = [0.4, 0.5, 0.4]


def test_ssir_rate_row_matches_hand_computation():
    net = builtin_model("ssir")
    row = net.rate_row((2, 1, 0), SSIR_THETA)
    # infection 0.4*2*1, recovery 0.5*1, reintroduction 0.4
    assert row.targets[(1, 2, 0)] == pytest.approx(0.8)
    assert row.targets[(2, 0, 1)] == pytest.approx(0.5)
    assert row.targets[(3, 1, 0)] == pytest.approx(0.4)
    assert row.diagonal == pytest.approx(-1.7)
    assert row.source == (2, 1, 0)


def test_rate_row_drops_out_of_bounds_targets():
    net = builtin_model("mmc", c=2)
    row = net.rate_row((0,), [1.0, 1.0])
    # empty queue: no service transition below zero
    assert set(row.targets) == {(1,)}
    assert row.diagonal == pytest.approx(-1.0)


def test_upper_bound_makes_a_conservative_finite_chain():
    # a capped model is a different, finite CTMC: the blocked birth channel
    # is rate zero at the cap, not lost mass
    net = builtin_model("mmc", c=1, upper_bounds=(5,))
    row = net.rate_row((5,), [2.0, 1.0])
    assert set(row.targets) == {(4,)}
    assert row.diagonal == pytest.approx(-1.0)


def test_rate_row_merges_equal_update_vectors():
    net = ReactionNetwork(
        update_matrix=np.array([[1], [1]]),
        propensities=(lambda x, th: th[0], lambda x, th: th[1] * x[0]),
        lower_bounds=(0,),
        upper_bounds=(None,),
        param_dim=2,
        name="double-birth",
    )
    row = net.rate_row((3,), [1.0, 2.0])
    assert row.targets == {(4,): pytest.approx(7.0)}
    assert row.diagonal == pytest.approx(-7.0)


def test_negative_propensity_rejected():
    net = ReactionNetwork(
        update_matrix=np.array([[1]]),
        propensities=(lambda x, th: th[0] - x[0],),
        lower_bounds=(0,),
        upper_bounds=(None,),
        param_dim=1,
        name="bad",
    )
    with pytest.raises(ValueError, match="negative propensity"):
        net.propensity_vector((5,), [1.0])


def test_a_reaction_that_changes_nothing_is_rejected():
    # its self-target would sit on the diagonal while its rate still counted
    # in the exit rate, so assembled rows would disagree with their diagonal
    with pytest.raises(ValueError, match="reaction 1 changes no species"):
        ReactionNetwork(
            update_matrix=np.array([[1], [0], [-1]]),
            propensities=(lambda x, th: th[0], lambda x, th: 5.0,
                          lambda x, th: th[1] * x[0]),
            lower_bounds=(0,),
            upper_bounds=(5,),
            param_dim=2,
            name="idle",
        )


def test_validate_theta_shape_and_sign():
    net = builtin_model("lv3")
    with pytest.raises(ValueError):
        net.validate_theta([0.1, 0.2])
    with pytest.raises(ValueError):
        net.validate_theta([0.1, -0.2, 0.3])
    out = net.validate_theta([0.3, 0.4, 0.01])
    assert out.shape == (3,)


@pytest.mark.parametrize("theta, accepted", [
    (np.array([0.3, 0.4, 0.01]), True),
    (np.array([0.3, -0.0, 0.01]), True),
    (np.array([0.0, 0.0, 0.0]), True),
    ([0.3, 0.4, 0.01], True),
    (np.array([0.3, np.nan, 0.01]), False),
    (np.array([0.3, np.inf, 0.01]), False),
    (np.array([0.3, -np.inf, 0.01]), False),
    (np.array([0.3, -1e-300, 0.01]), False),
    (np.array([-2.0, 0.4, 0.01]), False),
])
def test_validate_theta_accepts_exactly_finite_nonnegative(theta, accepted):
    net = builtin_model("lv3")
    if accepted:
        out = net.validate_theta(theta)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.asarray(theta, dtype=float))
    else:
        with pytest.raises(ValueError, match="theta must be finite and nonnegative"):
            net.validate_theta(theta)


def test_validate_theta_rejects_a_wrong_shape():
    net = builtin_model("lv3")
    for theta in ([0.1, 0.2], [[0.1, 0.2, 0.3]], 0.5):
        with pytest.raises(ValueError, match=r"theta must have shape \(3,\)"):
            net.validate_theta(theta)


def test_builtin_model_names():
    assert set(BUILTIN_MODELS) == {"ssir", "lv3", "lv4", "schloegl_bd", "mmc"}
    with pytest.raises(ValueError, match="unknown model"):
        builtin_model("nope")


def test_schloegl_birth_death_propensities():
    net = builtin_model("schloegl_bd")
    theta = [3.0, 0.5, 0.5, 3.0]
    # birth: th1*x(x-1)/2 + th3; death: th2*x(x-1)(x-2)/6 + th4 (for x >= 1)
    rates = net.propensity_vector((4,), theta)
    assert rates[0] == pytest.approx(3.0 * 4 * 3 / 2 + 0.5)
    assert rates[1] == pytest.approx(0.5 * 4 * 3 * 2 / 6 + 3.0)
    # small counts: cubic and quadratic terms gated off
    rates0 = net.propensity_vector((1,), theta)
    assert rates0[0] == pytest.approx(0.5)
    assert rates0[1] == pytest.approx(3.0)
    rates_zero = net.propensity_vector((0,), theta)
    assert rates_zero[1] == pytest.approx(0.0)


def test_lv4_update_matrix_three_species_interactions():
    net = builtin_model("lv4")
    assert net.n_species == 2
    assert net.n_reactions == 4
    theta = [1e-4, 5e-4, 5e-4, 1e-4]
    rates = net.propensity_vector((100, 50), theta)
    assert rates[0] == pytest.approx(1e-4 * 100)
    assert rates[1] == pytest.approx(5e-4 * 100 * 50)
    assert rates[2] == pytest.approx(5e-4 * 100 * 50)
    assert rates[3] == pytest.approx(1e-4 * 50)


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(0, 6),
    i=st.integers(0, 6),
    r=st.integers(0, 6),
    theta=st.tuples(*[st.floats(0.01, 5.0) for _ in range(3)]),
)
def test_rate_row_is_conservative(s, i, r, theta):
    net = builtin_model("ssir")
    row = net.rate_row((s, i, r), list(theta))
    assert all(v >= 0 for v in row.targets.values())
    assert row.diagonal <= 0
    assert sum(row.targets.values()) + row.diagonal <= 1e-12


@st.composite
def _box_and_states(draw):
    n_spec = draw(st.integers(1, 3))
    lo = [draw(st.integers(-3, 3)) for _ in range(n_spec)]
    width = [draw(st.one_of(st.none(), st.integers(0, 4))) for _ in range(n_spec)]
    hi = [None if w is None else l + w for l, w in zip(lo, width)]
    # offsets reach past each finite bound by up to two on either side
    reach = [6 if w is None else w + 2 for w in width]
    n = draw(st.integers(0, 8))
    states = [[l + draw(st.integers(-2, r)) for l, r in zip(lo, reach)]
              for _ in range(n)]
    return lo, hi, np.array(states, dtype=np.int64).reshape(n, n_spec)


@given(_box_and_states())
@settings(max_examples=200, deadline=None)
def test_in_bounds_on_an_array_equals_row_by_row(case):
    lo, hi, states = case
    n_spec = len(lo)
    net = ReactionNetwork(
        update_matrix=np.eye(n_spec, dtype=np.int64),
        propensities=tuple((lambda x, th: 1.0) for _ in range(n_spec)),
        lower_bounds=tuple(lo), upper_bounds=tuple(hi), param_dim=1,
    )
    rows = [net.in_bounds(x) for x in states]
    assert all(type(v) is bool for v in rows)
    assert rows == [all(l <= v and (h is None or v <= h)
                        for v, l, h in zip(x, lo, hi)) for x in states.tolist()]
    inside = net.in_bounds(states)
    assert inside.shape == (states.shape[0],)
    assert inside.tolist() == rows
