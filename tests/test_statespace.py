"""Truncations, seed paths, and truncated rate-matrix assembly."""

import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcinfer import (
    ReactionNetwork,
    SeedPathError,
    Truncation,
    TruncationLadder,
    assemble,
    builtin_model,
    grow,
    merge,
    ra_rule_of_thumb,
    seed_path,
    seed_reaction_counts,
    seed_truncation,
)
from ctmcinfer.expm import DENSE_LIMIT
from ctmcinfer.statespace import default_directions


def test_truncation_rejects_duplicates():
    with pytest.raises(ValueError):
        Truncation(states=((0,), (1,), (0,)))


def test_truncation_indexing():
    tr = Truncation(states=((0,), (2,), (5,)))
    assert len(tr) == 3
    assert (2,) in tr and (3,) not in tr
    assert tr.index_of((5,)) == 2


def test_default_directions_orders_plus_before_minus_per_species():
    dirs = default_directions(2)
    assert dirs.tolist() == [[1, 0], [-1, 0], [0, 1], [0, -1]]


def test_grow_is_prefix_preserving_and_deterministic():
    net = builtin_model("mmc", c=1)
    base = Truncation(states=((3,),))
    g1 = grow(base, net)
    g2 = grow(base, net)
    assert g1.states == g2.states
    assert g1.states[: len(base)] == base.states
    assert g1.level == base.level + 1
    # parent order first, then direction order, bounds clipped
    assert g1.states == ((3,), (4,), (2,))


def test_grow_clips_at_lower_bound():
    net = builtin_model("mmc", c=1)
    tr = grow(Truncation(states=((0,),)), net)
    assert tr.states == ((0,), (1,))


def _reference_grow(trunc, net):
    # per-candidate growth with its own +e_j, -e_j directions, kept apart
    # from grow and default_directions so a change in either shows
    dirs = []
    for j in range(net.n_species):
        e = np.zeros(net.n_species, dtype=np.int64)
        e[j] = 1
        dirs.append(e.copy())
        dirs.append(-e)
    lo = np.asarray(net.lower_bounds)
    hi = np.asarray(net.upper_bounds, dtype=float)
    out = list(trunc.states)
    seen = set(trunc.states)
    for s in trunc.states:
        base = np.asarray(s, dtype=np.int64)
        for d in dirs:
            cand = base + d
            if np.all(cand >= lo) and np.all(cand <= hi):
                key = tuple(int(v) for v in cand)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    return Truncation(tuple(out), level=trunc.level + 1)


@pytest.mark.parametrize("name, params, base, levels", [
    ("mmc", {"c": 2}, ((0,),), 12),
    ("mmc", {"c": 1, "upper_bounds": (6,)}, ((5,), (2,)), 12),
    ("schloegl_bd", {}, ((20,), (1,)), 12),
    ("schloegl_bd", {"upper_bounds": (8,)}, ((7,),), 12),
    ("lv3", {}, ((0, 3),), 10),
    ("lv4", {}, ((10, 10), (9, 10), (1, 0)), 10),
    ("ssir", {}, ((2, 1, 0), (1, 1, 1)), 10),
    ("ssir", {"upper_bounds": (4, 4, 4)}, ((4, 0, 3),), 10),
])
def test_grow_matches_the_per_candidate_reference(name, params, base, levels):
    net = builtin_model(name, **params)
    got = want = Truncation(states=base)
    for _ in range(levels):
        got, want = grow(got, net), _reference_grow(want, net)
        assert got.states == want.states
        assert got.level == want.level


def test_merge_keeps_first_seen_order():
    a = Truncation(states=((0,), (1,)), level=2)
    b = Truncation(states=((1,), (2,)), level=1)
    m = merge([a, b])
    assert m.states == ((0,), (1,), (2,))
    assert m.level == 2


def test_grow_commutes_with_merge_setwise():
    net = builtin_model("ssir")
    a = seed_truncation(net, (2, 1, 0), (1, 1, 1))
    b = seed_truncation(net, (1, 2, 0), (1, 1, 1))
    lhs = grow(merge([a, b]), net)
    rhs = merge([grow(a, net), grow(b, net)])
    assert set(lhs.states) == set(rhs.states)


def test_ladder_grows_lazily_and_caches():
    net = builtin_model("mmc", c=1)
    ladder = TruncationLadder(Truncation(states=((2,),)), net)
    t3 = ladder.level(3)
    assert ladder.level(3) is t3
    assert ladder.level(1).states == grow(Truncation(states=((2,),)), net).states


# ---------------------------------------------------------------------------
# seed paths


def test_seed_counts_ssir_example():
    net = builtin_model("ssir")
    counts = seed_reaction_counts(net, (2, 1, 0), (1, 1, 1))
    assert counts.tolist() == [1, 1, 0]


def test_seed_counts_zero_displacement():
    net = builtin_model("ssir")
    assert seed_reaction_counts(net, (2, 1, 0), (2, 1, 0)).tolist() == [0, 0, 0]


def test_seed_counts_match_linprog_on_random_problems():
    rng = np.random.default_rng(42)
    trials = 0
    while trials < 25:
        n_react = int(rng.integers(2, 5))
        n_spec = int(rng.integers(1, 4))
        update = rng.integers(-2, 3, size=(n_react, n_spec))
        if np.any(np.all(update == 0, axis=1)):
            continue
        nu0 = rng.integers(0, 4, size=n_react)
        delta = update.T @ nu0
        net = ReactionNetwork(
            update_matrix=update,
            propensities=tuple((lambda x, th: 1.0) for _ in range(n_react)),
            lower_bounds=(None,) * n_spec,
            upper_bounds=(None,) * n_spec,
            param_dim=1,
            name="rand",
        )
        x_from = tuple(int(v) for v in rng.integers(0, 5, size=n_spec))
        x_to = tuple(int(a + d) for a, d in zip(x_from, delta))
        ref = scipy.optimize.linprog(
            c=np.ones(n_react), A_eq=update.T, b_eq=delta,
            bounds=[(0, None)] * n_react, method="highs",
        )
        assert ref.status == 0
        try:
            counts = seed_reaction_counts(net, x_from, x_to)
        except SeedPathError:
            # ceil of a fractional vertex missed the equality; legitimate
            continue
        assert update.T @ counts == pytest.approx(delta)
        # integral, no better than the LP, at worst one ceil step per channel
        assert counts.sum() >= ref.fun - 1e-9
        assert counts.sum() <= ref.fun + n_react
        trials += 1


def test_seed_counts_infeasible_raises():
    net = builtin_model("mmc", c=1)
    # a net that only moves in steps of +2 cannot bridge an odd displacement:
    # the LP solves at nu = 1.5 but the ceil re-verification fails
    stuck = ReactionNetwork(
        update_matrix=np.array([[2]]),
        propensities=(lambda x, th: 1.0,),
        lower_bounds=(0,),
        upper_bounds=(None,),
        param_dim=1,
        name="even",
    )
    with pytest.raises(SeedPathError):
        seed_reaction_counts(stuck, (0,), (3,))
    assert seed_reaction_counts(net, (0,), (3,)).tolist() == [3, 0]


def test_seed_path_is_a_valid_in_bounds_walk():
    net = builtin_model("ssir")
    path = seed_path(net, (2, 1, 0), (1, 1, 1))
    assert path[0] == (2, 1, 0) and path[-1] == (1, 1, 1)
    updates = {tuple(u) for u in net.update_matrix}
    for a, b in zip(path, path[1:]):
        step = tuple(np.asarray(b) - np.asarray(a))
        assert step in updates
        assert net.in_bounds(b)


def test_seed_path_backtracks_when_reaction_order_exits_bounds():
    # counts are one of each reaction; taking reaction 0 first would send
    # species 2 negative, so the walk must reorder
    net = ReactionNetwork(
        update_matrix=np.array([[1, -1], [0, 1]]),
        propensities=(lambda x, th: 1.0, lambda x, th: 1.0),
        lower_bounds=(0, 0),
        upper_bounds=(None, None),
        param_dim=1,
        name="hop",
    )
    assert seed_reaction_counts(net, (0, 0), (1, 0)).tolist() == [1, 1]
    path = seed_path(net, (0, 0), (1, 0))
    assert path == [(0, 0), (0, 1), (1, 0)]


def test_seed_path_error_when_realization_impossible():
    net = builtin_model("mmc", c=1)
    with pytest.raises(SeedPathError):
        seed_path(net, (0,), (-2,))


# ---------------------------------------------------------------------------
# assembly


def test_assemble_keeps_full_diagonal_and_tracks_deficit():
    net = builtin_model("mmc", c=1)
    theta = [1.0, 1.0]
    tr = Truncation(states=((0,), (1,), (2,), (3,)))
    m = assemble(net, tr, theta)
    dense = m.to_dense()
    # diagonal counts the birth at the edge state even though its target is
    # outside the truncation
    assert dense[3, 3] == pytest.approx(-2.0)
    assert dense[3, 2] == pytest.approx(1.0)
    assert m.deficit[3] == pytest.approx(1.0)
    assert m.deficit[:3] == pytest.approx(np.zeros(3))
    assert m.q_bar == pytest.approx(-2.0)
    row_sums = dense.sum(axis=1)
    assert row_sums[:3] == pytest.approx(np.zeros(3), abs=1e-14)
    assert row_sums[3] == pytest.approx(-1.0)


def test_assembled_matrices_compare_by_identity():
    # their fields are arrays, so a field-wise == would raise on truth value
    net = builtin_model("mmc", c=1)
    tr = Truncation(states=((0,), (1,), (2,), (3,)))
    a, b = assemble(net, tr, [1.0, 1.0]), assemble(net, tr, [1.0, 1.0])
    assert not a == b
    assert a != b
    assert a == a
    assert a in [a]
    assert a not in [b]
    assert len({a, b, a}) == 2


def test_assemble_dense_below_limit_sparse_above():
    net = builtin_model("mmc", c=1)
    small = assemble(net, Truncation(states=tuple((i,) for i in range(10))), [1.0, 1.0])
    big = assemble(
        net, Truncation(states=tuple((i,) for i in range(600))), [1.0, 1.0]
    )
    assert np.allclose(
        big.to_dense()[:10, :10], small.to_dense(), atol=1e-14
    )


def test_truncated_matrix_is_taboo_generator():
    """Row of expm(tQ_r) = probability of reaching y at t without leaving.

    Oracle: enumerate jump sequences inside the truncation and evaluate each
    one's probability with a phase-type (upper-bidiagonal) matrix exponential.
    """
    net = builtin_model("mmc", c=1)
    theta = [0.8, 0.6]
    tr = Truncation(states=((0,), (1,), (2,)))
    m = assemble(net, tr, theta)
    Q = m.to_dense()
    t = 0.5
    probs = scipy.linalg.expm(Q * t)

    def path_prob(path):
        k = len(path)
        B = np.zeros((k, k))
        for a, s in enumerate(path):
            B[a, a] = Q[s, s]
        for a in range(k - 1):
            B[a, a + 1] = Q[path[a], path[a + 1]]
        return scipy.linalg.expm(B * t)[0, -1]

    max_jumps = 10
    for start in range(3):
        brute = np.zeros(3)

        def walk(path):
            brute[path[-1]] += path_prob(path)
            if len(path) - 1 >= max_jumps:
                return
            for nxt in range(3):
                if nxt != path[-1] and Q[path[-1], nxt] > 0:
                    walk(path + [nxt])

        walk([start])
        assert probs[start] == pytest.approx(brute, abs=1e-9)


def _assemble_by_rate_row(net, trunc, theta):
    """Per-state reference assembly: one rate_row per state, as dicts."""
    b = len(trunc)
    diag = np.zeros(b)
    deficit = np.zeros(b)
    rows, cols, vals = [], [], []
    for i, s in enumerate(trunc.states):
        row = net.rate_row(s, theta)
        diag[i] = row.diagonal
        kept = 0.0
        for tgt, rate in row.targets.items():
            if tgt in trunc:
                rows.append(i)
                cols.append(trunc.index_of(tgt))
                vals.append(rate)
                kept += rate
        deficit[i] = -row.diagonal - kept
    entries = (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
               np.asarray(vals, dtype=float))
    idx = np.arange(b)
    dense = sp.csr_matrix((np.concatenate([entries[2], diag]),
                           (np.concatenate([entries[0], idx]),
                            np.concatenate([entries[1], idx]))), shape=(b, b)).toarray()
    np.maximum(deficit, 0.0, out=deficit)
    return dense, entries, diag, deficit


def _row_major(rows, cols, rates):
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], rates[order]


def _assert_bit_identical(net, trunc, theta):
    got = assemble(net, trunc, theta)
    dense, entries, diag, deficit = _assemble_by_rate_row(net, trunc, theta)
    assert np.array_equal(got.to_dense(), dense)
    # the reference lists entries state by state, assemble channel by channel
    for g, w in zip(_row_major(got.rows, got.cols, got.rates), _row_major(*entries)):
        assert np.array_equal(g, w)
    assert np.all(got.rows != got.cols)
    assert np.array_equal(got.diag, diag)
    assert np.array_equal(got.deficit, deficit)
    assert got.q_bar == float(diag.min())


def _wide_base(lo, hi):
    return Truncation(states=tuple((i,) for i in range(lo, hi)))


def _box_base(width, n_species):
    return Truncation(states=tuple(itertools.product(range(width), repeat=n_species)))


# (model, parameters, ladder base, top level); level 0 holds at most
# DENSE_LIMIT states and the top level more, so levels cross the size at
# which uniformization stores its operand as CSR
_ASSEMBLY_CASES = [
    ("mmc", {"c": 2}, _wide_base(0, 506), 9),
    ("mmc", {"c": 3, "upper_bounds": (600,)}, _wide_base(0, 506), 9),
    ("schloegl_bd", {}, _wide_base(0, 506), 9),
    ("schloegl_bd", {"upper_bounds": (520,)}, _wide_base(3, 506), 16),
    ("ssir", {}, _box_base(7, 3), 3),
    ("ssir", {"upper_bounds": (9, 9, 9)}, _box_base(8, 3), 4),
    ("lv3", {}, _box_base(22, 2), 3),
    ("lv4", {}, _box_base(22, 2), 3),
]


@pytest.fixture(scope="module")
def assembly_ladders():
    ladders = []
    for name, params, base, top in _ASSEMBLY_CASES:
        net = builtin_model(name, **params)
        ladder = TruncationLadder(base, net)
        assert len(ladder.level(0)) <= DENSE_LIMIT < len(ladder.level(top))
        ladders.append((ladder, top))
    return ladders


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_assemble_equals_a_per_state_rate_row_build(assembly_ladders, data):
    ladder, top = data.draw(st.sampled_from(assembly_ladders))
    level = data.draw(st.integers(0, top))
    theta = data.draw(st.lists(st.floats(0.05, 5.0), min_size=ladder.net.param_dim,
                               max_size=ladder.net.param_dim))
    _assert_bit_identical(ladder.net, ladder.level(level), theta)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_leading_block_equals_assemble_on_the_lower_level(assembly_ladders, data):
    # the estimator takes lower telescope levels as leading blocks of the
    # top one; each must be what assemble builds there, storage included
    ladder, top = data.draw(st.sampled_from(assembly_ladders))
    hi = data.draw(st.integers(1, top))
    lo = data.draw(st.integers(0, hi - 1))
    theta = data.draw(st.lists(st.floats(0.05, 5.0), min_size=ladder.net.param_dim,
                               max_size=ladder.net.param_dim))
    got = assemble(ladder.net, ladder.level(hi), theta).leading_block(ladder.level(lo))
    want = assemble(ladder.net, ladder.level(lo), theta)
    assert got.truncation is want.truncation
    assert np.array_equal(got.to_dense(), want.to_dense())
    for attr in ("rows", "cols", "rates", "diag", "deficit"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert got.q_bar == want.q_bar


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_restriction_equals_assemble_on_any_subset(assembly_ladders, data):
    # an IA target takes each level as a restriction of the call's merged
    # matrix: any subset of its states, in any order. Entries may list the
    # rows in another order, but each row's entries, in order, and every
    # other field are what assemble builds there
    ladder, top = data.draw(st.sampled_from(assembly_ladders))
    source = ladder.level(data.draw(st.integers(0, top)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    picked = rng.permutation(len(source))[:rng.integers(1, len(source) + 1)]
    trunc = Truncation(tuple(source.states[i] for i in picked))
    theta = data.draw(st.lists(st.floats(0.05, 5.0), min_size=ladder.net.param_dim,
                               max_size=ladder.net.param_dim))
    got = assemble(ladder.net, source, theta).restrict(trunc)
    want = assemble(ladder.net, trunc, theta)
    assert got.truncation is trunc
    assert np.array_equal(got.to_dense(), want.to_dense())
    by_row = [np.argsort(m.rows, kind="stable") for m in (got, want)]
    for attr in ("rows", "cols", "rates"):
        assert np.array_equal(getattr(got, attr)[by_row[0]], getattr(want, attr)[by_row[1]])
    for attr in ("diag", "deficit"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert got.q_bar == want.q_bar


def test_restriction_needs_a_subset():
    net = builtin_model("mmc", c=1)
    big = assemble(net, _wide_base(0, 5), [1.0, 2.0])
    with pytest.raises(ValueError, match="outside this one"):
        big.restrict(_wide_base(3, 6))


def test_ladder_rejects_a_negative_level():
    # Python's negative indexing would hand back the highest level grown
    ladder = TruncationLadder(_wide_base(0, 3), builtin_model("mmc", c=1))
    ladder.level(4)
    with pytest.raises(ValueError, match="level -1 is negative"):
        ladder.level(-1)


def test_leading_block_needs_a_prefix():
    net = builtin_model("mmc", c=1)
    big = assemble(net, _wide_base(0, 5), [1.0, 2.0])
    with pytest.raises(ValueError, match="not a prefix"):
        big.leading_block(_wide_base(1, 3))
    with pytest.raises(ValueError, match="not a prefix"):
        big.leading_block(_wide_base(0, 6))


def test_one_truncation_assembles_per_network():
    # the same truncation under two bounds: the capped net drops the birth
    # at state 3 from the diagonal, the uncapped one keeps it as a deficit
    capped = builtin_model("mmc", c=1, upper_bounds=(3,))
    open_ = builtin_model("mmc", c=1)
    tr = _wide_base(0, 4)
    theta = [1.0, 2.0]
    for net in (capped, open_, capped):
        _assert_bit_identical(net, tr, theta)
    assert assemble(capped, tr, theta).diag[3] == -2.0
    assert assemble(open_, tr, theta).diag[3] == -3.0
    assert assemble(open_, tr, theta).deficit[3] == 1.0


def test_assemble_rejects_a_negative_propensity():
    net = ReactionNetwork(
        update_matrix=np.array([[1], [-1]]),
        propensities=(lambda x, th: th[0], lambda x, th: th[1] - x[0]),
        lower_bounds=(0,),
        upper_bounds=(None,),
        param_dim=2,
        name="bad",
    )
    with pytest.raises(ValueError) as want:
        net.propensity_vector((2,), [1.0, 1.5])
    with pytest.raises(ValueError) as got:
        assemble(net, _wide_base(0, 4), [1.0, 1.5])
    assert str(got.value) == str(want.value)
    assert "reaction 1" in str(got.value)


def test_ra_rule_of_thumb_threshold():
    assert ra_rule_of_thumb([10, 10, 10], 10)
    assert not ra_rule_of_thumb([10, 10, 10], 11)


@settings(max_examples=40, deadline=None)
@given(levels=st.integers(0, 4))
def test_ladder_levels_nest(levels):
    net = builtin_model("ssir")
    ladder = TruncationLadder(seed_truncation(net, (2, 1, 0), (1, 1, 1)), net)
    small = ladder.level(levels)
    big = ladder.level(levels + 1)
    assert big.states[: len(small)] == small.states
