"""Monotone matrix-exponential approximations, selection rules, FLOP model."""

import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ctmcinfer import (
    DENSE_LIMIT,
    MATRIX_CLASSES,
    EstimatorConfig,
    FlopMeter,
    LikelihoodEstimator,
    Truncation,
    assemble,
    builtin_model,
    computable_error,
    implicit_square,
    oracle_expm,
    poisson_quantile,
    random_rate_matrix,
    rows_action,
    sample_dataset,
    select_s_skeletoid,
    select_s_uniformization,
    skeletoid,
    skeletoid_base,
    skeletoid_split,
    tune_estimator,
    uniformization,
)
from ctmcinfer import expm

TIED = np.array([[-1.0, 1.0], [1.0, -1.0]])


# ---------------------------------------------------------------------------
# skeletoid


def test_skeletoid_base_distinct_diagonals():
    Q = np.array([[-1.0, 1.0], [0.0, 0.0]])
    S = skeletoid_base(Q, 1.0)
    assert S[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert S[0, 1] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert S[1, 1] == pytest.approx(1.0)
    assert S[1, 0] == 0.0


def test_skeletoid_base_tied_diagonals():
    S = skeletoid_base(TIED, 0.5)
    assert S[0, 1] == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)
    assert S[1, 0] == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)


def test_skeletoid_base_no_jumps_is_pure_decay():
    Q = np.diag([-2.0, -0.5, 0.0])
    S = skeletoid_base(Q, 0.7)
    assert S == pytest.approx(np.diag(np.exp(np.diag(Q) * 0.7)))


def test_skeletoid_base_substochastic_rows():
    rng = np.random.default_rng(0)
    Q = random_rate_matrix("dense", 8, rng)
    S = skeletoid_base(Q, 0.3)
    assert np.all(S >= 0) and np.all(S <= 1)
    assert np.all(S.sum(axis=1) <= 1 + 1e-12)


def test_skeletoid_low_resolution_and_monotone_gap():
    exact = (1.0 - math.exp(-1.0)) / 2.0
    gaps = []
    for s in range(5):
        M = skeletoid(TIED, 0.5, s)
        gaps.append(exact - M[0, 1])
    assert skeletoid(TIED, 0.5, 0)[0, 1] == pytest.approx(0.303265, abs=1e-6)
    assert all(g > 0 for g in gaps)
    # on this symmetric pair the s=0 -> s=1 step reproduces the same entry
    # exactly, so consecutive gaps are nonincreasing rather than strict
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[4] < gaps[0]


def test_skeletoid_absorbing_is_identity():
    Q = np.zeros((3, 3))
    for s in (0, 2, 7):
        assert skeletoid(Q, 5.0, s) == pytest.approx(np.eye(3))


def test_skeletoid_matches_oracle_at_high_resolution():
    rng = np.random.default_rng(3)
    Q = random_rate_matrix("dense", 5, rng)
    M = skeletoid(Q, 1.0, 40)
    assert np.max(np.abs(M - oracle_expm(Q, 1.0))) < 1e-10


def _full_matrix_bridge_increment(mat, diag, delta):
    """_bridge_increment as it was, on the full b x b matrix: the reference
    for the one that weights only the nonzero pairs."""
    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)
    b = dense.shape[0]
    dx = diag[:, None]
    dy = diag[None, :]
    tie = np.abs(dx - dy) <= expm._DIAG_TIE_RTOL * np.maximum(np.abs(dx), np.abs(dy))
    gap = np.where(tie, 1.0, np.abs(dy - dx))
    hi = np.maximum(dx, dy)
    bridge = np.where(tie, delta * np.exp(dx * delta),
                      np.exp(hi * delta) * -np.expm1(-gap * delta) / gap)
    off = dense * bridge
    np.fill_diagonal(off, 0.0)
    B = off
    B[np.arange(b), np.arange(b)] = np.expm1(diag * delta)
    return B


def _bridge_case(kind, b, seed):
    """A rate matrix of the given kind: a random_rate_matrix class, a banded
    generator, tied diagonals, an assembled queue (TruncatedRateMatrix), or
    a CSR matrix listing each nonzero as two duplicate entries."""
    rng = np.random.default_rng(seed)
    if kind == "duplicated":
        # non-canonical CSR: every nonzero a is stored as u*a and a - u*a at
        # the same (row, col); two addends sum alike in either order
        Q = random_rate_matrix("sparse", b, rng)
        rows, cols = np.nonzero(Q)
        part = Q[rows, cols] * rng.uniform(0.1, 0.9, size=rows.size)
        data = np.column_stack([part, Q[rows, cols] - part]).ravel()
        indptr = np.concatenate([[0], np.cumsum(2 * np.bincount(rows, minlength=b))])
        return sp.csr_matrix((data, np.repeat(cols, 2), indptr), shape=(b, b))
    if kind == "banded":
        return _banded_generator(b, 1 + seed % 3, seed)
    if kind == "tied":
        # every diagonal equal, or within (1e-13) or just outside (1e-11) the
        # tie tolerance of the others
        Q = random_rate_matrix("sparse", b, rng)
        d = np.diag(Q).min() * (1.0 + rng.choice([0.0, 1e-13, 1e-11], size=b))
        np.fill_diagonal(Q, d)
        return Q
    if kind == "assembled":
        theta = rng.uniform(0.05, 5.0, size=2)
        return assemble(builtin_model("mmc", c=2),
                        Truncation(states=tuple((i,) for i in range(b))), theta)
    return random_rate_matrix(kind, b, rng)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from([*MATRIX_CLASSES, "banded", "tied", "assembled", "duplicated"]),
    b=st.integers(2, 40),
    seed=st.integers(0, 2**16),
    log_delta=st.floats(-12.0, 0.0),
)
def test_pairwise_bridge_increment_equals_the_full_matrix_one(kind, b, seed, log_delta):
    Q = _bridge_case(kind, b, seed)
    if kind == "assembled":
        dense = Q.to_dense()
    else:
        dense = Q.toarray() if sp.issparse(Q) else Q
    delta = 10.0**log_delta
    want = _full_matrix_bridge_increment(dense, np.diag(dense).copy(), delta)
    assert np.array_equal(expm._bridge_increment(expm._parts(Q), delta), want)


def test_implicit_square_matches_naive():
    rng = np.random.default_rng(1)
    S = rng.uniform(0, 0.2, size=(6, 6))
    B = S - np.eye(6) * 0.0  # generic small block
    lhs = implicit_square(B)
    rhs = (B + np.eye(6)) @ (B + np.eye(6)) - np.eye(6)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_implicit_square_keeps_precision_for_tiny_steps():
    # entries ~1e-14: forming (I+B)^2 - I directly would cancel catastrophically
    B = np.array([[-1e-14, 1e-14], [2e-14, -2e-14]])
    out = implicit_square(B)
    assert out == pytest.approx(2 * B, rel=1e-8)
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# uniformization


def test_uniformization_partial_sums():
    assert uniformization(TIED, 0.5, 1)[0, 1] == pytest.approx(
        0.5 * math.exp(-0.5), rel=1e-12
    )
    assert uniformization(TIED, 0.5, 3)[0, 1] == pytest.approx(
        0.31590138, abs=1e-8
    )


def test_uniformization_s_zero_equal_diagonals():
    Q = np.array([[-2.0, 2.0], [2.0, -2.0]])
    M = uniformization(Q, 0.25, 0)
    assert M == pytest.approx(np.diag([math.exp(-0.5)] * 2))
    assert computable_error(M) == pytest.approx(1.0 - math.exp(-0.5))


def test_uniformization_matches_oracle():
    rng = np.random.default_rng(7)
    Q = random_rate_matrix("sparse", 12, rng)
    s = select_s_uniformization(-np.min(np.diag(Q)) * 2.0, 1e-12)
    M = uniformization(Q, 2.0, s)
    assert np.max(np.abs(M - oracle_expm(Q, 2.0))) < 1e-10


def test_uniformization_survives_huge_rates():
    # e^{q_bar t} underflows double precision by hundreds of orders here
    Q = TIED * 1e6
    s = select_s_uniformization(1e6, 1e-8)
    M = uniformization(Q, 1.0, s)
    assert np.all(np.isfinite(M))
    # rows may fall short of 1 by the requested tail mass, never exceed it
    deficit = 1.0 - M.sum(axis=1)
    assert np.all(deficit >= -1e-12)
    assert np.all(deficit <= 1e-8 + 1e-9)
    assert M[0, 1] == pytest.approx(0.5, abs=1e-6)


def test_uniformization_rejects_bad_q_bar():
    with pytest.raises(ValueError):
        uniformization(TIED, 1.0, 3, q_bar=-0.5)  # above the min diagonal


# ---------------------------------------------------------------------------
# selection rules


def test_select_s_uniformization_examples():
    assert select_s_uniformization(1.0, 0.01) == 4
    assert select_s_uniformization(1.0, 0.5) == 1
    assert select_s_uniformization(1.0, 1.0) == 0
    assert select_s_uniformization(1.0, 2.0) == 0


def test_select_s_skeletoid_examples():
    assert select_s_skeletoid(10.0, 1e-3) == 16
    assert select_s_skeletoid(1.0, 0.01) == 6
    assert select_s_skeletoid(0.1, 0.01) == 0


@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0, 50.0, 500.0, 4999.0])
@pytest.mark.parametrize("eps", [0.5, 1e-2, 1e-6, 1e-12])
def test_poisson_quantile_matches_scipy_direct_regime(lam, eps):
    assert poisson_quantile(lam, eps) == int(scipy.stats.poisson.ppf(1 - eps, lam))


@pytest.mark.parametrize("lam", [5001.0, 3e4, 1e5, 1e6])
@pytest.mark.parametrize("eps", [1e-2, 1e-8])
def test_poisson_quantile_matches_scipy_bracketed_regime(lam, eps):
    assert poisson_quantile(lam, eps) == int(scipy.stats.poisson.ppf(1 - eps, lam))


def test_poisson_quantile_edge_cases():
    assert poisson_quantile(0.0, 1e-6) == 0
    assert poisson_quantile(10.0, 1.0) == 0


# ---------------------------------------------------------------------------
# FLOP model


def test_flop_meter_arithmetic():
    meter = FlopMeter()
    meter.add_dense_square(10)
    assert meter.flops == 2 * 10**3
    meter.add_block_product(3, 10)
    assert meter.flops == 2000 + 2 * 3 * 100
    meter.add_sparse_pass(2, 57)
    assert meter.flops == 2000 + 600 + 2 * 2 * 57
    assert meter.gflops == pytest.approx(meter.flops / 1e9)


def test_skeletoid_meters_dense_squares():
    meter = FlopMeter()
    Q = np.asarray(random_rate_matrix("dense", 7, np.random.default_rng(0)))
    skeletoid(Q, 1.0, 5, meter)
    assert meter.flops == 5 * 2 * 7**3


def test_skeletoid_split_examples():
    assert skeletoid_split(10, 100, 1) == (6, 4)
    # x* = log2(0.1 b / (ln2 m)) ~ 3.85; C(4) = 7.6e5 < C(3) = 7.8e5
    k1, k2 = skeletoid_split(6, 50, 50)
    assert k2 == 0 and k1 == 6
    k1, k2 = skeletoid_split(0, 100, 1)
    assert (k1, k2) == (0, 0)


# ---------------------------------------------------------------------------
# row-targeted action


@pytest.mark.parametrize("method", ["skeletoid", "uniformization"])
def test_rows_action_equals_full_matrix(method):
    net = builtin_model("mmc", c=2)
    tr = Truncation(states=tuple((i,) for i in range(9)))
    m = assemble(net, tr, [1.3, 0.7])
    s = 12
    if method == "skeletoid":
        full = skeletoid(m, 0.8, s)
    else:
        full = uniformization(m, 0.8, s)
    rows = [0, 3, 8]
    block = rows_action(method, m, 0.8, s, rows)
    assert block == pytest.approx(full[rows], abs=1e-13)
    all_rows = rows_action(method, m, 0.8, s, list(range(9)))
    assert all_rows == pytest.approx(full, abs=1e-13)


def test_rows_action_global_uniformization():
    Q = np.array([[-2.0, 2.0, 0.0], [1.0, -3.0, 2.0], [0.0, 0.5, -0.5]])
    q_bar = -4.0
    full = uniformization(Q, 1.0, 9, q_bar=q_bar)
    block = rows_action("uniformization", Q, 1.0, 9, [1], q_bar=q_bar)
    assert block == pytest.approx(full[[1]], abs=1e-13)


def test_rows_action_rejects_bad_rows():
    with pytest.raises(ValueError):
        rows_action("skeletoid", TIED, 1.0, 2, [5])
    for method in ("skeletoid", "uniformization"):
        with pytest.raises(ValueError, match="nonnegative"):
            rows_action(method, TIED, 1.0, -2, [0])


def test_rows_action_sparse_metering_cheaper_than_full():
    net = builtin_model("mmc", c=1)
    tr = Truncation(states=tuple((i,) for i in range(600)))
    m = assemble(net, tr, [1.0, 1.0])
    meter_rows = FlopMeter()
    rows_action("uniformization", m, 0.5, 20, [0], meter_rows)
    meter_full = FlopMeter()
    uniformization(m, 0.5, 20, meter_full)
    assert meter_rows.flops < meter_full.flops / 10


class _ScaledSeries:
    """The Poisson-weighted accumulation rows_action ran before its weights
    were cached, kept as the reference: each term's log-weight from lgamma,
    renormalized every 64 terms or when a log-weight passes the anchor by
    600. Also records each weight and each rescale factor other than 1.
    """

    def __init__(self, shape, lam):
        self.lam = lam
        self.log_lam = math.log(lam)
        self.logw = -lam
        self.anchor = -lam
        self.acc = np.zeros(shape)
        self.n = 0
        self.weights = []
        self.rescales = {}

    def add(self, term):
        if self.n > 0:
            self.logw = -self.lam + self.n * self.log_lam - math.lgamma(self.n + 1)
            if self.n % 64 == 0 or self.logw > self.anchor + 600.0:
                new_anchor = max(self.anchor, self.logw)
                factor = math.exp(self.anchor - new_anchor)
                if factor != 1.0:
                    self.rescales[self.n] = factor
                self.acc *= factor
                self.anchor = new_anchor
        w = math.exp(self.logw - self.anchor)
        self.weights.append(w)
        if w != 0.0:
            self.acc += w * term
        self.n += 1

    def value(self):
        return self.acc * math.exp(self.anchor)


def _reference_uniformization_rows(mat, q_bar, t, s, rows, csr):
    # P is CSR when asked, dense otherwise, whatever mat is
    b = mat.shape[0]
    if not csr:
        dense = mat.toarray() if sp.issparse(mat) else mat
        P = np.eye(b) + dense / (-q_bar)
    else:
        P = (sp.eye(b, format="csr") + sp.csr_matrix(mat).multiply(1.0 / (-q_bar))).tocsr()
    series = _ScaledSeries((len(rows), b), -q_bar * t)
    block = np.zeros((len(rows), b))
    block[np.arange(len(rows)), rows] = 1.0
    series.add(block)
    for _ in range(s):
        block = block @ P
        series.add(block)
    return series


# (lam, s): weights underflowing to 0, renormalizations that keep the anchor,
# and renormalizations that move it, many times over at lam = 1e4
_SCHEDULE_CASES = [(0.5, 200), (20.0, 140), (700.0, 900), (1e4, 10600)]


# (input form, states): b = 600 is past DENSE_LIMIT, so the tridiagonal P
# is CSR there
_OPERAND_CASES = [("dense", 12), ("csr", 12), ("trmat", 12),
                  ("dense", 600), ("csr", 600), ("trmat", 600)]


@pytest.mark.parametrize("storage, b", _OPERAND_CASES,
                         ids=["dense", "csr", "trmat", "dense-600", "csr-600", "trmat-600"])
@pytest.mark.parametrize("lam, s", _SCHEDULE_CASES)
def test_uniformization_rows_equal_the_term_by_term_series(lam, s, storage, b):
    trmat = assemble(builtin_model("mmc", c=2), Truncation(
        states=tuple((i,) for i in range(b))), [1.3, 0.7])
    mat = {"dense": trmat.to_dense(), "csr": sp.csr_matrix(trmat.to_dense()),
           "trmat": trmat}[storage]
    q_bar = 1.25 * trmat.q_bar
    t = lam / -q_bar
    rows = np.array([0, 4, 11])
    want = _reference_uniformization_rows(trmat.to_dense() if storage == "trmat" else mat,
                                          q_bar, t, s, rows, csr=b > DENSE_LIMIT)
    meter = FlopMeter()
    got = rows_action("uniformization", mat, t, s, rows, meter, q_bar=q_bar)
    assert np.array_equal(got, want.value())
    # s >= 140 steps reach every one of the first 12 states
    assert np.all(got[:, :12] > 0.0)
    nnz = trmat.rates.size + b
    assert meter.flops == s * (2 * 3 * b * b if b <= DENSE_LIMIT else 2 * 3 * nnz)
    weights, rescales, anchor = expm._poisson_schedule(-q_bar * t, s)
    assert np.array_equal(weights, want.weights)
    assert dict(rescales) == want.rescales
    assert anchor == want.anchor
    if lam >= 700:
        assert len(rescales) >= 5
    if lam == 0.5:
        assert weights[-1] == 0.0


@pytest.mark.parametrize("kind, csr", [("dense", False), ("sparse", True)])
def test_uniformization_operand_storage_follows_its_fill(kind, csr):
    # past DENSE_LIMIT a full generator keeps the dense BLAS product, and one
    # with at most 10 rates a row (under a tenth filled) gets the CSR pass
    b, s = 600, 9
    Q = random_rate_matrix(kind, b, np.random.default_rng(0))
    q_bar = 1.25 * float(np.diag(Q).min())
    rows = np.array([0, 4, 11])
    meter = FlopMeter()
    got = rows_action("uniformization", Q, 1.0, s, rows, meter, q_bar=q_bar)
    want = _reference_uniformization_rows(Q, q_bar, 1.0, s, rows, csr)
    assert np.array_equal(got, want.value())
    nnz = np.count_nonzero(Q)
    assert meter.flops == s * (2 * 3 * nnz if csr else 2 * 3 * b * b)


def _per_term_rows(Q, t, s, rows, q_bar):
    """The uniformization loop rows_action ran for each request before
    requests were stacked, kept as the reference: one product per term, the
    running sum rescaled where the cached schedule says, zero weights
    skipped."""
    Q = expm._parts(Q, q_bar)
    P = expm._uniformized(Q)
    dense = isinstance(P, np.ndarray)
    weights, rescales, anchor = expm._poisson_schedule(-Q.q_bar * t, s)
    rows = np.asarray(rows)
    block = np.zeros((rows.size, Q.diag.size))
    block[np.arange(rows.size), rows] = 1.0
    acc = block.copy()
    for n, w in zip(range(1, s + 1), weights[1:].tolist()):
        block = block.dot(P) if dense else block @ P
        if n in rescales:
            acc *= rescales[n]
        if w != 0.0:
            acc += w * block
    return acc * math.exp(anchor)


@functools.cache
def _queue_matrix(b, variant):
    # b = 600 is past DENSE_LIMIT and tridiagonal, so its P is CSR
    theta = [[1.3, 0.7], [0.4, 2.5]][variant]
    return assemble(builtin_model("mmc", c=2),
                    Truncation(states=tuple((i,) for i in range(b))), theta)


def _request_lists(reqs):
    """(Q, t, s, rows, q_bar) lists from (b, variant, rows, s, lam, factor)
    tuples, with t = lam / -q_bar."""
    lists = ([], [], [], [], [])
    for b, variant, rows, s, lam, factor in reqs:
        Q = _queue_matrix(b, variant)
        q_bar = factor * Q.q_bar
        for column, value in zip(lists, (Q, lam / -q_bar, s, np.array(rows), q_bar)):
            column.append(value)
    return lists


@st.composite
def _requests(draw, sizes, max_s, lams, factors):
    """1-12 requests whose (b, row count) come from a pool of at most three,
    so most lists stack some of them."""
    shapes = draw(st.lists(st.tuples(sizes, st.integers(1, 4)), min_size=1, max_size=3))
    reqs = []
    for _ in range(draw(st.integers(1, 12))):
        b, m = draw(st.sampled_from(shapes))
        reqs.append((b, draw(st.integers(0, 1)),
                     draw(st.lists(st.integers(0, b - 1), min_size=m, max_size=m)),
                     draw(st.integers(0, max_s)), draw(st.sampled_from(lams)),
                     draw(st.sampled_from(factors))))
    return reqs


# lam >= 100 with s > 64 rescales at term 64
@settings(max_examples=80, deadline=None)
@given(_requests(st.one_of(st.integers(1, 20), st.just(600)), 80,
                 [0.5, 3.0, 20.0, 100.0, 150.0], [1.0, 1.25, 3.0]))
@example([(13, 0, [1], 80, 100.0, 1.0), (13, 1, [2], 70, 150.0, 1.25),
          (13, 0, [5], 30, 3.0, 3.0), (600, 0, [7], 80, 100.0, 1.0),
          (4, 0, [0, 3], 0, 20.0, 1.0), (4, 1, [1, 1], 66, 100.0, 1.0)])
def test_uniformization_request_lists_equal_their_single_calls(reqs):
    Q, t, s, rows, q_bar = _request_lists(reqs)
    meter = FlopMeter()
    got = rows_action("uniformization", Q, t, s, rows, meter, q_bar)
    assert len(got) == len(reqs)
    single_flops = 0
    for i in range(len(reqs)):
        want = _per_term_rows(Q[i], t[i], s[i], rows[i], q_bar[i])
        assert np.array_equal(got[i], want)
        assert np.array_equal(np.signbit(got[i]), np.signbit(want))
        single = FlopMeter()
        assert np.array_equal(
            rows_action("uniformization", Q[i], t[i], s[i], rows[i], single, q_bar[i]), want)
        single_flops += single.flops
    assert meter.flops == single_flops


def test_the_rescaling_example_rescales():
    assert 64 in expm._poisson_schedule(100.0, 80)[1]
    assert 64 in expm._poisson_schedule(100.0, 66)[1]


@settings(max_examples=30, deadline=None)
@given(_requests(st.integers(1, 20), 20, [0.1, 1.0, 5.0], [1.0]))
def test_skeletoid_request_lists_equal_their_single_calls(reqs):
    Q, t, s, rows, _ = _request_lists(reqs)
    meter = FlopMeter()
    got = rows_action("skeletoid", Q, t, s, rows, meter)
    single_flops = 0
    for i in range(len(reqs)):
        single = FlopMeter()
        want = rows_action("skeletoid", Q[i], t[i], s[i], rows[i], single)
        assert np.array_equal(got[i], want)
        assert np.array_equal(np.signbit(got[i]), np.signbit(want))
        single_flops += single.flops
    assert meter.flops == single_flops


def test_blocks_of_one_shared_p_equal_their_restrictions_own_requests():
    # an IA call hands each target level the block of the merged matrix's P
    # at its states, in any order: stacked or alone, each block's rows equal
    # those of its restriction's own request, and the meter counts the same
    source = _queue_matrix(20, 0)
    q_bar = 1.25 * source.q_bar
    shared = expm.SharedUniformized(source, q_bar)
    rng = np.random.default_rng(4)
    blocks, subs = [], []
    for b in (6, 6, 6, 9):
        index = rng.permutation(20)[:b]
        subs.append(source.restrict(
            Truncation(tuple(source.truncation.states[i] for i in index))))
        blocks.append(shared.block(index))
    t, s, rows = [0.5, 1.0, 0.5, 0.7], [12, 30, 0, 25], [[1], [0], [5], [2]]
    meter, want_meter = FlopMeter(), FlopMeter()
    got = rows_action("uniformization", blocks, t, s, rows, meter)
    for block, sub, ti, si, ri in zip(got, subs, t, s, rows):
        want = rows_action("uniformization", sub, ti, si, ri, want_meter, q_bar)
        assert np.array_equal(block, want)
    assert meter.flops == want_meter.flops
    # a CSR P is not shared: past DENSE_LIMIT states its blocks would be
    # dense, and another formula's
    assert expm.SharedUniformized(_queue_matrix(600, 0), q_bar).block(np.arange(6)) is None
    with pytest.raises(ValueError, match="uniformization operand"):
        rows_action("skeletoid", blocks[0], 0.5, 3, [0])


def test_one_q_bar_serves_a_whole_request_list():
    Q = [_queue_matrix(13, 0), _queue_matrix(13, 1), _queue_matrix(5, 0)]
    q_bar = 1.5 * min(m.q_bar for m in Q)
    got = rows_action("uniformization", Q, [1.0, 2.0, 1.0], [30, 40, 20],
                      [[0], [4], [2]], None, q_bar)
    for block, m, t, s, r in zip(got, Q, [1.0, 2.0, 1.0], [30, 40, 20], [[0], [4], [2]]):
        assert np.array_equal(block, _per_term_rows(m, t, s, r, q_bar))


def test_request_lists_are_validated_in_order_before_any_arithmetic():
    Q = _queue_matrix(5, 0)
    meter = FlopMeter()
    with pytest.raises(ValueError, match="row index out of range"):
        rows_action("uniformization", [Q, Q, Q], [1.0] * 3, [10, 10, -1],
                    [[0], [7], [0]], meter, Q.q_bar)
    with pytest.raises(ValueError, match="nonnegative"):
        rows_action("skeletoid", [Q, Q], [1.0, 1.0], [3, -1], [[0], [0]], meter)
    with pytest.raises(ValueError, match="smallest diagonal"):
        rows_action("uniformization", [Q, Q], [1.0, 1.0], [3, 3], [[0], [0]], meter,
                    [Q.q_bar, 0.5 * Q.q_bar])
    with pytest.raises(ValueError, match="unknown method"):
        rows_action("taylor", [Q], [1.0], [3], [[0]], meter)
    assert meter.flops == 0
    with pytest.raises(ValueError, match="equal lengths"):
        rows_action("uniformization", [Q, Q], [1.0], [3, 3], [[0], [0]])


def test_poisson_schedule_jumps_its_anchor_between_renormalizations():
    # at lam = 1e6 a log-weight passes the anchor by 600 before term 64
    series = _ScaledSeries((1,), 1e6)
    for _ in range(201):
        series.add(np.ones(1))
    weights, rescales, anchor = expm._poisson_schedule(1e6, 200)
    assert any(n % 64 for n in rescales)
    assert dict(rescales) == series.rescales
    assert np.array_equal(weights, series.weights)
    assert anchor == series.anchor


def test_poisson_schedule_cache_is_bounded():
    short = expm._poisson_schedule(20.0, 100)
    assert expm._poisson_schedule(20.0, 100) is short
    assert not short[0].flags.writeable
    cached = expm._cached_poisson_weights.cache_info()
    assert cached.maxsize is not None
    assert expm.poisson_quantile.cache_info().maxsize is not None
    s_long = expm._SCHEDULE_CACHE_TERMS + 1
    long_ = expm._poisson_schedule(20.0, s_long)
    assert expm._cached_poisson_weights.cache_info().currsize == cached.currsize
    assert np.array_equal(long_[0][:101], short[0])


# ---------------------------------------------------------------------------
# monotonicity and error bounds


@pytest.mark.parametrize("kind", ["sparse", "dense", "absorbing", "gtr"])
def test_monotone_in_s_both_methods(kind):
    rng = np.random.default_rng(11)
    for rep in range(6):
        dim = int(rng.integers(2, 12))
        Q = random_rate_matrix(kind, dim, rng)
        prev_sk = skeletoid(Q, 1.0, 0)
        prev_un = uniformization(Q, 1.0, 0)
        for s in range(1, 6):
            cur_sk = skeletoid(Q, 1.0, s)
            cur_un = uniformization(Q, 1.0, s)
            assert np.min(cur_sk - prev_sk) >= -1e-12
            assert np.min(cur_un - prev_un) >= -1e-12
            prev_sk, prev_un = cur_sk, cur_un


def test_doubly_monotone_in_truncation_level():
    net = builtin_model("mmc", c=1)
    theta = [1.0, 0.8]
    mats = [
        assemble(net, Truncation(states=tuple((i,) for i in range(b))), theta)
        for b in (3, 5, 8, 12)
    ]
    q_bar_global = min(m.q_bar for m in mats)
    for s in (0, 2, 5):
        prev_sk = prev_un = None
        for m in mats:
            sk = skeletoid(m, 1.0, s)
            un = uniformization(m, 1.0, s, q_bar=q_bar_global)
            if prev_sk is not None:
                b = prev_sk.shape[0]
                assert np.min(sk[:b, :b] - prev_sk) >= -1e-12
                assert np.min(un[:b, :b] - prev_un) >= -1e-12
            prev_sk, prev_un = sk, un


def test_sequential_uniformization_counterexample():
    # growing the truncation drags the local rate bound down and the s=0
    # partial sum falls: e^{-1} -> e^{-10}
    q0 = np.array([[-1.0]])
    q1 = np.diag([-1.0, -10.0])
    first = uniformization(q0, 1.0, 0)[0, 0]
    second = uniformization(q1, 1.0, 0)[0, 0]
    assert first == pytest.approx(math.exp(-1.0))
    assert second == pytest.approx(math.exp(-10.0))
    assert second < first - 0.3


@pytest.mark.parametrize("kind", ["sparse", "dense", "gtr"])
def test_error_bounds_hold(kind):
    rng = np.random.default_rng(23)
    for rep in range(5):
        dim = int(rng.integers(2, 10))
        Q = random_rate_matrix(kind, dim, rng)
        t = 1.0
        lam = -np.min(np.diag(Q)) * t
        oracle = oracle_expm(Q, t)
        for s in (1, 3, 6):
            err_un = np.max(np.abs(oracle - uniformization(Q, t, s)))
            bound_un = 1.0 - scipy.stats.poisson.cdf(s, lam)
            assert err_un <= bound_un + 1e-12
            err_sk = np.max(np.abs(oracle - skeletoid(Q, t, s)))
            if lam * 2.0**-s <= 1.0:
                bound_sk = 2.0 * lam**2 * 2.0 ** -(s + 1)
                assert err_sk <= bound_sk + 1e-12


def test_computable_error_exact_for_conservative():
    rng = np.random.default_rng(2)
    Q = random_rate_matrix("gtr", 6, rng)
    t = 1.0
    oracle = oracle_expm(Q, t)
    for s in (0, 2, 4):
        M = uniformization(Q, t, s)
        # max-row-sum norm of the gap: the approximation sits entrywise
        # below the exact kernel, so the worst row deficit IS the norm
        true_err = np.max(np.abs(oracle - M).sum(axis=1))
        assert computable_error(M) == pytest.approx(true_err, abs=1e-10)
        assert computable_error(M) >= true_err - 1e-12


@settings(max_examples=30, deadline=None)
@given(
    s=st.integers(0, 6),
    t=st.floats(0.05, 3.0),
    seed=st.integers(0, 1000),
)
def test_skeletoid_entries_are_probabilities(s, t, seed):
    Q = random_rate_matrix("dense", 5, np.random.default_rng(seed))
    M = skeletoid(Q, t, s)
    assert np.all(M >= -1e-15)
    assert np.all(M.sum(axis=1) <= 1 + 1e-12)


# ---------------------------------------------------------------------------
# underflow flush in the skeletoid squarings


def _unflushed_skeletoid_rows(mat, diag, t, s, rows):
    """The skeletoid branch of rows_action before it flushed tiny entries,
    kept as the reference. Also says whether any squaring underflowed."""
    b, m = len(diag), len(rows)
    k1, k2 = skeletoid_split(s, b, m)
    B = _full_matrix_bridge_increment(mat, diag, t / float(2**s))
    hits = []
    with np.errstate(under="call", call=lambda err, flag: hits.append(err)):
        for _ in range(k1):
            B = 2.0 * B + B @ B
    block = B[rows]
    block[np.arange(m), rows] += 1.0
    for _ in range(2**k2 - 1):
        block = block + block @ B
    return block, bool(hits)


def _flush_gap(mat, diag, t, s, rows):
    """(new rows, old rows, largest |new - old|, its a-priori bound, whether
    a squaring underflowed).

    Each flush zeroes less than b * 2^-511 of a row of B, and the 2^(s-j)
    doublings after squaring j grow that at most 2^(s-j)-fold, since I + B
    is substochastic: summed over j, at most 2^(s+1) * b * 2^-511.
    """
    old, underflowed = _unflushed_skeletoid_rows(mat, diag, t, s, rows)
    new = rows_action("skeletoid", mat, t, s, rows)
    bound = 2.0 ** (s + 1) * len(diag) * 2.0**-511
    return new, old, float(np.abs(new - old).max()), bound, underflowed


def _banded_generator(b, width, seed):
    """Sub-conservative banded generator: jumps of up to width states at
    rates spread over six decades; the upward jumps past the top are lost."""
    rng = np.random.default_rng(seed)
    Q = np.zeros((b, b))
    leak = np.zeros(b)
    for d in range(1, min(width, b - 1) + 1):
        up = 10.0 ** rng.uniform(-3.0, 3.0, size=b)
        down = 10.0 ** rng.uniform(-3.0, 3.0, size=b - d)
        Q += np.diag(up[:b - d], d) + np.diag(down, -d)
        leak[b - d:] += up[b - d:]
    np.fill_diagonal(Q, -(Q.sum(axis=1) + leak))
    return Q


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(2, 48),
    width=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    log_qbar_t=st.floats(0.0, 6.0),
    s=st.integers(0, 60),
    n_rows=st.integers(1, 48),
)
def test_flushed_squarings_stay_within_bound_of_the_unflushed_loop(
        b, width, seed, log_qbar_t, s, n_rows):
    Q = _banded_generator(b, width, seed)
    t = 10.0**log_qbar_t / -np.diag(Q).min()
    # the selection rule never takes a step with |q_bar| * delta above 1
    assume(2.0**s >= 10.0**log_qbar_t)
    rows = np.random.default_rng(seed).choice(b, size=min(n_rows, b), replace=False)
    new, old, gap, bound, underflowed = _flush_gap(Q, np.diag(Q).copy(), t, s, rows)
    assert gap <= bound
    assert np.all(new >= 0.0)
    if not underflowed:
        assert np.array_equal(new, old)


@functools.cache
def _schloegl_level17():
    """The test-09 schloegl_bd data's merged truncation at level 17,
    assembled at the data-generating parameters, and its dt=4 source rows."""
    net = builtin_model("schloegl_bd")
    theta = np.array([3.0, 0.5, 0.5, 3.0])
    data = sample_dataset(net, theta, (20,), 4.0 * np.arange(17.0),
                          np.random.default_rng(777), seed=777)
    est = LikelihoodEstimator(net, data, EstimatorConfig(mode="ra", method="skeletoid"))
    (dt, rows, _, _), = est._plans[None]
    return assemble(net, est.merged_ladder.level(17), theta), dt, rows


@pytest.mark.parametrize("k", [4.0, 8.0, 14.0])
def test_flushed_squarings_on_the_schloegl_level17_truncation(k):
    trmat, dt, rows = _schloegl_level17()
    s = select_s_skeletoid(trmat.q_bar * dt, 10.0**-k)
    new, _, gap, bound, underflowed = _flush_gap(trmat.to_dense(), trmat.diag, dt, s, rows)
    assert underflowed
    assert gap <= bound
    assert np.all(new >= 0.0)


def test_flushed_squarings_are_bit_equal_without_underflow():
    trmat = assemble(builtin_model("mmc", c=2), Truncation(
        states=tuple((i,) for i in range(14))), [1.5, 1.0])
    # at k = 14 the far entries' products underflow and the flush runs
    for k in (4.0, 8.0):
        s = select_s_skeletoid(trmat.q_bar, 10.0**-k)
        new, old, _, _, underflowed = _flush_gap(trmat.to_dense(), trmat.diag, 1.0, s,
                                                 np.arange(14))
        assert not underflowed
        assert np.array_equal(new, old)


@pytest.mark.parametrize("flush_below, within", [(2.0**-511, True), (2.0**-300, False)])
def test_the_bound_catches_a_flush_threshold_set_too_high(monkeypatch, flush_below,
                                                          within):
    # at |q_bar| t = 1 the far entries of the result lie between the bound
    # and 2^-300, so zeroing below 2^-300 loses them
    Q = _banded_generator(48, 1, seed=0)
    monkeypatch.setattr(expm, "_FLUSH_BELOW", flush_below)
    t = 1.0 / -np.diag(Q).min()
    s = select_s_skeletoid(1.0, 1e-10)
    _, _, gap, bound, underflowed = _flush_gap(Q, np.diag(Q).copy(), t, s, np.arange(48))
    assert underflowed
    assert (gap <= bound) == within


def _has_subnormal(B):
    return bool(np.any((B != 0.0) & (np.abs(B) < np.finfo(float).tiny)))


class _SquaringSpy:
    """Stands in for expm.implicit_square and records, per call, whether the
    operand held a subnormal, whether a flush changed it since the previous
    squaring returned it, and whether the squaring underflowed. Underflow
    reports still reach the handler rows_action installed."""

    def __init__(self, monkeypatch):
        self.square = expm.implicit_square
        self.subnormal, self.flushed, self.underflowed = [], [], []
        self.last = self.last_copy = None
        monkeypatch.setattr(expm, "implicit_square", self)

    def __call__(self, B, meter=None):
        outer = np.geterrcall()
        hits = []

        def note(err, flag):
            hits.append(err)
            if outer is not None:
                outer(err, flag)

        self.subnormal.append(_has_subnormal(B))
        self.flushed.append(B is self.last and not np.array_equal(B, self.last_copy))
        with np.errstate(call=note):
            out = self.square(B, meter)
        self.underflowed.append(bool(hits))
        self.last, self.last_copy = out, out.copy()
        return out


def test_no_squaring_after_an_underflow_sees_a_subnormal(monkeypatch):
    trmat, dt, rows = _schloegl_level17()
    spy = _SquaringSpy(monkeypatch)
    for k in (4.0, 8.0, 14.0):
        rows_action("skeletoid", trmat, dt,
                    select_s_skeletoid(trmat.q_bar * dt, 10.0**-k), rows)
    first = spy.underflowed.index(True)
    assert any(spy.flushed)
    assert not any(spy.subnormal[first + 1:])


def test_sampling_the_queue_data_never_flushes(monkeypatch):
    net = builtin_model("mmc", c=2)
    theta = np.array([1.5, 1.0])
    data = sample_dataset(net, theta, (0,), np.arange(31.0),
                          np.random.default_rng(1000), seed=1000)
    base = LikelihoodEstimator(net, data, EstimatorConfig(mode="ra", method="skeletoid"))
    tuned = tune_estimator(base, theta, p_min=0.9)
    est = LikelihoodEstimator(net, data, tuned.to_estimator_config())
    spy = _SquaringSpy(monkeypatch)
    rng = np.random.default_rng(9)
    for _ in range(50):
        est.log_estimate(theta * np.exp(rng.normal(0.0, 0.1, size=2)), rng)
    assert spy.underflowed
    assert not any(spy.underflowed) and not any(spy.flushed)
