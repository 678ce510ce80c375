"""Monotone-from-below approximations of CTMC transition matrices.

Two families are provided, both converging entrywise upward to exp(tQ) for
sub-conservative rate matrices Q:

* uniformization: the s-term partial sum of the Poisson-weighted power series
  of P = I + Q/(-q_bar), nondecreasing in s, and nondecreasing in the
  truncation as well when one global q_bar is shared across truncations;
* the bridge-product approximation ("skeletoid"): the 2^s-fold product of a
  one-step matrix S(t/2^s) whose entries interpolate the two diagonals they
  connect, nondecreasing in both s and the truncation.

Both support full-matrix evaluation and a row-targeted action that computes
only selected rows, with a FLOP meter counting matrix-multiplication work.
The row action also takes lists of requests and returns each one's block,
bit for bit as its own call would: uniformization requests with equal state
and row counts and a dense P then run as one stacked series, one matmul per
term over all of them, which removes the per-call and per-term overhead that
dominates many small truncations.

Every input (a TruncatedRateMatrix, an ndarray or a scipy sparse matrix) is
read as its nonzero off-diagonal rates and its diagonal; only the
uniformization operand P has a storage choice, dense or CSR. Requests on
restrictions of one matrix can share its P (SharedUniformized): each then
takes the block of P at its states, which equals its own P bit for bit.

Once a skeletoid squaring underflows, entries below 2^-511 are zeroed after
it and after each later squaring until a pass finds none, so no squaring
computes on subnormals; each result entry moves by at most 2^(s+1)*b*2^-511.
"""

from __future__ import annotations

import collections
import functools
import math
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
import scipy.special

__all__ = [
    "DENSE_LIMIT",
    "FlopMeter",
    "poisson_quantile",
    "select_s_uniformization",
    "select_s_skeletoid",
    "skeletoid_base",
    "skeletoid",
    "uniformization",
    "rows_action",
    "skeletoid_split",
    "computable_error",
]

# P is stored as CSR above DENSE_LIMIT states when at most _CSR_MAX_FILL of
# its entries are nonzero: at b = 600 on one BLAS thread a CSR pass over 600
# rows ties the dense product at a tenth filled, and is 8x slower when full
DENSE_LIMIT = 512
_CSR_MAX_FILL = 0.1

# relative tolerance deciding when two diagonal entries count as equal in the
# bridge formula (the limiting expression is used there)
_DIAG_TIE_RTOL = 1e-12

# uniformization weights are renormalized this often
_RENORM_EVERY = 64

# Poisson schedules of at most this many terms are cached per (lam, s), 64 of
# them, so the cache holds at most 64 * (_SCHEDULE_CACHE_TERMS + 1) floats
_SCHEDULE_CACHE_TERMS = 16384

# once a squaring underflows, entries of B below sqrt(tiny) = 2^-511 are
# zeroed: a product of two survivors is then a normal double, so no later
# gemm forms a subnormal (an order of magnitude slower on x86)
_FLUSH_BELOW = 2.0**-511

# skeletoid_split's squaring cost weight: a guess, to be calibrated from
# measured costs as in Al-Mohy & Higham 2011 (SIAM J. Sci. Comput. 33(2))
SPLIT_BETA = 0.1


class FlopMeter:
    """Accumulator for modeled matrix-multiplication FLOPs.

    Dense products count 2*m*b^2 for an (m, b) @ (b, b) multiply (so 2*b^3
    per dense square); sparse vector passes count 2*nnz per row swept. Only
    multiplications are counted, matching the cost model the method-selection
    heuristics use.
    """

    def __init__(self):
        self.flops = 0

    def add_dense_square(self, b: int):
        self.flops += 2 * b * b * b

    def add_block_product(self, m: int, b: int):
        self.flops += 2 * m * b * b

    def add_sparse_pass(self, m: int, nnz: int):
        self.flops += 2 * m * nnz

    @property
    def gflops(self) -> float:
        return self.flops / 1e9


# what every method reads of a rate matrix; _parts passes one straight through
_Entries = collections.namedtuple("_Entries", "rows cols rates diag q_bar")


def _parts(Q, q_bar=None) -> _Entries:
    """Reduce a TruncatedRateMatrix, _Entries, ndarray or scipy sparse matrix
    to its nonzero off-diagonal entries (rows, cols, rates), its diagonal,
    and q_bar (the smallest diagonal entry unless given)."""
    if hasattr(Q, "rates"):
        rows, cols, rates, diag, qb = Q.rows, Q.cols, Q.rates, Q.diag, Q.q_bar
    else:
        mat = Q.tocoo(copy=True) if sp.issparse(Q) else np.asarray(Q, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("rate matrix must be square")
        if sp.issparse(mat):
            # adds repeated (row, col) entries, as toarray does, row by row
            mat.sum_duplicates()
            keep = (mat.row != mat.col) & (mat.data != 0.0)
            rows, cols, rates = mat.row[keep], mat.col[keep], mat.data[keep]
        else:
            keep = mat != 0.0
            np.fill_diagonal(keep, False)
            (rows, cols), rates = np.nonzero(keep), mat[keep]
        rates, diag = rates.astype(float), mat.diagonal().astype(float)
        qb = float(diag.min())
    return _Entries(rows, cols, rates, diag, qb if q_bar is None else float(q_bar))


# ---------------------------------------------------------------------------
# resolution-selection rules


@functools.lru_cache(maxsize=256)
def poisson_quantile(lam: float, eps: float) -> int:
    """Smallest s with P(Poisson(lam) > s) <= eps.

    A normal-quantile estimate centers a wide pmf window; summing that
    window from the far tail inward gives the survival function without
    cancellation, so the integer answer is exact down to tiny eps. Answers
    are cached: a run asks for a few (lam, eps) pairs over and over.
    """
    if eps >= 1.0 or lam <= 0.0:
        return 0
    z = -float(scipy.special.ndtri(max(eps, 1e-300))) if eps < 0.5 else 0.0
    sd = math.sqrt(lam)
    lo = max(0, int(lam - 12.0 * sd - 20.0))
    hi = int(lam + (z + 12.0) * sd + 100.0)
    ns = np.arange(lo, hi + 1, dtype=np.float64)
    pmf = np.exp(-lam + ns * math.log(lam) - scipy.special.gammaln(ns + 1.0))
    # sf[i] = P(N > lo+i); mass above hi is far below any eps the window
    # was sized for, so it is dropped
    sf = np.concatenate([np.cumsum(pmf[::-1])[::-1][1:], [0.0]])
    idx = np.nonzero(sf <= eps)[0]
    if idx.size == 0 or (idx[0] == 0 and lo > 0):
        raise ArithmeticError("Poisson quantile window missed the target")
    return lo + int(idx[0])


def select_s_uniformization(lam: float, eps: float) -> int:
    """Truncation order making the neglected Poisson tail at most eps."""
    return poisson_quantile(lam, eps)


def select_s_skeletoid(qbar_t: float, eps: float) -> int:
    """Doubling count making the leading error term (qbar*t)^2 / 2^(s+1) <= eps."""
    lam2 = float(qbar_t) * float(qbar_t)
    if lam2 <= 2.0 * eps:
        return 0
    return max(0, math.ceil(math.log2(lam2 / (2.0 * eps))))


# ---------------------------------------------------------------------------
# bridge-product ("skeletoid") approximation


def _bridge_increment(Q: _Entries, delta: float) -> np.ndarray:
    """B = S(delta) - I as a dense matrix, from the nonzero off-diagonal rates.

    Off-diagonal (x, y): q_xy * delta * exp(q_xx delta) when the two diagonals
    tie, else q_xy * (exp(q_yy delta) - exp(q_xx delta)) / (q_yy - q_xx).
    Diagonal: expm1(q_xx delta), kept implicit relative to I for accuracy at
    tiny delta. Only the nonzero pairs get a bridge weight.
    """
    dx, dy = Q.diag[Q.rows], Q.diag[Q.cols]
    tie = np.abs(dx - dy) <= _DIAG_TIE_RTOL * np.maximum(np.abs(dx), np.abs(dy))
    gap = np.where(tie, 1.0, np.abs(dy - dx))
    # (e^{dy d} - e^{dx d}) / (dy - dx) = e^{max d} (-expm1(-gap d)) / gap.
    # Factoring by the larger exponent keeps every factor in [0, 1], so a huge
    # exit-rate spread cannot overflow expm1, while the expm1 form stays
    # accurate when delta (or the diagonal gap) is tiny.
    hi = np.maximum(dx, dy)
    bridge = np.where(tie, delta * np.exp(dx * delta),
                      np.exp(hi * delta) * -np.expm1(-gap * delta) / gap)
    b = Q.diag.size
    B = np.zeros((b, b))
    B[Q.rows, Q.cols] = Q.rates * bridge
    B[np.arange(b), np.arange(b)] = np.expm1(Q.diag * delta)
    return B


def skeletoid_base(Q, delta: float) -> np.ndarray:
    """The one-step matrix S(delta) itself (dense)."""
    B = _bridge_increment(_parts(Q), delta)
    B[np.arange(len(B)), np.arange(len(B))] += 1.0
    return B


def implicit_square(B: np.ndarray, meter: FlopMeter | None = None) -> np.ndarray:
    """(I + B)^2 - I computed as 2B + B @ B, avoiding the I + B roundoff."""
    if meter is not None:
        meter.add_dense_square(B.shape[0])
    return 2.0 * B + B @ B


def _squarings(B: np.ndarray, k: int, meter: FlopMeter | None = None) -> np.ndarray:
    """B after k implicit squarings, flushed so no squaring sees a subnormal.

    numpy reports an underflow in the gemm; from then on, every entry of B
    with |x| < _FLUSH_BELOW is zeroed after each squaring, until a flush pass
    finds nothing to zero, and the next underflow arms it again. A zeroed
    entry keeps I + B nonnegative, since its off-diagonal entries are >= 0.
    """
    if k == 0:
        return B
    underflow = False

    def note(err, flag):
        nonlocal underflow
        underflow = True

    flushing = False
    with np.errstate(under="call", call=note):
        for _ in range(k):
            B = implicit_square(B, meter)
            if underflow or flushing:
                underflow = False
                small = np.abs(B) < _FLUSH_BELOW
                small &= B != 0.0
                flushing = bool(small.any())
                if flushing:
                    B[small] = 0.0
    return B


def skeletoid(Q, t: float, s: int, meter: FlopMeter | None = None) -> np.ndarray:
    """Approximate exp(tQ) by squaring S(t / 2^s) s times.

    The all-rows case of rows_action, whose cost split then takes every
    doubling as a dense squaring.
    """
    Q = _parts(Q)
    return rows_action("skeletoid", Q, t, s, np.arange(Q.diag.size), meter)


def skeletoid_split(k: int, b: int, m: int) -> tuple:
    """Split the total doubling count k into k1 squarings and 2^k2 row passes.

    Minimizes the modeled cost SPLIT_BETA*k1*b^3 + m*b^2*2^k2 over the two integers
    bracketing the real-valued optimum, then clamps into [0, k].
    """
    if k <= 0:
        return 0, 0

    def cost(k2):
        return SPLIT_BETA * (k - k2) * b**3 + m * b**2 * 2.0**k2

    x_star = math.log2(SPLIT_BETA * b / (math.log(2.0) * m))
    lo, hi = math.floor(x_star), math.ceil(x_star)
    k2 = lo if cost(lo) <= cost(hi) else hi
    k2 = max(0, min(k, k2))
    return k - k2, k2


# ---------------------------------------------------------------------------
# uniformization


def _check_q_bar(smallest, q_bar):
    """Raise unless q_bar lies at or below the smallest diagonal entry and
    is nonpositive."""
    if q_bar > smallest + 1e-12 * max(1.0, abs(smallest)):
        raise ValueError(
            f"q_bar={q_bar} must lie at or below the smallest diagonal {smallest}"
        )
    if q_bar > 0:
        raise ValueError("q_bar must be nonpositive")


def _scaled_poisson_weights(lam: float, s: int) -> tuple:
    """Scaled Poisson(lam) weights of terms 0..s and where they rescale.

    Returns (weights, rescales, anchor). The sum is kept relative to a
    floating anchor L so exp(logw - L) never overflows even when exp(-lam)
    itself underflows: weights[n] = exp(logw_n - L_n), rescales maps a term
    n to the factor exp(L_old - L_n) the running sum takes before term n is
    added, and anchor is the final L, so the series is the scaled sum times
    exp(anchor). The anchor is renormalized every _RENORM_EVERY terms and
    whenever a log-weight passes it by 600.
    """
    log_lam = math.log(lam)
    weights = np.empty(s + 1)
    weights[0] = 1.0
    rescales = {}
    anchor = -lam
    for n in range(1, s + 1):
        # direct evaluation: an incremental logw update drifts by the
        # rounding of a 1e6-magnitude float once per term
        logw = -lam + n * log_lam - math.lgamma(n + 1)
        if n % _RENORM_EVERY == 0 or logw > anchor + 600.0:
            new_anchor = max(anchor, logw)
            factor = math.exp(anchor - new_anchor)
            if factor != 1.0:
                rescales[n] = factor
            anchor = new_anchor
        weights[n] = math.exp(logw - anchor)
    # every caller shares the cached result
    weights.flags.writeable = False
    return weights, MappingProxyType(rescales), anchor


_cached_poisson_weights = functools.lru_cache(maxsize=64)(_scaled_poisson_weights)


def _poisson_schedule(lam: float, s: int) -> tuple:
    """_scaled_poisson_weights(lam, s), cached unless it is long."""
    if s > _SCHEDULE_CACHE_TERMS:
        return _scaled_poisson_weights(lam, s)
    return _cached_poisson_weights(lam, s)


def _dense_uniformized(Q: _Entries) -> bool:
    """Whether P = I + Q/(-q_bar) is stored dense: at most DENSE_LIMIT
    states, or more than _CSR_MAX_FILL of its entries nonzero."""
    b = Q.diag.size
    return b <= DENSE_LIMIT or Q.rates.size + b > _CSR_MAX_FILL * b * b


def _uniformized(Q):
    """P = I + Q/(-q_bar), dense or CSR as _dense_uniformized says; for a
    UniformizedBlock, its block of the shared P."""
    if isinstance(Q, UniformizedBlock):
        return Q.P[Q.index[:, None], Q.index]
    b, scale = Q.diag.size, -Q.q_bar
    if _dense_uniformized(Q):
        P = np.diag(1.0 + Q.diag / scale)
        P[Q.rows, Q.cols] = Q.rates / scale
        return P
    idx = np.arange(b)
    coo = (np.concatenate([Q.rates, Q.diag]),
           (np.concatenate([Q.rows, idx]), np.concatenate([Q.cols, idx])))
    mat = sp.csr_matrix(coo, shape=(b, b))
    return (sp.eye(b, format="csr") + mat.multiply(1.0 / scale)).tocsr()


# A uniformization request's operand that shares one P: the block of a dense
# P = I + Q/(-q_bar) at index, rows and columns alike, for Q restricted to
# those states. rows_action gathers it when the request runs, and leaves the
# check of q_bar against the restricted diagonal to whoever made the block.
UniformizedBlock = collections.namedtuple("UniformizedBlock", "P index q_bar")


class SharedUniformized:
    """One matrix's P = I + Q/(-q_bar), built once for the requests on its
    restrictions.

    block(index) is the operand of a request on the matrix restricted to its
    states at index: the UniformizedBlock of P there when P is dense and the
    restriction holds at most DENSE_LIMIT states, so that its own P would be
    dense too; else None, and the request takes the restricted matrix. P's
    entries are computed elementwise, and a restriction keeps every entry
    and diagonal of its states, so the block equals the restriction's own P
    bit for bit.
    """

    def __init__(self, Q, q_bar: float):
        Q = _parts(Q, q_bar)
        self.q_bar = Q.q_bar
        self.P = _uniformized(Q) if _dense_uniformized(Q) else None

    def block(self, index: np.ndarray):
        if self.P is None or index.size > DENSE_LIMIT:
            return None
        return UniformizedBlock(self.P, index, self.q_bar)


def uniformization(Q, t: float, s: int, meter: FlopMeter | None = None,
                   q_bar: float | None = None) -> np.ndarray:
    """Partial sum of order s of the uniformized power series for exp(tQ).

    q_bar defaults to the smallest diagonal entry of Q; passing a more
    negative global value keeps partial sums comparable across truncations.
    """
    Q = _parts(Q)
    return rows_action("uniformization", Q, t, s, np.arange(Q.diag.size), meter, q_bar)


# ---------------------------------------------------------------------------
# row-targeted action


def rows_action(method: str, Q, t, s, rows,
                meter: FlopMeter | None = None, q_bar=None):
    """Selected rows of the order-s approximation to exp(tQ).

    Returns an (m, b) block, rows in the order given. The uniformization
    route runs the selector-row recursion; the bridge-product route squares
    the base matrix part of the way and finishes with row passes, splitting
    the work by the modeled cost.

    List form: Q, t, s and rows are equal-length lists of requests, and
    q_bar is a list or one value for all of them. Returns the list of
    blocks, each equal bit for bit to its own single call, and meters the
    same total. Every request is validated, in list order, before any
    arithmetic. Skeletoid requests run one after another; uniformization
    requests with equal state and row counts and a dense P run as one
    stacked series (_stacked_series), any other one alone (_series). A
    uniformization request's Q may be a UniformizedBlock, which carries its
    own q_bar and is taken as checked.
    """
    if not isinstance(Q, list):
        return rows_action(method, [Q], [t], [s], [rows], meter, q_bar)[0]
    q_bars = q_bar if isinstance(q_bar, list) else [q_bar] * len(Q)
    if not len(Q) == len(t) == len(s) == len(rows) == len(q_bars):
        raise ValueError("the request lists must have equal lengths")
    requests = [_request(method, *req) for req in zip(Q, t, s, rows, q_bars)]
    if method == "skeletoid":
        return [_skeletoid_rows(*req, meter) for req in requests]
    if method != "uniformization":
        raise ValueError(f"unknown method {method!r}")
    blocks = [None] * len(requests)
    groups: dict = {}
    for i, (Q, _, _, rows) in enumerate(requests):
        b = _states(Q)
        if Q.q_bar == 0.0:
            blocks[i] = np.eye(b)[rows]
            continue
        dense = isinstance(Q, UniformizedBlock) or _dense_uniformized(Q)
        # a CSR P runs alone; requests are never padded to a common b
        groups.setdefault((b, rows.size) if dense else i, []).append(i)
    for members in groups.values():
        if len(members) == 1:
            blocks[members[0]] = _series(*requests[members[0]], meter)
            continue
        for i, block in zip(members, _stacked_series(
                [requests[i] for i in members], meter)):
            blocks[i] = block
    return blocks


def _request(method: str, Q, t: float, s: int, rows, q_bar) -> tuple:
    """One rows_action request, validated: (entries or block, t, s, rows)."""
    block = isinstance(Q, UniformizedBlock)
    if block and method != "uniformization":
        raise ValueError("a UniformizedBlock is a uniformization operand")
    if not block:
        Q = _parts(Q, q_bar)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or rows.size == 0:
        raise ValueError("rows must be a nonempty 1-D index list")
    # on the few rows of a request, Python's min and max cost less than two
    # numpy reductions
    listed = rows.tolist()
    if min(listed) < 0 or max(listed) >= _states(Q):
        raise ValueError("row index out of range")
    if s < 0:
        raise ValueError("s must be nonnegative")
    if method == "uniformization" and not block:
        _check_q_bar(Q.diag.min(), Q.q_bar)
    return Q, t, s, rows


def _states(Q) -> int:
    """The state count of a validated request's entries or block."""
    return Q.index.size if isinstance(Q, UniformizedBlock) else Q.diag.size


def _skeletoid_rows(Q: _Entries, t: float, s: int, rows: np.ndarray,
                    meter: FlopMeter | None) -> np.ndarray:
    """The bridge-product block of one validated request."""
    b, m = Q.diag.size, rows.size
    k1, k2 = skeletoid_split(s, b, m)
    delta = t / float(2**s)
    B = _squarings(_bridge_increment(Q, delta), k1, meter)
    # the first pass from the selector rows needs no product:
    # e_r (I + B) = e_r + B[r]
    block = B[rows]
    block[np.arange(m), rows] += 1.0
    for _ in range(2**k2 - 1):
        block = block + block @ B
        if meter is not None:
            meter.add_block_product(m, b)
    return block


def _series(Q: _Entries, t: float, s: int, rows: np.ndarray,
            meter: FlopMeter | None) -> np.ndarray:
    """The uniformization block of one validated request, term by term.

    Runs a request that has no partner of its state and row count, or a
    CSR P: on one block, ndarray.dot costs less per term than a matmul
    over a stack of one.
    """
    b, m = _states(Q), rows.size
    P = _uniformized(Q)
    dense = isinstance(P, np.ndarray)
    weights, rescales, anchor = _poisson_schedule(-Q.q_bar * t, s)
    block = np.zeros((m, b))
    block[np.arange(m), rows] = 1.0
    acc = block.copy()
    for n, w in zip(range(1, s + 1), weights[1:].tolist()):
        # ndarray.dot makes the BLAS call @ makes, bit for bit, with
        # less per-call overhead; a sparse P needs @
        block = block.dot(P) if dense else block @ P
        if n in rescales:
            acc *= rescales[n]
        if w != 0.0:
            acc += w * block
    if meter is not None and s:
        if dense:
            meter.add_block_product(m * s, b)
        else:
            meter.add_sparse_pass(m * s, P.nnz)
    return acc * math.exp(anchor)


def _stacked_series(requests: list, meter: FlopMeter | None) -> list:
    """Uniformization blocks of validated requests sharing b, m and a
    dense P, in the order given.

    The P matrices are stacked as (T, b, b), sorted by s, largest first, so
    the k requests still summing at term n are a prefix: the term is one
    matmul over that prefix, which makes, item by item, the BLAS call
    ndarray.dot makes on one block. Each running sum first takes its own
    rescale factor (1.0 for a request that does not rescale there), then
    adds its weight times its block. A zero weight adds +0.0, which leaves
    the nonnegative sum as it is, so each block equals _series bit for bit.
    """
    order = sorted(range(len(requests)), key=lambda i: -requests[i][2])
    ranked = [requests[i] for i in order]
    T, (Q0, _, top, rows0) = len(ranked), ranked[0]
    b, m = _states(Q0), rows0.size
    Ps = _stacked_uniformized([Q for Q, _, _, _ in ranked])
    block = np.zeros((T, m, b))
    # weights[n, j] is request j's term-n weight; factors[n][j] its rescale
    weights = np.zeros((top + 1, T, 1, 1))
    factors: dict = {}
    anchors = []
    for j, (Q, t, s, rows) in enumerate(ranked):
        block[j, np.arange(m), rows] = 1.0
        w, rescales, anchor = _poisson_schedule(-Q.q_bar * t, s)
        weights[:s + 1, j, 0, 0] = w
        for n, factor in rescales.items():
            factors.setdefault(n, np.ones((T, 1, 1)))[j] = factor
        anchors.append(anchor)
        if meter is not None and s:
            meter.add_block_product(m * s, b)
    acc = block.copy()
    k, acc_k = T, acc
    for n in range(1, top + 1):
        if ranked[k - 1][2] < n:
            while ranked[k - 1][2] < n:
                k -= 1
            block, Ps, acc_k, weights = block[:k], Ps[:k], acc[:k], weights[:, :k]
        block = np.matmul(block, Ps)
        if n in factors:
            acc_k *= factors[n][:k]
        acc_k += weights[n] * block
    out = [None] * T
    for j, i in enumerate(order):
        out[i] = acc[j] * math.exp(anchors[j])
    return out


def _stacked_uniformized(Qs: list) -> np.ndarray:
    """The (T, b, b) stack of the requests' dense P matrices; blocks of one
    shared P are gathered from it in one indexing step."""
    P = Qs[0].P if isinstance(Qs[0], UniformizedBlock) else None
    if all(isinstance(Q, UniformizedBlock) and Q.P is P for Q in Qs):
        index = np.stack([Q.index for Q in Qs])
        return P[index[:, :, None], index[:, None, :]]
    return np.stack([_uniformized(Q) for Q in Qs])


def computable_error(rows_block: np.ndarray) -> float:
    """Worst missing row mass of a computed block: 1 - min row sum.

    Exact (up to the approximation itself) for conservative generators; an
    upper bound otherwise.
    """
    rows_block = np.atleast_2d(rows_block)
    return float(1.0 - rows_block.sum(axis=1).min())
