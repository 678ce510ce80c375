"""Diagnostics: reference exponentials, effective sample size, benchmark
matrix classes, and accuracy/efficiency studies.

The reference exponential here is deliberately independent of the monotone
approximation code paths: plain scaling, a fixed-length Taylor series with
compensated accumulation, and repeated squaring.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .debias import ACCURACY_CAP
from .expm import (
    FlopMeter,
    computable_error,
    rows_action,
    select_s_skeletoid,
    select_s_uniformization,
    skeletoid,
    uniformization,
)
from .statespace import TruncationLadder, assemble, seed_truncation

__all__ = [
    "oracle_expm",
    "ess",
    "random_rate_matrix",
    "MATRIX_CLASSES",
    "BENCH_METHODS",
    "bench_expm",
    "truncation_study",
    "write_rows_csv",
]

REFERENCE_TOL = 1e-13
# fewest draws a batch-means ESS accepts
MIN_ESS_DRAWS = 4


def oracle_expm(Q, t: float = 1.0, terms: int = 20) -> np.ndarray:
    """Reference exp(tQ) by scaling, 20-term Taylor, and squaring.

    The matrix is scaled so its infinity norm is at most 1/8 before the
    series is summed with compensated accumulation; accurate to about 1e-13
    for the dimensions used here (a few hundred).
    """
    A = np.asarray(Q, dtype=float) * float(t)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("rate matrix must be square")
    b = A.shape[0]
    norm = float(np.abs(A).sum(axis=1).max())
    j = max(0, math.ceil(math.log2(norm / 0.125))) if norm > 0.125 else 0
    B = A / float(2**j)
    total = np.eye(b)
    comp = np.zeros_like(total)
    term = np.eye(b)
    for n in range(1, terms + 1):
        term = term @ B / n
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    for _ in range(j):
        total = total @ total
    return total


def ess(x) -> float:
    """Effective sample size by batch means, minimum over parameters.

    Batches have size floor(sqrt(n)); a constant trace reports 0.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < MIN_ESS_DRAWS:
        raise ValueError(f"need at least {MIN_ESS_DRAWS} draws for a "
                         "batch-means estimate")
    b = int(math.floor(math.sqrt(n)))
    a = n // b
    out = math.inf
    for j in range(x.shape[1]):
        col = x[:a * b, j]
        s2 = float(np.var(col, ddof=1))
        if s2 == 0.0:
            return 0.0
        means = col.reshape(a, b).mean(axis=1)
        var_bm = b * float(np.var(means, ddof=1))
        est = n * s2 / var_bm if var_bm > 0 else float(n)
        out = min(out, est)
    return out


# ---------------------------------------------------------------------------
# random benchmark generators


MATRIX_CLASSES = ("sparse", "dense", "absorbing", "gtr")


def random_rate_matrix(kind: str, dim: int, rng, max_row_nnz: int = 10) -> np.ndarray:
    """Random conservative rate matrix, rescaled to mean |diagonal| of 1.

    sparse: each row holds a uniform 1..min(max_row_nnz, dim-1) exponential
    off-diagonal rates at random positions. dense: all off-diagonals
    exponential. absorbing: state 0 absorbs; every other row is dense,
    including its rate into state 0. gtr: reversible with respect to a random
    distribution pi, built from a symmetric exchangeability draw.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    Q = np.zeros((dim, dim))
    if kind == "sparse":
        cap = min(max_row_nnz, dim - 1)
        for i in range(dim):
            nnz = int(rng.integers(1, cap + 1))
            cols = rng.choice(dim - 1, size=nnz, replace=False)
            cols = np.where(cols >= i, cols + 1, cols)
            Q[i, cols] = rng.exponential(size=nnz)
    elif kind == "dense":
        Q = rng.exponential(size=(dim, dim))
        np.fill_diagonal(Q, 0.0)
    elif kind == "absorbing":
        Q = rng.exponential(size=(dim, dim))
        np.fill_diagonal(Q, 0.0)
        Q[0, :] = 0.0
    elif kind == "gtr":
        pi = rng.exponential(size=dim)
        pi /= pi.sum()
        W = rng.exponential(size=(dim, dim))
        W = np.triu(W, 1)
        W = W + W.T
        Q = W * pi[None, :]
        np.fill_diagonal(Q, 0.0)
    else:
        raise ValueError(f"unknown matrix class {kind!r}; choose from {MATRIX_CLASSES}")
    np.fill_diagonal(Q, -Q.sum(axis=1))
    scale = float(np.abs(np.diag(Q)).mean())
    if scale > 0:
        Q /= scale
    return Q


# ---------------------------------------------------------------------------
# studies


BENCH_METHODS = ("skeletoid", "uniformization")


def bench_expm(classes=MATRIX_CLASSES, dims=(100,), ts=(1.0,),
               epsilons=(1e-6,), reps: int = 3, seed: int = 0,
               methods=BENCH_METHODS, max_row_nnz: int = 10) -> list:
    """Accuracy and FLOP study of the monotone approximations vs the oracle.

    Returns one row dict per (class, dim, t, eps, method, rep) with the
    selected resolution s, the realized infinity-norm error against the
    oracle, the a-posteriori computable error bound, and metered FLOPs.
    """
    unknown = sorted(set(methods) - set(BENCH_METHODS))
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {BENCH_METHODS}")
    rng = np.random.default_rng(seed)
    rows = []
    for kind in classes:
        for dim in dims:
            for rep in range(reps):
                Q = random_rate_matrix(kind, dim, rng, max_row_nnz)
                q_bar = float(np.diag(Q).min())
                for t in ts:
                    oracle = oracle_expm(Q, t)
                    lam = -q_bar * t
                    for eps in epsilons:
                        for method in methods:
                            meter = FlopMeter()
                            if method == "skeletoid":
                                s = select_s_skeletoid(lam, eps)
                                approx = skeletoid(Q, t, s, meter)
                            else:
                                s = select_s_uniformization(lam, eps)
                                approx = uniformization(Q, t, s, meter)
                            diff = np.abs(oracle - approx)
                            rows.append({
                                "class": kind,
                                "dim": dim,
                                "rep": rep,
                                "t": t,
                                "method": method,
                                "requested_eps": eps,
                                "s": s,
                                "realized_error": float(diff.sum(axis=1).max()),
                                "computable_error": computable_error(approx),
                                "matmul_flops": meter.flops,
                            })
    return rows


def truncation_study(net, theta, observations, k: float = ACCURACY_CAP,
                     r_stop: int = 30, r_cap: int = 200) -> list:
    """Truncation error of each observation's transition probability vs level.

    The reference value is the first level (up to r_cap) where growth changes
    the value by less than REFERENCE_TOL at the accuracy cap. Rows report
    the shortfall reference - value_r, nonnegative for these monotone schemes.
    Raises RuntimeError when an observation does not converge by r_cap,
    since without a reference no shortfall can be reported.
    """
    rows = []
    for idx, (x_from, x_to, dt) in enumerate(observations):
        ladder = TruncationLadder(seed_truncation(net, x_from, x_to), net)

        def value(r):
            trmat = assemble(net, ladder.level(r), theta)
            trunc = trmat.truncation
            eps = 10.0 ** (-float(k))
            s = select_s_skeletoid(trmat.q_bar * dt, eps)
            block = rows_action("skeletoid", trmat, dt, s,
                                [trunc.index_of(x_from)])
            return max(float(block[0, trunc.index_of(x_to)]), 0.0)

        values = [value(0)]
        for r_ref in range(1, r_cap + 1):
            values.append(value(r_ref))
            if abs(values[r_ref] - values[r_ref - 1]) < REFERENCE_TOL:
                break
        else:
            raise RuntimeError(
                f"observation {idx} ({x_from} -> {x_to}): no level up to "
                f"r_cap={r_cap} changes the value by less than tol={REFERENCE_TOL}"
            )
        reference = values[r_ref]
        for r in range(0, min(r_stop, r_ref) + 1):
            v = values[r]
            rows.append({
                "obs_index": idx,
                "r": r,
                "states": len(ladder.level(r)),
                "value": v,
                "error": max(reference - v, 0.0),
            })
    return rows


def write_rows_csv(rows: list, path) -> Path:
    """Write a list of homogeneous dicts as CSV, keys of the first row as header."""
    path = Path(path)
    if not rows:
        raise ValueError("no rows to write")
    header = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[h] for h in header])
    return path
