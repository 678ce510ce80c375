"""Reference exponential, ESS, benchmark generators, and the studies."""

import csv
import math

import numpy as np
import pytest
import scipy.linalg

from ctmcinfer import (
    MATRIX_CLASSES,
    assemble,
    bench_expm,
    builtin_model,
    diagnostics,
    ess,
    oracle_expm,
    random_rate_matrix,
    truncation_study,
    write_rows_csv,
)


# ---------------------------------------------------------------------------
# reference exponential


@pytest.mark.parametrize("kind", MATRIX_CLASSES)
@pytest.mark.parametrize("t", [0.3, 1.0, 10.0])
def test_oracle_expm_agrees_with_scipy(kind, t):
    rng = np.random.default_rng(hash((kind, t)) % 2**32)
    Q = random_rate_matrix(kind, 25, rng)
    ours = oracle_expm(Q, t)
    ref = scipy.linalg.expm(Q * t)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_oracle_expm_identity_and_validation():
    assert oracle_expm(np.zeros((4, 4)), 3.0) == pytest.approx(np.eye(4))
    with pytest.raises(ValueError):
        oracle_expm(np.zeros((2, 3)), 1.0)


# ---------------------------------------------------------------------------
# effective sample size


def test_ess_iid_draws_report_nearly_full_size():
    rng = np.random.default_rng(0)
    n = 40000
    assert ess(rng.standard_normal(n)) == pytest.approx(n, rel=0.15)


def test_ess_autocorrelated_draws_report_the_usual_discount():
    # AR(1) with coefficient 0.5: asymptotic ESS is n(1-phi)/(1+phi) = n/3
    rng = np.random.default_rng(1)
    n = 40000
    phi = 0.5
    x = np.empty(n)
    x[0] = 0.0
    noise = rng.standard_normal(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    assert ess(x) == pytest.approx(n / 3.0, rel=0.2)


def test_ess_edge_cases():
    assert ess(np.ones(100)) == 0.0
    with pytest.raises(ValueError):
        ess(np.arange(3.0))
    rng = np.random.default_rng(2)
    cols = np.column_stack([rng.standard_normal(10000),
                            np.cumsum(rng.standard_normal(10000))])
    # the random-walk column dominates the minimum
    assert ess(cols) < 2000


# ---------------------------------------------------------------------------
# benchmark matrix classes


@pytest.mark.parametrize("kind", MATRIX_CLASSES)
def test_random_rate_matrix_invariants(kind):
    rng = np.random.default_rng(5)
    Q = random_rate_matrix(kind, 40, rng, max_row_nnz=6)
    off = Q - np.diag(np.diag(Q))
    assert np.all(off >= 0)
    assert Q.sum(axis=1) == pytest.approx(np.zeros(40), abs=1e-12)
    assert np.abs(np.diag(Q)).mean() == pytest.approx(1.0, rel=1e-12)
    if kind == "sparse":
        assert np.max((off > 0).sum(axis=1)) <= 6
    if kind == "absorbing":
        assert np.all(Q[0] == 0.0)


def test_gtr_matrices_are_reversible():
    rng = np.random.default_rng(7)
    Q = random_rate_matrix("gtr", 12, rng)
    # recover the stationary law as the left null vector, then check that
    # probability flow balances pairwise
    w, vecs = np.linalg.eig(Q.T)
    pi = np.real(vecs[:, np.argmin(np.abs(w))])
    pi = pi / pi.sum()
    assert np.all(pi > 0)
    flow = pi[:, None] * Q
    assert np.max(np.abs(flow - flow.T)) < 1e-10


def test_random_rate_matrix_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_rate_matrix("toeplitz", 10, rng)
    with pytest.raises(ValueError):
        random_rate_matrix("dense", 1, rng)


# ---------------------------------------------------------------------------
# studies


def test_bench_expm_rows_and_guarantees():
    rows = bench_expm(classes=("sparse", "gtr"), dims=(20,), ts=(1.0, 4.0),
                      epsilons=(1e-4, 1e-8), reps=2, seed=3)
    assert len(rows) == 2 * 2 * 2 * 2 * 2
    for row in rows:
        assert row["matmul_flops"] > 0
        assert row["realized_error"] <= row["requested_eps"]
        # these classes are conservative, so the computable bound is exact
        assert row["computable_error"] == pytest.approx(
            row["realized_error"], abs=1e-10
        )
        assert row["s"] >= 0
    methods = {row["method"] for row in rows}
    assert methods == {"skeletoid", "uniformization"}


def test_truncation_study_errors_shrink_monotonically():
    net = builtin_model("mmc", c=2)
    theta = [1.5, 1.0]
    observations = [((0,), (2,), 0.8), ((3,), (1,), 0.5)]
    rows = truncation_study(net, theta, observations, r_stop=8)
    by_obs = {}
    for row in rows:
        by_obs.setdefault(row["obs_index"], []).append(row)
    assert set(by_obs) == {0, 1}
    for obs_rows in by_obs.values():
        errors = [r["error"] for r in obs_rows]
        values = [r["value"] for r in obs_rows]
        sizes = [r["states"] for r in obs_rows]
        assert all(e >= 0 for e in errors)
        assert all(b <= a + 1e-13 for a, b in zip(errors, errors[1:]))
        assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert errors[-1] < errors[0]


def test_truncation_study_assembles_each_level_once(monkeypatch):
    calls = []

    def counted(net, trunc, theta):
        calls.append(trunc.level)
        return assemble(net, trunc, theta)

    monkeypatch.setattr(diagnostics, "assemble", counted)
    net = builtin_model("mmc", c=2)
    rows = truncation_study(net, (1.5, 1.0), [((0,), (4,), 1.0)], k=14.0,
                            r_stop=10)
    # the reference scan stops at level 7; the rows reuse its values
    assert len(rows) == 8
    assert len(calls) == len(set(calls)) == 8


def test_truncation_study_refuses_an_unconverged_reference():
    net = builtin_model("mmc", c=2)
    with pytest.raises(RuntimeError, match=r"observation 0 .*r_cap=3"):
        truncation_study(net, (1.5, 1.0), [((0,), (4,), 1.0)], r_cap=3)


def test_write_rows_csv(tmp_path):
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    path = write_rows_csv(rows, tmp_path / "rows.csv")
    with open(path) as fh:
        got = list(csv.reader(fh))
    assert got == [["a", "b"], ["1", "x"], ["2", "y"]]
    with pytest.raises(ValueError):
        write_rows_csv([], tmp_path / "empty.csv")
