"""The layers an outside tracer times are reached through their patch points.

A call-site tracer (perfbench/tracing.py is one) replaces each name below at
the attribute its callers resolve, and reads a layer as 0 when a refactor
calls around it. The wrappers here count calls the same way, without
importing the tracer.
"""

import collections

import numpy as np
import pytest

from ctmcinfer import (
    EstimatorConfig,
    GeometricLaw,
    JointSequence,
    LikelihoodEstimator,
    LogNormalPrior,
    Prior,
    builtin_model,
    sample_chain,
    sample_dataset,
    tune_estimator,
)
from ctmcinfer import debias, expm, statespace, tuning

PATCH_POINTS = [
    (debias, "assemble"),
    (debias, "rows_action"),
    (debias, "stable_log_combine"),
    (statespace, "grow"),
    (expm, "implicit_square"),
    (tuning, "profile"),
    (GeometricLaw, "sample"),
    (LikelihoodEstimator, "log_estimate"),
]

# the patch points each entry reaches on a fresh estimator
REACHED = {
    "sample_chain": {"debias.assemble", "debias.rows_action",
                     "debias.stable_log_combine", "statespace.grow",
                     "expm.implicit_square", "GeometricLaw.sample",
                     "LikelihoodEstimator.log_estimate"},
    "deterministic_log_likelihood": {"debias.assemble", "debias.rows_action",
                                     "statespace.grow", "expm.implicit_square"},
    "tune_estimator": {"debias.assemble", "debias.rows_action", "statespace.grow",
                       "expm.implicit_square", "tuning.profile"},
}


def _counted(monkeypatch) -> collections.Counter:
    """Wrap every patch point with a call counter keyed by its name."""
    calls = collections.Counter()

    def wrap(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for owner, attr in PATCH_POINTS:
        name = f"{owner.__name__.rpartition('.')[2]}.{attr}"
        monkeypatch.setattr(owner, attr, wrap(name, getattr(owner, attr)))
    return calls


def _queue_estimator(mode):
    net = builtin_model("mmc", c=2)
    data = sample_dataset(net, np.array([1.5, 1.0]), (0,), np.arange(6.0),
                          np.random.default_rng(11), seed=11)
    return LikelihoodEstimator(net, data, EstimatorConfig(
        mode=mode, sequence=JointSequence(1, 6.0, 0.5), law=GeometricLaw(0.5)))


def _run(entry, mode):
    est = _queue_estimator(mode)
    theta = np.array([1.4, 1.1])
    if entry == "sample_chain":
        sample_chain(est, Prior.iid(LogNormalPrior(0.0, 1.0), 2), 0.01, 8,
                     seed=5, theta_init=theta)
    elif entry == "deterministic_log_likelihood":
        est.deterministic_log_likelihood(theta, 3, 8.0)
    else:
        tune_estimator(est, theta)


@pytest.mark.parametrize("mode", ["ra", "ia"])
@pytest.mark.parametrize("entry", sorted(REACHED))
def test_each_entry_reaches_its_layers_through_their_patch_points(
        monkeypatch, entry, mode):
    calls = _counted(monkeypatch)
    _run(entry, mode)
    assert {name for name, n in calls.items() if n} == REACHED[entry]


@pytest.mark.parametrize("mode", ["ra", "ia"])
def test_one_rows_action_call_per_estimate_and_per_deterministic_value(
        monkeypatch, mode):
    est = _queue_estimator(mode)
    assert len(est.targets) == (1 if mode == "ra" else 5)
    calls = _counted(monkeypatch)
    rng = np.random.default_rng(2)
    for i in range(10):
        est.log_estimate(np.array([1.4, 1.1]) * (1.0 + 0.02 * i), rng)
    assert calls["LikelihoodEstimator.log_estimate"] == 10
    assert calls["debias.rows_action"] == 10
    est.deterministic_log_likelihood(np.array([1.4, 1.1]), 4, 8.0)
    assert calls["debias.rows_action"] == 11
