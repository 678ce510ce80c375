"""Time two checkouts' estimators call by call in one process.

Usage: python3 tools/interleaved_ab.py PARENT CHANGE [--workload W] [--rounds N]

PARENT and CHANGE are checkouts. Their `src/ctmcinfer` packages are loaded
into this process under two package names (A for PARENT, B for CHANGE).
Per workload of `perfbench/workload.py` (read from this script's checkout,
which it does not change), each side builds its set-up as
`perfbench/workload.set_up` does: dataset, estimator, MAP, tuning, the tuned
estimator and Laplace, or a fixed diagonal proposal when the workload has no
MAP. The two set-ups run in alternating order, SETUP_PAIRS pairs, timed on
the process CPU clock.

Each round then makes CALLS `log_estimate` calls per side on one list of
thetas, theta_MAP * exp(0.05 z) with z ~ default_rng(2), alternating A and B
call by call and which side goes first, each side drawing from its own
default_rng(round). Every pair of estimates must be equal bit for bit, or
the script stops with an error. It prints, per workload, the median CPU ms
per estimate of each side, the B/A ratio of the rounds' summed times as a
median, interquartile range and range, and the median B/A ratio of the
set-ups.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

# BLAS threads must be pinned before numpy loads, as perfbench/run.py does
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CALLS = 100
SETUP_PAIRS = 3
clock = time.process_time


def load(checkout: Path, name: str):
    """The checkout's src/ctmcinfer, imported as the package `name`."""
    src = checkout.resolve() / "src" / "ctmcinfer"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    if spec is None:
        raise SystemExit(f"no package at {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def set_up(pkg, wl):
    """(estimator, theta_MAP) built with pkg as perfbench/workload.set_up
    builds them."""
    net = pkg.builtin_model(wl.model, **wl.model_params)
    theta_true = np.array(wl.theta_true)
    data = pkg.sample_dataset(net, theta_true, wl.x0,
                              wl.dt * np.arange(wl.transitions + 1.0),
                              np.random.default_rng(wl.data_seed), seed=wl.data_seed)
    prior = pkg.Prior.iid(pkg.LogNormalPrior(0.0, 1.0), len(wl.theta_true))
    base = pkg.LikelihoodEstimator(net, data, pkg.EstimatorConfig(
        mode=wl.mode, method=wl.method, q_bar_global=wl.q_bar_global))
    theta_map = theta_true
    if wl.map_start is not None:
        theta_map = pkg.map_estimate(base, prior, np.array(wl.map_start))
    tuned = pkg.tune_estimator(base, theta_map, p_min=0.9)
    est = pkg.LikelihoodEstimator(net, data, tuned.to_estimator_config())
    if wl.map_start is not None:
        pkg.laplace_covariance(est, prior, theta_map)
    return est, np.asarray(theta_map, dtype=float)


def timed(fn, *args):
    t0 = clock()
    out = fn(*args)
    return out, clock() - t0


def quartiles(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(sides, wl, rounds: int) -> str:
    setup = {"A": [], "B": []}
    built = {}
    for pair in range(SETUP_PAIRS):
        for name in ("AB" if pair % 2 == 0 else "BA"):
            built[name], seconds = timed(set_up, sides[name], wl)
            setup[name].append(seconds)
    (est_a, theta_map), (est_b, _) = built["A"], built["B"]
    z_rng = np.random.default_rng(2)
    thetas = [theta_map * np.exp(0.05 * z_rng.standard_normal(theta_map.size))
              for _ in range(CALLS)]
    ratios, per_call = [], {"A": [], "B": []}
    for rnd in range(rounds):
        rngs = {"A": np.random.default_rng(rnd), "B": np.random.default_rng(rnd)}
        ests = {"A": est_a, "B": est_b}
        total = {"A": 0.0, "B": 0.0}
        for i, theta in enumerate(thetas):
            got = {}
            for name in ("AB" if (rnd + i) % 2 == 0 else "BA"):
                got[name], seconds = timed(ests[name].log_estimate, theta, rngs[name])
                total[name] += seconds
                per_call[name].append(seconds)
            if np.float64(got["A"]).tobytes() != np.float64(got["B"]).tobytes():
                raise SystemExit(f"{wl.name}: round {rnd} call {i}: estimates differ, "
                                 f"A {got['A']!r} B {got['B']!r}")
        ratios.append(total["B"] / total["A"])
    q1, med, q3 = quartiles(ratios)
    setup_ratio = statistics.median(b / a for a, b in zip(setup["A"], setup["B"]))
    return (f"{wl.name}: estimate ms A {1e3 * statistics.median(per_call['A']):.3f} "
            f"B {1e3 * statistics.median(per_call['B']):.3f}; B/A per round median "
            f"{med:.3f} IQR {q1:.3f}-{q3:.3f} range {min(ratios):.3f}-{max(ratios):.3f} "
            f"({rounds} rounds x {CALLS} calls, every estimate bit-equal); set-up s "
            f"A {statistics.median(setup['A']):.3f} B {statistics.median(setup['B']):.3f}, "
            f"B/A median {setup_ratio:.3f} over {SETUP_PAIRS} pairs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout timed as side A")
    ap.add_argument("change", type=Path, help="checkout timed as side B")
    ap.add_argument("--workload", default="all",
                    help="one perfbench workload name, or all (the default)")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workload

    names = list(workload.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workload.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; choose from "
                 f"{', '.join(workload.WORKLOADS)} or all")
    sides = {"A": load(args.parent, "ctmcinfer_a"), "B": load(args.change, "ctmcinfer_b")}
    for name in names:
        print(compare(sides, workload.WORKLOADS[name], args.rounds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
