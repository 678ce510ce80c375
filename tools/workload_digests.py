"""Print one SHA-256 digest per workload, to check bit-identity.

Usage: python3 tools/workload_digests.py [--root CHECKOUT]
           [--save-setup FILE | --load-setup FILE]

Besides the benchmark workloads it digests `lv4_ia`, defined here with
`workload.Workload` and not a benchmark workload: the two-species `lv4` data
from (10, 10), 4 transitions of dt 0.5 and dataset seed 1000, in IA mode with
the skeletoid, tuned at theta_true with no MAP. No benchmark workload runs
IA with the skeletoid.

Each digest covers, in order: the tuned config text, theta_MAP and the
proposal covariance from `perfbench/workload.set_up`; N `log_estimate` values
at theta_MAP * exp(0.05 z), z ~ default_rng(2), drawn with default_rng(1)
(N = 150, or 40 for `lv4_ra` and 60 for `lv4_ia`); the state of that
estimate generator after the N draws, so a change in how many random
numbers an estimate consumes changes the digest; and
`deterministic_log_likelihood(theta_MAP, 10, 12.0)`.
Two checkouts with equal digests give the same estimates bit for bit and
leave the estimate generator in the same state. `--root` points at another
checkout, whose `src` and `perfbench` are imported instead of this one's, so
the script can run against a revision that does not have it. Nothing under
`perfbench/` is changed.

A change that moves set-up on purpose changes the digests; these two options
show that only the set-up moved. `--save-setup FILE` also writes each
workload's set-up to FILE as JSON: the `tuned_config_to_text` text, theta_MAP
and the proposal covariance, as JSON numbers that read back to the same
doubles (Python writes a float as its `repr`). `--load-setup FILE` skips
`set_up`: it builds each estimator from the saved text through
`tuned_config_from_text(...).to_estimator_config()`, takes theta_MAP and the
covariance from FILE, and digests the same way. So one checkout prints the
same digests with and without `--load-setup` of its own saved file, and a
change loaded with its parent's file prints the parent's digests exactly when
its estimates at the parent's set-up are the parent's bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

# BLAS threads must be pinned before numpy loads, as perfbench/run.py does,
# so a multithreaded gemm cannot reorder sums between runs
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

DRAWS = {"lv4_ra": 40, "lv4_ia": 60}
DEFAULT_DRAWS = 150


def cases(workload) -> dict:
    """The benchmark workloads by name, then the cases only digested here."""
    lv4_ia = workload.Workload(
        name="lv4_ia", model="lv4", model_params={},
        theta_true=(0.5, 0.025, 0.025, 0.5), x0=(10, 10), transitions=4, dt=0.5,
        data_seed=1000, mode="ia", method="skeletoid", q_bar_global=None,
        map_start=None, chain_start="true", n_chains=1, iters_per_second=1.0,
        tail_percentile=50.0, proposal_sd_frac=0.25,
    )
    return {**workload.WORKLOADS, lv4_ia.name: lv4_ia}


def set_up(workload, wl, saved: dict | None = None):
    """(estimator, set-up record) of the workload; the record holds the
    tuned config text, theta_MAP and the proposal covariance. With saved,
    the workload's saved record is used instead of running set-up."""
    import numpy as np
    from ctmcinfer import (
        LikelihoodEstimator,
        LogNormalPrior,
        Prior,
        builtin_model,
        tuned_config_from_text,
        tuned_config_to_text,
    )

    net = builtin_model(wl.model, **wl.model_params)
    data = workload.make_dataset(wl, net)
    if saved is not None:
        record = saved[wl.name]
        config = tuned_config_from_text(record["tuned_config"]).to_estimator_config()
        return LikelihoodEstimator(net, data, config), record
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), len(wl.theta_true))
    ready = workload.set_up(wl, net, data, prior, workload.untimed_stage)
    return ready.estimator, {
        "tuned_config": tuned_config_to_text(ready.tuned),
        "theta_map": np.asarray(ready.theta_map, dtype=float).tolist(),
        "proposal_cov": np.asarray(ready.proposal_cov, dtype=float).tolist(),
    }


def digest(wl, estimator, record: dict) -> str:
    """The workload's digest from its estimator and set-up record."""
    import numpy as np

    theta_map = np.asarray(record["theta_map"], dtype=float)
    h = hashlib.sha256()
    h.update(record["tuned_config"].encode())
    h.update(np.ascontiguousarray(theta_map).tobytes())
    h.update(np.ascontiguousarray(record["proposal_cov"], dtype=float).tobytes())
    z_rng, est_rng = np.random.default_rng(2), np.random.default_rng(1)
    values = []
    for _ in range(DRAWS.get(wl.name, DEFAULT_DRAWS)):
        theta = theta_map * np.exp(0.05 * z_rng.standard_normal(theta_map.size))
        values.append(estimator.log_estimate(theta, est_rng))
    h.update(json.dumps(est_rng.bit_generator.state, sort_keys=True).encode())
    values.append(estimator.deterministic_log_likelihood(theta_map, 10, 12.0))
    h.update(np.array(values, dtype=float).tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ and perfbench/ are used")
    where = ap.add_mutually_exclusive_group()
    where.add_argument("--save-setup", type=Path, metavar="FILE",
                       help="also write each workload's set-up to FILE as JSON")
    where.add_argument("--load-setup", type=Path, metavar="FILE",
                       help="take each workload's set-up from FILE instead of set_up")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import ctmcinfer
    import workload

    if root / "src" not in Path(ctmcinfer.__file__).resolve().parents:
        ap.error(f"ctmcinfer was imported from {ctmcinfer.__file__}, not {root / 'src'}")
    saved = json.loads(args.load_setup.read_text()) if args.load_setup else None
    records = {}
    for name, wl in cases(workload).items():
        estimator, records[name] = set_up(workload, wl, saved)
        print(f"{name} {digest(wl, estimator, records[name])}", flush=True)
    if args.save_setup:
        args.save_setup.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
