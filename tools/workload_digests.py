"""Print one SHA-256 digest per benchmark workload, to check bit-identity.

Usage: python3 tools/workload_digests.py [--root CHECKOUT]

Each digest covers, in order: the tuned config text, theta_MAP and the
proposal covariance from `perfbench/workload.set_up`; N `log_estimate` values
at theta_MAP * exp(0.05 z), z ~ default_rng(2), drawn with default_rng(1)
(N = 150, or 40 for `lv4_ra`); the state of that estimate generator after
the N draws, so a change in how many random numbers an estimate consumes
changes the digest; and `deterministic_log_likelihood(theta_MAP, 10, 12.0)`.
Two checkouts with equal digests give the same estimates bit for bit and
leave the estimate generator in the same state. `--root` points at another
checkout, whose `src` and `perfbench` are imported instead of this one's, so
the script can run against a revision that does not have it. Nothing under
`perfbench/` is changed.
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

DRAWS = {"lv4_ra": 40}
DEFAULT_DRAWS = 150


def digest(workload, wl) -> str:
    """The workload's digest; `workload` is the imported perfbench module."""
    import numpy as np
    from ctmcinfer import LogNormalPrior, Prior, builtin_model, tuned_config_to_text

    net = builtin_model(wl.model, **wl.model_params)
    data = workload.make_dataset(wl, net)
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), len(wl.theta_true))
    ready = workload.set_up(wl, net, data, prior, workload.untimed_stage)
    theta_map = np.asarray(ready.theta_map, dtype=float)

    h = hashlib.sha256()
    h.update(tuned_config_to_text(ready.tuned).encode())
    h.update(np.ascontiguousarray(theta_map).tobytes())
    h.update(np.ascontiguousarray(ready.proposal_cov, dtype=float).tobytes())
    z_rng, est_rng = np.random.default_rng(2), np.random.default_rng(1)
    values = []
    for _ in range(DRAWS.get(wl.name, DEFAULT_DRAWS)):
        theta = theta_map * np.exp(0.05 * z_rng.standard_normal(theta_map.size))
        values.append(ready.estimator.log_estimate(theta, est_rng))
    h.update(json.dumps(est_rng.bit_generator.state, sort_keys=True).encode())
    values.append(ready.estimator.deterministic_log_likelihood(theta_map, 10, 12.0))
    h.update(np.array(values, dtype=float).tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ and perfbench/ are used")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import ctmcinfer
    import workload

    if root / "src" not in Path(ctmcinfer.__file__).resolve().parents:
        ap.error(f"ctmcinfer was imported from {ctmcinfer.__file__}, not {root / 'src'}")
    for name, wl in workload.WORKLOADS.items():
        print(f"{name} {digest(workload, wl)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
