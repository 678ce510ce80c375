"""Pipeline benchmark of ctmcinfer: seeded inference workloads, end to end.

    python3 perfbench/run.py --workload mmc_ra --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py                # every workload, then a summary

Run from the root of a checkout. Each workload run goes to a fresh child
process (workload.py) with OpenBLAS and OpenMP pinned to one thread before
numpy loads and with the checkout's `src` first on the import path. With one
--workload the child's output is passed through unchanged, so its last line
is the JSON result; the exit code is the child's. See README.md for the
workloads, the metrics and the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mmc_ra", "schloegl_ra", "lv4_ra", "mmc_ia_unif")
CHILD_TIMEOUT_S = 175


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("CTMCINFER_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_one(workload: str, args, capture: bool):
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the child and waited for it
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ctmcinfer pipeline benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ctmcinfer" / "__init__.py").is_file():
        print(f"no ctmcinfer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        proc = run_one(args.workload, args, capture=False)
        return 1 if proc is None else proc.returncode

    results, status = {}, 0
    for name in WORKLOADS:
        proc = run_one(name, args, capture=True)
        if proc is None:
            status = 1
            continue
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print_summary(results)
    return status


def print_summary(results: dict) -> None:
    names = []
    for res in results.values():
        for name in res["metrics"]:
            if name not in names:
                names.append(name)
    cols = list(results)
    print()
    print(f"{'metric':36s}" + "".join(f"{c:>14s}" for c in cols) + "  unit")
    for name in names:
        cells, unit = [], ""
        for c in cols:
            m = results[c]["metrics"].get(name)
            cells.append(f"{m['value']:14.6g}" if m else f"{'-':>14s}")
            unit = m["unit"] if m else unit
        print(f"{name:36s}" + "".join(cells) + f"  {unit}")
    print(f"{'correct':36s}" + "".join(f"{str(results[c]['correct']):>14s}" for c in cols))


if __name__ == "__main__":
    sys.exit(main())
