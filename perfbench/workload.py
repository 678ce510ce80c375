"""One benchmark run of one workload, in a process of its own.

`run.py` starts this file with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 and
PYTHONPATH pointing at the checkout's `src`. The run builds the workload's
dataset with `sample_dataset`, then goes through the public pipeline a user
runs: estimator construction, MAP, tuning and Laplace (the set-up), then
pseudo-marginal chains. It checks the outputs, prints a report, and prints
one JSON result as its last line.

With --trace 0 nothing in the package is patched: chains see the estimator
through a proxy that only times each `log_estimate` call. With --trace 1 the
layers are traced (see tracing.py), the chains run once traced and once
untraced, and the JSON holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import ctmcinfer
from ctmcinfer import (
    ACCURACY_CAP,
    EstimatorConfig,
    LikelihoodEstimator,
    LogNormalPrior,
    Prior,
    assemble,
    builtin_model,
    ess,
    laplace_covariance,
    map_estimate,
    multistart,
    oracle_expm,
    sample_chain,
    sample_dataset,
    tune_estimator,
)

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
perf = time.perf_counter

SETUP_REPEATS = 3
BURNIN = 0.25
# batch-means ESS needs at least this many post-burn-in draws per chain
# (ten batches of ten) before it is reported
MIN_ESS_DRAWS = 100
# relative error allowed per transition probability when the deterministic
# likelihood at the accuracy cap is compared with the dense Taylor oracle
ORACLE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    model_params: dict
    theta_true: tuple
    x0: tuple
    transitions: int
    dt: float
    data_seed: int
    mode: str
    method: str
    q_bar_global: float | None
    map_start: tuple | None      # None: no MAP and no Laplace; tune at theta_true
    chain_start: str             # "map" or "true"
    n_chains: int
    iters_per_second: float      # chain iterations per second of --seconds
    # inside one telescope-draw group (every tuned law here has p=0.9: N=0
    # below p90, N=1 from p90 to p99), at least three binomial standard
    # deviations of the group sizes from either edge, and leaving >= 10
    # estimates beyond it at 12 s; a percentile near a group edge jumps
    # between seeds
    tail_percentile: float
    proposal_sd_frac: float | None = None  # fixed diagonal proposal, as share of theta
    all_finite: bool = False

    def n_iterations(self, seconds: float) -> int:
        return max(20, round(self.iters_per_second * seconds / self.n_chains))

    @property
    def n_stages(self) -> int:
        """Set-up stages: construct, [MAP,] tune, construct tuned[, Laplace]."""
        return 5 if self.map_start is not None else 3


WORKLOADS = {w.name: w for w in (
    # The test-09 queue replication (replication 0, dataset seed 1000).
    # Truncations hold at most 14 states, so matrix work is tiny and per-state
    # Python assembly (assemble -> rate_row) dominates sampling. An assembly
    # or per-call-overhead change shows here; a FLOP change should not.
    Workload(
        name="mmc_ra", model="mmc", model_params={"c": 2},
        theta_true=(1.5, 1.0), x0=(0,), transitions=30, dt=1.0, data_seed=1000,
        mode="ra", method="skeletoid", q_bar_global=None,
        map_start=(1.0, 1.0), chain_start="map", n_chains=3,
        iters_per_second=330.0, tail_percentile=98.0,
    ),
    # The test-09 bistable case (dataset seed 777). Its propensities are
    # multi-term and nonlinear (quadratic plus cubic), the tuned truncation
    # offset is 17 (up to 51 states) and set-up is mostly MAP's deterministic
    # evaluations. An assembly cache must handle sums of theta-terms here;
    # a squaring gain shows in part.
    Workload(
        name="schloegl_ra", model="schloegl_bd", model_params={},
        theta_true=(3.0, 0.5, 0.5, 3.0), x0=(20,), transitions=16, dt=4.0,
        data_seed=777, mode="ra", method="skeletoid", q_bar_global=None,
        map_start=(3.0, 0.5, 0.5, 3.0), chain_start="true", n_chains=4,
        iters_per_second=120.0, tail_percentile=95.0, all_finite=True,
    ),
    # The two-species stress case, limited by dense squarings: tuning at
    # theta_true scans the merged truncation to level 14 (several hundred
    # states) and spends most of its time in implicit_square. MAP and Laplace
    # are skipped (minutes at these sizes), and the short chain uses a fixed
    # diagonal proposal of 25% of theta_true per coordinate. The dataset is
    # smaller than the roadmap's ten-transition case so that three set-ups
    # fit in one run; see README.md.
    Workload(
        name="lv4_ra", model="lv4", model_params={},
        theta_true=(0.5, 0.025, 0.025, 0.5), x0=(10, 10), transitions=3, dt=0.5,
        data_seed=1000, mode="ra", method="skeletoid", q_bar_global=None,
        map_start=None, chain_start="true", n_chains=2,
        iters_per_second=30.0, tail_percentile=96.0, proposal_sd_frac=0.25,
    ),
    # The mmc_ra dataset in IA mode with a global uniformization rate: 30
    # per-observation ladders instead of one merged ladder, row passes of
    # the uniformized series instead of bridge plus squarings, and zero
    # squarings. A skeletoid-only change must leave it unchanged; it is the
    # only workload that measures the uniformization-pass layer.
    Workload(
        name="mmc_ia_unif", model="mmc", model_params={"c": 2},
        theta_true=(1.5, 1.0), x0=(0,), transitions=30, dt=1.0, data_seed=1000,
        mode="ia", method="uniformization_global", q_bar_global=-20.0,
        map_start=(1.0, 1.0), chain_start="map", n_chains=3,
        iters_per_second=16.0, tail_percentile=90.0,
    ),
)}


class GuardedEstimator:
    """What the chains see: times every log_estimate call and counts failures.

    A call is timed on the process's CPU clock, which counts every thread
    of the process. The call does no I/O, so on an idle core that is its
    wall time; on a shared host it leaves out the moments the process waits
    for a core, which would otherwise land on a few percent of calls and
    move the tail percentile by half its value between runs of the same code.

    A call that raises or returns NaN is a failed operation. A raising call
    returns -inf, so the chain rejects that proposal and goes on; -inf itself
    is a valid zero estimate and is not a failure.
    """

    def __init__(self, estimator):
        self.estimator = estimator
        self.seconds = []
        self.values = []
        self.failures = []

    def log_estimate(self, theta, rng, meter=None):
        t0 = time.process_time()
        try:
            value = self.estimator.log_estimate(theta, rng, meter)
        except Exception as exc:  # counted and reported, the chain keeps running
            self.seconds.append(time.process_time() - t0)
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return -math.inf
        self.seconds.append(time.process_time() - t0)
        if math.isnan(value):
            self.failures.append("NaN estimate")
        self.values.append(value)
        return value


@dataclass
class Ready:
    """A set-up result: what the chains start from."""

    estimator: LikelihoodEstimator
    tuned: object
    theta_map: np.ndarray
    proposal_cov: np.ndarray
    seconds: float


def make_dataset(wl: Workload, net):
    schedule = wl.dt * np.arange(wl.transitions + 1.0)
    rng = np.random.default_rng(wl.data_seed)
    return sample_dataset(net, np.array(wl.theta_true), wl.x0, schedule, rng,
                          seed=wl.data_seed)


def set_up(wl: Workload, net, data, prior, stage) -> Ready:
    """Dataset in hand to a ready sampler; `stage(name)` wraps each stage."""
    theta_true = np.array(wl.theta_true)
    config = EstimatorConfig(mode=wl.mode, method=wl.method,
                             q_bar_global=wl.q_bar_global)
    t0 = perf()
    with stage("setup.construct"):
        base = LikelihoodEstimator(net, data, config)
    theta_map = theta_true
    if wl.map_start is not None:
        with stage("tuning.map_estimate"):
            theta_map = map_estimate(base, prior, np.array(wl.map_start))
    with stage("tuning.tune_estimator"):
        tuned = tune_estimator(base, theta_map, p_min=0.9)
    with stage("setup.construct_tuned"):
        est = LikelihoodEstimator(net, data, tuned.to_estimator_config())
    if wl.map_start is not None:
        with stage("tuning.laplace_covariance"):
            v_hat = laplace_covariance(est, prior, theta_map)
        cov = (2.38 ** 2 / prior.dim) * v_hat
    else:
        cov = np.diag((wl.proposal_sd_frac * theta_true) ** 2)
    return Ready(est, tuned, theta_map, cov, perf() - t0)


def untimed_stage(name):
    return contextlib.nullcontext()


def chain_start(wl: Workload, ready: Ready) -> np.ndarray:
    return ready.theta_map if wl.chain_start == "map" else np.array(wl.theta_true)


class Chains:
    """Chains as multistart(..., n_threads=1) runs them, metered by kind.

    `run` takes one of the SeedSequence(seed).spawn(n_chains) children that
    multistart would hand that chain. One KindMeter serves every chain; the
    meter never touches an RNG stream, so the chains are still multistart's.
    """

    def __init__(self, wl: Workload, ready: Ready, prior, n_iter: int):
        self.guarded = GuardedEstimator(ready.estimator)
        self.meter = tracing.KindMeter()
        self.args = (prior, ready.proposal_cov, n_iter)
        self.start = chain_start(wl, ready)
        self.traces = []
        self.seconds = 0.0

    def run(self, child, stage=untimed_stage):
        prior, cov, n_iter = self.args
        with stage("sampler.sample_chain"):
            t0 = perf()
            self.traces.append(sample_chain(self.guarded, prior, cov, n_iter, child,
                                            theta_init=self.start, meter=self.meter))
            self.seconds += perf() - t0

    @property
    def iterations(self) -> int:
        return sum(tr.n_iterations for tr in self.traces)


def spawn(wl: Workload, seed: int) -> list:
    return np.random.SeedSequence(seed).spawn(wl.n_chains)


def chain_digest(traces) -> str:
    h = hashlib.sha256()
    for tr in traces:
        h.update(np.ascontiguousarray(tr.thetas).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# correctness checks (outside every timed region)


def check_oracle(wl: Workload, net, ready: Ready):
    """Deterministic log-likelihood at theta_true and the accuracy cap against
    diagnostics.oracle_expm on the same truncation."""
    est, tuned = ready.estimator, ready.tuned
    theta = np.array(wl.theta_true)
    if tuned.sequence is not None:
        r = tuned.sequence.trunc_offset
    else:
        r = max(seq.trunc_offset for seq in tuned.sequences)
    got = est.deterministic_log_likelihood(theta, r, ACCURACY_CAP)
    if est.mode == "ra":
        targets = [(est.merged_ladder, est.observations)]
    else:
        targets = [(lad, [obs]) for lad, obs in zip(est.obs_ladders, est.observations)]
    want = 0.0
    for ladder, obs_list in targets:
        trmat = assemble(net, ladder.level(r), theta)
        trunc, dense = trmat.truncation, trmat.to_dense()
        expm_by_dt = {}
        for x_from, x_to, dt in obs_list:
            if dt not in expm_by_dt:
                expm_by_dt[dt] = oracle_expm(dense, dt)
            want += math.log(expm_by_dt[dt][trunc.index_of(x_from), trunc.index_of(x_to)])
    tol = ORACLE_RTOL * len(est.observations)
    gap = abs(got - want)
    return gap <= tol, (f"level {r}: log L {got:.12f} vs oracle {want:.12f}, "
                        f"gap {gap:.1e} <= {tol:.0e}")


def check_multistart(wl: Workload, ready: Ready, prior, seed: int):
    """sample_chain on SeedSequence(seed).spawn(n) children is multistart's chain."""
    start = chain_start(wl, ready)
    n = 5
    ms = multistart(ready.estimator, prior, ready.proposal_cov, n, wl.n_chains, seed,
                    theta_init=start, n_threads=1)
    own = [sample_chain(ready.estimator, prior, ready.proposal_cov, n, child,
                        theta_init=start)
           for child in spawn(wl, seed)]
    same = all(np.array_equal(a.thetas, b.thetas) for a, b in zip(ms, own))
    return same, f"{wl.n_chains} chain(s) x {n} iterations identical"


def check_q_bar_failure(ready: Ready):
    """A proposal whose exit rates exceed -q_bar_global is counted, not fatal."""
    guarded = GuardedEstimator(ready.estimator)
    theta = np.array([18.0, 4.0])  # exit rate 18 + 2*4 = 26 > 20
    value = guarded.log_estimate(theta, np.random.default_rng(0))
    ok = (value == -math.inf and len(guarded.failures) == 1
          and guarded.failures[0].startswith("ValueError"))
    return ok, f"theta {theta.tolist()}: {guarded.failures}"


def checks_after_sampling(wl, net, prior, seed, ready, guarded):
    out = []
    values = np.array(guarded.values)
    out.append(("no NaN estimates", not np.isnan(values).any(),
                f"{int(np.isnan(values).sum())} NaN of {values.size}"))
    if wl.all_finite:
        out.append(("all estimates finite", bool(np.isfinite(values).all()),
                    f"{int((~np.isfinite(values)).sum())} non-finite of {values.size}"))
    out.append(("oracle log-likelihood",) + check_oracle(wl, net, ready))
    out.append(("chains equal multistart",) + check_multistart(wl, ready, prior, seed))
    if wl.method == "uniformization_global":
        out.append(("non-dominating q_bar counted",) + check_q_bar_failure(ready))
    return out


# ---------------------------------------------------------------------------
# environment


def git_hash(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "git": git_hash(ROOT),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if os.environ.get("OPENBLAS_NUM_THREADS") != "1" or \
            os.environ.get("OMP_NUM_THREADS") != "1":
        print("run through run.py: BLAS threads must be pinned to 1 before "
              "numpy loads", file=sys.stderr)
        return 2
    src = (ROOT / "src").resolve()
    if src not in Path(ctmcinfer.__file__).resolve().parents:
        print(f"ctmcinfer was imported from {ctmcinfer.__file__}, not {src}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    net = builtin_model(wl.model, **wl.model_params)
    data = make_dataset(wl, net)
    prior = Prior.iid(LogNormalPrior(0.0, 1.0), len(wl.theta_true))
    n_iter = wl.n_iterations(args.seconds)

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  chains {wl.n_chains} x {n_iter}", flush=True)
    print("environment " + json.dumps(env), flush=True)

    if args.trace:
        result = traced_run(wl, net, data, prior, args.seed, n_iter)
    else:
        result = untraced_run(wl, net, data, prior, args.seed, n_iter)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    report = {"workload": wl.name, "environment": env, **result["report"],
              "checks": [{"name": n, "ok": ok, "detail": d}
                         for n, ok, d in result["checks"]]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if "tracer" in result:
        result["tracer"].write(OUT_DIR / f"{stem}.spans.jsonl")

    for name, ok, detail in result["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}", flush=True)
    correct = all(ok for _, ok, _ in result["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }), flush=True)
    return 0 if correct else 1


def untraced_run(wl, net, data, prior, seed, n_iter) -> dict:
    readies = [set_up(wl, net, data, prior, untimed_stage)
               for _ in range(SETUP_REPEATS)]
    ready = readies[-1]
    chains = Chains(wl, ready, prior, n_iter)
    for child in spawn(wl, seed):
        chains.run(child)
    guarded, meter, samp_s = chains.guarded, chains.meter, chains.seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = [("set-up repeats identically",
               all(r.tuned == ready.tuned and np.array_equal(r.theta_map, ready.theta_map)
                   and np.array_equal(r.proposal_cov, ready.proposal_cov)
                   for r in readies),
               f"{SETUP_REPEATS} set-ups, same tuned config, MAP and proposal")]
    checks += checks_after_sampling(wl, net, prior, seed, ready, guarded)

    iters = chains.iterations
    setup_s = statistics.median(r.seconds for r in readies)
    lat_ms = np.array(guarded.seconds) * 1e3
    p_tail = wl.tail_percentile
    tail_ms = float(np.percentile(lat_ms, p_tail))
    beyond = int((lat_ms > tail_ms).sum())
    # one operation per estimate plus one per set-up stage
    attempted = lat_ms.size + SETUP_REPEATS * wl.n_stages
    failed = len(guarded.failures)

    draws = min(tr.n_iterations - int(tr.n_iterations * BURNIN) for tr in chains.traces)
    ess_total = sum(ess(tr.after_burnin(BURNIN)) for tr in chains.traces)
    gflop = meter.gflops
    ess_ok = draws >= MIN_ESS_DRAWS

    shown = {
        "setup_s": (setup_s, "s",
                    "median of " + ", ".join(f"{r.seconds:.3f}" for r in readies)),
        "iters_per_s": (iters / samp_s, "1/s", f"{iters} iterations in {samp_s:.3f} s"),
        "ess_per_s": (ess_total / samp_s if ess_ok else None, "1/s",
                      f"ESS {ess_total:.2f} over {wl.n_chains} chain(s)"),
        "ess_per_gflop": (ess_total / gflop if ess_ok else None, "1/GFLOP",
                          f"{gflop:.6f} modeled GFLOP"),
        "estimate_ms_p50": (float(np.median(lat_ms)), "ms",
                            f"{lat_ms.size} calls, process CPU time"),
        "estimate_ms_tail": (tail_ms, "ms",
                             f"p{p_tail:g} of {lat_ms.size} calls, {beyond} beyond it"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
        "error_frac": (failed / attempted, "frac", f"{failed} failed of {attempted}"),
        "ok_frac": (1.0 - failed / attempted, "frac", "1 - error_frac"),
    }
    for name, (value, unit, note) in shown.items():
        text = f"{value:.6g}" if value is not None else "n/a"
        if value is None:
            note += f"; chain too short ({draws} draws < {MIN_ESS_DRAWS})"
        print(f"metric {name:18s} {text:>12s} {unit:8s} {note}", flush=True)
    digest = chain_digest(chains.traces)
    print(f"chain digest {digest}  ESS {ess_total!r}  GFLOP {gflop!r}  "
          f"acceptance {np.mean([tr.acceptance_rate for tr in chains.traces]):.3f}",
          flush=True)
    for failure in guarded.failures[:5]:
        print(f"failure {failure}", flush=True)

    metrics = {name: {"value": shown[name][0], "unit": unit}
               for name, unit in spec_units("end_to_end").items()}
    report = {
        "shown": {n: {"value": v, "unit": u, "note": t} for n, (v, u, t) in shown.items()},
        "chain_digest": digest, "ess": ess_total, "gflop": gflop,
        "gflop_by_kind": meter.by_kind, "tail_beyond": beyond,
        "failures": guarded.failures,
    }
    return {"checks": checks, "metrics": metrics, "attempted": attempted,
            "failed": failed, "report": report}


def traced_run(wl, net, data, prior, seed, n_iter) -> dict:
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        ready = set_up(wl, net, data, prior, tracer.stage)
    finally:
        tracing.uninstall(saved)
    # each traced chain is followed by the same chain untraced, so the two
    # see the host at nearly the same speed; their ratio is the overhead
    tracer.phase = "sampling"
    traced, plain = Chains(wl, ready, prior, n_iter), Chains(wl, ready, prior, n_iter)
    # sample_chain spawns from the SeedSequence it is given, so each pass
    # takes its own copy of the children
    for child, same_child in zip(spawn(wl, seed), spawn(wl, seed)):
        saved = tracing.install(tracer)
        try:
            traced.run(child, tracer.stage)
        finally:
            tracing.uninstall(saved)
        plain.run(same_child)

    r_eps = max(p.r_eps for p in ready.tuned.profiles)
    m = tracing.layer_metrics(tracer, traced.meter, traced.traces, r_eps,
                              traced.guarded.values)
    m["trace.iters_per_s"] = traced.iterations / traced.seconds
    m["trace.untraced_iters_per_s"] = plain.iterations / plain.seconds
    m["trace.overhead_frac"] = 1.0 - plain.seconds / traced.seconds

    guarded = traced.guarded
    checks = checks_after_sampling(wl, net, prior, seed, ready, guarded)
    digest = chain_digest(traced.traces)
    checks.append(("tracing leaves the chains unchanged",
                   digest == chain_digest(plain.traces),
                   f"digest {digest} traced and untraced"))

    units = spec_units("per_layer")
    if set(m) != set(units):
        raise RuntimeError("per-layer metrics differ from BENCHMARK.json: "
                           f"{sorted(set(m) ^ set(units))}")
    for name, value in m.items():
        label = " (modeled)" if "gflop" in name else ""
        print(f"layer {name:36s} {value:>14.6g} {units[name]}{label}", flush=True)
    metrics = {name: {"value": float(v), "unit": units[name]} for name, v in m.items()}
    attempted = len(guarded.seconds) + wl.n_stages
    return {"checks": checks, "metrics": metrics, "attempted": attempted,
            "failed": len(guarded.failures), "tracer": tracer,
            "report": {"layers": m}}


def spec_units(kind: str) -> dict:
    """name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
