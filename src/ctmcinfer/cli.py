"""Command line front end: simulate / tune / sample / bench / truncstudy / diag.

Every value a subcommand consumes can come from a flat key-value config file
(--config); flags override the file, the file overrides built-in defaults.
Each run that writes an output also writes a JSON manifest beside it with the
fully resolved config, the seed, and library versions, and any run can be
replayed from its manifest alone via argv_from_manifest.

Exit codes: 0 success, 2 usage error, 1 numerical failure in the libraries.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from .datasets import read_dataset, write_dataset
from .debias import EstimatorConfig, LikelihoodEstimator, MonotonicityError
from .diagnostics import (
    BENCH_METHODS,
    MATRIX_CLASSES,
    MIN_ESS_DRAWS,
    bench_expm,
    ess,
    truncation_study,
    write_rows_csv,
)
from .expm import FlopMeter
from .reaction import builtin_model
from .sampler import (
    GammaPrior,
    LogNormalPrior,
    Prior,
    multistart,
    read_trace,
    sample_chain,
    write_trace,
)
from .simulate import sample_dataset
from .statespace import SeedPathError
from .tuning import (
    estimate_sigma_zeta,
    grid_select,
    laplace_covariance,
    map_estimate,
    read_flat,
    tune_estimator,
    tuned_config_from_text,
    tuned_config_to_text,
)

__all__ = ["main", "argv_from_manifest"]

_NUMERICAL_ERRORS = (
    SeedPathError,
    MonotonicityError,
    RuntimeError,
    FloatingPointError,
    ZeroDivisionError,
    ValueError,
    np.linalg.LinAlgError,
    OSError,
)


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# small coercion helpers: values may arrive typed (flag) or as strings (file)


def _parsed(convert, value, name: str):
    """convert(value); a malformed value is a usage error naming its source."""
    try:
        return convert(value)
    except ValueError as exc:
        raise _UsageError(f"{name}: {exc}") from exc


def _option(cfg: dict, key: str, convert):
    """convert(cfg[key]), which must be set; a malformed value, from a flag
    or the config file, is a usage error naming the option."""
    return _parsed(convert, _require(cfg, key), "--" + key.replace("_", "-"))


def _floats(v) -> list:
    return [float(x) for x in _strs(v)]


def _ints(v) -> list:
    return [int(x) for x in _strs(v)]


def _as_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    return str(v).strip().lower() in ("1", "true", "yes", "on")


def _strs(v) -> list:
    if isinstance(v, (list, tuple)):
        return [str(x) for x in v]
    return [x.strip() for x in str(v).split(",") if x.strip()]


# ---------------------------------------------------------------------------
# parser construction; defaults live outside argparse so a config file can
# slot in between the defaults and explicitly supplied flags

_DEFAULTS: dict = {}


def _add(parser, command: str, *names, default=None, **kwargs):
    action = parser.add_argument(*names, default=argparse.SUPPRESS, **kwargs)
    _DEFAULTS[command][action.dest] = default
    return action


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmcinfer",
        description="inference for countable-state CTMCs via monotone "
                    "matrix-exponential approximations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new_command(name, help_text):
        _DEFAULTS[name] = {}
        p = sub.add_parser(name, help=help_text)
        _add(p, name, "--config", help="flat key=value config file")
        # provenance marker so manifest replays keep the original
        # flag-vs-file override decisions
        _add(p, name, "--provided", help=argparse.SUPPRESS)
        return p

    def model_flags(p, name):
        _add(p, name, "--model", help="built-in model name")
        _add(p, name, "--c", help="number of servers (mmc only)")
        _add(p, name, "--upper-bounds",
             help="comma-separated per-species caps")

    def estimator_flags(p, name):
        _add(p, name, "--mode", default="auto",
             help="ia, ra, or auto (default auto)")
        _add(p, name, "--method", default="skeletoid",
             help="skeletoid or uniformization_global")
        _add(p, name, "--qbar",
             help="global rate floor for uniformization_global")

    def prior_flags(p, name):
        _add(p, name, "--prior", default="lognormal",
             help="lognormal or gamma, iid over parameters")
        _add(p, name, "--prior-mu", default=0.0, type=float)
        _add(p, name, "--prior-sigma", default=1.0, type=float)
        _add(p, name, "--prior-shape", default=1.0, type=float)
        _add(p, name, "--prior-rate", default=1.0, type=float)

    p = new_command("simulate", "draw a dataset from a built-in model")
    model_flags(p, "simulate")
    _add(p, "simulate", "--theta", help="comma-separated rate parameters")
    _add(p, "simulate", "--x0", help="comma-separated initial state")
    _add(p, "simulate", "--tend", type=float, help="horizon for a regular grid")
    _add(p, "simulate", "--dt", type=float, help="grid spacing")
    _add(p, "simulate", "--times", help="explicit comma-separated times")
    _add(p, "simulate", "--seed", default=0, type=int)
    _add(p, "simulate", "-o", "--out", help="output dataset CSV")

    p = new_command("tune", "tune estimator sequences and debiasing laws")
    model_flags(p, "tune")
    estimator_flags(p, "tune")
    prior_flags(p, "tune")
    _add(p, "tune", "--data", help="dataset CSV")
    _add(p, "tune", "--theta-init", help="starting parameters, comma-separated")
    _add(p, "tune", "--p-min", default=0.9, type=float,
         help="offset threshold for the quick path")
    _add(p, "tune", "--grid", action="store_true", default=False,
         help="full noise-floor and proposal-scale grid search")
    _add(p, "tune", "--no-map", action="store_true", default=False,
         help="tune at --theta-init instead of the posterior mode")
    _add(p, "tune", "--n-draws", default=100, type=int,
         help="draws for the noise measurement")
    _add(p, "tune", "--short-run", default=200, type=int,
         help="chain length per proposal-scale candidate")
    _add(p, "tune", "--eps", default=1e-8, type=float)
    _add(p, "tune", "--seed", default=0, type=int)
    _add(p, "tune", "-o", "--out", help="output tuned-config file")

    p = new_command("sample", "run the pseudo-marginal sampler")
    model_flags(p, "sample")
    estimator_flags(p, "sample")
    prior_flags(p, "sample")
    _add(p, "sample", "--data", help="dataset CSV")
    _add(p, "sample", "--tuned-config", help="file written by tune")
    _add(p, "sample", "-n", "--n", default=1000, type=int,
         help="iterations per chain")
    _add(p, "sample", "--chains", default=1, type=int)
    _add(p, "sample", "--seed", default=0, type=int)
    _add(p, "sample", "--burnin", default=0.1, type=float,
         help="fraction discarded in the printed summary")
    _add(p, "sample", "--theta-init", help="comma-separated start point")
    _add(p, "sample", "--proposal-scale", default=0.1, type=float,
         help="isotropic proposal std dev when no tuned covariance")
    _add(p, "sample", "--threads",
         help="worker threads for multiple chains "
              "(default: CTMCINFER_THREADS or 1)")
    _add(p, "sample", "-o", "--out", help="output trace CSV")

    p = new_command("bench", "accuracy and FLOP study on random generators")
    _add(p, "bench", "--class", "--classes", dest="classes",
         default=",".join(MATRIX_CLASSES),
         help="comma-separated matrix classes")
    _add(p, "bench", "--dim", default="100", help="comma-separated dimensions")
    _add(p, "bench", "--t", default="1.0", help="comma-separated horizons")
    _add(p, "bench", "--eps", default="1e-2,1e-4,1e-6,1e-8",
         help="comma-separated accuracy requests")
    _add(p, "bench", "--methods", default=",".join(BENCH_METHODS))
    _add(p, "bench", "--reps", default=3, type=int)
    _add(p, "bench", "--max-row-nnz", default=10, type=int,
         help="sparse-class off-diagonal cap per row")
    _add(p, "bench", "--seed", default=0, type=int)
    _add(p, "bench", "-o", "--out", help="output CSV")

    p = new_command("truncstudy", "per-observation truncation error vs level")
    model_flags(p, "truncstudy")
    _add(p, "truncstudy", "--data", help="dataset CSV")
    _add(p, "truncstudy", "--theta", help="comma-separated rate parameters")
    _add(p, "truncstudy", "--k", default=14.0, type=float,
         help="accuracy exponent for the study")
    _add(p, "truncstudy", "--r-stop", default=30, type=int)
    _add(p, "truncstudy", "-o", "--out", help="output CSV")

    p = new_command("diag", "summarize trace files")
    _add(p, "diag", "--trace", help="comma-separated trace CSVs")
    _add(p, "diag", "--burnin", default=0.1, type=float)
    _add(p, "diag", "-o", "--out", help="optional summary CSV")

    return parser


# ---------------------------------------------------------------------------
# manifests


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("ctmcinfer")
    except Exception:
        return "unknown"


def _git_hash():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else None
    except Exception:
        return None


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, Path):
        return str(value)
    return value


def _write_manifest(out_path, command: str, resolved: dict) -> Path:
    manifest = {
        "command": command,
        "config": _jsonable(resolved),
        "seed": resolved.get("seed"),
        "versions": {
            "ctmcinfer": _package_version(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "git_hash": _git_hash(),
    }
    path = Path(out_path).with_suffix(".manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def argv_from_manifest(manifest: dict, **overrides) -> list:
    """Rebuild the argv of a recorded run, optionally overriding config keys."""
    cfg = dict(manifest["config"])
    cfg.update(overrides)
    argv = [manifest["command"]]
    for key in sorted(cfg):
        value = cfg[key]
        if value is None or key == "config":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
            continue
        argv.extend([flag, str(value)])
    return argv


# ---------------------------------------------------------------------------
# shared pieces


def _require(cfg: dict, key: str):
    value = cfg[key]
    if value is None:
        raise _UsageError(f"--{key.replace('_', '-')} is required")
    return value


def _model(cfg: dict):
    name = _require(cfg, "model")
    params = {}
    if cfg["c"] is not None:
        params["c"] = _option(cfg, "c", int)
    if cfg["upper_bounds"] is not None:
        params["upper_bounds"] = tuple(_option(cfg, "upper_bounds", _ints))
    try:
        return builtin_model(str(name), **params)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc


def _dataset(cfg: dict, net):
    """The --data dataset, refused when its sidecar names another model."""
    dataset = read_dataset(_require(cfg, "data"))
    if dataset.model not in ("custom", net.name):
        raise _UsageError(
            f"{cfg['data']} holds data from model {dataset.model!r}, "
            f"not --model {net.name!r}"
        )
    return dataset


def _build_prior(cfg: dict, dim: int) -> Prior:
    kind = str(cfg["prior"])
    if kind == "lognormal":
        marginal = LogNormalPrior(_option(cfg, "prior_mu", float),
                                  _option(cfg, "prior_sigma", float))
    elif kind == "gamma":
        marginal = GammaPrior(_option(cfg, "prior_shape", float),
                              _option(cfg, "prior_rate", float))
    else:
        raise _UsageError(f"unknown prior {kind!r}")
    return Prior.iid(marginal, dim)


def _estimator_config(cfg: dict, provided: set, tuned=None) -> EstimatorConfig:
    """Estimator settings from tuned file and flags; explicit flags win."""
    base = EstimatorConfig() if tuned is None else tuned.to_estimator_config()
    mode = str(cfg["mode"]) if tuned is None or "mode" in provided else base.mode
    # the tuned sequences and laws belong to the tuned target layout
    if tuned is not None and base.mode in ("ia", "ra") and mode != base.mode:
        raise _UsageError(f"--mode {mode} contradicts the tuned config's "
                          f"mode {base.mode}")
    method = (str(cfg["method"]) if tuned is None or "method" in provided
              else base.method)
    q_bar = base.q_bar_global if cfg["qbar"] is None else _option(cfg, "qbar", float)
    if method == "uniformization_global":
        if q_bar is None or not math.isfinite(q_bar) or q_bar >= 0:
            raise _UsageError(
                "uniformization_global needs a finite negative --qbar"
            )
    else:
        q_bar = None
    try:
        return replace(base, mode=mode, method=method, q_bar_global=q_bar)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _schedule(cfg: dict) -> list:
    if cfg["times"] is not None:
        return _option(cfg, "times", _floats)
    if cfg["tend"] is None or cfg["dt"] is None:
        raise _UsageError("either --times or both --tend and --dt are required")
    tend = _option(cfg, "tend", float)
    dt = _option(cfg, "dt", float)
    if dt <= 0 or tend <= 0:
        raise _UsageError("--tend and --dt must be positive")
    n = int(math.floor(tend / dt + 1e-9))
    return [i * dt for i in range(n + 1)]


def _chain_paths(out: Path, n_chains: int) -> list:
    if n_chains == 1:
        return [out]
    return [out.with_name(f"{out.stem}_chain{i + 1}{out.suffix}")
            for i in range(n_chains)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(cfg: dict, provided: set) -> int:
    net = _model(cfg)
    theta = _option(cfg, "theta", _floats)
    x0 = _option(cfg, "x0", _ints)
    schedule = _schedule(cfg)
    seed = _option(cfg, "seed", int)
    out = Path(_require(cfg, "out"))

    rng = np.random.default_rng(seed)
    dataset = sample_dataset(net, theta, x0, schedule, rng, seed=seed)
    write_dataset(dataset, out)
    _write_manifest(out, "simulate", cfg)
    print(f"wrote {len(dataset.times)} rows "
          f"({dataset.n_observations} transitions) to {out}")
    return 0


def _cmd_tune(cfg: dict, provided: set) -> int:
    net = _model(cfg)
    dataset = _dataset(cfg, net)
    theta_init = np.asarray(_option(cfg, "theta_init", _floats))
    out = Path(_require(cfg, "out"))
    seed = _option(cfg, "seed", int)
    eps = _option(cfg, "eps", float)
    n_draws = _option(cfg, "n_draws", int)
    if n_draws < 2:
        raise _UsageError("--n-draws must be at least 2 to measure a spread")

    base_config = _estimator_config(cfg, provided)
    estimator = LikelihoodEstimator(net, dataset, base_config)
    prior = _build_prior(cfg, net.param_dim)

    if _as_bool(cfg["no_map"]):
        theta = theta_init
    else:
        theta = map_estimate(estimator, prior, theta_init, eps=eps)

    if _as_bool(cfg["grid"]):
        v_hat = laplace_covariance(estimator, prior, theta)
        tuned = grid_select(
            net, dataset, prior, theta, v_hat, base_config,
            n_draws=n_draws,
            short_run=_option(cfg, "short_run", int),
            seed=seed, eps=eps,
        )
    else:
        tuned = tune_estimator(estimator, theta,
                               p_min=_option(cfg, "p_min", float), eps=eps)
        noisy = LikelihoodEstimator(net, dataset, tuned.to_estimator_config())
        sigma_zeta = estimate_sigma_zeta(
            noisy, theta, n_draws=n_draws, seed=seed,
        )
        tuned = replace(tuned, sigma_zeta=sigma_zeta)

    with open(out, "w") as fh:
        fh.write(tuned_config_to_text(tuned))
    _write_manifest(out, "tune", cfg)
    print(f"tuned {tuned.mode}/{tuned.method} p_min={tuned.p_min} "
          f"sigma_zeta={tuned.sigma_zeta:.4g} -> {out}")
    return 0


def _burnin(cfg: dict) -> float:
    burnin = _option(cfg, "burnin", float)
    if not 0.0 <= burnin < 1.0:
        raise _UsageError("--burnin must lie in [0, 1)")
    return burnin


def _check_kept_draws(burnin: float, n_draws: int) -> None:
    """The summary's ESS needs MIN_ESS_DRAWS draws after the burn-in."""
    if n_draws - int(n_draws * burnin) < MIN_ESS_DRAWS:
        raise _UsageError(f"--burnin {burnin} leaves fewer than {MIN_ESS_DRAWS} "
                          f"of {n_draws} draws for the summary")


def _cmd_sample(cfg: dict, provided: set) -> int:
    net = _model(cfg)
    dataset = _dataset(cfg, net)
    out = Path(_require(cfg, "out"))
    seed = _option(cfg, "seed", int)
    n_samples = _option(cfg, "n", int)
    n_chains = _option(cfg, "chains", int)
    if n_samples < 1 or n_chains < 1:
        raise _UsageError("--n and --chains must be at least 1")
    burnin = _burnin(cfg)
    _check_kept_draws(burnin, n_samples)

    tuned = None
    if cfg["tuned_config"] is not None:
        with open(cfg["tuned_config"]) as fh:
            tuned = tuned_config_from_text(fh.read())
    est_config = _estimator_config(cfg, provided, tuned)
    estimator = LikelihoodEstimator(net, dataset, est_config)
    prior = _build_prior(cfg, net.param_dim)

    if tuned is not None and tuned.proposal_cov is not None \
            and "proposal_scale" not in provided:
        proposal_cov = np.asarray(tuned.proposal_cov, dtype=float)
    else:
        proposal_cov = _option(cfg, "proposal_scale", float) ** 2

    theta_init = None
    if cfg["theta_init"] is not None:
        theta_init = np.asarray(_option(cfg, "theta_init", _floats))

    if cfg["threads"] is None:
        threads = _parsed(int, os.environ.get("CTMCINFER_THREADS", "1"),
                          "CTMCINFER_THREADS")
    else:
        threads = _option(cfg, "threads", int)
    threads = max(1, threads)

    if n_chains == 1:
        traces = [sample_chain(estimator, prior, proposal_cov, n_samples,
                               seed, theta_init=theta_init, meter=FlopMeter())]
    else:
        traces = multistart(estimator, prior, proposal_cov, n_samples,
                            n_chains, seed, theta_init=theta_init,
                            n_threads=threads)

    paths = _chain_paths(out, n_chains)
    for trace, path in zip(traces, paths):
        write_trace(trace, path)
    _write_manifest(out, "sample", cfg)

    for i, (trace, path) in enumerate(zip(traces, paths)):
        kept = trace.after_burnin(burnin)
        means = ", ".join(f"{m:.4g}" for m in kept.mean(axis=0))
        print(f"chain {i + 1}: accept={trace.acceptance_rate:.3f} "
              f"ess={ess(kept):.1f} mean=[{means}] "
              f"gflops={trace.cum_gflops[-1]:.3f} -> {path}")
    return 0


def _cmd_bench(cfg: dict, provided: set) -> int:
    classes, methods = _strs(cfg["classes"]), _strs(cfg["methods"])
    for what, chosen, known in (("matrix classes", classes, MATRIX_CLASSES),
                                ("methods", methods, BENCH_METHODS)):
        unknown = set(chosen) - set(known)
        if unknown:
            raise _UsageError(f"unknown {what}: {sorted(unknown)}")
    out = Path(_require(cfg, "out"))
    rows = bench_expm(
        classes=classes,
        dims=_option(cfg, "dim", _ints),
        ts=_option(cfg, "t", _floats),
        epsilons=_option(cfg, "eps", _floats),
        reps=_option(cfg, "reps", int),
        seed=_option(cfg, "seed", int),
        methods=tuple(methods),
        max_row_nnz=_option(cfg, "max_row_nnz", int),
    )
    write_rows_csv(rows, out)
    _write_manifest(out, "bench", cfg)
    print(f"wrote {len(rows)} bench rows to {out}")
    return 0


def _cmd_truncstudy(cfg: dict, provided: set) -> int:
    net = _model(cfg)
    dataset = _dataset(cfg, net)
    theta = _option(cfg, "theta", _floats)
    out = Path(_require(cfg, "out"))
    rows = truncation_study(
        net, theta, list(dataset.intervals()),
        k=_option(cfg, "k", float),
        r_stop=_option(cfg, "r_stop", int),
    )
    write_rows_csv(rows, out)
    _write_manifest(out, "truncstudy", cfg)
    print(f"wrote {len(rows)} truncation rows to {out}")
    return 0


def _cmd_diag(cfg: dict, provided: set) -> int:
    paths = _strs(_require(cfg, "trace"))
    burnin = _burnin(cfg)
    traces = [read_trace(path) for path in paths]
    for trace in traces:
        _check_kept_draws(burnin, trace.n_iterations)
    rows = []
    for path, trace in zip(paths, traces):
        kept = trace.after_burnin(burnin)
        row = {
            "trace": path,
            "iterations": trace.n_iterations,
            "acceptance_rate": trace.acceptance_rate,
            "ess": ess(kept),
            "gflops": trace.cum_gflops[-1],
        }
        for j, mean in enumerate(kept.mean(axis=0)):
            row[f"mean_theta_{j + 1}"] = mean
        for j, sd in enumerate(kept.std(axis=0, ddof=1)):
            row[f"sd_theta_{j + 1}"] = sd
        rows.append(row)
        print(f"{path}: n={row['iterations']} "
              f"accept={row['acceptance_rate']:.3f} ess={row['ess']:.1f} "
              f"gflops={row['gflops']:.3f}")
    if cfg["out"] is not None:
        out = Path(cfg["out"])
        write_rows_csv(rows, out)
        _write_manifest(out, "diag", cfg)
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "tune": _cmd_tune,
    "sample": _cmd_sample,
    "bench": _cmd_bench,
    "truncstudy": _cmd_truncstudy,
    "diag": _cmd_diag,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    command = args.command
    provided = {k: v for k, v in vars(args).items() if k != "command"}

    try:
        resolved = dict(_DEFAULTS[command])
        config_path = provided.pop("config", None)
        if config_path is not None:
            with open(config_path) as fh:
                text = fh.read()
            try:
                file_pairs = read_flat(text)
            except ValueError as exc:
                raise _UsageError(str(exc)) from exc
            unknown = set(file_pairs) - set(resolved)
            if unknown:
                raise _UsageError(
                    f"unknown config keys for {command}: {sorted(unknown)}"
                )
            resolved.update(file_pairs)
        resolved.update(provided)
        if "provided" in provided:
            provided_keys = set(_strs(provided["provided"]))
        else:
            provided_keys = set(provided)
        provided_keys.discard("provided")
        resolved["provided"] = ",".join(sorted(provided_keys))
        return _HANDLERS[command](resolved, provided_keys)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
