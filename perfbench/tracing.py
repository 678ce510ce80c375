"""Outside-in tracing of ctmcinfer's layers, installed from the benchmark.

Nothing in the package is edited. `install` replaces the public functions at
the names their callers resolve (`debias` imports `assemble` and
`rows_action` by name, so those are patched in `debias`, not where they are
defined) and `uninstall` puts the originals back.

Spans carry a name, start, end, parent and trace id; every span under one
`log_estimate` call or one set-up stage shares that call's trace id. Spans
stay in memory and are written out when the run ends. `rate_row` runs
10^4-10^5 times per run, so it gets a timed counter instead of a span; its
time still counts as child time of the enclosing span, so a span's self time
is its duration minus its child spans and counters.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

import ctmcinfer.debias as debias
import ctmcinfer.expm as expm
import ctmcinfer.statespace as statespace
import ctmcinfer.tuning as tuning
from ctmcinfer.debias import GeometricLaw, LikelihoodEstimator
from ctmcinfer.expm import FlopMeter
from ctmcinfer.reaction import ReactionNetwork

perf = time.perf_counter

# span record fields
NAME, START, END, PARENT, TRACE, CHILD_S, PHASE = range(7)


class KindMeter(FlopMeter):
    """FlopMeter that also keeps modeled FLOPs per kind of product."""

    KINDS = ("dense_square", "block_product", "sparse_pass")

    def __init__(self):
        super().__init__()
        self.by_kind = dict.fromkeys(self.KINDS, 0)

    def _track(self, kind, add, *args):
        before = self.flops
        add(*args)
        self.by_kind[kind] += self.flops - before

    def add_dense_square(self, b):
        self._track("dense_square", super().add_dense_square, b)

    def add_block_product(self, m, b):
        self._track("block_product", super().add_block_product, m, b)

    def add_sparse_pass(self, m, nnz):
        self._track("sparse_pass", super().add_sparse_pass, m, nnz)


class Tracer:
    """In-memory spans and counters, split by the phase the benchmark sets."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}     # (phase, name) -> [calls, seconds]
        self.states = {}       # phase -> list of assembled state counts
        self.telescope_n = {}  # phase -> list of drawn N
        self.phase = "setup"
        self.meters = {}       # phase -> KindMeter used when a caller passes none
        self._traces = 0

    def meter(self, phase=None):
        return self.meters.setdefault(phase or self.phase, KindMeter())

    def open(self, name, new_trace=False):
        parent = self.stack[-1] if self.stack else -1
        if new_trace or parent < 0:
            self._traces += 1
            trace_id = self._traces
        else:
            trace_id = self.spans[parent][TRACE]
        self.spans.append([name, perf(), 0.0, parent, trace_id, 0.0, self.phase])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        idx = self.stack.pop()
        span = self.spans[idx]
        span[END] = perf()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += span[END] - span[START]

    @contextmanager
    def stage(self, name):
        """One set-up stage or chain: a root span with a new trace id."""
        self.open(name, new_trace=True)
        try:
            yield
        finally:
            self.close()

    def wrap(self, name, fn, new_trace=False):
        def wrapped(*args, **kwargs):
            self.open(name, new_trace)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return wrapped

    def timed_counter(self, name, fn):
        def wrapped(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                c = self.counters.setdefault((self.phase, name), [0, 0.0])
                c[0] += 1
                c[1] += dt
                if self.stack:
                    self.spans[self.stack[-1]][CHILD_S] += dt
        return wrapped

    def write(self, path):
        """One JSON object per span: name, start, end, parent, trace, phase."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "trace": s[TRACE], "phase": s[PHASE],
                }, separators=(",", ":")) + "\n")

    # -- aggregation ---------------------------------------------------------

    def totals(self, phase):
        """name -> (calls, total seconds, self seconds) over one phase."""
        out = {}
        for s in self.spans:
            if s[PHASE] != phase:
                continue
            dur = s[END] - s[START]
            calls, total, self_s = out.get(s[NAME], (0, 0.0, 0.0))
            out[s[NAME]] = (calls + 1, total + dur, self_s + dur - s[CHILD_S])
        for (ph, name), (calls, secs) in self.counters.items():
            if ph == phase:
                out[name] = (calls, secs, secs)
        return out

    def root_seconds(self, phase):
        """Wall seconds of the phase's top-level spans (its stages or chains)."""
        return sum(s[END] - s[START] for s in self.spans
                   if s[PHASE] == phase and s[PARENT] < 0)


def install(tracer: Tracer) -> list:
    """Patch every traced name; returns what `uninstall` needs to undo it."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    orig_assemble = debias.assemble

    def assemble(net, trunc, theta):
        tracer.states.setdefault(tracer.phase, []).append(len(trunc))
        return orig_assemble(net, trunc, theta)

    orig_rows_action = debias.rows_action

    def rows_action(method, Q, t, s, rows, meter=None, *args, **kwargs):
        # tune_estimator and map_estimate pass no meter; count their work too
        if meter is None:
            meter = tracer.meter()
        return orig_rows_action(method, Q, t, s, rows, meter, *args, **kwargs)

    orig_sample = GeometricLaw.sample

    def sample(law, rng):
        n = orig_sample(law, rng)
        tracer.telescope_n.setdefault(tracer.phase, []).append(n)
        return n

    patch(debias, "assemble", tracer.wrap("statespace.assemble", assemble))
    patch(debias, "rows_action", tracer.wrap("expm.rows_action", rows_action))
    patch(debias, "stable_log_combine",
          tracer.wrap("debias.stable_log_combine", debias.stable_log_combine))
    patch(statespace, "grow", tracer.wrap("statespace.grow", statespace.grow))
    patch(expm, "implicit_square",
          tracer.wrap("expm.implicit_square", expm.implicit_square))
    patch(tuning, "profile", tracer.wrap("tuning.profile", tuning.profile))
    patch(ReactionNetwork, "rate_row",
          tracer.timed_counter("reaction.rate_row", ReactionNetwork.rate_row))
    patch(LikelihoodEstimator, "log_estimate",
          tracer.wrap("debias.log_estimate", LikelihoodEstimator.log_estimate,
                      new_trace=True))
    patch(GeometricLaw, "sample", sample)
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, sampling_meter: KindMeter, chains: list,
                  profiles_r_eps: int, estimates: list) -> dict:
    """Per-layer figures: sampling-phase layers, set-up stages and shares.

    Unprefixed layer names cover the sampling phase; `setup.` names cover
    one set-up (construction, MAP, tuning and Laplace).
    """
    samp = tracer.totals("sampling")
    setup = tracer.totals("setup")

    def get(tot, name, field):
        return tot.get(name, (0, 0.0, 0.0))[field]

    calls, total, self_s = 0, 1, 2
    m = {}
    states = tracer.states["sampling"]
    asm_calls = get(samp, "statespace.assemble", calls)
    asm_total = get(samp, "statespace.assemble", total)
    m["statespace.assemble.calls"] = asm_calls
    m["statespace.assemble.self_s"] = get(samp, "statespace.assemble", self_s)
    m["statespace.assemble.states"] = int(sum(states))
    m["statespace.assemble.us_per_state"] = 1e6 * asm_total / sum(states)
    m["statespace.grow.calls"] = get(samp, "statespace.grow", calls)
    m["statespace.grow.s"] = get(samp, "statespace.grow", total)
    m["statespace.max_states"] = int(max(states))
    m["reaction.rate_row.calls"] = get(samp, "reaction.rate_row", calls)
    m["reaction.rate_row.s"] = get(samp, "reaction.rate_row", total)

    est_calls = get(samp, "debias.log_estimate", calls)
    m["debias.assemble_per_estimate"] = asm_calls / est_calls
    m["debias.log_estimate.calls"] = est_calls
    m["debias.log_estimate.self_s"] = get(samp, "debias.log_estimate", self_s)
    m["debias.stable_log_combine.s"] = get(samp, "debias.stable_log_combine", total)
    draws = tracer.telescope_n["sampling"]
    m["debias.telescope_n.p50"] = float(np.median(draws))
    m["debias.telescope_n.max"] = int(max(draws))
    m["debias.neg_inf_frac"] = (
        sum(1 for v in estimates if v == -np.inf) / len(estimates))

    sq_calls = get(samp, "expm.implicit_square", calls)
    sq_s = get(samp, "expm.implicit_square", total)
    kinds = sampling_meter.by_kind
    m["expm.implicit_square.calls"] = sq_calls
    m["expm.implicit_square.s"] = sq_s
    m["expm.gflop.dense_square"] = kinds["dense_square"] / 1e9
    m["expm.square_gflop_per_s"] = kinds["dense_square"] / 1e9 / sq_s if sq_s else 0.0
    m["expm.rows_action.calls"] = get(samp, "expm.rows_action", calls)
    m["expm.rows_action.self_s"] = get(samp, "expm.rows_action", self_s)
    m["expm.gflop.block_product"] = kinds["block_product"] / 1e9
    m["expm.gflop.sparse_pass"] = kinds["sparse_pass"] / 1e9

    iters = sum(tr.n_iterations for tr in chains)
    m["sampler.iterations"] = iters
    m["sampler.self_s"] = get(samp, "sampler.sample_chain", self_s)
    m["sampler.acceptance"] = float(np.mean(np.concatenate([tr.accepted for tr in chains])))
    # every in-support proposal costs one estimate; each chain adds one
    # estimate at its starting point
    m["sampler.out_of_support_frac"] = (iters + len(chains) - est_calls) / iters

    for stage in ("map_estimate", "tune_estimator", "laplace_covariance"):
        m[f"tuning.{stage}.s"] = get(setup, f"tuning.{stage}", total)
    m["tuning.profile.calls"] = get(setup, "tuning.profile", calls)
    m["tuning.profile.s"] = get(setup, "tuning.profile", total)
    m["tuning.r_eps"] = profiles_r_eps

    setup_s = tracer.root_seconds("setup")
    samp_s = tracer.root_seconds("sampling")
    setup_kinds = tracer.meter("setup").by_kind
    m["setup.s"] = setup_s
    m["setup.statespace.assemble.self_s"] = get(setup, "statespace.assemble", self_s)
    m["setup.reaction.rate_row.s"] = get(setup, "reaction.rate_row", total)
    m["setup.expm.implicit_square.s"] = get(setup, "expm.implicit_square", total)
    m["setup.expm.rows_action.self_s"] = get(setup, "expm.rows_action", self_s)
    m["setup.expm.gflop.dense_square"] = setup_kinds["dense_square"] / 1e9
    m["sampling.s"] = samp_s

    m["sampling.share.assembly"] = (
        m["statespace.assemble.self_s"] + m["reaction.rate_row.s"]) / samp_s
    m["sampling.share.squarings"] = sq_s / samp_s
    m["sampling.share.rows_action"] = m["expm.rows_action.self_s"] / samp_s
    m["setup.share.assembly"] = (
        m["setup.statespace.assemble.self_s"] + m["setup.reaction.rate_row.s"]) / setup_s
    m["setup.share.squarings"] = m["setup.expm.implicit_square.s"] / setup_s
    return m
