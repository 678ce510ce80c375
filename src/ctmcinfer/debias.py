"""Single-term debiasing of monotone approximation sequences, and the
likelihood estimators built from it.

Given a nondecreasing sequence a_n converging to a limit, the debiased draw

    Z = a_offset + (a_(offset+N+1) - a_(offset+N)) / P(N = n)

with N geometric has expectation exactly equal to the limit. Applied to
transition-probability approximations indexed jointly by truncation level and
accuracy, this yields unbiased (pseudo-marginal usable) likelihood estimates:
one independent draw per observation (IA) or one shared draw on the merged
state space (RA), all carried in log space.
"""

from __future__ import annotations

import collections
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import Dataset
from .expm import (
    SharedUniformized,
    _check_q_bar,
    rows_action,
    select_s_skeletoid,
    select_s_uniformization,
)
from .reaction import ReactionNetwork
from .statespace import (
    TruncationLadder,
    assemble,
    merge,
    ra_rule_of_thumb,
    restriction_map,
    seed_truncation,
)

__all__ = [
    "MonotonicityError",
    "GeometricLaw",
    "OsteResult",
    "oste",
    "oste_variance",
    "stable_log_combine",
    "JointSequence",
    "EstimatorConfig",
    "LikelihoodEstimator",
    "ACCURACY_CAP",
]

# hard ceiling on the accuracy exponent: approximations never run below
# a requested error of 10^-14
ACCURACY_CAP = 14.0

# a decrease between consecutive sequence values is forgiven (clipped to a
# tie) when it is this small, absolutely or relative to the values involved
_SLACK_ABS = 1e-12
_SLACK_LOG = 1e-9


class MonotonicityError(RuntimeError):
    """A supposedly nondecreasing sequence decreased beyond slack.

    indices carries the offending pair of sequence indices; values the pair
    of observed values (linear or log scale depending on the caller).
    """

    def __init__(self, message, indices=None, values=None):
        super().__init__(message)
        self.indices = indices
        self.values = values


@dataclass(frozen=True)
class GeometricLaw:
    """Geometric distribution on {0, 1, ...} with mass p*(1-p)^n."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")

    def mass(self, n: int) -> float:
        return self.p * (1.0 - self.p) ** n

    def sample(self, rng) -> int:
        # numpy's geometric counts trials, support {1, 2, ...}
        return int(rng.geometric(self.p)) - 1


@dataclass(frozen=True)
class OsteResult:
    z: float
    n_draw: int
    evaluations: int


def _check_step(lo, hi, lo_idx, hi_idx, scale="linear"):
    """Return hi, clipped up to lo on a within-slack decrease, else raise."""
    if hi >= lo:
        return hi
    if scale == "linear":
        ok = (lo - hi) <= _SLACK_ABS * max(1.0, abs(lo))
    else:
        # log scale: forgive tiny relative decreases and decreases whose
        # linear magnitude is below the absolute slack
        ok = (lo - hi) <= _SLACK_LOG or (
            lo <= 0 and math.exp(lo) - math.exp(hi) <= _SLACK_ABS
        )
    if ok:
        return lo
    raise MonotonicityError(
        f"sequence decreased at indices {lo_idx} -> {hi_idx}: {lo} > {hi}",
        indices=(lo_idx, hi_idx),
        values=(lo, hi),
    )


def _telescope(value, offset: int, n_draw: int, scale: str = "linear"):
    """The values at offset, offset+N and offset+N+1, in evaluation order.

    value maps an integer index to a value; each index is evaluated at most
    once. A within-slack decrease is clipped to a tie, a larger one raises
    MonotonicityError. Returns (a0, a_lo, a_hi, evaluations).
    """
    cache = {}

    def at(i):
        if i not in cache:
            cache[i] = float(value(i))
        return cache[i]

    lo, hi = offset + n_draw, offset + n_draw + 1
    a0 = at(offset)
    a_lo = _check_step(a0, at(lo), offset, lo, scale)
    a_hi = _check_step(a_lo, at(hi), lo, hi, scale)
    return a0, a_lo, a_hi, len(cache)


def oste(seq, offset: int, law: GeometricLaw, rng=None, n_draw=None) -> OsteResult:
    """One debiased draw from a nondecreasing sequence.

    seq maps an integer index to a value. Either an rng to sample N from the
    law or an explicit n_draw must be given. Evaluations are cached so the
    n_draw=0 case costs two sequence evaluations, otherwise three.
    """
    if n_draw is None:
        if rng is None:
            raise ValueError("provide rng or n_draw")
        n_draw = law.sample(rng)
    n_draw = int(n_draw)
    if n_draw < 0:
        raise ValueError("n_draw must be nonnegative")
    a0, a_lo, a_hi, evaluations = _telescope(seq, offset, n_draw)
    z = a0 + (a_hi - a_lo) / law.mass(n_draw)
    return OsteResult(z=z, n_draw=n_draw, evaluations=evaluations)


def oste_variance(diffs, law: GeometricLaw, a_offset: float = 0.0,
                  limit: float | None = None) -> float:
    """Exact variance of the debiased draw from its difference sequence.

    diffs[n] is a_(offset+n+1) - a_(offset+n); differences beyond the list
    are taken as zero. limit defaults to a_offset + sum(diffs).
    """
    diffs = np.asarray(diffs, dtype=float)
    if np.any(diffs < -_SLACK_ABS):
        raise MonotonicityError("difference sequence has negative entries")
    if limit is None:
        limit = a_offset + float(diffs.sum())
    second_moment = 0.0
    for n, d in enumerate(diffs):
        if d != 0.0:
            second_moment += d * d / law.mass(n)
    return second_moment - (limit - a_offset) ** 2


def stable_log_combine(log_a0: float, log_alo: float, log_ahi: float,
                       alpha: float) -> float:
    """log of a0 + (ahi - alo)/alpha from the logs of the three values.

    Requires 0 <= a0 <= alo <= ahi (within slack, which is clipped) and
    alpha in (0, 1]. Branches on which values vanish so no intermediate
    exponential can overflow or lose the small difference.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    log_alo = _check_step(log_a0, log_alo, 0, 1, scale="log")
    log_ahi = _check_step(log_alo, log_ahi, 1, 2, scale="log")
    log_alpha = math.log(alpha)
    if log_ahi == -math.inf:
        return -math.inf
    if log_alo == -math.inf:
        # then a0 = 0 too, so z = ahi / alpha
        return log_ahi - log_alpha
    gap = log_ahi - log_alo
    if log_a0 == -math.inf or log_alo - log_a0 > 500.0:
        # a0 vanishes (exactly, or beneath double precision of the ratio)
        if gap == 0.0:
            return log_a0 if log_a0 > -math.inf else -math.inf
        return log_alo + math.log(math.expm1(gap)) - log_alpha
    return log_a0 + math.log1p(
        math.exp(log_alo - log_a0 - log_alpha) * math.expm1(gap)
    )


# ---------------------------------------------------------------------------
# joint approximation sequences and the likelihood estimators


@dataclass(frozen=True)
class JointSequence:
    """Index n of the debiasing sequence mapped to (truncation level, accuracy).

    Level advances one growth step per index; the accuracy exponent advances
    by slope per index and is capped so requested errors never fall below
    10^-ACCURACY_CAP.
    """

    trunc_offset: int = 0
    acc_offset: float = 4.0
    slope: float = 0.1

    def __post_init__(self):
        if (not isinstance(self.trunc_offset, numbers.Integral)
                or self.trunc_offset < 0 or not math.isfinite(self.acc_offset)
                or not 0.0 <= self.slope < math.inf):
            raise ValueError(f"{self} needs trunc_offset >= 0 of an integer "
                             "type (a float, even 3.0, is refused), a finite "
                             "acc_offset and a finite slope >= 0")

    def level(self, n: int) -> int:
        return self.trunc_offset + n

    def accuracy(self, n: int) -> float:
        return min(self.acc_offset + self.slope * n, ACCURACY_CAP)


@dataclass(frozen=True)
class EstimatorConfig:
    """How likelihood estimates are formed.

    mode: 'ia' (independent draw per observation), 'ra' (one draw on the
    merged truncation), or 'auto' (RA when the merged seed set is at most a
    third of the summed per-observation seed sets). method selects the
    approximation family, 'skeletoid' or 'uniformization_global'; the latter
    needs q_bar_global, a uniform lower bound on every diagonal the run will
    see, so that partial sums stay nondecreasing across truncations.
    Per-observation sequences/laws override the shared ones in IA mode.
    """

    mode: str = "auto"
    method: str = "skeletoid"
    sequence: JointSequence = field(default_factory=JointSequence)
    law: GeometricLaw = field(default_factory=lambda: GeometricLaw(0.5))
    sequences: tuple | None = None
    laws: tuple | None = None
    q_bar_global: float | None = None

    def __post_init__(self):
        if self.mode not in ("ia", "ra", "auto"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.method not in ("skeletoid", "uniformization_global"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "uniformization_global":
            q = self.q_bar_global
            if q is None or not math.isfinite(q) or not q < 0:
                raise ValueError(
                    "uniformization_global needs a finite negative q_bar_global"
                )


# one queued (truncation level r, accuracy k) evaluation of a target; slots
# holds, per dt group of its plan, the index of its block among the call's
# rows_action results
_Evaluation = collections.namedtuple("_Evaluation", "r k slots")


class _Source:
    """One assembled matrix and every level a call takes from it.

    A level of the matrix's own ladder is its leading block, as an RA call
    has always taken it. A level of another ladder is its restriction: for
    uniformization, when it can be, only its diagonal's minimum and its
    block of the matrix's one P (built on first use); else its entries.
    Each level's (smallest diagonal entry, rows_action operand) is kept by
    id(truncation).
    """

    def __init__(self, ladder, matrix, q_bar):
        self.ladder, self.matrix, self.q_bar = ladder, matrix, q_bar
        self.shared = None
        self._on: dict = {}

    def on(self, ladder, trunc) -> tuple:
        """(smallest diagonal entry, rows_action operand) on trunc, a level
        of ladder."""
        got = self._on.get(id(trunc))
        if got is None:
            got = self._on[id(trunc)] = self._restricted(ladder, trunc)
        return got

    def _restricted(self, ladder, trunc) -> tuple:
        source = self.matrix
        if trunc is source.truncation:
            matrix = source
        elif ladder is self.ladder:
            matrix = source.leading_block(trunc)
        else:
            if self.q_bar is not None:
                if self.shared is None:
                    self.shared = SharedUniformized(source, self.q_bar)
                index, _ = restriction_map(source.truncation, trunc)
                block = self.shared.block(index)
                if block is not None:
                    return float(source.diag[index].min()), block
            matrix = source.restrict(trunc)
        return matrix.q_bar, matrix


def _observation_plan(base, obs_list) -> list:
    """(dt, sorted source rows, pick rows, pick destinations) per dt.

    The picks are index arrays into the block of the source rows, one
    (row position, destination) pair per observation. Indices are taken on
    the ladder's base; truncations nest as index prefixes, so they hold at
    every level.
    """
    groups: dict = {}
    for x_from, x_to, dt in obs_list:
        groups.setdefault(dt, []).append(
            (base.index_of(x_from), base.index_of(x_to)))
    plan = []
    for dt, pairs in groups.items():
        rows = sorted({src for src, _ in pairs})
        pos = {src: j for j, src in enumerate(rows)}
        plan.append((dt, np.array(rows, dtype=np.int64),
                     np.array([pos[src] for src, _ in pairs], dtype=np.int64),
                     np.array([dst for _, dst in pairs], dtype=np.int64)))
    return plan


class LikelihoodEstimator:
    """Unbiased transition-likelihood estimates for a dataset under a network.

    Holds one lazily grown truncation ladder per distinct seed truncation
    plus the merged ladder. What does not depend on theta is computed once:
    each truncation caches its assembly stencil and its index maps into the
    truncations it is restricted from, and each target its observation plan
    (row indices and dt groups). Assembled matrices are kept only within one
    call, since theta changes every sampler iteration; a call assembles the
    merged ladder once, at the highest level any of its points needs, and
    every target takes each of its levels as a restriction of that matrix.
    Each mode is a list of targets, each one telescoped independently: RA
    has the single merged target, IA one target per observation.
    """

    def __init__(self, net: ReactionNetwork, dataset: Dataset,
                 config: EstimatorConfig | None = None):
        self.net = net
        self.dataset = dataset
        self.config = config or EstimatorConfig()
        if dataset.n_species != net.n_species:
            raise ValueError("dataset and network disagree on species count")
        outside = np.flatnonzero(~net.in_bounds(dataset.states))
        if outside.size:
            raise ValueError(f"observed state {tuple(dataset.states[outside[0]])} "
                             "lies outside the bounds")
        self.observations = list(dataset.intervals())
        bases = []
        for i, (x_from, x_to, _) in enumerate(self.observations):
            try:
                bases.append(seed_truncation(net, x_from, x_to))
            except Exception as exc:
                raise type(exc)(f"observation {i}: {exc}") from exc
        # observations with equal seed truncations share one ladder, so one
        # matrix cache serves all of them
        shared: dict = {}
        self.obs_ladders = [shared.setdefault(b, TruncationLadder(b, net))
                            for b in bases]
        self.merged_ladder = TruncationLadder(merge(bases), net)
        if self.config.mode == "auto":
            use_ra = ra_rule_of_thumb(
                [len(b) for b in bases], len(self.merged_ladder.base),
            )
            self.mode = "ra" if use_ra else "ia"
        else:
            self.mode = self.config.mode
        if self.mode == "ia":
            for name in ("sequences", "laws"):
                given = getattr(self.config, name)
                if given is not None and len(given) != len(bases):
                    raise ValueError(
                        f"config.{name} holds {len(given)} entries for a "
                        f"dataset of {len(bases)} transitions"
                    )
        # the keys of the independent telescope draws: None is every
        # observation on the merged ladder, i is observation i on its own
        self.targets = [None] if self.mode == "ra" else list(range(len(bases)))
        # every key value_fn accepts gets its observation plan, in both modes
        self._plans = {None: _observation_plan(self.merged_ladder.base,
                                               self.observations)}
        for i, obs in enumerate(self.observations):
            self._plans[i] = _observation_plan(self.obs_ladders[i].base, [obs])

    @property
    def n_observations(self) -> int:
        return len(self.observations)

    def sequence_for(self, i: int | None) -> JointSequence:
        if i is not None and self.config.sequences is not None:
            return self.config.sequences[i]
        return self.config.sequence

    def law_for(self, i: int | None) -> GeometricLaw:
        if i is not None and self.config.laws is not None:
            return self.config.laws[i]
        return self.config.law

    # -- evaluations ---------------------------------------------------------
    #
    # Every evaluation goes through _evaluate: it queues one rows_action
    # request per dt group of each (level, accuracy) point, serves them all
    # with one rows_action call, and _log_value reads each point's blocks.

    def _queue(self, source: _Source, ladder, obs_plan, r: int, k: float,
               requests: tuple, queued: dict) -> _Evaluation:
        """Queue one evaluation's requests on the source's matrix at level r
        of ladder, one per dt group, onto the call's (Q, t, s, rows) lists;
        returns its record.

        A request equal in (truncation, dt, s, rows) to one queued already
        is not queued again: the evaluation takes that request's block. The
        matrix is checked as rows_action would check it, so a failing
        evaluation raises here, not inside the call that serves them all.
        """
        eps = 10.0 ** (-float(k))
        q_bar = self.config.q_bar_global
        skeletoid = self.config.method == "skeletoid"
        Qs, ts, ss, rows_lists = requests
        trunc = ladder.level(r)
        smallest, operand = source.on(ladder, trunc)
        if not skeletoid:
            # the q_bar check, on this target's own diagonal
            _check_q_bar(smallest, q_bar)
        slots = []
        for dt, rows, _, _ in obs_plan:
            if skeletoid:
                s = select_s_skeletoid(smallest * dt, eps)
            else:
                s = select_s_uniformization(-q_bar * dt, eps)
            key = (id(trunc), dt, s, rows.tobytes())
            if key not in queued:
                queued[key] = len(Qs)
                Qs.append(operand)
                ts.append(dt)
                ss.append(s)
                rows_lists.append(rows)
            slots.append(queued[key])
        return _Evaluation(r, k, slots)

    def _log_value(self, obs_plan, ev: _Evaluation, blocks: list) -> float:
        """log of the product of one evaluation's approximate transition
        probabilities."""
        total = 0.0
        for slot, (_, _, js, dsts) in zip(ev.slots, obs_plan):
            for p in blocks[slot][js, dsts].tolist():
                # exact values are nonnegative; rounding may leave a tiny
                # negative at structural zeros
                p = max(p, 0.0)
                total += math.log(p) if p > 0.0 else -math.inf
        return total

    def _source(self, ladder, r: int, theta, mat_cache: dict) -> _Source:
        """The source assembled on level r of ladder, kept in mat_cache by
        id(truncation)."""
        trunc = ladder.level(r)
        source = mat_cache.get(id(trunc))
        if source is None:
            q_bar = None if self.config.method == "skeletoid" else self.config.q_bar_global
            source = _Source(ladder, assemble(self.net, trunc, theta), q_bar)
            mat_cache[id(trunc)] = source
        return source

    def _evaluate(self, theta, telescopes: list, mat_cache: dict,
                  meter=None) -> list:
        """Log values of every telescope's (r, k) points, from one rows_action
        call.

        telescopes lists (target key, [(r, k), ...]) pairs. The call
        assembles one matrix: the merged ladder at the highest level any
        point needs. The merged level r holds every observation ladder's
        level r, and a state's rates do not depend on the truncation, so
        every target's matrix at every level is a theta-free restriction of
        it, and for uniformization a block of its one P. Only when that
        assembly raises is each telescope's highest level assembled on its
        own, as the source of its lower levels, so a failure at a state no
        target holds raises nowhere. mat_cache maps id(truncation) to each
        assembled source; value functions at one theta may share it.
        Returns each telescope's values in the order of its points; a point
        that could not be planned holds the exception that stopped it, for
        the caller to raise where its lazy order reaches it.
        """
        top = max(r for _, points in telescopes for r, _ in points)
        try:
            merged = self._source(self.merged_ladder, top, theta, mat_cache)
        except Exception:
            # each telescope assembles its own top level below, and raises
            # there if that fails too
            merged = None
        requests: tuple = ([], [], [], [])
        queued: dict = {}
        planned = []
        for key, points in telescopes:
            ladder = self.merged_ladder if key is None else self.obs_ladders[key]
            obs_plan, source = self._plans[key], merged
            if source is None:
                try:
                    source = self._source(ladder, max(r for r, _ in points), theta,
                                          mat_cache)
                except Exception as exc:
                    # the telescope raises it at its first point
                    planned.append((obs_plan, [exc] * len(points)))
                    continue
            evals = []
            for r, k in points:
                try:
                    evals.append(self._queue(source, ladder, obs_plan, r, k,
                                             requests, queued))
                except Exception as exc:
                    evals.append(exc)
            planned.append((obs_plan, evals))
        blocks = []
        if requests[0] and self.config.method == "skeletoid":
            blocks = rows_action("skeletoid", *requests, meter)
        elif requests[0]:
            blocks = rows_action("uniformization", *requests, meter,
                                 self.config.q_bar_global)
        return [[ev if isinstance(ev, Exception) else self._log_value(obs_plan, ev, blocks)
                 for ev in evals] for obs_plan, evals in planned]

    # -- debiased estimates --------------------------------------------------

    def log_estimate(self, theta, rng, meter=None) -> float:
        """Log-likelihood estimate: one debiased draw per target, summed.

        Draws every target's N, evaluates every telescope with one
        rows_action call (_evaluate), then combines target by target. The
        sum stops at the first target that makes it -inf; rng is then
        rewound to where the draws of the targets up to that one leave it,
        as if no later target had drawn. A point that could not be planned
        raises when its telescope reaches it, so it cannot pre-empt an
        earlier -inf or MonotonicityError; when anything raises after theta
        is validated, every target has drawn.
        """
        theta = self.net.validate_theta(theta)
        # a single target leaves no later draw to take back
        start = rng.bit_generator.state if len(self.targets) > 1 else None
        draws = [self.law_for(key).sample(rng) for key in self.targets]
        # each target's distinct telescope indices, in evaluation order
        indices = [tuple(dict.fromkeys((0, n, n + 1))) for n in draws]
        telescopes = []
        for key, ns in zip(self.targets, indices):
            seq = self.sequence_for(key)
            telescopes.append((key, [(seq.level(n), seq.accuracy(n)) for n in ns]))
        values = self._evaluate(theta, telescopes, {}, meter)
        total = 0.0
        for j, key in enumerate(self.targets):
            at = dict(zip(indices[j], values[j]))
            l0, l_lo, l_hi, _ = _telescope(lambda n: _raised(at[n]), 0, draws[j],
                                           scale="log")
            total += stable_log_combine(l0, l_lo, l_hi, self.law_for(key).mass(draws[j]))
            if total == -math.inf:
                if j + 1 < len(self.targets):
                    rng.bit_generator.state = start
                    for earlier in self.targets[:j + 1]:
                        self.law_for(earlier).sample(rng)
                break
        return total

    # -- deterministic evaluations for tuning and limits ---------------------

    def value_fn(self, theta, obs_index: int | None = None, meter=None,
                 mat_cache: dict | None = None):
        """f(r, k) -> linear-space approximate value, matrices cached per theta.

        obs_index is a target key: one observation's transition probability,
        or None for the product over all observations on the merged
        truncation. Value functions at one theta may share mat_cache, so
        every target restricts its levels from one merged matrix per level.
        """
        theta = self.net.validate_theta(theta)
        if mat_cache is None:
            mat_cache = {}

        def f(r: int, k: float) -> float:
            [[value]] = self._evaluate(theta, [(obs_index, [(r, k)])], mat_cache, meter)
            return math.exp(_raised(value))

        return f

    def deterministic_log_likelihood(self, theta, r: int, k: float,
                                     meter=None) -> float:
        """log L at fixed truncation level and accuracy, no debiasing."""
        theta = self.net.validate_theta(theta)
        total = 0.0
        for [value] in self._evaluate(theta, [(key, [(r, k)]) for key in self.targets],
                                      {}, meter):
            total += _raised(value)
        return total


def _raised(value):
    """value, or raise it when it is the exception kept in a value's place."""
    if isinstance(value, Exception):
        raise value
    return value
