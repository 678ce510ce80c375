"""Finite truncations of countable state spaces and the matrices they carry.

Truncations are ordered: growing one appends new states after the old ones, so
a grown truncation indexes its parent as a prefix. Matrices assembled on a
truncation keep the full-lattice diagonal, which makes them sub-conservative:
each row may leak mass (its conservativeness deficit) through dropped targets.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from .reaction import ReactionNetwork

__all__ = [
    "Truncation",
    "TruncationLadder",
    "TruncatedRateMatrix",
    "SeedPathError",
    "seed_reaction_counts",
    "seed_path",
    "grow",
    "merge",
    "assemble",
    "ra_rule_of_thumb",
]

RA_STATE_FRACTION = 1.0 / 3.0


class SeedPathError(ValueError):
    """No admissible path between a pair of observed states."""


@dataclass(frozen=True)
class Truncation:
    """An ordered finite subset of the lattice, tagged with its growth level."""

    states: tuple
    level: int = 0

    def __post_init__(self):
        states = tuple(tuple(int(v) for v in s) for s in self.states)
        if not states:
            raise ValueError("a truncation must contain at least one state")
        object.__setattr__(self, "states", states)
        index = {}
        for i, s in enumerate(states):
            if s in index:
                raise ValueError(f"duplicate state {s} in truncation")
            index[s] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, state) -> bool:
        return tuple(int(v) for v in state) in self._index

    def index_of(self, state) -> int:
        return self._index[tuple(int(v) for v in state)]


def _first_seen(states) -> tuple:
    """The states in the given order, each kept where it first appears."""
    return tuple(dict.fromkeys(states))


def default_directions(n_species: int) -> np.ndarray:
    """Unit steps +e_j, -e_j for each species, in species order."""
    eye = np.eye(n_species, dtype=np.int64)
    return np.stack([eye, -eye], axis=1).reshape(-1, n_species)


def grow(trunc: Truncation, net: ReactionNetwork) -> Truncation:
    """One growth step: append in-bounds neighbors of every current state.

    New states appear in parent-state order, then direction order, so the
    parent truncation is an index prefix of the result.
    """
    n = net.n_species
    cands = (np.array(trunc.states, dtype=np.int64)[:, None, :]
             + default_directions(n)[None]).reshape(-1, n)
    kept = map(tuple, cands[net.in_bounds(cands)].tolist())
    return Truncation(_first_seen((*trunc.states, *kept)), level=trunc.level + 1)


def merge(truncs) -> Truncation:
    """First-seen union of truncations, in input order."""
    truncs = list(truncs)
    if not truncs:
        raise ValueError("merge needs at least one truncation")
    return Truncation(_first_seen(s for tr in truncs for s in tr.states),
                      level=max(tr.level for tr in truncs))


class TruncationLadder:
    """Lazily grown tower of truncations sharing one base.

    Levels are appended on demand and never mutated, so concurrent reads are
    safe; growth itself is serialized by a lock.
    """

    def __init__(self, base: Truncation, net: ReactionNetwork):
        self.net = net
        self._levels = [base]
        self._lock = threading.Lock()

    @property
    def base(self) -> Truncation:
        return self._levels[0]

    def level(self, r: int) -> Truncation:
        if r < 0:
            raise ValueError(f"truncation level {r} is negative")
        if r < len(self._levels):
            return self._levels[r]
        with self._lock:
            while len(self._levels) <= r:
                self._levels.append(grow(self._levels[-1], self.net))
        return self._levels[r]


# ---------------------------------------------------------------------------
# seed paths


def _pivot(T, basis, row, col):
    """Make column col basic in row: scale the row, eliminate the column."""
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _pivot_loop(T, basis, cost, ncols, tol):
    """Bland-rule pivoting on an explicit tableau; T[:, -1] is the rhs."""
    m = T.shape[0]
    while True:
        reduced = cost[:ncols] - cost[basis] @ T[:, :ncols]
        enter = -1
        for j in range(ncols):
            if reduced[j] < -tol:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best_ratio = None
        for i in range(m):
            if T[i, enter] > tol:
                ratio = T[i, -1] / T[i, enter]
                if (
                    best_ratio is None
                    or ratio < best_ratio - 1e-12
                    or (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leave])
                ):
                    leave, best_ratio = i, ratio
        if leave < 0:
            raise ArithmeticError("linear program is unbounded")
        _pivot(T, basis, leave, enter)


def _solve_lp(A, b, tol=1e-9):
    """Minimize 1'v subject to A v = b, v >= 0, by two-phase dense simplex.

    Returns the optimal v, or None if infeasible. Systems here are tiny
    (species x reactions), so a plain tableau is plenty.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    _pivot_loop(T, basis, phase1_cost, n + m, tol)
    if phase1_cost[basis] @ T[:, -1] > tol:
        return None

    # pivot leftover zero-valued artificials out, dropping redundant rows
    keep = []
    for i in range(len(basis)):
        if basis[i] >= n:
            enter = next((j for j in range(n) if abs(T[i, j]) > tol), None)
            if enter is None:
                continue
            _pivot(T, basis, i, enter)
        keep.append(i)
    T = T[keep]
    basis = [basis[i] for i in keep]

    phase2_cost = np.concatenate([np.ones(n), np.full(m, 1e6)])
    _pivot_loop(T, basis, phase2_cost, n, tol)

    v = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            v[j] = T[i, -1]
    return v


def seed_reaction_counts(net: ReactionNetwork, x_from, x_to) -> np.ndarray:
    """Fewest reaction firings whose net effect moves x_from to x_to.

    Solves the linear relaxation; update matrices made of unit steps give
    integral vertices, and fractional solutions for other models are rounded
    up and re-verified.
    """
    x_from = np.asarray(x_from, dtype=np.int64)
    x_to = np.asarray(x_to, dtype=np.int64)
    delta = (x_to - x_from).astype(float)
    if not net.in_bounds(x_from) or not net.in_bounds(x_to):
        raise SeedPathError(
            f"observation pair {tuple(x_from)} -> {tuple(x_to)} leaves the state space"
        )
    if not delta.any():
        return np.zeros(net.n_reactions, dtype=np.int64)
    v = _solve_lp(net.update_matrix.T.astype(float), delta)
    if v is None:
        raise SeedPathError(
            f"no nonnegative reaction combination connects {tuple(x_from)} to {tuple(x_to)}"
        )
    rounded = np.round(v)
    if np.max(np.abs(v - rounded)) <= 1e-9:
        counts = rounded.astype(np.int64)
    else:
        counts = np.ceil(v - 1e-9).astype(np.int64)
        if not np.array_equal(net.update_matrix.T @ counts, x_to - x_from):
            raise SeedPathError(
                f"fractional reaction-count solution for {tuple(x_from)} -> {tuple(x_to)} "
                "does not round to a valid integer combination"
            )
    return counts


def seed_path(net: ReactionNetwork, x_from, x_to) -> list:
    """An in-bounds state path realizing the minimal reaction counts.

    Depth-first over orderings of the reaction multiset, trying channels in
    index order and pruning any prefix that leaves the state space.
    """
    counts = seed_reaction_counts(net, x_from, x_to)
    x_from = np.asarray(x_from, dtype=np.int64)
    path = [tuple(int(v) for v in x_from)]
    failed = set()

    def walk(state, rem):
        if not rem.any():
            return True
        key = (tuple(int(v) for v in state), tuple(rem))
        if key in failed:
            return False
        targets = state + net.update_matrix
        inside = net.in_bounds(targets)
        for r in range(net.n_reactions):
            if rem[r] == 0 or not inside[r]:
                continue
            path.append(tuple(int(v) for v in targets[r]))
            rem[r] -= 1
            if walk(targets[r], rem):
                return True
            rem[r] += 1
            path.pop()
        failed.add(key)
        return False

    if not walk(x_from, counts.copy()):
        raise SeedPathError(
            f"reaction counts for {tuple(x_from)} -> {tuple(x_to)} admit no in-bounds ordering"
        )
    return path


def seed_truncation(net: ReactionNetwork, x_from, x_to) -> Truncation:
    """Level-0 truncation holding the states of a seed path (deduplicated)."""
    return Truncation(_first_seen(seed_path(net, x_from, x_to)), level=0)


# ---------------------------------------------------------------------------
# assembled matrices


@dataclass(eq=False)
class TruncatedRateMatrix:
    """Rate matrix restricted to a truncation, diagonal taken on the full lattice.

    Two matrices compare, and hash, by identity: their fields are arrays.

    rows, cols and rates hold the kept off-diagonal rates, channel after
    channel in assembly order; every (row, col) pair is distinct and off the
    diagonal. diag holds each state's full-lattice diagonal. Both derived
    values follow from these: deficit[i] >= 0 is the rate mass row i loses
    to dropped targets (computed on first read), and q_bar is the most
    negative diagonal entry (so -q_bar bounds every exit rate). to_dense()
    builds the b x b matrix.
    """

    truncation: Truncation
    rows: np.ndarray
    cols: np.ndarray
    rates: np.ndarray
    diag: np.ndarray
    q_bar: float = field(init=False)

    def __post_init__(self):
        self.q_bar = float(self.diag.min())

    @functools.cached_property
    def deficit(self) -> np.ndarray:
        # bincount adds each row's kept rates in entry order, which within a
        # row is channel order, so a restriction's deficit equals its
        # assembly's
        kept = np.bincount(self.rows, weights=self.rates, minlength=len(self.truncation))
        # clamp tiny negative deficits from float cancellation
        return np.maximum(-self.diag - kept, 0.0)

    def to_dense(self) -> np.ndarray:
        Q = np.diag(self.diag)
        Q[self.rows, self.cols] = self.rates
        return Q

    def leading_block(self, trunc: Truncation) -> "TruncatedRateMatrix":
        """What assemble builds on trunc, a prefix of this truncation: its
        restriction, entries in the order assemble gives them."""
        if self.truncation.states[:len(trunc)] != trunc.states:
            raise ValueError("the truncation is not a prefix of this one")
        return self.restrict(trunc)

    def restrict(self, trunc: Truncation) -> "TruncatedRateMatrix":
        """What assemble builds on trunc, whose states all lie in this
        truncation.

        A state's rates do not depend on the truncation, so the restriction
        gathers each state's diagonal and keeps, in their order, the entries
        whose row and target both lie in trunc. Within a row that is channel
        order, as in assemble, so every entry, the diagonal, the deficit and
        q_bar equal assemble's bit for bit; only the order of the rows in
        the entry arrays may differ, and on a prefix it does not.
        """
        index, position = restriction_map(self.truncation, trunc)
        rows, cols = position[self.rows], position[self.cols]
        # -1 marks a state outside trunc; an or of two indices is negative
        # exactly when one of them is
        keep = (rows | cols) >= 0
        return TruncatedRateMatrix(trunc, rows[keep], cols[keep], self.rates[keep],
                                   self.diag[index])


def restriction_map(source: Truncation, trunc: Truncation) -> tuple:
    """(index, position) of trunc within source, theta-free.

    index[i] is the source index of trunc's state i; position[j] is trunc's
    index of source state j, or -1 when trunc does not hold it. Cached on
    trunc per source; as with the stencil, two threads may both build a map
    and either result is kept.
    """
    maps = getattr(trunc, "_maps", None)
    if maps is None:
        maps = {}
        object.__setattr__(trunc, "_maps", maps)
    cached = maps.get(id(source))
    if cached is None or cached[0] is not source:
        try:
            index = np.array([source._index[s] for s in trunc.states], dtype=np.int64)
        except KeyError:
            raise ValueError("the truncation holds a state outside this one") from None
        position = np.full(len(source), -1, dtype=np.int64)
        position[index] = np.arange(len(trunc))
        cached = maps[id(source)] = (source, index, position)
    return cached[1], cached[2]


class _Stencil:
    """The theta-free part of assembly on one truncation, for one network.

    states is the (b, n_species) state array. Reactions with equal update
    vectors form one channel, in first-seen order, as rate_row merges their
    targets. Each channel holds its reactions, the rows whose target lies
    inside the bounds, and each such target's index in the truncation (-1
    when the truncation drops it).
    """

    def __init__(self, net: ReactionNetwork, trunc: Truncation):
        states = np.array(trunc.states, dtype=np.int64)
        outside = np.flatnonzero(~net.in_bounds(states))
        if outside.size:
            raise ValueError(f"state {tuple(states[outside[0]])} outside the "
                             "state-space bounds")
        channels: dict = {}
        for r, u in enumerate(net.update_matrix):
            channels.setdefault(tuple(u), []).append(r)
        self.states = states
        self.channels = []
        for u, reactions in channels.items():
            targets = states + np.asarray(u, dtype=np.int64)
            rows = np.flatnonzero(net.in_bounds(targets))
            cols = np.array([trunc._index.get(tuple(t), -1)
                             for t in targets[rows].tolist()], dtype=np.int64)
            self.channels.append((tuple(reactions), rows, cols))


def _stencil(net: ReactionNetwork, trunc: Truncation) -> _Stencil:
    """The truncation's stencil for net, built on first use and cached on it.

    Two threads may both build it; the result is the same and is stored in
    one attribute write, so the race is benign.
    """
    cached = getattr(trunc, "_stencil", None)
    if cached is None or cached[0] is not net:
        cached = (net, _Stencil(net, trunc))
        object.__setattr__(trunc, "_stencil", cached)
    return cached[1]


def assemble(net: ReactionNetwork, trunc: Truncation, theta) -> TruncatedRateMatrix:
    """Build the truncated rate matrix for theta on the given truncation.

    Entry for entry the same as a per-state build from net.rate_row: each
    propensity sees the same state rows and every sum keeps its order.
    """
    b = len(trunc)
    theta = net.validate_theta(theta)
    stencil = _stencil(net, trunc)
    rates = np.zeros((b, net.n_reactions))
    # the empty first triple types the flat arrays of a net with no channels
    entries = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    for reactions, rows, cols in stencil.channels:
        in_bounds = stencil.states[rows]
        # rate_row's merge of equal targets: 0.0 plus each rate in order
        merged = 0.0
        for r in reactions:
            prop = net.propensities[r]
            vals = np.array([float(prop(x, theta)) for x in in_bounds])
            rates[rows, r] = vals
            merged = merged + vals
        # rate_row lists only positive rates, and only kept targets enter
        keep = (cols >= 0) & (merged > 0.0)
        entries.append((rows[keep], cols[keep], merged[keep]))
    if (rates < 0).any():
        i, r = np.argwhere(rates < 0)[0]
        raise ValueError(f"negative propensity {float(rates[i, r])} for reaction "
                         f"{int(r)} at {tuple(stencil.states[i])}")
    rows, cols, kept = (np.concatenate(e) for e in zip(*entries))
    return TruncatedRateMatrix(trunc, rows, cols, kept, -rates.sum(axis=1))


def ra_rule_of_thumb(sizes, merged_size: int) -> bool:
    """True when one merged run beats per-observation runs on state count."""
    return merged_size <= RA_STATE_FRACTION * float(np.sum(sizes))
