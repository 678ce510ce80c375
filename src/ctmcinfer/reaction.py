"""Reaction networks on integer lattices and the rate-matrix rows they induce.

A network holds one update vector and one propensity per reaction channel.
States are integer tuples; the state space is the box defined by per-species
bounds (upper bounds may be infinite). The rate matrix it induces has at most
one off-diagonal entry per reaction in each row, and the diagonal is minus the
total propensity at the source state regardless of any later truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ReactionNetwork",
    "RateRow",
    "builtin_model",
    "BUILTIN_MODELS",
]

Propensity = Callable[[np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class RateRow:
    """One row of the induced rate matrix.

    targets maps reachable states (tuples) to positive rates; reactions with
    equal update vectors are merged by summing. diagonal is minus the total
    propensity at the source state, including channels whose targets a
    truncation may later drop.
    """

    source: tuple
    targets: dict
    diagonal: float


@dataclass(frozen=True)
class ReactionNetwork:
    """A CTMC on a box of the integer lattice, specified reaction by reaction.

    Parameters
    ----------
    update_matrix : (n_reactions, n_species) int array
        Row r is the state change of reaction r.
    propensities : sequence of callables
        propensities[r](state, theta) -> nonnegative rate. Called only on
        in-bounds states; a channel whose target falls outside the bounds is
        treated as rate zero, so rates never point outside the state space.
    lower_bounds, upper_bounds : per-species bounds (inclusive)
        Upper bounds may be math.inf.
    param_dim : number of inferred parameters (length of theta).
    name : short model label used in dataset sidecars and manifests.
    """

    update_matrix: np.ndarray
    propensities: tuple
    lower_bounds: tuple
    upper_bounds: tuple
    param_dim: int
    name: str = "custom"
    model_params: dict = field(default_factory=dict)

    def __post_init__(self):
        u = np.asarray(self.update_matrix, dtype=np.int64)
        if u.ndim != 2:
            raise ValueError("update_matrix must be 2-D (reactions x species)")
        object.__setattr__(self, "update_matrix", u)
        object.__setattr__(self, "propensities", tuple(self.propensities))
        if len(self.propensities) != u.shape[0]:
            raise ValueError("one propensity per update-matrix row required")
        if not u.any(axis=1).all():
            raise ValueError(f"reaction {int(np.argmin(u.any(axis=1)))} changes no "
                             "species: its update_matrix row is all zeros")
        if len(self.lower_bounds) != u.shape[1] or len(self.upper_bounds) != u.shape[1]:
            raise ValueError("bounds must have one entry per species")
        object.__setattr__(self, "lower_bounds", tuple(
            -math.inf if b is None else b for b in self.lower_bounds))
        object.__setattr__(self, "upper_bounds", tuple(
            math.inf if b is None else b for b in self.upper_bounds))

    @property
    def n_reactions(self) -> int:
        return self.update_matrix.shape[0]

    @property
    def n_species(self) -> int:
        return self.update_matrix.shape[1]

    def in_bounds(self, x):
        """Whether x lies inside the box bounds.

        x is one state, answered with a bool, or an (n, n_species) array of
        states, answered with one bool per row.
        """
        x = np.asarray(x)
        inside = ((x >= np.asarray(self.lower_bounds))
                  & (x <= np.asarray(self.upper_bounds))).all(axis=-1)
        return inside if x.ndim > 1 else bool(inside)

    def validate_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_dim,):
            raise ValueError(
                f"theta must have shape ({self.param_dim},), got {theta.shape}"
            )
        # one pass; NaN fails both comparisons, -0.0 passes
        if not all(0.0 <= v < math.inf for v in theta.tolist()):
            raise ValueError("theta must be finite and nonnegative")
        return theta

    def propensity_vector(self, x, theta) -> np.ndarray:
        """All channel rates at in-bounds state x, bounds-guarded.

        Channels whose target x + update would leave the state space return 0
        no matter what the raw propensity says.
        """
        x = np.asarray(x, dtype=np.int64)
        theta = self.validate_theta(theta)
        if not self.in_bounds(x):
            raise ValueError(f"state {tuple(x)} outside the state-space bounds")
        rates = np.zeros(self.n_reactions)
        inside = self.in_bounds(x + self.update_matrix)
        for r in range(self.n_reactions):
            if inside[r]:
                v = float(self.propensities[r](x, theta))
                if v < 0:
                    raise ValueError(f"negative propensity {v} for reaction {r} at {tuple(x)}")
                rates[r] = v
        return rates

    def rate_row(self, x, theta) -> RateRow:
        """Merged off-diagonal targets and the full-lattice diagonal at x."""
        x = np.asarray(x, dtype=np.int64)
        rates = self.propensity_vector(x, theta)
        targets: dict = {}
        for r in range(self.n_reactions):
            if rates[r] > 0.0:
                tgt = tuple(int(v) for v in x + self.update_matrix[r])
                targets[tgt] = targets.get(tgt, 0.0) + rates[r]
        return RateRow(source=tuple(int(v) for v in x), targets=targets,
                       diagonal=-float(rates.sum()))


def _box_bounds(n_species, upper=None):
    lo = (0,) * n_species
    if upper is None:
        hi = (math.inf,) * n_species
    else:
        hi = tuple(upper)
    return lo, hi


def _ssir(upper_bounds=None) -> ReactionNetwork:
    # susceptible-infected-recovered with immigration of susceptibles
    update = [[-1, 1, 0], [0, -1, 1], [1, 0, 0]]
    props = (
        lambda x, th: th[0] * x[0] * x[1],
        lambda x, th: th[1] * x[1],
        lambda x, th: th[2],
    )
    lo, hi = _box_bounds(3, upper_bounds)
    return ReactionNetwork(update, props, lo, hi, param_dim=3, name="ssir",
                           model_params={"upper_bounds": upper_bounds})


def _lv3() -> ReactionNetwork:
    # predator-prey, three channels: predator death, predation converting
    # prey into predator, prey birth; state is (predator, prey)
    update = [[-1, 0], [1, -1], [0, 1]]
    props = (
        lambda x, th: th[0] * x[0],
        lambda x, th: th[1] * x[0] * x[1],
        lambda x, th: th[2] * x[1],
    )
    lo, hi = _box_bounds(2)
    return ReactionNetwork(update, props, lo, hi, param_dim=3, name="lv3")


def _lv4() -> ReactionNetwork:
    # predator-prey, four channels: predator death, predator birth fed by
    # prey, prey death by predation, prey birth
    update = [[-1, 0], [1, 0], [0, -1], [0, 1]]
    props = (
        lambda x, th: th[0] * x[0],
        lambda x, th: th[1] * x[0] * x[1],
        lambda x, th: th[2] * x[0] * x[1],
        lambda x, th: th[3] * x[1],
    )
    lo, hi = _box_bounds(2)
    return ReactionNetwork(update, props, lo, hi, param_dim=4, name="lv4")


def _schloegl_bd(upper_bounds=None) -> ReactionNetwork:
    # bistable birth-death collapse of the classic autocatalytic system:
    # birth  th1 * x(x-1)/2 (needs x>=2) + th3
    # death  th2 * x(x-1)(x-2)/6 (needs x>=3) + th4 (needs x>=1)
    def birth(x, th):
        n = x[0]
        return th[0] * n * (n - 1) / 2.0 * (n >= 2) + th[2]

    def death(x, th):
        n = x[0]
        return th[1] * n * (n - 1) * (n - 2) / 6.0 * (n >= 3) + th[3] * (n >= 1)

    update = [[1], [-1]]
    lo, hi = _box_bounds(1, upper_bounds)
    return ReactionNetwork(update, (birth, death), lo, hi, param_dim=4,
                           name="schloegl_bd",
                           model_params={"upper_bounds": upper_bounds})


def _mmc(c=1, upper_bounds=None) -> ReactionNetwork:
    # queue with c servers: arrivals at theta_1, service at min(x, c)*theta_2
    c = int(c)
    if c < 1:
        raise ValueError("server count c must be a positive integer")
    update = [[1], [-1]]
    props = (
        lambda x, th: th[0],
        lambda x, th: min(x[0], c) * th[1],
    )
    lo, hi = _box_bounds(1, upper_bounds)
    return ReactionNetwork(update, props, lo, hi, param_dim=2, name="mmc",
                           model_params={"c": c, "upper_bounds": upper_bounds})


BUILTIN_MODELS = {
    "ssir": _ssir,
    "lv3": _lv3,
    "lv4": _lv4,
    "schloegl_bd": _schloegl_bd,
    "mmc": _mmc,
}


def builtin_model(name: str, **params) -> ReactionNetwork:
    """Construct a built-in model by name.

    Supported names: ssir, lv3, lv4, schloegl_bd, mmc. mmc takes the server
    count c; ssir, schloegl_bd and mmc accept optional upper_bounds so finite
    oracles can be run against them.
    """
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {sorted(BUILTIN_MODELS)}"
        ) from None
    return factory(**params)
