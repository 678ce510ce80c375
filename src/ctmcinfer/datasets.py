"""Observed-path datasets: discrete observations of a lattice path over time.

On disk a dataset is a CSV with header t,species_1,...,species_ns plus a JSON
sidecar (same stem, .json) naming the model, bounds, and provenance such as
the generating parameters and seed when known.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Dataset", "write_dataset", "read_dataset"]


@dataclass(frozen=True)
class Dataset:
    """Times and states of a discretely observed path.

    times is strictly increasing; row i of states is the state observed at
    times[i]. meta carries sidecar content (model name, bounds, theta, seed).
    """

    times: np.ndarray
    states: np.ndarray
    model: str = "custom"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states)
        if states.dtype.kind not in "iu":
            # a fractional, non-finite or huge state would otherwise be cast
            # silently; the negated test also catches NaN
            values = states.astype(float)
            bad = ~(np.abs(values) < 2.0**63) | (values != np.trunc(values))
            if bad.any():
                raise ValueError(f"observed state {float(values[bad][0])!r} "
                                 "is not an integer in the int64 range")
        states = states.astype(np.int64)
        if states.ndim == 1:
            states = states[:, None]
        if times.ndim != 1 or states.shape[0] != times.shape[0]:
            raise ValueError("times and states must have matching leading length")
        if times.size < 2:
            raise ValueError("a dataset needs at least two observation times")
        if not np.all(np.isfinite(times)):
            bad_time = times[~np.isfinite(times)][0]
            raise ValueError(f"observation time {float(bad_time)!r} is not finite")
        if not np.all(np.diff(times) > 0):
            raise ValueError("observation times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n_species(self) -> int:
        return self.states.shape[1]

    @property
    def n_observations(self) -> int:
        """Number of observed transitions (one fewer than rows)."""
        return self.times.shape[0] - 1

    def intervals(self):
        """Yield (x_from, x_to, dt) for each consecutive observation pair."""
        for i in range(self.n_observations):
            yield (
                tuple(int(v) for v in self.states[i]),
                tuple(int(v) for v in self.states[i + 1]),
                float(self.times[i + 1] - self.times[i]),
            )


def _sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def write_dataset(dataset: Dataset, path) -> Path:
    """Write the CSV and its JSON sidecar; returns the CSV path."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"species_{j + 1}" for j in range(dataset.n_species)])
        for t, row in zip(dataset.times, dataset.states):
            writer.writerow([repr(float(t))] + [int(v) for v in row])
    sidecar = {"model": dataset.model}
    for key, value in dataset.meta.items():
        if isinstance(value, np.ndarray):
            value = value.tolist()
        sidecar[key] = value
    # JSON has no infinity; encode unbounded species as null
    for key in ("lower_bounds", "upper_bounds"):
        if key in sidecar and sidecar[key] is not None:
            sidecar[key] = [None if (isinstance(v, float) and math.isinf(v)) else v
                            for v in sidecar[key]]
    with open(_sidecar_path(path), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_dataset(path) -> Dataset:
    """Read a dataset CSV; the JSON sidecar is merged into meta when present."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "t" or len(header) < 2:
            raise ValueError(f"{path} is not a dataset CSV (header must start with t)")
        times, states = [], []
        for row in reader:
            if not row:
                continue
            times.append(float(row[0]))
            states.append([float(v) for v in row[1:]])
    meta = {}
    model = "custom"
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        with open(sidecar) as fh:
            meta = json.load(fh)
        model = meta.pop("model", "custom")
        for key, fill in (("lower_bounds", -math.inf), ("upper_bounds", math.inf)):
            if key in meta and meta[key] is not None:
                meta[key] = [fill if v is None else v for v in meta[key]]
    return Dataset(np.asarray(times), np.asarray(states), model=model, meta=meta)
