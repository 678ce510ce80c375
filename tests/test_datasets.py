"""Dataset container and its CSV + JSON sidecar round trip."""

import json
import math

import numpy as np
import pytest

from ctmcinfer import Dataset, read_dataset, write_dataset


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset([0.0], [[1]])
    with pytest.raises(ValueError):
        Dataset([0.0, 0.0], [[1], [2]])
    with pytest.raises(ValueError):
        Dataset([0.0, 1.0, 0.5], [[1], [2], [3]])
    with pytest.raises(ValueError):
        Dataset([0.0, 1.0], [[1], [2], [3]])
    with pytest.raises(ValueError, match="observed state 2.7 is not an integer"):
        Dataset([0, 1], [0.0, 2.7])
    with pytest.raises(ValueError, match="observed state nan is not an integer"):
        Dataset([0, 1], [[0, 1], [math.nan, 1]])
    with pytest.raises(ValueError, match="observed state 1e[+]20 is not an integer"):
        Dataset([0, 1], [0, 1e20])
    with pytest.raises(ValueError, match="observation time inf is not finite"):
        Dataset([0.0, math.inf], [0, 1])
    with pytest.raises(ValueError, match="observation time nan is not finite"):
        Dataset([math.nan, 1.0], [0, 1])


@pytest.mark.parametrize("row, named", [("1.0,2.7", "observed state 2.7"),
                                        ("inf,3", "observation time inf")],
                         ids=["fractional_state", "infinite_time"])
def test_read_dataset_refuses_a_fractional_state_or_infinite_time(tmp_path, row,
                                                                named):
    path = tmp_path / "obs.csv"
    path.write_text(f"t,species_1\n0.0,1\n{row}\n")
    with pytest.raises(ValueError, match=named):
        read_dataset(path)


def test_read_dataset_reads_whole_float_states(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t,species_1\n0.0,1\n1.0,2.0\n")
    assert read_dataset(path).states.tolist() == [[1], [2]]


def test_dataset_coerces_a_flat_state_list():
    data = Dataset([0.0, 1.0, 2.0], [4, 5, 6])
    assert data.states.shape == (3, 1)
    assert data.n_species == 1
    assert data.n_observations == 2


def test_intervals_yield_consecutive_pairs():
    data = Dataset([0.0, 0.5, 1.5], [[1, 0], [2, 1], [0, 3]])
    got = list(data.intervals())
    assert got == [
        ((1, 0), (2, 1), 0.5),
        ((2, 1), (0, 3), 1.0),
    ]


def test_round_trip_is_exact(tmp_path):
    # awkward floats must survive the text round trip bit for bit
    times = np.array([0.0, 1.0 / 3.0, 0.7000000000000001, math.pi])
    states = np.array([[3, 0], [2, 1], [5, 2], [4, 4]])
    meta = {
        "theta": [0.30000000000000004, 2.0],
        "x0": [3, 0],
        "seed": 17,
        "lower_bounds": [0, 0],
        "upper_bounds": [math.inf, 40.0],
    }
    data = Dataset(times, states, model="ssir", meta=meta)
    path = write_dataset(data, tmp_path / "obs.csv")
    back = read_dataset(path)
    assert np.array_equal(back.times, times)
    assert np.array_equal(back.states, states)
    assert back.model == "ssir"
    assert back.meta["theta"] == meta["theta"]
    assert back.meta["seed"] == 17
    # infinity is not valid JSON: it goes out as null and comes back as inf
    sidecar = json.loads((tmp_path / "obs.json").read_text())
    assert sidecar["upper_bounds"] == [None, 40.0]
    assert back.meta["upper_bounds"] == [math.inf, 40.0]
    assert back.meta["lower_bounds"] == [0, 0]


def test_read_without_sidecar(tmp_path):
    p = tmp_path / "bare.csv"
    p.write_text("t,species_1\n0.0,3\n1.5,4\n")
    data = read_dataset(p)
    assert data.model == "custom"
    assert data.meta == {}
    assert data.states.tolist() == [[3], [4]]


def test_read_rejects_foreign_csv(tmp_path):
    p = tmp_path / "other.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_dataset(p)
