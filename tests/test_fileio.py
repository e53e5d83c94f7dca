"""Distribution file round-trips and format validation."""

import json

import pytest

from bayesfuse import (
    DiscreteDist,
    DistFamily,
    FileFormatError,
    GridDensity,
    discretize,
    load_distribution,
    save_distribution,
)


class TestRoundTrips:
    def test_discrete_round_trip_is_exact(self, tmp_path):
        original = DiscreteDist((("-1.5", 0.1), ("0", 0.7), ("2", 0.2)))
        path = tmp_path / "d.json"
        save_distribution(original, path)
        assert load_distribution(path) == original

    def test_grid_round_trip_is_exact(self, tmp_path):
        original = GridDensity(-0.5, 0.25, (1.0, 1.0, 1.0, 1.0))
        path = tmp_path / "g.json"
        save_distribution(original, path)
        assert load_distribution(path) == original

    def test_awkward_floats_survive(self, tmp_path, rng):
        masses = rng.dirichlet([1.0] * 7)
        original = DiscreteDist.from_pairs(zip(range(7), masses))
        path = tmp_path / "r.json"
        save_distribution(original, path)
        loaded = load_distribution(path)
        for (k1, m1), (k2, m2) in zip(original.atoms, loaded.atoms):
            assert k1 == k2 and m1 == m2


class TestLoading:
    def test_numeric_atom_keys_are_canonicalized(self, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(json.dumps({"kind": "discrete", "atoms": [[0.50, 0.5], ["1.0", 0.5]]}))
        loaded = load_distribution(path)
        assert loaded.keys == ("0.5", "1")

    def test_family_file_discretizes_onto_its_grid(self, tmp_path):
        path = tmp_path / "f.json"
        payload = {
            "kind": "family",
            "family": "normal",
            "params": {"mean": 0.0, "sd": 1.0},
            "grid": {"origin": -8.0, "delta": 0.01, "cells": 1600},
        }
        path.write_text(json.dumps(payload))
        loaded = load_distribution(path)
        direct = discretize(DistFamily.normal(0.0, 1.0), (-8.0, 0.01, 1600))
        assert loaded == direct

    def test_family_file_requires_a_grid(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "family", "family": "normal", "params": {"mean": 0, "sd": 1}}))
        with pytest.raises(FileFormatError):
            load_distribution(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(FileFormatError):
            load_distribution(path)

    def test_unknown_family(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(
            json.dumps({"kind": "family", "family": "cauchy", "params": {}, "grid": {}})
        )
        with pytest.raises(FileFormatError):
            load_distribution(path)

    @pytest.mark.parametrize("params", [[0.0, 1.0], None, "mean=0"])
    def test_family_params_must_be_an_object(self, tmp_path, params):
        path = tmp_path / "p.json"
        grid = {"origin": -8.0, "delta": 0.01, "cells": 1600}
        path.write_text(
            json.dumps({"kind": "family", "family": "normal", "params": params, "grid": grid})
        )
        with pytest.raises(FileFormatError, match="params must be a JSON object"):
            load_distribution(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(FileFormatError):
            load_distribution(path)

    def test_broken_json(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("{nope")
        with pytest.raises(FileFormatError):
            load_distribution(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            load_distribution(tmp_path / "absent.json")

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "l.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FileFormatError):
            load_distribution(path)
