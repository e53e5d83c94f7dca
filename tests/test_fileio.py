"""Distribution file round-trips and format validation."""

import decimal
import json
import math
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayesfuse import (
    DiscreteDist,
    DistFamily,
    FileFormatError,
    GridDensity,
    canonical_key,
    discretize,
    load_distribution,
    save_distribution,
)


def distribution_to_payload(dist):
    """The JSON payload of a distribution, as ``docs/file-format.md`` defines it;
    written files hold ``json.dumps(payload, indent=2)`` and a newline."""
    if isinstance(dist, DiscreteDist):
        return {"kind": "discrete", "atoms": [[k, m] for k, m in dist.atoms]}
    return {
        "kind": "grid",
        "origin": dist.origin,
        "delta": dist.delta,
        "densities": list(dist.densities),
    }


# Subnormals, -0.0, and floats that need all 17 significant digits; at
# most 0.05, so that eleven of them leave room for a first mass.
_SMALL_MASSES = (
    st.floats(0.0, 1e-300)
    | st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.01, 1 / 30])
    | st.floats(1e-3, 0.05)
)
# Canonical keys of up to 50 significant digits, some past 50 characters.
_KEYS = st.builds(
    lambda digits, shift: canonical_key(Decimal(digits).scaleb(-shift)),
    st.integers(-(10**50) + 1, 10**50 - 1),
    st.integers(0, 60),
)


@st.composite
def _discrete(draw):
    keys = sorted(set(draw(st.lists(_KEYS, min_size=1, max_size=12))), key=Decimal)
    masses = draw(st.lists(_SMALL_MASSES, min_size=len(keys) - 1, max_size=len(keys) - 1))
    return DiscreteDist(tuple(zip(keys, [1.0 - math.fsum(masses), *masses])))


@st.composite
def _grid(draw):
    """Grids built by the library, with int origin, delta and densities mixed in."""
    origin = draw(st.integers(-(10**20), 10**20) | st.floats(-1e6, 1e6))
    if draw(st.booleans()):
        cells = draw(st.integers(1, 8))
        densities = [0] * cells
        densities[draw(st.integers(0, cells - 1))] = 1
        return GridDensity(origin, 1, tuple(densities))
    delta = draw(st.sampled_from([1, 2, 0.25, 0.1, 1e-300]))
    raw = draw(st.lists(_SMALL_MASSES | st.floats(0.0, 1.0), min_size=1, max_size=12))
    grid = GridDensity.from_values(origin, delta, [*raw, 1.0])
    densities = [0 if d == 0.0 and draw(st.booleans()) else d for d in grid.densities]
    return GridDensity(origin, delta, tuple(densities))


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


class TestWriter:
    @settings(deadline=None, max_examples=300)
    @given(_discrete() | _grid())
    @example(DiscreteDist((("-0." + "0" * 48 + "1", -0.0), ("1" * 50, 1.0))))
    @example(GridDensity(0, 1, (1,)))
    def test_bytes_are_json_dumps_of_the_payload(self, tmp_path_factory, dist):
        path = tmp_path_factory.getbasetemp() / "written.json"
        save_distribution(dist, path)
        expected = json.dumps(distribution_to_payload(dist), indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


class TestLoading:
    def test_numeric_atom_keys_are_canonicalized(self, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(json.dumps({"kind": "discrete", "atoms": [[0.50, 0.5], ["1.0", 0.5]]}))
        loaded = load_distribution(path)
        assert loaded.keys == ("0.5", "1")

    def test_a_discrete_file_is_built_by_from_pairs(self, tmp_path, monkeypatch):
        """The loader builds through the public ``from_pairs``, whose span the
        benchmark's tracer times."""
        built = []
        from_pairs = DiscreteDist.from_pairs.__func__

        def spy(cls, pairs):
            built.append(from_pairs(cls, pairs))
            return built[-1]

        monkeypatch.setattr(DiscreteDist, "from_pairs", classmethod(spy))
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"kind": "discrete", "atoms": [["1.50", 0.5], [2, 0.5]]}))
        loaded = load_distribution(path)
        assert len(built) == 1 and built[0] is loaded
        assert loaded.atoms == (("1.5", 0.5), ("2", 0.5))

    def test_plain_keys_load_without_decimal(self, tmp_path, monkeypatch):
        """Canonical, JSON-number and trailing-zero keys take the text path."""

        def refuse(*args):
            raise AssertionError("Decimal used for a plain decimal key")

        monkeypatch.setattr(decimal, "Decimal", refuse)
        atoms = [["-1.5", 0.2], [2, 0.2], [0.75, 0.2], ["12.500", 0.2], ["-0.0", 0.2]]
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"kind": "discrete", "atoms": atoms}))
        assert load_distribution(path).keys == ("-1.5", "0", "0.75", "2", "12.5")

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
