"""Reading and writing distribution files.

A distribution file is a JSON document whose ``kind`` field selects the
representation:

* ``{"kind": "discrete", "atoms": [[key, mass], ...]}``
* ``{"kind": "grid", "origin": o, "delta": d, "densities": [...]}``
* ``{"kind": "family", "family": name, "params": {...},
   "grid": {"origin": o, "delta": d, "cells": n}}``

Family files are discretized onto their embedded grid at load time, so
every loader returns a concrete :class:`DiscreteDist` or
:class:`GridDensity`.  See ``docs/file-format.md`` for the bit-exact
contract.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .dists import DiscreteDist, Distribution, DistFamily, GridDensity, discretize
from .errors import BayesfuseError, FileFormatError


def _number(value, what: str) -> float:
    """A JSON number as a float; strings and booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def _numbers(values: list, what: str) -> tuple[float, ...]:
    """A JSON array of numbers as floats; one pass over the types clears it."""
    if set(map(type, values)) <= {int, float}:
        return tuple(map(float, values))
    return tuple(_number(v, what) for v in values)


def _atoms(atoms: list) -> zip:
    """The (key, mass) pairs of a discrete file; keys may not be booleans."""
    keys = [key for key, _ in atoms]
    if bool in set(map(type, keys)):
        bad = next(key for key in keys if isinstance(key, bool))
        raise TypeError(f"atom key must be a JSON string or number, got {bad!r}")
    return zip(keys, _numbers([mass for _, mass in atoms], "mass"))


def payload_to_distribution(payload) -> Distribution:
    """Turn a parsed JSON payload into a distribution value."""
    if not isinstance(payload, dict):
        raise FileFormatError("distribution file must hold a JSON object")
    kind = payload.get("kind")
    try:
        if kind == "discrete":
            return DiscreteDist.from_pairs(_atoms(payload["atoms"]))
        if kind == "grid":
            return GridDensity(
                _number(payload["origin"], "origin"),
                _number(payload["delta"], "delta"),
                _numbers(payload["densities"], "density"),
            )
        if kind == "family":
            params = payload.get("params")
            if not isinstance(params, dict):
                raise FileFormatError("family params must be a JSON object")
            family = DistFamily.from_params(
                payload["family"], {k: _number(v, k) for k, v in params.items()}
            )
            grid = payload["grid"]
            cells = grid["cells"]
            if isinstance(cells, bool) or not isinstance(cells, int):
                raise TypeError(f"cells must be a JSON integer, got {cells!r}")
            return discretize(
                family,
                (_number(grid["origin"], "origin"), _number(grid["delta"], "delta"), cells),
            )
    except BayesfuseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a JSON integer past the float range.
        raise FileFormatError(f"malformed {kind!r} distribution: {exc}") from exc
    raise FileFormatError(f"unknown distribution kind {kind!r}")


def load_distribution(path: str | Path, data: bytes | None = None) -> Distribution:
    """Parse the distribution file at ``path``.

    Pass ``data`` when the caller has already read the file, so that the
    bytes parsed are the bytes it read (and, say, hashed); ``path`` then
    only names the file in error messages.  Anything that cannot be read
    or parsed raises :class:`FileFormatError` as ``"<path>: <cause>"``,
    with the cause chained.
    """
    try:
        if data is None:
            data = Path(path).read_bytes()
        return payload_to_distribution(json.loads(data.decode("utf-8")))
    except (BayesfuseError, OSError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _json_number(value) -> str:
    """A number as json writes it: a float, subclasses included, with
    ``float.__repr__``, and anything else through ``json.dumps``."""
    return float.__repr__(value) if isinstance(value, float) else json.dumps(value)


def _indented_json(dist: Distribution) -> str:
    """``json.dumps(payload, indent=2)`` of the payload that
    ``docs/file-format.md`` (Written files) defines, built directly.

    With ``indent`` json encodes in pure Python, one call per value; the
    layout of a payload is fixed, so it is written out here instead.
    Keys are always strings, which json writes with
    ``encode_basestring_ascii``.
    """
    if isinstance(dist, DiscreteDist):
        atoms = ",\n".join(
            f"    [\n      {encode_basestring_ascii(key)},\n      {_json_number(mass)}\n    ]"
            for key, mass in dist.atoms
        )
        return f'{{\n  "kind": "discrete",\n  "atoms": [\n{atoms}\n  ]\n}}'
    densities = ",\n    ".join(map(_json_number, dist.densities))
    return (
        f'{{\n  "kind": "grid",\n  "origin": {_json_number(dist.origin)},'
        f'\n  "delta": {_json_number(dist.delta)},\n  "densities": [\n    {densities}\n  ]\n}}'
    )


def save_distribution(dist: Distribution, path: str | Path) -> None:
    """Write ``dist`` in the layout of ``docs/file-format.md`` (Written files):
    ``json.dumps(payload, indent=2)`` and a newline."""
    Path(path).write_text(_indented_json(dist) + "\n", encoding="utf-8")
