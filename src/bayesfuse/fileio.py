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
from pathlib import Path

from .dists import DiscreteDist, Distribution, DistFamily, GridDensity, discretize
from .errors import BayesfuseError, FileFormatError


def payload_to_distribution(payload) -> Distribution:
    """Turn a parsed JSON payload into a distribution value."""
    if not isinstance(payload, dict):
        raise FileFormatError("distribution file must hold a JSON object")
    kind = payload.get("kind")
    try:
        if kind == "discrete":
            atoms = payload["atoms"]
            return DiscreteDist.from_pairs(
                (key, float(mass)) for key, mass in atoms
            )
        if kind == "grid":
            return GridDensity(
                float(payload["origin"]),
                float(payload["delta"]),
                tuple(float(v) for v in payload["densities"]),
            )
        if kind == "family":
            if not isinstance(payload.get("params"), dict):
                raise FileFormatError("family params must be a JSON object")
            family = DistFamily.from_params(payload["family"], payload["params"])
            grid = payload["grid"]
            return discretize(
                family,
                (float(grid["origin"]), float(grid["delta"]), int(grid["cells"])),
            )
    except BayesfuseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed {kind!r} distribution: {exc}") from exc
    raise FileFormatError(f"unknown distribution kind {kind!r}")


def distribution_to_payload(dist: Distribution) -> dict:
    if isinstance(dist, DiscreteDist):
        return {"kind": "discrete", "atoms": [[k, m] for k, m in dist.atoms]}
    return {
        "kind": "grid",
        "origin": dist.origin,
        "delta": dist.delta,
        "densities": list(dist.densities),
    }


def load_distribution(path: str | Path, data: bytes | None = None) -> Distribution:
    """Parse the distribution file at ``path``.

    Pass ``data`` when the caller has already read the file, so that the
    bytes parsed are the bytes it read (and, say, hashed); ``path`` then
    only names the file in error messages.
    """
    if data is None:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path} is not valid UTF-8 JSON: {exc}") from exc
    return payload_to_distribution(payload)


def save_distribution(dist: Distribution, path: str | Path) -> None:
    payload = distribution_to_payload(dist)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
