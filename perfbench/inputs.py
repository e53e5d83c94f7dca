"""Seeded input files for the three benchmark workloads.

Everything here is a pure function of the seed: the same seed writes the
same bytes.  Each generator returns a ``Case`` with the file paths the
workload's CLI calls read and the exact float masses that were written, so
the output checks can recompute every expected value in numpy without going
through the package under test.

Masses are drawn from ``uniform(0.5, 1.5)`` before normalization, so every
atom and every pair product is bounded away from zero and every operation
in the workloads succeeds on valid code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Verify workload: a 5-atom joint support that is a strict subset of the
# union, scanned at K = 50, and a 20-atom pair for the exhaustive oracle.
VERIFY_SHARED = 5
VERIFY_ONLY = 2
VERIFY_K = 50
EXHAUSTIVE_ATOMS = 20

# Conflate workload: atoms per side; the second half of the prior's
# positions are the first half of the likelihood's.
CONFLATE_ATOMS = 20_000

# Grid workload: two gridded normals, and two disjoint discrete files
# smoothed onto one shared grid.
GRID_ORIGIN = -12.0
GRID_DELTA = 4e-4
GRID_CELLS = 60_000
SMOOTH_ATOMS = 80
SMOOTH_EPSILON = 2.5
SMOOTH_DELTA = 0.01
SMOOTH_ORIGIN = -5.0
SMOOTH_CELLS = 8_500

# Minimum sizes for the smoke check.
SMOKE_SIZES = {
    "verify_K": 6,
    "exhaustive_atoms": 6,
    "conflate_atoms": 40,
    "grid_cells": 2_000,
    "grid_delta": 0.012,
    "smooth_atoms": 4,
    "smooth_cells": 240,
    "smooth_delta": 0.5,
}


def quarter_key(index: int) -> str:
    """Canonical decimal text of the position ``index / 4`` (index >= 0)."""
    whole, part = divmod(index, 4)
    return str(whole) if part == 0 else f"{whole}.{('25', '5', '75')[part - 1]}"


def _noncanonical_key(index: int) -> str:
    whole, part = divmod(index, 4)
    return f"{whole}.{part * 25:02d}0"


def _json_number_key(index: int):
    whole, part = divmod(index, 4)
    return whole if part == 0 else index / 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    # One independent stream per workload; any integer seed is accepted.
    return np.random.default_rng([seed % 2**64, stream])


def _masses(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.uniform(0.5, 1.5, size=n)
    return raw / raw.sum()


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


@dataclass
class DiscreteFile:
    """A discrete distribution file: canonical keys and the masses written."""

    path: Path
    keys: list[str]
    masses: np.ndarray


def write_discrete(
    path: Path, rng: np.random.Generator, indices: np.ndarray, mixed_keys: bool
) -> DiscreteFile:
    """Write atoms at positions ``indices / 4``.

    With ``mixed_keys`` each key is written either as a JSON number or as a
    non-canonical string with trailing zeros, chosen at random; otherwise
    keys are canonical strings.
    """
    masses = _masses(rng, len(indices))
    as_number = rng.random(len(indices)) < 0.5 if mixed_keys else np.zeros(len(indices), bool)
    atoms = []
    for index, mass, number in zip(indices.tolist(), masses.tolist(), as_number.tolist()):
        if not mixed_keys:
            key = quarter_key(index)
        elif number:
            key = _json_number_key(index)
        else:
            key = _noncanonical_key(index)
        atoms.append([key, mass])
    _write(path, {"kind": "discrete", "atoms": atoms})
    return DiscreteFile(path, [quarter_key(i) for i in indices.tolist()], masses)


@dataclass
class GridSpec:
    origin: float
    delta: float
    cells: int


@dataclass
class NormalFile:
    path: Path
    mean: float
    sd: float
    grid: GridSpec


def write_normal(path: Path, mean: float, sd: float, grid: GridSpec) -> NormalFile:
    _write(
        path,
        {
            "kind": "family",
            "family": "normal",
            "params": {"mean": mean, "sd": sd},
            "grid": {"origin": grid.origin, "delta": grid.delta, "cells": grid.cells},
        },
    )
    return NormalFile(path, mean, sd, grid)


@dataclass
class Case:
    """The files of one workload plus its sizes, for the results file."""

    files: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


def make_verify(workdir: Path, seed: int, smoke: bool = False) -> Case:
    rng = _rng(seed, 1)
    K = SMOKE_SIZES["verify_K"] if smoke else VERIFY_K
    n_exh = SMOKE_SIZES["exhaustive_atoms"] if smoke else EXHAUSTIVE_ATOMS
    # 5 shared positions plus 2 private ones per side, so the joint support
    # is a strict subset of the union.
    slots = rng.permutation(40)[: VERIFY_SHARED + 2 * VERIFY_ONLY]
    shared = slots[:VERIFY_SHARED]
    prior_idx = np.sort(np.concatenate([shared, slots[VERIFY_SHARED : VERIFY_SHARED + VERIFY_ONLY]]))
    like_idx = np.sort(np.concatenate([shared, slots[VERIFY_SHARED + VERIFY_ONLY :]]))
    case = Case()
    case.files["prior"] = write_discrete(workdir / "v_prior.json", rng, prior_idx, False)
    case.files["likelihood"] = write_discrete(workdir / "v_like.json", rng, like_idx, False)
    # Exhaustive pair: both sides on the same n_exh atoms, and a candidate
    # posterior that is not the product rule, so the oracle has work to do.
    exh_idx = np.arange(n_exh) * 3
    case.files["exh_prior"] = write_discrete(workdir / "e_prior.json", rng, exh_idx, False)
    case.files["exh_likelihood"] = write_discrete(workdir / "e_like.json", rng, exh_idx, False)
    case.files["exh_candidate"] = write_discrete(workdir / "e_cand.json", rng, exh_idx, False)
    case.sizes = {
        "K": K,
        "joint_atoms": VERIFY_SHARED,
        "union_atoms": VERIFY_SHARED + 2 * VERIFY_ONLY,
        "grid_points": math.comb(K + VERIFY_SHARED - 1, VERIFY_SHARED - 1),
        "exhaustive_atoms": n_exh,
        "exhaustive_events": 2**n_exh - 1,
    }
    return case


def make_conflate(workdir: Path, seed: int, smoke: bool = False) -> Case:
    rng = _rng(seed, 2)
    n = SMOKE_SIZES["conflate_atoms"] if smoke else CONFLATE_ATOMS
    # Positions are spread over a lattice four times wider than the support
    # so both files hold scattered, not consecutive, keys.
    lattice = rng.choice(4 * (n + n // 2), size=n + n // 2, replace=False)
    prior_idx = np.sort(lattice[:n])
    like_idx = np.sort(lattice[n // 2 :])
    case = Case()
    case.files["prior"] = write_discrete(workdir / "c_prior.json", rng, prior_idx, True)
    case.files["likelihood"] = write_discrete(workdir / "c_like.json", rng, like_idx, True)
    case.sizes = {
        "prior_atoms": n,
        "likelihood_atoms": n,
        "joint_atoms": n - n // 2,
        "key_encoding": "mixed JSON numbers and non-canonical strings",
    }
    return case


def make_grid(workdir: Path, seed: int, smoke: bool = False) -> Case:
    rng = _rng(seed, 3)
    if smoke:
        grid = GridSpec(GRID_ORIGIN, SMOKE_SIZES["grid_delta"], SMOKE_SIZES["grid_cells"])
        m_atoms = SMOKE_SIZES["smooth_atoms"]
        s_delta, s_cells = SMOKE_SIZES["smooth_delta"], SMOKE_SIZES["smooth_cells"]
    else:
        grid = GridSpec(GRID_ORIGIN, GRID_DELTA, GRID_CELLS)
        m_atoms = SMOOTH_ATOMS
        s_delta, s_cells = SMOOTH_DELTA, SMOOTH_CELLS
    case = Case()
    means = rng.uniform(-1.0, 1.0, size=2)
    sds = rng.uniform(1.0, 1.5, size=2)
    case.files["prior"] = write_normal(workdir / "g_prior.json", float(means[0]), float(sds[0]), grid)
    case.files["likelihood"] = write_normal(
        workdir / "g_like.json", float(means[1]), float(sds[1]), grid
    )
    # Two disjoint discrete files on the quarter lattice of [0, 75).
    slots = rng.permutation(300)[: 2 * m_atoms]
    case.files["smooth_a"] = write_discrete(workdir / "s_a.json", rng, np.sort(slots[:m_atoms]), False)
    case.files["smooth_b"] = write_discrete(workdir / "s_b.json", rng, np.sort(slots[m_atoms:]), False)
    case.files["smooth_grid"] = GridSpec(SMOOTH_ORIGIN, s_delta, s_cells)
    case.sizes = {
        "grid_cells": grid.cells,
        "grid_delta": grid.delta,
        "smooth_atoms_per_file": m_atoms,
        "smooth_cells": s_cells,
        "smooth_epsilon": SMOOTH_EPSILON,
        "smooth_delta": s_delta,
    }
    return case


MAKERS = {
    "verify": make_verify,
    "conflate-discrete": make_conflate,
    "grid-smooth": make_grid,
}
