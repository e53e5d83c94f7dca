"""Closed-form conflations as oracles for the grid product rule.

Hill, "Conflations of probability distributions" (Trans. AMS 363, 2011),
gives the conflation of several families in closed form, and the weighted
(log-linear) rule ``p0**a * pL**b`` keeps each family.  Under the exponents
``(a, b) = (w0, wL) / max(w0, wL)``:

* normal: precision ``a/s1**2 + b/s2**2``, mean
  ``(a*m1/s1**2 + b*m2/s2**2) / precision``;
* exponential: rate ``a*r1 + b*r2``;
* geometric: ``1 - p = (1-p1)**a * (1-p2)**b``;
* uniform: the intersection of the two intervals.

At every cell midpoint the weighted product of the two factors' densities
is proportional to the closed form's density, so the posterior of two
discretized factors must equal the discretized closed form up to rounding.
The reference is built from the family parameters alone: it never reads
the product that the library computes.
"""

import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bayesfuse import (
    DistFamily,
    InsufficientCoverageError,
    discretize,
    load_distribution,
    weighted_posterior,
)
from bayesfuse.cli import main

WEIGHTS = st.sampled_from([(1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (0.7, 1.9)])
CELLS = st.integers(600, 8000)
# Cells above this mass are compared one by one.
MASS_FLOOR = 1e-9
RELATIVE_TOL = 1e-12
TV_TOL = 1e-12


def _conflation(f1: DistFamily, f2: DistFamily, w0: float, wL: float) -> DistFamily:
    """Hill's closed form of the conflation ``f1**a * f2**b``."""
    a, b = w0 / max(w0, wL), wL / max(w0, wL)
    if f1.name == "normal":
        (m1, s1), (m2, s2) = f1.values, f2.values
        precision = a / s1**2 + b / s2**2
        mean = (a * m1 / s1**2 + b * m2 / s2**2) / precision
        return DistFamily.normal(mean, 1.0 / math.sqrt(precision))
    if f1.name == "exponential":
        return DistFamily.exponential(a * f1.values[0] + b * f2.values[0])
    if f1.name == "geometric":
        (p1,), (p2,) = f1.values, f2.values
        return DistFamily.geometric(1.0 - (1.0 - p1) ** a * (1.0 - p2) ** b)
    (l1, u1), (l2, u2) = f1.values, f2.values
    return DistFamily.uniform(max(l1, l2), min(u1, u2))


def _discretized(family, grid):
    try:
        return discretize(family, grid)
    except InsufficientCoverageError:
        assume(False)


def _assert_matches(got, want):
    """Relative error on cells above the mass floor, and total variation."""
    assert got.same_grid(want)
    for g, w in zip(got.densities, want.densities):
        if w * want.delta > MASS_FLOOR:
            assert abs(g - w) <= RELATIVE_TOL * w, (g, w)
    tv = 0.5 * want.delta * math.fsum(abs(g - w) for g, w in zip(got.densities, want.densities))
    assert tv <= TV_TOL


def _check(f1, f2, grid, weights):
    want = _discretized(_conflation(f1, f2, *weights), grid)
    got = weighted_posterior(_discretized(f1, grid), _discretized(f2, grid), *weights)
    _assert_matches(got, want)


@st.composite
def normal_pairs(draw):
    """Overlapping normals: sds within a factor 3, means within 5 smaller sds.
    The grid spans both factors' ``margin`` sds, so no joint term underflows."""
    s1 = draw(st.floats(0.1, 10.0))
    s2 = s1 * draw(st.floats(1.0 / 3.0, 3.0))
    m1 = s1 * draw(st.floats(-20.0, 20.0))
    m2 = m1 + min(s1, s2) * draw(st.floats(-5.0, 5.0))
    margin = draw(st.floats(4.8, 7.0))
    lo = min(m1 - margin * s1, m2 - margin * s2)
    hi = max(m1 + margin * s1, m2 + margin * s2)
    cells = draw(CELLS)
    return DistFamily.normal(m1, s1), DistFamily.normal(m2, s2), (lo, (hi - lo) / cells, cells)


@st.composite
def exponential_pairs(draw):
    """Rates within a factor 8; the grid may start below 0."""
    r1 = draw(st.floats(0.05, 20.0))
    r2 = r1 * draw(st.floats(1.0 / 8.0, 8.0))
    span = draw(st.floats(14.0, 22.0)) / min(r1, r2)
    lo = -span * draw(st.sampled_from([0.0, 0.01, 0.2]))
    cells = draw(CELLS)
    return DistFamily.exponential(r1), DistFamily.exponential(r2), (lo, (span - lo) / cells, cells)


@st.composite
def geometric_pairs(draw):
    """Decay rates ``-log(1-p)`` in [0.05, 2.4], within a factor 8; the grid
    may start below the support's start at 1."""
    rate1 = draw(st.floats(0.05, 0.3))
    rate2 = rate1 * draw(st.floats(1.0, 8.0))
    if draw(st.booleans()):
        rate1, rate2 = rate2, rate1
    span = draw(st.floats(14.0, 22.0)) / min(rate1, rate2)
    lo = 1.0 - span * draw(st.sampled_from([0.0, 0.01, 0.2]))
    cells = draw(CELLS)
    return (
        DistFamily.geometric(-math.expm1(-rate1)),
        DistFamily.geometric(-math.expm1(-rate2)),
        (lo, (1.0 + span - lo) / cells, cells),
    )


@st.composite
def uniform_pairs(draw):
    """Intervals inside the grid, whose intersection holds at least two
    midpoints; each bound sits between midpoints, never on one."""
    cells = draw(CELLS)
    origin = draw(st.floats(-50.0, 50.0))
    delta = draw(st.floats(0.001, 1.0))
    cuts = draw(st.lists(st.integers(0, cells - 1), min_size=4, max_size=4, unique=True))
    cuts.sort()
    assume(cuts[1] + 2 <= cuts[2])
    # Cell k's midpoint is origin + (k + 0.5) * delta.
    lower1, lower2, upper1, upper2 = [
        origin + (k + draw(st.floats(0.05, 0.45))) * delta for k in cuts
    ]
    if draw(st.booleans()):
        upper1, upper2 = upper2, upper1
    return (
        DistFamily.uniform(lower1, upper1),
        DistFamily.uniform(lower2, upper2),
        (origin, delta, cells),
    )


@settings(max_examples=40, deadline=None)
@given(pair=normal_pairs(), weights=WEIGHTS)
def test_normal_conflation(pair, weights):
    _check(*pair, weights)


@settings(max_examples=40, deadline=None)
@given(pair=exponential_pairs(), weights=WEIGHTS)
def test_exponential_conflation(pair, weights):
    _check(*pair, weights)


@settings(max_examples=40, deadline=None)
@given(pair=geometric_pairs(), weights=WEIGHTS)
def test_geometric_conflation(pair, weights):
    _check(*pair, weights)


@settings(max_examples=40, deadline=None)
@given(pair=uniform_pairs(), weights=WEIGHTS)
def test_uniform_conflation(pair, weights):
    _check(*pair, weights)


_FAMILY_FILES = {
    "normal": (DistFamily.normal(0.0, 1.0), DistFamily.normal(1.5, 2.0), (-12.0, 0.01, 2400)),
    "exponential": (
        DistFamily.exponential(1.0),
        DistFamily.exponential(0.25),
        (-1.0, 0.025, 2400),
    ),
    "geometric": (DistFamily.geometric(0.3), DistFamily.geometric(0.6), (0.0, 0.05, 1200)),
    "uniform": (
        DistFamily.uniform(-1.03, 2.01),
        DistFamily.uniform(0.52, 4.07),
        (-2.0, 0.05, 140),
    ),
}


@pytest.mark.parametrize("weights", [None, (2.0, 1.0), (0.7, 1.9)])
@pytest.mark.parametrize("name", sorted(_FAMILY_FILES))
def test_posterior_of_family_files(tmp_path, name, weights):
    f1, f2, grid = _FAMILY_FILES[name]
    paths = []
    for role, family in (("prior", f1), ("like", f2)):
        path = tmp_path / f"{role}.json"
        payload = {
            "kind": "family",
            "family": family.name,
            "params": dict(family.params),
            "grid": {"origin": grid[0], "delta": grid[1], "cells": grid[2]},
        }
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    out = tmp_path / "post.json"
    argv = ["posterior", *paths, "--out", str(out)]
    if weights is not None:
        argv += ["--w0", repr(weights[0]), "--wL", repr(weights[1])]
    assert main(argv) == 0
    want = discretize(_conflation(f1, f2, *(weights or (1.0, 1.0))), grid)
    _assert_matches(load_distribution(out), want)
