"""Rules for combining a prior and a likelihood into a single posterior.

The product rule (``bayes_posterior``) and its weighted generalization
(``weighted_posterior``) are the distinguished combiners: they are the ones
whose optimality the :mod:`bayesfuse.information`, :mod:`bayesfuse.ratios`
and :mod:`bayesfuse.search` modules measure and verify.  ``linear_pool``
is the naive baseline they are compared against.

Discrete combiners operate on the *joint support* -- atoms whose keys
appear in both inputs with a strictly positive mass product.  Posterior
atoms outside the joint support would carry mass zero and are omitted.
A joint term of the product that is subnormal raises
:class:`IncompatibleError`, since the float arithmetic over it has lost
precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Iterator, NamedTuple

from .dists import DiscreteDist, Distribution, GridDensity, _unit_mass
from .errors import (
    DegenerateProductError,
    IncompatibleError,
    RepresentationMismatchError,
)

_MIN_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class WeightedPair:
    """A prior and a likelihood with strictly positive importance weights."""

    prior: Distribution
    likelihood: Distribution
    w0: float
    wL: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w0) and self.w0 > 0.0):
            raise ValueError(f"prior weight must be positive, got {self.w0!r}")
        if not (math.isfinite(self.wL) and self.wL > 0.0):
            raise ValueError(f"likelihood weight must be positive, got {self.wL!r}")
        require_same_representation(self.prior, self.likelihood)

    @property
    def exponents(self) -> tuple[float, float]:
        """Normalized exponents (w0/max, wL/max); only relative weights matter."""
        top = max(self.w0, self.wL)
        return self.w0 / top, self.wL / top


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of the overlap test between a prior and a likelihood."""

    compatible: bool
    overlap_mass: float

    def __post_init__(self) -> None:
        if self.overlap_mass < 0.0:
            raise ValueError("overlap mass cannot be negative")
        if self.compatible != (0.0 < self.overlap_mass < math.inf):
            raise ValueError("compatible flag contradicts the overlap mass")


def require_same_representation(a: Distribution, b: Distribution) -> None:
    if isinstance(a, DiscreteDist) != isinstance(b, DiscreteDist):
        raise RepresentationMismatchError(
            "cannot mix a discrete distribution with a grid density"
        )
    if isinstance(a, GridDensity) and not a.same_grid(b):
        raise RepresentationMismatchError(
            "grid densities must share origin, cell width and cell count"
        )


def _joint_terms(u, v, a: float, b: float) -> Iterator[float]:
    """The terms ``u**a * v**b``, pointwise over the two lists.

    They are produced lazily, so that a sum over them holds no list.
    """
    if a == b == 1.0:
        # x**1.0 == x: the same bits as the powers, several times faster.
        return map(mul, u, v)
    return (x**a * y**b for x, y in zip(u, v))


class _Aligned(NamedTuple):
    """A prior and a likelihood aligned on their joint support.

    ``labels`` are atom keys or cell indices.  ``u``, ``v`` and each list
    in ``q`` (one per candidate) hold raw masses or densities on the
    labels, so cell masses are ``scale`` times them.  ``strays`` lists, per
    candidate, the labels off the joint support where it is positive,
    sorted (atom keys as text, cells by index).
    """

    labels: tuple[str, ...] | tuple[int, ...]
    scale: float
    u: list[float]
    v: list[float]
    q: tuple[list[float], ...]
    strays: tuple[list, ...]

    @property
    def overlap(self) -> float:
        return self.scale * math.fsum(_joint_terms(self.u, self.v, 1.0, 1.0))

    def require_compatible(self) -> "_Aligned":
        overlap = self.overlap
        if not 0.0 < overlap < math.inf:
            raise IncompatibleError(
                f"prior and likelihood are not compatible (overlap mass {overlap!r})"
            )
        return self

    def products(self, a: float, b: float) -> list[float]:
        """The joint terms ``u**a * v**b``.

        A subnormal term raises :class:`IncompatibleError` naming its label:
        it has lost precision, so a posterior normalized over it can miss
        unit mass, and a ratio to it can overflow.
        """
        values = list(_joint_terms(self.u, self.v, a, b))
        if min(values, default=_MIN_NORMAL) < _MIN_NORMAL:
            label = next(l for l, w in zip(self.labels, values) if w < _MIN_NORMAL)
            raise IncompatibleError(f"prior-likelihood product underflows at {label}")
        return values

    def cell_masses(self) -> tuple[list[float], ...]:
        """``u``, ``v`` and each list in ``q`` as cell masses, ``scale`` times them."""
        return tuple([self.scale * x for x in row] for row in (self.u, self.v, *self.q))


def _align(p0: Distribution, like: Distribution, *candidates: Distribution) -> _Aligned:
    """Align the pair and any candidates on the joint support.

    The joint support is where the float product of the two masses (or
    densities) is positive; the overlap is the cell-mass sum of that product.
    """
    require_same_representation(p0, like)
    for candidate in candidates:
        require_same_representation(candidate, p0)
    discrete = isinstance(p0, DiscreteDist)
    if discrete:
        positions, scale = p0.keys, 1.0
        u, v = p0.masses, _on_keys(like, positions)
    else:
        positions, scale = range(p0.n_cells), p0.delta
        u, v = p0.densities, like.densities
    joint = [x * y > 0.0 for x, y in zip(u, v)]
    labels = tuple(compress(positions, joint))
    if discrete:
        inside = set(labels)
        q = tuple(_on_keys(c, labels) for c in candidates)
        strays = tuple(
            sorted(k for k, m in c.atoms if m > 0.0 and k not in inside) for c in candidates
        )
    else:
        q = tuple(list(compress(c.densities, joint)) for c in candidates)
        strays = tuple(
            [i for i, m, j in zip(positions, c.densities, joint) if m > 0.0 and not j]
            for c in candidates
        )
    return _Aligned(labels, scale, list(compress(u, joint)), list(compress(v, joint)), q, strays)


def _on_keys(dist: DiscreteDist, keys: tuple[str, ...]) -> list[float]:
    """Masses of ``dist`` on ``keys``, 0.0 where it has no atom."""
    table = dist.as_dict()
    return [table.get(key, 0.0) for key in keys]


def joint_support(p0: DiscreteDist, like: DiscreteDist) -> tuple[str, ...]:
    """Atom keys where the product of the prior and likelihood masses is positive."""
    return _align(p0, like).labels


def check_compatible(p0: Distribution, like: Distribution) -> CompatibilityReport:
    """Overlap mass of the pair: sum of mass products or the density-product integral.

    The pair is compatible exactly when the overlap is positive and finite;
    conflation is only defined for compatible pairs.
    """
    overlap = _align(p0, like).overlap
    return CompatibilityReport(compatible=0.0 < overlap < math.inf, overlap_mass=overlap)


def _product(p0: Distribution, aligned: _Aligned, a: float, b: float) -> Distribution:
    """The normalized product ``p0**a * pL**b`` on the joint support."""
    values = aligned.products(a, b)
    total = aligned.scale * math.fsum(values)
    if not 0.0 < total < math.inf:
        raise DegenerateProductError(f"weighted product has total mass {total!r}")
    if isinstance(p0, DiscreteDist):
        return _unit_mass(aligned.labels, values)
    densities = [0.0] * p0.n_cells
    for i, value in zip(aligned.labels, values):
        densities[i] = value / total
    return GridDensity(p0.origin, p0.delta, tuple(densities))


def bayes_posterior(p0: Distribution, like: Distribution) -> Distribution:
    """Posterior proportional to the pointwise prior-likelihood product."""
    return _product(p0, _align(p0, like).require_compatible(), 1.0, 1.0)


def weighted_posterior(pair: WeightedPair) -> Distribution:
    """Posterior proportional to ``p0**a * pL**b`` with normalized exponents.

    With equal weights the exponents are both 1 and the result coincides
    with :func:`bayes_posterior`.  Raises :class:`DegenerateProductError`
    when the weighted product has zero or infinite total mass.
    """
    return _product(pair.prior, _align(pair.prior, pair.likelihood), *pair.exponents)


def linear_pool(p0: Distribution, like: Distribution) -> Distribution:
    """Plain average ``(p0 + pL) / 2`` over the union of the supports."""
    require_same_representation(p0, like)
    if isinstance(p0, DiscreteDist):
        p0_masses = p0.as_dict()
        like_masses = like.as_dict()
        keys = set(p0_masses) | set(like_masses)
        raw = []
        for key in keys:
            mass = (p0_masses.get(key, 0.0) + like_masses.get(key, 0.0)) / 2.0
            if mass > 0.0:
                raw.append((key, mass))
        return DiscreteDist.from_pairs(raw)
    averaged = [(f0 + fl) / 2.0 for f0, fl in zip(p0.densities, like.densities)]
    return GridDensity(p0.origin, p0.delta, tuple(averaged))


def proportionality_check(
    pstar: Distribution, p0: Distribution, like: Distribution, tol: float
) -> bool:
    """Does ``pstar`` reproduce the pairwise mass ratios of the product ``p0*pL``?

    Tested in cross-multiplied form, ``|p*(a) w(b) - p*(b) w(a)| <= tol``
    with ``w = p0 * pL``, over all pairs drawn from the joint support.
    """
    aligned = _align(p0, like, pstar).require_compatible()
    entries = list(zip(aligned.q[0], _joint_terms(aligned.u, aligned.v, 1.0, 1.0)))
    for i, (star_a, w_a) in enumerate(entries):
        for star_b, w_b in entries[i + 1 :]:
            if abs(star_a * w_b - star_b * w_a) > tol:
                return False
    return True
