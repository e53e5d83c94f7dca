"""Rules for combining a prior and a likelihood into a single posterior.

The product rule (``bayes_posterior``) and its weighted generalization
(``weighted_posterior``) are the distinguished combiners: they are the ones
whose optimality the :mod:`bayesfuse.information`, :mod:`bayesfuse.ratios`
and :mod:`bayesfuse.search` modules measure and verify.  ``linear_pool``
is the naive baseline they are compared against.  The product rule is the
conflation of Hill, "Bayesian posteriors without Bayes' theorem"
(arXiv:1203.0251), whose closed forms on named families are in Hill, Trans.
AMS 363 (2011); the weighted rule is log-linear pooling (Genest, McConway &
Schervish, Ann. Statist. 14, 1986).

Weights are plain ``w0, wL`` arguments; ``_exponents`` checks them and
divides them by their maximum, so equal weights give the product rule.

Discrete combiners operate on the *joint support* -- atoms whose keys
appear in both inputs with a strictly positive mass product.  Posterior
atoms outside the joint support would carry mass zero and are omitted.
A joint term of the product that is subnormal raises
:class:`IncompatibleError`, since the float arithmetic over it has lost
precision.

The aligned pair ``_Aligned`` owns the conflation's arithmetic: the overlap,
the compatibility rule, the subnormal test, the product terms and the loss
bound ``-log2 sum(p0**a * pL**b)`` that :mod:`bayesfuse.information` reports.
"""

from __future__ import annotations

import math
import sys
from itertools import compress
from operator import mul
from typing import Iterator, NamedTuple

from .dists import DiscreteDist, Distribution, GridDensity, _ascending, _fsum, _unit_mass, _Value
from .errors import (
    DegenerateProductError,
    IncompatibleError,
    InvalidArgumentError,
    RepresentationMismatchError,
)

_MIN_NORMAL = sys.float_info.min


def _exponents(w0: float, wL: float) -> tuple[float, float]:
    """``(w0/max, wL/max)`` for positive finite weights.

    Raises :class:`InvalidArgumentError` for any other weight, and when the
    smaller exponent is below the normal range, where a positive weight
    would act as zero.
    """
    if not (math.isfinite(w0) and w0 > 0.0):
        raise InvalidArgumentError(f"prior weight must be positive, got {w0!r}")
    if not (math.isfinite(wL) and wL > 0.0):
        raise InvalidArgumentError(f"likelihood weight must be positive, got {wL!r}")
    top = max(w0, wL)
    a, b = w0 / top, wL / top
    if min(a, b) < _MIN_NORMAL:
        raise InvalidArgumentError(f"weight ratio {w0!r} : {wL!r} is past the float range")
    return a, b


def _compatible(mass: float) -> bool:
    """The compatibility rule: a positive, finite overlap (or product total)."""
    return 0.0 < mass < math.inf


class CompatibilityReport(_Value):
    """Outcome of the overlap test between a prior and a likelihood."""

    overlap_mass: float

    def __post_init__(self) -> None:
        if self.overlap_mass < 0.0:
            raise ValueError("overlap mass cannot be negative")

    @property
    def compatible(self) -> bool:
        return _compatible(self.overlap_mass)


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


def _first_subnormal(terms: list[float]) -> int | None:
    """Position of the first term below the normal range, or ``None``."""
    if min(terms, default=_MIN_NORMAL) >= _MIN_NORMAL:
        return None
    return next(i for i, w in enumerate(terms) if w < _MIN_NORMAL)


class _Aligned(NamedTuple):
    """A prior and a likelihood aligned on their joint support.

    ``labels`` are atom keys or cell indices.  ``u``, ``v`` and ``q`` (the
    candidate's, empty without one) hold raw masses or densities on the
    labels, so cell masses are ``scale`` times them.  ``strays`` lists the
    labels off the joint support where the candidate is positive, sorted
    (atom keys as text, cells by index).  ``overlap`` is the cell-mass sum
    of ``u*v``.
    """

    labels: tuple[str, ...] | tuple[int, ...]
    scale: float
    u: list[float]
    v: list[float]
    q: list[float]
    strays: list
    overlap: float

    def require_compatible(self) -> "_Aligned":
        if not _compatible(self.overlap):
            raise IncompatibleError(
                f"prior and likelihood are not compatible (overlap mass {self.overlap!r})"
            )
        return self

    def products(self, a: float, b: float) -> list[float]:
        """The joint terms ``u**a * v**b``.

        A subnormal term raises :class:`IncompatibleError` naming its label:
        it has lost precision, so a posterior normalized over it can miss
        unit mass, and a ratio to it can overflow.
        """
        values = list(_joint_terms(self.u, self.v, a, b))
        i = _first_subnormal(values)
        if i is not None:
            raise IncompatibleError(f"prior-likelihood product underflows at {self.labels[i]}")
        return values

    def bound(self, a: float, b: float) -> float:
        """The loss bound ``-log2 sum(u**a * v**b)`` over cell masses, for a
        compatible pair.  When a term is subnormal, and so has lost bits, the
        terms are summed scaled by the largest ``a*log2(u) + b*log2(v)``.
        The mass tolerance lets the sum exceed 1; no loss is negative, so
        the bound is clamped at 0."""
        u, v, _ = self.cell_masses()
        terms = list(_joint_terms(u, v, a, b))
        if _first_subnormal(terms) is None:
            return max(0.0, -math.log2(math.fsum(terms)))
        logs = [a * math.log2(x) + b * math.log2(y) for x, y in zip(u, v)]
        top = max(logs)
        return max(0.0, -(top + math.log2(math.fsum(2.0 ** (w - top) for w in logs))))

    def cell_masses(self) -> tuple[list[float], ...]:
        """``u``, ``v`` and ``q`` as cell masses, ``scale`` times them."""
        return tuple([self.scale * x for x in row] for row in (self.u, self.v, self.q))


def _align(
    p0: Distribution, like: Distribution, candidate: Distribution | None = None
) -> _Aligned:
    """Align the pair, and the candidate if one is given, on the joint support.

    The joint support is where the float product of the two masses (or
    densities) is positive; the overlap is the cell-mass sum of that product.
    """
    require_same_representation(p0, like)
    if candidate is not None:
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
    if candidate is None:
        q, strays = [], []
    elif discrete:
        inside = set(labels)
        q = _on_keys(candidate, labels)
        strays = sorted(k for k, m in candidate.atoms if m > 0.0 and k not in inside)
    else:
        q = list(compress(candidate.densities, joint))
        strays = [i for i, m, j in zip(positions, candidate.densities, joint) if m > 0.0 and not j]
    u, v = list(compress(u, joint)), list(compress(v, joint))
    overlap = scale * _fsum(map(mul, u, v))
    return _Aligned(labels, scale, u, v, q, strays, overlap)


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
    return CompatibilityReport(_align(p0, like).overlap)


def _product(p0: Distribution, aligned: _Aligned, a: float, b: float) -> Distribution:
    """The normalized product ``p0**a * pL**b`` on the joint support.

    It owns the ranking of errors: equal exponents test compatibility
    first, unequal ones last, after testing for a degenerate product.  A
    grid posterior whose total, a density or a cell mass is subnormal has
    lost bits; it raises :class:`IncompatibleError` at the first such cell.
    """
    if a == b:
        aligned.require_compatible()
    values = aligned.products(a, b)
    total = aligned.scale * _fsum(values)
    if not _compatible(total):
        raise DegenerateProductError(f"weighted product has total mass {total!r}")
    if isinstance(p0, DiscreteDist):
        return _unit_mass(aligned.require_compatible().labels, values)
    densities = [0.0] * p0.n_cells
    for i, value in zip(aligned.labels, values):
        densities[i] = value / total
    # Rounding is monotone, so these are the smallest density and cell mass.
    low = min(values) / total
    if min(total, low, p0.delta * low) < _MIN_NORMAL:
        lost = next(
            i
            for i in aligned.labels
            if min(total, densities[i], p0.delta * densities[i]) < _MIN_NORMAL
        )
        raise IncompatibleError(f"prior-likelihood product underflows at {lost}")
    aligned.require_compatible()
    return GridDensity(p0.origin, p0.delta, tuple(densities))


def bayes_posterior(p0: Distribution, like: Distribution) -> Distribution:
    """Posterior proportional to the pointwise prior-likelihood product."""
    return _product(p0, _align(p0, like), 1.0, 1.0)


def weighted_posterior(p0: Distribution, like: Distribution, w0: float, wL: float) -> Distribution:
    """Posterior proportional to ``p0**a * pL**b``, where ``(a, b)`` are the
    positive weights ``(w0, wL)`` divided by their maximum.

    With equal weights the exponents are both 1, and the result and the
    ranking of errors are those of :func:`bayes_posterior`.  With unequal
    weights it raises :class:`DegenerateProductError` when the weighted
    product has zero or infinite total mass, before it tests compatibility.
    """
    a, b = _exponents(w0, wL)
    return _product(p0, _align(p0, like), a, b)


def linear_pool(p0: Distribution, like: Distribution) -> Distribution:
    """Plain average ``(p0 + pL) / 2`` over the union of the supports."""
    require_same_representation(p0, like)
    if isinstance(p0, DiscreteDist):
        p0_masses, like_masses = p0.as_dict(), like.as_dict()
        pooled = {
            key: (p0_masses.get(key, 0.0) + like_masses.get(key, 0.0)) / 2.0
            for key in p0_masses.keys() | like_masses.keys()
        }
        # The keys are canonical already: sorted, not canonicalized again.
        keys = _ascending(key for key, mass in pooled.items() if mass > 0.0)
        return DiscreteDist._trusted(keys, [pooled[key] for key in keys])
    averaged = [(f0 + fl) / 2.0 for f0, fl in zip(p0.densities, like.densities)]
    return GridDensity(p0.origin, p0.delta, tuple(averaged))


def proportionality_check(
    pstar: Distribution, p0: Distribution, like: Distribution, tol: float
) -> bool:
    """Does ``pstar`` reproduce the pairwise mass ratios of the product ``p0*pL``?

    ``pstar`` must put no mass off the joint support.  On it, the ratios are
    tested in cross-multiplied form, ``|p*(a) w(b) - p*(b) w(a)| <= tol``
    with ``w = p0 * pL``, over all pairs of atoms or cells.
    """
    aligned = _align(p0, like, pstar).require_compatible()
    if aligned.strays:
        return False
    entries = list(zip(aligned.q, _joint_terms(aligned.u, aligned.v, 1.0, 1.0)))
    for i, (star_a, w_a) in enumerate(entries):
        for star_b, w_b in entries[i + 1 :]:
            if abs(star_a * w_b - star_b * w_a) > tol:
                return False
    return True
