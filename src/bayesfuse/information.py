"""Shannon information of events and the maximum-information-loss functionals.

The self-information of an event ``A`` under a distribution ``P`` is
``-log2 P(A)`` bits.  Combining a prior and a likelihood charges the sum
of their informations for the same event (independence is assumed), so a
posterior ``P1`` loses

    loss(A) = S_prior(A) + S_likelihood(A) - S_posterior(A)
            = log2 [ P1(A) / (P0(A) * L(A)) ]

bits on ``A``.  ``max_loss`` reports the supremum of this loss over all
nonempty events together with the theoretical lower bound
``log2(1 / sum(p0 * pL))``, which the product-rule posterior attains.

For disjoint events the loss of a union never exceeds the larger of the
two losses, so the supremum is attained on singletons; ``max_loss``
exploits that, while ``max_loss_exhaustive`` enumerates all ``2**n - 1``
events as an independent check of the reduction.  Grid densities are
handled through whole-cell events, i.e. as the discrete functional applied
to cell masses.

Everything here is a pure function over immutable values; the exhaustive
enumeration is a single deterministic pass, so results never depend on how
work would be partitioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .combine import WeightedPair, _align, _joint_terms
from .dists import DiscreteDist, Distribution, GridDensity
from .errors import (
    DegenerateProductError,
    InvalidEventError,
    RepresentationMismatchError,
    TooLargeError,
)

# numpy is imported by the exhaustive enumeration only.
if TYPE_CHECKING:
    import numpy as np

EXHAUSTIVE_MAX_ATOMS = 20

ATTAINMENT_TOL = 1e-9


@dataclass(frozen=True)
class Event:
    """A finite set of atom keys (discrete) or cell indices (grid)."""

    members: frozenset

    def __post_init__(self) -> None:
        if not self.members:
            raise InvalidEventError("an event must contain at least one atom or cell")

    @classmethod
    def of(cls, *members) -> "Event":
        return cls(frozenset(members))


@dataclass(frozen=True)
class LossReport:
    """Value of a maximum-loss functional with its witness and lower bound.

    ``attained`` records whether the value meets the theoretical lower
    bound within ``1e-9`` bits; the value can never fall below the bound.
    """

    value: float
    witness: Event
    lower_bound: float
    attained: bool

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError("a maximum loss cannot be negative")
        if self.value < self.lower_bound - 1e-12:
            raise ValueError("loss value fell below the theoretical lower bound")
        expected = (
            math.isfinite(self.value)
            and abs(self.value - self.lower_bound) <= ATTAINMENT_TOL
        )
        if self.attained != expected:
            raise ValueError("attained flag contradicts value and lower bound")


def _event_prob(dist: Distribution, event: Event) -> float:
    if isinstance(dist, DiscreteDist):
        table = dist.as_dict()
        missing = [m for m in event.members if m not in table]
        if missing:
            raise InvalidEventError(f"unknown atom keys in event: {sorted(missing)!r}")
        prob = math.fsum(table[k] for k in event.members)
    else:
        for m in event.members:
            if not isinstance(m, int) or not 0 <= m < dist.n_cells:
                raise InvalidEventError(f"cell index out of range: {m!r}")
        prob = dist.delta * math.fsum(dist.densities[i] for i in event.members)
    # Subset sums can exceed 1 by a few ulps; probabilities cannot.
    return min(prob, 1.0)


def shannon_info(dist: Distribution, event: Event) -> float:
    """Self-information ``-log2 P(A)`` in bits; ``+inf`` for null events."""
    prob = _event_prob(dist, event)
    if prob == 0.0:
        return math.inf
    if prob == 1.0:
        return 0.0
    return -math.log2(prob)


def combined_info(p0: Distribution, like: Distribution, event: Event) -> float:
    """Information charged by prior and likelihood jointly: ``S_P0(A) + S_L(A)``."""
    return shannon_info(p0, event) + shannon_info(like, event)


def weighted_combined_info(pair: WeightedPair, event: Event) -> float:
    """Weight-normalized combined information ``a * S_P0(A) + b * S_L(A)``.

    The exponents ``(a, b)`` are the weights divided by their maximum, so
    equal weights reduce this exactly to :func:`combined_info`.
    """
    a, b = pair.exponents
    return a * shannon_info(pair.prior, event) + b * shannon_info(
        pair.likelihood, event
    )


def _loss_inputs(p1: Distribution, p0: Distribution, like: Distribution):
    """Joint-support labels, the three cell masses there, and P1's strays."""
    aligned = _align(p0, like, p1).require_compatible()
    u, v, q = aligned.cell_masses()
    return aligned.labels, u, v, q, aligned.strays[0]


def _weighted_bound(u, v, a: float, b: float) -> float:
    normalizer = math.fsum(_joint_terms(u, v, a, b))
    if normalizer == 0.0 or not math.isfinite(normalizer):
        raise DegenerateProductError(
            f"weighted product has total mass {normalizer!r}"
        )
    return -math.log2(normalizer)


def _singleton_max_loss(
    p1: Distribution, p0: Distribution, like: Distribution, a: float, b: float
) -> LossReport:
    labels, u, v, q, strays = _loss_inputs(p1, p0, like)
    lower_bound = _weighted_bound(u, v, a, b)
    if strays:
        return LossReport(math.inf, Event.of(strays[0]), lower_bound, False)
    best_value = -math.inf
    best_label = None
    # Under ties the witness is the smallest atom key (as text) or cell index.
    for i in sorted(range(len(labels)), key=labels.__getitem__):
        if q[i] == 0.0:
            continue
        # Log-space form; identical to the exhaustive formula on singletons
        # and immune to underflow of the mass product.
        value = math.log2(q[i]) - a * math.log2(u[i]) - b * math.log2(v[i])
        if value > best_value:
            best_value = value
            best_label = labels[i]
    value = max(best_value, 0.0)
    attained = abs(value - lower_bound) <= ATTAINMENT_TOL
    return LossReport(value, Event.of(best_label), lower_bound, attained)


def max_loss(p1: Distribution, p0: Distribution, like: Distribution) -> LossReport:
    """Supremum over nonempty events of the information lost by ``p1``.

    Computed as the maximum over singletons of the joint support, which the
    union inequality shows is exact.  The value is ``+inf`` when ``p1``
    carries mass anywhere the prior-likelihood product vanishes.
    """
    return _singleton_max_loss(p1, p0, like, 1.0, 1.0)


def weighted_max_loss(p1: Distribution, pair: WeightedPair) -> LossReport:
    """Maximum loss against the weighted combined information of the pair.

    The lower bound is ``log2`` of the reciprocal of the weighted-product
    normalizer ``sum(p0**a * pL**b)``, attained by the weighted posterior.
    """
    a, b = pair.exponents
    return _singleton_max_loss(p1, pair.prior, pair.likelihood, a, b)


def _subset_sums(values) -> np.ndarray:
    import numpy as np

    sums = np.zeros(1)
    for value in values:
        sums = np.concatenate([sums, sums + value])
    return sums


def _mask_event(mask: int, labels) -> Event:
    return Event(frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1))


def _exhaustive_max_loss(
    p1: Distribution, p0: Distribution, like: Distribution, a: float, b: float
) -> LossReport:
    if isinstance(p0, GridDensity) or isinstance(p1, GridDensity):
        raise RepresentationMismatchError("exhaustive enumeration is defined for discrete inputs")
    labels, u, v, q, strays = _loss_inputs(p1, p0, like)
    n = len(labels)
    if n > EXHAUSTIVE_MAX_ATOMS:
        raise TooLargeError(
            f"joint support has {n} atoms; exhaustive enumeration allows {EXHAUSTIVE_MAX_ATOMS}"
        )
    lower_bound = _weighted_bound(u, v, a, b)
    if strays:
        return LossReport(math.inf, Event.of(strays[0]), lower_bound, False)
    import numpy as np

    prior_sums = _subset_sums(u)[1:]
    like_sums = _subset_sums(v)[1:]
    post_sums = _subset_sums(q)[1:]
    with np.errstate(divide="ignore"):
        losses = np.log2(post_sums) - a * np.log2(prior_sums) - b * np.log2(like_sums)
    best = int(np.argmax(losses))
    value = max(float(losses[best]), 0.0)
    attained = math.isfinite(value) and abs(value - lower_bound) <= ATTAINMENT_TOL
    return LossReport(value, _mask_event(best + 1, labels), lower_bound, attained)


def max_loss_exhaustive(
    p1: DiscreteDist, p0: DiscreteDist, like: DiscreteDist
) -> LossReport:
    """Same contract as :func:`max_loss`, by brute force over all events.

    Enumerates every nonempty subset of the joint support (capped at 20
    atoms) and therefore does not rely on the singleton reduction; it is
    the independent oracle guarding it.
    """
    return _exhaustive_max_loss(p1, p0, like, 1.0, 1.0)


def weighted_max_loss_exhaustive(p1: DiscreteDist, pair: WeightedPair) -> LossReport:
    """Brute-force twin of :func:`weighted_max_loss` over all events."""
    a, b = pair.exponents
    return _exhaustive_max_loss(p1, pair.prior, pair.likelihood, a, b)
