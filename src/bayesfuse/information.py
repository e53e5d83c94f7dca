"""Shannon information of events and the maximum-information-loss functionals.

The self-information of an event ``A`` under a distribution ``P`` is
``-log2 P(A)`` bits.  Combining a prior and a likelihood charges the sum
of their informations for the same event (independence is assumed), so a
posterior ``P1`` loses

    loss(A) = S_prior(A) + S_likelihood(A) - S_posterior(A)
            = log2 [ P1(A) / (P0(A) * L(A)) ]

bits on ``A``.  ``max_loss`` reports the supremum of this loss over all
nonempty events together with the theoretical lower bound
``log2(1 / sum(p0 * pL))``, which only the product rule attains (Hill,
arXiv:1203.0251).
The bound, like the rest of the conflation's arithmetic, is computed by
the aligned pair of :mod:`bayesfuse.combine`; this module scores events.

For disjoint events the loss of a union never exceeds the larger of the
two losses, so the supremum is attained on singletons; ``max_loss``
exploits that, while ``max_loss_exhaustive`` enumerates all ``2**n - 1``
events as an independent check of the reduction.  Grid densities are
handled through whole-cell events, i.e. as the discrete functional applied
to cell masses.

The trailing weights ``w0, wL`` of each functional charge
``a * S_prior(A) + b * S_likelihood(A)`` with the exponents ``(a, b)`` of
:mod:`bayesfuse.combine`; the bound becomes ``log2(1 / sum(p0**a * pL**b))``.
Equal weights, the default, give the unweighted functional bit for bit.

Everything here is a pure function over immutable values.  The exhaustive
enumeration scores the events in fixed blocks of at most 16384 masks, in
increasing mask order, with the same additions in the same order whatever
the block size, so results do not depend on it and memory stays bounded by
one block.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .combine import _align, _exponents, require_same_representation
from .dists import DiscreteDist, Distribution, GridDensity, _Value
from .errors import (
    InvalidEventError,
    MissingDependencyError,
    RepresentationMismatchError,
    TooLargeError,
)

# numpy is imported by the brute-force oracles only, through _numpy.
if TYPE_CHECKING:
    import numpy as np

EXHAUSTIVE_MAX_ATOMS = 20

# Rows per block of both brute-force oracles, the simplex scan and the
# exhaustive enumeration; the latter uses its largest power of two.
_CHUNK_SIZE = 16384

ATTAINMENT_TOL = 1e-9


class Event(_Value):
    """A finite set of atom keys (discrete) or cell indices (grid)."""

    members: frozenset

    def __post_init__(self) -> None:
        if not self.members:
            raise InvalidEventError("an event must contain at least one atom or cell")

    @classmethod
    def of(cls, *members) -> "Event":
        return cls(frozenset(members))


class LossReport(_Value):
    """Value of a maximum-loss functional with its witness and lower bound.

    The value can never fall below the bound.
    """

    value: float
    witness: Event
    lower_bound: float

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError("a maximum loss cannot be negative")
        if self.value < self.lower_bound - 1e-12:
            raise ValueError("loss value fell below the theoretical lower bound")

    @property
    def attained(self) -> bool:
        """Whether the value meets the theoretical lower bound within ``1e-9`` bits."""
        return math.isfinite(self.value) and abs(self.value - self.lower_bound) <= ATTAINMENT_TOL


def _event_prob(dist: Distribution, event: Event) -> float:
    if isinstance(dist, DiscreteDist):
        table = dist.as_dict()
        missing = [m for m in event.members if m not in table]
        if missing:
            raise InvalidEventError(f"unknown atom keys in event: {sorted(missing, key=str)!r}")
        prob = math.fsum(table[k] for k in event.members)
    else:
        for m in event.members:
            if isinstance(m, bool) or not isinstance(m, int) or not 0 <= m < dist.n_cells:
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


def combined_info(
    p0: Distribution, like: Distribution, event: Event, w0: float = 1.0, wL: float = 1.0
) -> float:
    """Information charged by prior and likelihood jointly, ``a * S_P0(A) + b * S_L(A)``.

    The exponents ``(a, b)`` are the weights divided by their maximum, so
    equal weights, the default, give ``S_P0(A) + S_L(A)``.
    """
    a, b = _exponents(w0, wL)
    require_same_representation(p0, like)
    return a * shannon_info(p0, event) + b * shannon_info(like, event)


def max_loss(
    p1: Distribution, p0: Distribution, like: Distribution, w0: float = 1.0, wL: float = 1.0
) -> LossReport:
    """Supremum over nonempty events of the information lost by ``p1``,
    against :func:`combined_info` with the same weights.

    Computed as the maximum over singletons of the joint support, which the
    union inequality shows is exact.  The value is ``+inf`` when ``p1``
    carries mass anywhere the prior-likelihood product vanishes.  The lower
    bound ``-log2 sum(p0**a * pL**b)`` is attained by the weighted posterior.
    """
    a, b = _exponents(w0, wL)
    aligned = _align(p0, like, p1).require_compatible()
    labels, (u, v, q) = aligned.labels, aligned.cell_masses()
    lower_bound = aligned.bound(a, b)
    if aligned.strays:
        return LossReport(math.inf, Event.of(aligned.strays[0]), lower_bound)
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
    return LossReport(max(best_value, 0.0), Event.of(best_label), lower_bound)


def _numpy():
    """The numpy module, which only the brute-force oracles need; without it,
    a :class:`MissingDependencyError` names the extra that installs it."""
    try:
        import numpy
    except ModuleNotFoundError as exc:
        raise MissingDependencyError(
            "the brute-force oracles need numpy, which is not installed: "
            "pip install 'bayesfuse[oracles]'"
        ) from exc
    return numpy


def _subset_sums(values) -> np.ndarray:
    np = _numpy()
    sums = np.zeros(1)
    for value in values:
        sums = np.concatenate([sums, sums + value])
    return sums


def _block_sums(low_sums: np.ndarray, high_values, high: int) -> np.ndarray:
    for i, value in enumerate(high_values):
        if high >> i & 1:
            low_sums = low_sums + value
    return low_sums


def _mask_event(mask: int, labels) -> Event:
    return Event(frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1))


def max_loss_exhaustive(
    p1: DiscreteDist, p0: DiscreteDist, like: DiscreteDist, w0: float = 1.0, wL: float = 1.0
) -> LossReport:
    """Same contract as :func:`max_loss`, by brute force over all events.

    Enumerates every nonempty subset of the joint support (capped at 20
    atoms) and therefore does not rely on the singleton reduction; it is
    the independent oracle guarding it.
    """
    a, b = _exponents(w0, wL)
    if isinstance(p0, GridDensity) or isinstance(p1, GridDensity):
        raise RepresentationMismatchError("exhaustive enumeration is defined for discrete inputs")
    aligned = _align(p0, like, p1).require_compatible()
    labels, (u, v, q) = aligned.labels, aligned.cell_masses()
    n = len(labels)
    if n > EXHAUSTIVE_MAX_ATOMS:
        raise TooLargeError(
            f"joint support has {n} atoms; exhaustive enumeration allows {EXHAUSTIVE_MAX_ATOMS}"
        )
    lower_bound = aligned.bound(a, b)
    if aligned.strays:
        return LossReport(math.inf, Event.of(aligned.strays[0]), lower_bound)
    np = _numpy()
    # A block holds the 2**low masks that share their high bits: the subset
    # sums of the low atoms plus the block's high atoms, added one at a time
    # in index order as _subset_sums adds them, so every sum keeps its bits.
    # Blocks run in increasing mask order and a later maximum must be strictly
    # larger, so the witness is the lowest mask, as np.argmax gives.
    low = min(n, _CHUNK_SIZE.bit_length() - 1)
    low_sums = [_subset_sums(x[:low]) for x in (u, v, q)]
    best_value, best_mask = -math.inf, 1
    for high in range(1 << (n - low)):
        first = 1 if high == 0 else 0  # mask 0 is the empty event
        prior_sums, like_sums, post_sums = (
            _block_sums(sums, x[low:], high)[first:] for sums, x in zip(low_sums, (u, v, q))
        )
        with np.errstate(divide="ignore"):
            losses = np.log2(post_sums) - a * np.log2(prior_sums) - b * np.log2(like_sums)
        best = int(np.argmax(losses))
        if losses[best] > best_value:
            best_value, best_mask = float(losses[best]), (high << low) + first + best
    return LossReport(max(best_value, 0.0), _mask_event(best_mask, labels), lower_bound)
