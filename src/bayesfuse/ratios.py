"""Likelihood-ratio profiles and the minimax-likelihood-ratio (MLR) spread.

For a candidate posterior ``P`` the profile lists, over the joint support
of prior and likelihood, the ratio ``p(x) / (p0(x) * pL(x))`` between the
candidate and the prior-likelihood product.  Its spread (max minus min) is
the MLR objective: the product-rule posterior makes every ratio equal to
the reciprocal overlap mass, so only it reaches spread zero
(Hill, arXiv:1203.0251).

The evaluation universe is deliberately the joint support.  Candidates
carrying mass where the product vanishes are rejected rather than given
infinite ratios, which keeps every profile finite.
"""

from __future__ import annotations

import math
from operator import truediv

from .combine import _align
from .dists import Distribution, _Value
from .errors import IncompatibleError, UnsupportedMassError


class RatioProfile(_Value):
    """Candidate-to-product ratios over the joint support, plus their spread."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a ratio profile needs at least one entry")
        if any(not math.isfinite(r) or r < 0.0 for _, r in self.entries):
            raise ValueError("ratios must be finite and nonnegative")

    @property
    def spread(self) -> float:
        """``max(ratios) - min(ratios)``, the MLR objective."""
        ratios = [r for _, r in self.entries]
        return max(ratios) - min(ratios)


def ratio_profile(
    candidate: Distribution, p0: Distribution, like: Distribution
) -> RatioProfile:
    """Per-atom (or per-cell) ratios of the candidate to the prior-likelihood product.

    Raises :class:`UnsupportedMassError` when the candidate puts mass where
    the product is zero, and :class:`IncompatibleError` when the pair has
    no overlap at all or a ratio overflows.
    """
    aligned = _align(p0, like, candidate).require_compatible()
    strays = aligned.strays
    if strays:
        raise UnsupportedMassError(f"candidate has mass off the joint support at {strays!r}")
    ratios = list(map(truediv, aligned.q, aligned.products(1.0, 1.0)))
    if math.inf in ratios:
        at = aligned.labels[ratios.index(math.inf)]
        raise IncompatibleError(f"candidate-to-product ratio overflows at {at}")
    return RatioProfile(tuple(zip(map(str, aligned.labels), ratios)))
