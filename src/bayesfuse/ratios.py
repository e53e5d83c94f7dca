"""Likelihood-ratio profiles and the minimax-likelihood-ratio (MLR) spread.

For a candidate posterior ``P`` the profile lists, over the joint support
of prior and likelihood, the ratio ``p(x) / (p0(x) * pL(x))`` between the
candidate and the prior-likelihood product.  Its spread (max minus min) is
the MLR objective: the product-rule posterior makes every ratio equal to
the reciprocal overlap mass, so only it reaches spread zero.

The evaluation universe is deliberately the joint support.  Candidates
carrying mass where the product vanishes are rejected rather than given
infinite ratios, which keeps every profile finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combine import _align
from .dists import Distribution
from .errors import UnsupportedMassError


@dataclass(frozen=True)
class RatioProfile:
    """Candidate-to-product ratios over the joint support, plus their spread."""

    entries: tuple[tuple[str, float], ...]
    spread: float

    def __post_init__(self) -> None:
        ratios = [r for _, r in self.entries]
        if any(not math.isfinite(r) or r < 0.0 for r in ratios):
            raise ValueError("ratios must be finite and nonnegative")
        if self.spread != max(ratios) - min(ratios):
            raise ValueError("spread must equal max(ratios) - min(ratios)")


def ratio_profile(
    candidate: Distribution, p0: Distribution, like: Distribution
) -> RatioProfile:
    """Per-atom (or per-cell) ratios of the candidate to the prior-likelihood product.

    Raises :class:`UnsupportedMassError` when the candidate puts mass where
    the product is zero, and :class:`IncompatibleError` when the pair has
    no overlap at all.
    """
    aligned = _align(p0, like, candidate).require_compatible()
    strays = aligned.strays[0]
    if strays:
        raise UnsupportedMassError(f"candidate has mass off the joint support at {strays!r}")
    ratios = [c / (x * y) for c, x, y in zip(aligned.q[0], aligned.u, aligned.v)]
    entries = tuple(zip(map(str, aligned.labels), ratios))
    return RatioProfile(entries, max(ratios) - min(ratios))


def mlr_spread(candidate: Distribution, p0: Distribution, like: Distribution) -> float:
    """Spread of the ratio profile; zero exactly for the product-rule posterior."""
    return ratio_profile(candidate, p0, like).spread
