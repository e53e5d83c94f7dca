"""The paper's other claims as properties over drawn pairs, discrete and grid.

Hill, "Bayesian posteriors without Bayes' theorem" (arXiv:1203.0251): the
product rule is symmetric in the prior and the likelihood, its posterior is
proportional to the product ``p0 * pL``, and no other posterior on the joint
support loses less Shannon information or has a smaller likelihood-ratio
spread.  The fixed corpus of the acceptance tests checks the last two; here
Hypothesis draws the pairs and the candidates.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bayesfuse import (
    BayesfuseError,
    DiscreteDist,
    GridDensity,
    InvalidArgumentError,
    bayes_posterior,
    max_loss,
    normalize,
    proportionality_check,
    ratio_profile,
    weighted_posterior,
)

KEYS = range(6)

# Masses from 1 down to 1e-200, with zeros, so that joint terms can fall off
# the support or below the normal range.
extreme_mass = st.one_of(
    st.just(0.0),
    st.floats(0.01, 1.0),
    st.builds(lambda m, e: m * 10.0**-e, st.floats(1.0, 9.0), st.integers(0, 200)),
)
# Masses down to 1e-60: every joint term of the drawn weights stays normal.
moderate_mass = st.one_of(
    st.just(0.0),
    st.floats(0.01, 1.0),
    st.builds(lambda m, e: m * 10.0**-e, st.floats(1.0, 9.0), st.integers(0, 60)),
)
weights = st.sampled_from([1.0, 2.0, 3.0, 0.5, 0.7, 1.9, 1e-300, 1e300, 0.0, -1.0, math.inf])
fair_weights = st.sampled_from([(1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (0.7, 1.9)])
grids = st.tuples(st.sampled_from([0.0, -2.5]), st.sampled_from([1e-3, 0.25, 1.0, 3.0]))


@st.composite
def pairs(draw, mass):
    """A prior and a likelihood of one representation, each with some mass."""
    if draw(st.booleans()):
        sides = [draw(st.lists(mass, min_size=len(KEYS), max_size=len(KEYS))) for _ in "pl"]
        assume(all(max(side) > 0.0 for side in sides))
        return tuple(normalize(zip(KEYS, side)) for side in sides)
    origin, delta = draw(grids)
    cells = draw(st.integers(1, 6))
    sides = [draw(st.lists(mass, min_size=cells, max_size=cells)) for _ in "pl"]
    assume(all(max(side) > 0.0 for side in sides))
    return tuple(GridDensity.from_values(origin, delta, side) for side in sides)


def _values(dist):
    """Masses on ``KEYS`` or cell densities, 0.0 where there is none."""
    if isinstance(dist, DiscreteDist):
        table = dist.as_dict()
        return [table.get(str(key), 0.0) for key in KEYS]
    return list(dist.densities)


def _like(dist, values):
    """A distribution of ``dist``'s representation (and grid) with ``values``."""
    if isinstance(dist, DiscreteDist):
        return normalize(zip(KEYS, values))
    return GridDensity.from_values(dist.origin, dist.delta, values)


def _outcome(build):
    """The value's repr, whose floats round-trip bit for bit, or the error."""
    try:
        return "ok", repr(build())
    except InvalidArgumentError:
        # A weight error names the argument's role, which the swap changes.
        return InvalidArgumentError, None
    except BayesfuseError as exc:
        return type(exc), str(exc)


def _closed_form(p0, like, w0=1.0, wL=1.0):
    """The posterior of a pair drawn compatible, or a skipped example."""
    try:
        return weighted_posterior(p0, like, w0, wL)
    except BayesfuseError:
        assume(False)


def _candidate(draw, p0, like):
    """A drawn pmf on the joint support of ``p0`` and ``like``."""
    joint = [x * y > 0.0 for x, y in zip(_values(p0), _values(like))]
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=len(joint), max_size=len(joint)))
    raw = [m if on else 0.0 for m, on in zip(raw, joint)]
    assume(max(raw) > 0.0)
    return _like(p0, raw)


@settings(max_examples=300, deadline=None)
@given(pair=pairs(extreme_mass))
def test_the_product_rule_commutes(pair):
    p0, like = pair
    assert _outcome(lambda: bayes_posterior(p0, like)) == _outcome(lambda: bayes_posterior(like, p0))


@settings(max_examples=300, deadline=None)
@given(pair=pairs(extreme_mass), w0=weights, wL=weights)
def test_the_weighted_rule_commutes_with_its_weights(pair, w0, wL):
    p0, like = pair
    assert _outcome(lambda: weighted_posterior(p0, like, w0, wL)) == _outcome(
        lambda: weighted_posterior(like, p0, wL, w0)
    )


@settings(max_examples=150, deadline=None)
@given(pair=pairs(extreme_mass))
def test_proportionality_check_accepts_the_closed_form(pair):
    p0, like = pair
    post = _closed_form(p0, like)
    # The cross products are at most max(post) * max(p0 * pL); allow 1e-12 of that.
    scale = max(_values(post)) * max(x * y for x, y in zip(_values(p0), _values(like)))
    assert proportionality_check(post, p0, like, 1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(pair=pairs(moderate_mass), weights=fair_weights, data=st.data())
def test_no_candidate_loses_less_than_the_closed_form(pair, weights, data):
    p0, like = pair
    post = _closed_form(p0, like, *weights)
    candidate = _candidate(data.draw, p0, like)
    best = max_loss(post, p0, like, *weights).value
    assert max_loss(candidate, p0, like, *weights).value >= best - 1e-9


@settings(max_examples=100, deadline=None)
@given(pair=pairs(moderate_mass), data=st.data())
def test_no_candidate_has_a_smaller_ratio_spread_than_the_closed_form(pair, data):
    p0, like = pair
    post = _closed_form(p0, like)
    candidate = _candidate(data.draw, p0, like)
    # Every ratio of the closed form is 1 / sum(p0 * pL) up to rounding.
    ratios = [q / (x * y) for q, x, y in zip(_values(post), _values(p0), _values(like)) if q]
    spread = ratio_profile(candidate, p0, like).spread
    assert spread >= ratio_profile(post, p0, like).spread - 1e-12 * max(ratios)
