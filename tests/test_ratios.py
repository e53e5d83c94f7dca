"""Likelihood-ratio profiles and the minimax spread objective."""

import math

import pytest

from bayesfuse import (
    DiscreteDist,
    GridDensity,
    IncompatibleError,
    RatioProfile,
    UnsupportedMassError,
    bayes_posterior,
    check_compatible,
    normalize,
    ratio_profile,
)

TWO_ATOM_PRIOR = DiscreteDist((("0", 0.5), ("1", 0.5)))
TWO_ATOM_LIKE = DiscreteDist((("0", 0.8), ("1", 0.2)))


class TestRatioProfile:
    def test_product_rule_has_constant_ratios(self, corpus):
        """Every ratio equals the reciprocal overlap mass, so the spread is zero."""
        for prior, like in corpus:
            post = bayes_posterior(prior, like)
            profile = ratio_profile(post, prior, like)
            reciprocal = 1.0 / check_compatible(prior, like).overlap_mass
            for _, ratio in profile.entries:
                assert ratio == pytest.approx(reciprocal, rel=1e-12)
            assert profile.spread <= 1e-12

    def test_hand_computed_ratios(self):
        profile = ratio_profile(TWO_ATOM_PRIOR, TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        # candidate mass / (prior * likelihood): 0.5/0.4 and 0.5/0.1
        assert profile.entries == (("0", 1.25), ("1", 5.0))
        assert profile.spread == 3.75

    def test_single_atom_universe(self):
        point = DiscreteDist((("3", 1.0),))
        assert ratio_profile(point, point, point).spread == 0.0

    def test_candidate_off_the_joint_support_is_rejected(self):
        stray = DiscreteDist((("0", 0.5), ("7", 0.5)))
        with pytest.raises(UnsupportedMassError):
            ratio_profile(stray, TWO_ATOM_PRIOR, TWO_ATOM_LIKE)

    def test_incompatible_pair_raises(self):
        far = DiscreteDist((("2", 0.5), ("3", 0.5)))
        with pytest.raises(IncompatibleError):
            ratio_profile(TWO_ATOM_PRIOR, TWO_ATOM_PRIOR, far)

    def test_ratio_past_the_float_range_raises(self):
        # p*p is 1e308 and 1e-300, both normal; 5e153 / 1e-300 overflows.
        p = GridDensity(0.0, 1e-154, (1e154, 1e-150))
        q = GridDensity(0.0, 1e-154, (5e153, 5e153))
        assert check_compatible(p, p).compatible
        with pytest.raises(IncompatibleError, match="^candidate-to-product ratio overflows at 1$"):
            ratio_profile(q, p, p)

    def test_profile_invariants_enforced(self):
        assert RatioProfile(entries=(("0", 1.0), ("1", 3.0))).spread == 2.0
        with pytest.raises(ValueError, match="at least one entry"):
            RatioProfile(entries=())
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                RatioProfile(entries=(("0", 1.0), ("1", bad)))


class TestMlrSpread:
    def test_product_rule_spread_is_zero(self, corpus):
        for prior, like in corpus:
            post = bayes_posterior(prior, like)
            assert ratio_profile(post, prior, like).spread <= 1e-12

    def test_perturbations_have_positive_shrinking_spread(self):
        post = bayes_posterior(TWO_ATOM_PRIOR, TWO_ATOM_LIKE).as_dict()
        spreads = []
        for delta in (0.01, 0.001):
            perturbed = DiscreteDist(
                (("0", post["0"] - delta), ("1", post["1"] + delta))
            )
            spread = ratio_profile(perturbed, TWO_ATOM_PRIOR, TWO_ATOM_LIKE).spread
            assert spread > 0.0
            spreads.append(spread)
        assert spreads[1] < spreads[0]

    def test_strictly_positive_away_from_the_product_rule(self, corpus, rng):
        for prior, like in corpus[:20]:
            post = bayes_posterior(prior, like)
            keys = post.keys
            if len(keys) < 2:
                continue
            for _ in range(5):
                i, j = rng.choice(len(keys), size=2, replace=False)
                masses = dict(post.atoms)
                shift = min(1e-3, masses[keys[j]] / 2.0)
                masses[keys[i]] += shift
                masses[keys[j]] -= shift
                candidate = normalize(masses.items())
                assert ratio_profile(candidate, prior, like).spread > 0.0

    def test_invariant_under_relabelling(self):
        """Moving every atom by the same key permutation leaves the spread alone."""
        mapping = {"0": "10", "1": "-4"}

        def relabel(dist):
            return DiscreteDist.from_pairs(
                (mapping[k], m) for k, m in dist.atoms
            )

        candidate = DiscreteDist((("0", 0.3), ("1", 0.7)))
        original = ratio_profile(candidate, TWO_ATOM_PRIOR, TWO_ATOM_LIKE).spread
        relabelled = ratio_profile(
            relabel(candidate), relabel(TWO_ATOM_PRIOR), relabel(TWO_ATOM_LIKE)
        ).spread
        assert relabelled == original
